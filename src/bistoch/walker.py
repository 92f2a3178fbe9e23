"""Event-driven simulation of the quenched walk.

The walk is an exact continuous-time Markov chain: at site x it waits an
exponential time with rate sum_k p_k(x), then jumps in direction k with
probability p_k(x) / sum.  No time discretization enters anywhere.

Randomness comes from counter-based Philox streams.  Replica r of a run with
master seed m uses the key (m << 64) | r, so any replica can be reproduced
in isolation.  Each event consumes exactly two uniforms from its replica's
stream, first the holding time, then the direction, which makes the
lockstep engine below bit-compatible with the single-trajectory simulator.
The engine splits the replicas into contiguous ranges, one per worker
process (`worker_count`); since no replica's path depends on another's,
the split changes no output bit.  An environment that has a site of
non-positive total rate is walked in one process.
"""

from __future__ import annotations

import errno
import mmap
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .env import Environment, _generator
from .errors import AbsorbingState
from .torus import check_integer, check_positive, is_integer


# master seeds and replica indices are the two 64-bit words of a replica key
SEED_LIMIT = 1 << 64


def replica_key(master_seed: int, replica: int) -> int:
    """128-bit Philox key for one replica of a seeded run."""
    return ((check_integer(master_seed, "master seed", 0, SEED_LIMIT) << 64)
            | check_integer(replica, "replica index", 0, SEED_LIMIT))


@dataclass
class Trajectory:
    """One quenched walk: jump times, jump directions, and positions."""

    d: int
    L: int
    x0: int
    T: float
    seed: int
    times: np.ndarray        # (m,) jump times, strictly increasing, <= T
    dirs: np.ndarray         # (m,) direction indices
    sites: np.ndarray        # (m+1,) wrapped site after each jump, sites[0] = x0
    displacement: np.ndarray  # (m+1, d) unwrapped displacement, [0] = 0

    @property
    def n_jumps(self) -> int:
        return len(self.times)

    @property
    def final_displacement(self) -> np.ndarray:
        return self.displacement[-1]



def check_site(x0, n: int) -> int:
    """A start site as a Python int; ValueError unless x0 is an integer (not a bool) in [0, n)."""
    return check_integer(x0, "start site x0", 0, n)


def check_rates(env: Environment) -> None:
    """Accept an environment whose jump rates are all finite.

    A NaN rate never ends a holding time and an infinite one ends it at
    once, so neither gives a walk; both walkers call this before their
    first draw.  Finite negative rates are left to AbsorbingState.

    Raises
    ------
    ValueError
        naming the first site and direction whose rate is not finite.
    """
    bad = ~np.isfinite(env.p_full)
    if bad.any():
        x, k = np.argwhere(bad)[0]
        raise ValueError(f"jump rate at site {x}, direction {k} is {env.p_full[x, k]}; "
                         "rates must be finite")


def _holding_time(u, rate):
    """The holding time at total rate `rate` drawn from the uniform u: both walkers' one clock."""
    return -np.log1p(-u) / rate


def simulate(env: Environment, x0: int, T: float, seed: int) -> Trajectory:
    """Simulate one walk on [0, T]; deterministic in (env, x0, T, seed).

    Raises
    ------
    ValueError
        if T is not a positive finite number, x0 is not a site of the
        torus, seed is not an integer key in [0, 2**128) or a jump rate is
        not finite.
    AbsorbingState
        if the walk reaches a site whose total rate is not positive.
    """
    T = check_positive(T, "horizon T")
    t_ = env.torus
    x0 = check_site(x0, t_.n)
    check_rates(env)
    seed = check_integer(seed, "seed", 0)
    rng = _generator(seed)

    site = x0
    now = 0.0
    times, dirs, sites = [], [], [site]
    disp = [np.zeros(t_.d, dtype=np.int64)]
    total = env.total_rate
    cum = env.cum_rates
    nbr = t_.nbr
    while True:
        rate = total[site]
        if rate <= 0.0:
            raise AbsorbingState(site)
        u1, u2 = rng.random(2)
        now = now + _holding_time(u1, rate)
        if now >= T:
            break
        v = u2 * rate
        k = int((v >= cum[site]).sum())
        if k >= t_.ndir:
            k = t_.ndir - 1
        times.append(now)
        dirs.append(k)
        disp.append(disp[-1] + t_.directions[k])
        site = int(nbr[site, k])
        sites.append(site)
    return Trajectory(
        d=t_.d, L=t_.L, x0=x0, T=T, seed=seed,
        times=np.asarray(times, dtype=float),
        dirs=np.asarray(dirs, dtype=np.int64),
        sites=np.asarray(sites, dtype=np.int64),
        displacement=np.stack(disp, axis=0),
    )


# -- batch engine -------------------------------------------------------------

def check_grid(grid, T: float) -> np.ndarray:
    """Sample times as floats: strictly increasing, positive, ending exactly at T.

    Raises
    ------
    ValueError
        if the grid breaks any of these rules or is not a flat list of numbers.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or not (np.all(np.diff(grid) > 0) and grid[0] > 0):
        raise ValueError("grid must be strictly increasing and positive")
    if grid[-1] != T:
        raise ValueError("grid must end exactly at T")
    return grid


@dataclass
class EnsembleResult:
    """Lockstep simulation output for an ensemble of replicas.

    displacement[r, g] is X at grid time g, the engine's jump sum of weight
    one: exact integers as float64.  integrals[r, g, f] is the exact time
    integral of site-table column f along the path up to that grid time;
    jump_sums[r, g, :, w], a view beside displacement in the one array of
    jump sums, is the sum over jumps before that time of weight-table
    column w times the jump vector.  Each snapshot reads the path up to its
    own time only, so some of the grid columns are bit for bit a walk of
    the same replicas sampled on their times alone.  The horizon is times[-1].

    holding is the pooled normalized holding times in ascending order.  Each
    is finite and at least +0.0 (never -0.0), so the sorted sample is the
    same bit for bit at any worker count.  `mart.ks_exponential` reads it
    without a copy.
    """

    times: np.ndarray                 # (G,)
    displacement: np.ndarray          # (R, G, d) float
    integrals: np.ndarray             # (R, G, F)
    jump_sums: np.ndarray             # (R, G, d, W)
    start_site: np.ndarray            # (R,)
    final_site: np.ndarray            # (R,)
    n_jumps: np.ndarray               # (R,)
    holding: np.ndarray | None        # pooled normalized holding times


def _mapped(shape, dtype=float, shared: bool = False) -> np.ndarray:
    """A zeroed array; from 128 KiB up, in a private anonymous mapping of its own.

    shared puts it in a shared anonymous mapping whatever its size, unless
    it is empty, so that forked workers write their rows where the caller
    reads them.

    The engine keeps its uniform buffer and its snapshots in mappings, which
    go back to the system with their arrays.  As malloc blocks, each one
    freed raised glibc's mmap threshold to its size (up to 32 MiB), later
    arrays came from the heap, and its freed memory stayed resident: the
    ensemble benchmark's peak RSS (10^4 replicas, Linux) was 122 MB, 140 MB
    with a 256-wide buffer, and is 107 MB with mappings.  Huge pages, which
    numpy asks for on large arrays, keep the gathers across rows cheap.
    Below 128 KiB, where glibc's mmap threshold starts and which it never
    goes under, malloc maps no block, so a smaller array is np.zeros and
    costs no mapping; so is every array where mmap has no MAP_PRIVATE
    (Windows).  A size past what mmap takes (a C ssize_t), or a mapping the
    system refuses (ENOMEM), raises MemoryError naming the shape and bytes.
    """
    size = int(np.prod(shape))
    nbytes = size * np.dtype(dtype).itemsize
    if nbytes == 0 or (not shared and (nbytes < 1 << 17 or not hasattr(mmap, "MAP_PRIVATE"))):
        return np.zeros(shape, dtype)
    kind = mmap.MAP_SHARED if shared else mmap.MAP_PRIVATE
    try:
        mapping = mmap.mmap(-1, nbytes, flags=kind | mmap.MAP_ANONYMOUS)
    except (OverflowError, OSError) as e:
        if isinstance(e, OSError) and e.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map an array of shape {shape}: {nbytes} bytes") from e
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype, size).reshape(shape)


# replicas a worker process needs before its share of the walk outweighs its
# fork and join; the sweep in BENCH_ensemble_workers.json set it
MIN_LANES = 1000


def worker_count(n_replicas: int) -> int:
    """Worker processes that run_ensemble splits n_replicas over.

    One per CPU this process may run on, each with at least MIN_LANES
    replicas, and one where the system has no fork or no CPU affinity.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_replicas // MIN_LANES))


def _fork(walk, lo: int, hi: int) -> tuple:
    """Start walk(lo, hi) in a forked child; its pid and the read end of its pipe.

    The child sends a pickled (error, number of holding times), then the
    holding times' bytes.  It leaves through os._exit, so it never returns
    into the caller's stack.  It runs only the walk, numpy elementwise work
    and Philox draws with no BLAS call, import or logging, so it takes no
    lock that another thread of the caller could have held at the fork.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    try:
        os.close(r)
        try:
            holding = walk(lo, hi)
            head = (None, 0 if holding is None else len(holding))
        except BaseException as e:  # KeyboardInterrupt too: the caller re-raises it
            holding, head = None, (e, 0)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(head))
            if holding is not None:
                pipe.write(holding)
    finally:
        os._exit(0)


def _split(walk, bounds: list) -> np.ndarray | None:
    """walk over each range bounds[i]..bounds[i+1]-1: here the first, each other in a child.

    With one range nothing is forked.

    Returns the joined holding times, or None when none are collected.
    Re-raises the lowest child's error.  Every child is killed and reaped
    before this returns or raises: one whose result was read has nothing
    left to do but exit, and one still walking is stopped when an error
    (KeyboardInterrupt too) ends the join early.
    """
    children = []  # (pid, pipe) of each child, in range order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork(walk, lo, hi))
        holding = walk(bounds[0], bounds[1])
        for i, (pid, fd) in enumerate(children, 1):
            with os.fdopen(fd, "rb", closefd=False) as pipe:
                try:
                    error, n = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError(f"the worker of replicas {bounds[i]}..{bounds[i + 1] - 1} "
                                       "ended without a result") from None
                if error is not None:
                    raise error
                if n:
                    m = len(holding)
                    holding.resize(m + n, refcheck=False)
                    if pipe.readinto(holding[m:]) != 8 * n:
                        raise RuntimeError(f"the worker of replicas {bounds[i]}.."
                                           f"{bounds[i + 1] - 1} sent too few holding times")
    finally:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return holding


def run_ensemble(env: Environment, T: float, n_replicas: int, master_seed: int,
                 grid=None, site_fields: np.ndarray | None = None,
                 jump_weights: np.ndarray | None = None, x0: int | None = None,
                 collect_holding: bool = False, block: int = 256) -> EnsembleResult:
    """Simulate many replicas in vectorized lockstep.

    Parameters
    ----------
    grid : array-like or None
        Strictly increasing sample times ending exactly at T (default [T]).
    site_fields : (n, F) array or None
        Stacked per-site integrands, one per column; their exact path
        integrals are reported at every grid time.
    jump_weights : (n, 2d, W) array or None
        Stacked per-edge scalar weights, one per last-axis column; the
        weighted jump-vector sums sum_i w(x_i, k_i) xi_i are reported at
        every grid time.  A weight-one column in front sums to X.
    x0 : int or None
        Fixed start site in [0, n), or None to draw one uniformly per replica
        (the draw consumes the first uniform of the replica's stream).
    block : int
        Uniforms drawn per replica per refill; a positive even number.  Each
        worker has its own buffer of block doubles per replica of its range:
        2 KiB per replica at the default 256, half of what 512 held, while a
        check battery's walk (about 450 lockstep steps at T=64) still needs
        only four refills.  The output does not depend on block, since each
        event takes its two uniforms from its replica's stream in order,
        whatever the width.

    The replicas are split into worker_count(n_replicas) contiguous ranges.
    The caller walks the first; each other range walks in a forked child,
    which writes its rows of every output into shared mappings and sends
    its holding times back through a pipe.  An environment with a site of
    non-positive total rate is walked in one process, so an AbsorbingState
    names the site reached at the earliest lockstep step, by the lowest
    replica.  Within a range the live replicas come first in every per-lane
    array, so each lockstep step reads and writes slices.
    """
    T = check_positive(T, "horizon T")
    R = check_integer(n_replicas, "n_replicas", 1)
    grid = check_grid([T] if grid is None else grid, T)
    t_ = env.torus
    n, ndir, d = t_.n, t_.ndir, t_.d
    if x0 is not None:
        x0 = check_site(x0, n)
    site_fields = np.zeros((n, 0)) if site_fields is None else np.asarray(site_fields, dtype=float)
    jump_weights = (np.zeros((n, ndir, 0)) if jump_weights is None
                    else np.asarray(jump_weights, dtype=float))
    if site_fields.ndim != 2 or site_fields.shape[0] != n:
        raise ValueError(f"site_fields must have shape ({n}, F)")
    if jump_weights.ndim != 3 or jump_weights.shape[:2] != (n, ndir):
        raise ValueError(f"jump_weights must have shape ({n}, {ndir}, W)")
    if not is_integer(block) or block % 2 or block < 2:
        raise ValueError("block must be a positive even number")
    check_rates(env)

    nbr = t_.nbr.ravel()  # edge (x, k) sits at x * ndir + k in every flat table
    cum_rows = np.ascontiguousarray(env.cum_rates.T)
    total = env.total_rate
    G = len(grid)
    F = site_fields.shape[1]
    # weight times jump vector per edge, so one gather updates every axis;
    # column 0 weighs each jump by one, so its sum is X, exact for |X| < 2**53.
    # An off-axis entry is -0.0 where the weight is negative, but a sum that
    # starts at +0.0 never becomes -0.0 and a zero of either sign leaves it
    # unchanged, so each sum has the bits of its on-axis terms alone.
    weights = np.concatenate([np.ones((n, ndir, 1)), jump_weights], axis=2)
    W = weights.shape[2]
    jump_table = (weights[:, :, None, :]
                  * t_.directions[None, :, :, None]).reshape(n * ndir, d * W)
    grid_pad = np.append(grid, np.inf)
    check_absorbing = bool((total <= 0.0).any())

    # checking the master seed and the largest index R - 1 once checks every
    # key: replica r's is (master_seed << 64) | r
    first_key = replica_key(master_seed, R - 1) - (R - 1)
    workers = 1 if check_absorbing else worker_count(R)
    # every worker writes its replicas' rows of the outputs in place
    outputs = [_mapped(shape, dtype, shared=workers > 1) for shape, dtype in
               [((R,), np.int64)] * 3 + [((R, G, F), float), ((R, G, d * W), float)]]

    def walk(lo: int, hi: int) -> np.ndarray | None:
        """Walk replicas lo..hi-1 in lockstep into their rows of the outputs.

        The m live lanes come first in every per-lane array, in replica
        order, with rid[i] lane i's row of the outputs; the walk ends when no
        lane is left, at once for an empty range.  Returns their holding
        times, or None unless collected; raises AbsorbingState at the first
        site of non-positive total rate reached.
        """
        start_site, final_site, nj, snap, jsnap = (a[lo:hi] for a in outputs)
        m = hi - lo
        gens = [_generator(first_key | r) for r in range(lo, hi)]
        if x0 is None:
            # one uniform from each stream selects the start site
            u = np.array([g.random() for g in gens])
            start_site[:] = np.minimum((u * n).astype(np.int64), n - 1)
        else:
            start_site[:] = x0
        site = start_site.copy()

        buf = _mapped((m, block))
        # an event's two uniforms are adjacent in its replica's row, so one
        # complex gather reads both: real part the holding time, imaginary the direction
        pairs = buf.view(np.complex128)
        ptr = block
        rid = np.arange(m)
        now = np.zeros(m)
        gptr = np.zeros(m, dtype=np.int64)
        next_g = np.full(m, grid[0])
        acc = np.zeros((m, F))
        jsum = np.zeros((m, d * W))
        # one buffer, grown in place by a quarter and trimmed after the loop, so
        # storing the holding times costs at most 1.25 times the sample
        holding = np.empty(m) if collect_holding else None
        n_held = 0

        step = 0
        while m:
            if ptr >= block:
                for i, g in enumerate(gens):
                    g.random(out=buf[i])
                ptr = 0
            u = pairs[rid[:m], ptr // 2]
            u1, u2 = u.real, u.imag
            ptr += 2

            sm = site[:m]
            rate = total[sm]
            if check_absorbing:
                dead = rate <= 0.0
                if dead.any():
                    raise AbsorbingState(int(sm[np.flatnonzero(dead)[0]]))
            dt = _holding_time(u1, rate)
            t0 = now[:m]
            t_new = t0 + dt

            # snapshot every grid time crossed inside this holding interval;
            # the state used is the pre-jump state, so a sum over jumps at
            # times <= g never includes the jump ending the interval
            hit = next_g[:m] <= t_new
            while hit.any():
                j = np.flatnonzero(hit)
                r = rid[j]
                gsel = gptr[j]
                if F:
                    snap[r, gsel] = acc[j] + site_fields[sm[j]] * (grid[gsel] - t0[j])[:, None]
                jsnap[r, gsel] = jsum[j]
                gptr[j] += 1
                next_g[j] = grid_pad[gptr[j]]
                hit[j] = next_g[j] <= t_new[j]

            done = t_new >= T
            if done.any():
                # a replica finishing at this step jumped once on every earlier step
                nj[rid[:m][done]] = step
                final_site[rid[:m][done]] = sm[done]
                keep = np.flatnonzero(~done)
                m = len(keep)
                for a in (rid, gptr, next_g, acc, jsum):
                    a[:m] = a[keep]
                sm, rate, dt, t_new, u2 = sm[keep], rate[keep], dt[keep], t_new[keep], u2[keep]

            if F:
                inc = site_fields.take(sm, axis=0)
                inc *= dt[:, None]
                acc[:m] += inc
            if holding is not None:
                held = n_held + m
                if held > len(holding):
                    # no view of the buffer outlives a step, so none is left dangling
                    holding.resize(max(held, len(holding) * 5 // 4), refcheck=False)
                np.multiply(dt, rate, out=holding[n_held:held])
                n_held = held

            k = np.minimum((cum_rows.take(sm, axis=1) <= u2 * rate).sum(axis=0), ndir - 1)

            edge = sm * ndir + k
            jsum[:m] += jump_table.take(edge, axis=0)
            site[:m] = nbr[edge]
            now[:m] = t_new
            step += 1

        if holding is not None:
            holding.resize(n_held, refcheck=False)
        return holding

    holding = _split(walk, [R * i // workers for i in range(workers + 1)])
    if holding is not None:
        # in place, by the default sort that np.sort makes of a copy
        holding.sort()
    start_site, final_site, n_jumps, snap, jsnap = outputs
    sums = jsnap.reshape(R, G, d, W)
    return EnsembleResult(
        times=grid,
        displacement=sums[..., 0].copy(),
        integrals=snap,
        jump_sums=sums[..., 1:],
        start_site=start_site,
        final_site=final_site,
        n_jumps=n_jumps,
        holding=holding,
    )
