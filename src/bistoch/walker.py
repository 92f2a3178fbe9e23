"""Event-driven simulation of the quenched walk.

The walk is an exact continuous-time Markov chain: at site x it waits an
exponential time with rate sum_k p_k(x), then jumps in direction k with
probability p_k(x) / sum.  No time discretization enters anywhere.

Randomness comes from counter-based Philox streams.  Replica r of a run with
master seed m uses the key (m << 64) | r, so any replica can be reproduced
in isolation.  Each event consumes exactly two uniforms from its replica's
stream, first the holding time, then the direction, which makes the serial
lockstep engine below bit-compatible with the single-trajectory simulator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .env import Environment, _generator, canonical_json
from .errors import AbsorbingState
from .torus import _size


# master seeds and replica indices are the two 64-bit words of a replica key
SEED_LIMIT = 1 << 64


def replica_key(master_seed: int, replica: int) -> int:
    """128-bit Philox key for one replica of a seeded run."""
    if not (0 <= master_seed < SEED_LIMIT and 0 <= replica < SEED_LIMIT):
        raise ValueError("seeds and replica indices must be in [0, 2**64)")
    return (int(master_seed) << 64) | int(replica)


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

    def to_jsonl(self, path: str) -> None:
        """One JSON record per jump: {"t": time, "k": direction index}."""
        with open(path, "w") as f:
            header = {"format": "bistoch-traj", "version": 1, "d": self.d, "L": self.L,
                      "x0": self.x0, "T": self.T, "seed": self.seed}
            f.write(canonical_json(header) + "\n")
            for t, k in zip(self.times, self.dirs):
                f.write(canonical_json({"t": float(t), "k": int(k)}) + "\n")


def check_site(x0, n: int) -> int:
    """A start site as a Python int.

    Raises
    ------
    ValueError
        unless x0 is an integer (not a bool) in [0, n).
    """
    if (isinstance(x0, (bool, np.bool_)) or not isinstance(x0, (int, np.integer))
            or not 0 <= x0 < n):
        raise ValueError(f"start site x0 must be an integer in [0, {n}), got {x0!r}")
    return int(x0)


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


def simulate(env: Environment, x0: int, T: float, seed: int) -> Trajectory:
    """Simulate one walk on [0, T]; deterministic in (env, x0, T, seed).

    Raises
    ------
    ValueError
        if T is not positive and finite, x0 is not a site of the torus or
        a jump rate is not finite.
    AbsorbingState
        if the walk reaches a site whose total rate is not positive.
    """
    if not 0 < T < np.inf:
        raise ValueError("horizon T must be positive and finite")
    t_ = env.torus
    x0 = check_site(x0, t_.n)
    check_rates(env)
    rng = _generator(seed)
    block = 1024  # uniforms per refill; consumption order matches the batch engine
    buf = rng.random(block)
    ptr = 0

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
        if ptr >= block:
            buf = rng.random(block)
            ptr = 0
        u1 = buf[ptr]
        u2 = buf[ptr + 1]
        ptr += 2
        now = now + (-np.log1p(-u1) / rate)
        if now >= T:
            break
        v = u2 * rate
        k = int((v >= cum[site]).sum())
        if k >= t_.ndir:
            k = t_.ndir - 1
        times.append(now)
        dirs.append(k)
        step = np.zeros(t_.d, dtype=np.int64)
        step[t_.axis_of[k]] = t_.sign_of[k]
        disp.append(disp[-1] + step)
        site = int(nbr[site, k])
        sites.append(site)
    return Trajectory(
        d=t_.d, L=t_.L, x0=x0, T=float(T), seed=int(seed),
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

    displacement[r, g] is X at grid time g.  integrals[r, g, f] is the exact
    time integral of site-table column f along the path up to that grid
    time; jump_sums[r, g, :, w] is the sum over jumps before that time of
    weight-table column w times the jump vector.
    """

    times: np.ndarray                 # (G,)
    displacement: np.ndarray          # (R, G, d) float
    integrals: np.ndarray             # (R, G, F)
    jump_sums: np.ndarray             # (R, G, d, W)
    start_site: np.ndarray            # (R,)
    final_site: np.ndarray            # (R,)
    n_jumps: np.ndarray               # (R,)
    holding: np.ndarray | None        # pooled normalized holding times
    master_seed: int
    T: float

    @property
    def n_replicas(self) -> int:
        return self.displacement.shape[0]

    def at_times(self, times) -> EnsembleResult:
        """The same replicas sampled at a subset of the grid times.

        Bit for bit the result that the same run sampled on `times` alone
        would give: the engine snapshots each (replica, grid time) from the
        path up to that time only.  The per-replica arrays and the holding
        times are kept as they are.

        Raises
        ------
        ValueError
            if a requested time is not on this ensemble's grid.
        """
        times = np.asarray(times, dtype=float)
        idx = np.minimum(np.searchsorted(self.times, times), len(self.times) - 1)
        if not np.array_equal(self.times[idx], times):
            raise ValueError("requested times are not on the ensemble's grid")
        return replace(self, times=self.times[idx], displacement=self.displacement[:, idx],
                       integrals=self.integrals[:, idx], jump_sums=self.jump_sums[:, idx])


def run_ensemble(env: Environment, T: float, n_replicas: int, master_seed: int,
                 grid=None, site_fields: np.ndarray | None = None,
                 jump_weights: np.ndarray | None = None, x0: int | None = None,
                 collect_holding: bool = False, block: int = 512) -> EnsembleResult:
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
        every grid time.
    x0 : int or None
        Fixed start site in [0, n), or None to draw one uniformly per replica
        (the draw consumes the first uniform of the replica's stream).
    block : int
        Uniforms drawn per replica per refill; a positive even number.
    """
    if not 0 < T < np.inf:
        raise ValueError("horizon T must be positive and finite")
    R = _size(n_replicas, "n_replicas", 1)
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
    if block % 2 or block < 2:
        raise ValueError("block must be a positive even number")
    check_rates(env)

    nbr = t_.nbr.ravel()  # edge (x, k) sits at x * ndir + k in every flat table
    # one contiguous column per direction but the last, which equals the
    # total rate and is compared against the gathered `rate` instead
    cum_cols = [np.ascontiguousarray(env.cum_rates[:, j]) for j in range(ndir - 1)]
    total = env.total_rate
    step_of = np.ascontiguousarray(t_.directions.T)  # step_of[i, k]: axis-i step of direction k
    G = len(grid)
    F = site_fields.shape[1]
    W = jump_weights.shape[2]
    # weight times jump vector per edge, so one gather updates every axis;
    # a sum that starts at +0.0 never becomes -0.0, so adding the other
    # axes' +0.0 entries leaves it unchanged bit for bit
    jump_table = np.zeros((n, ndir, d, W))
    for k in range(ndir):
        jump_table[:, k, t_.axis_of[k]] = jump_weights[:, k] * float(t_.sign_of[k])
    jump_table = jump_table.reshape(n * ndir, d * W)
    grid_pad = np.append(grid, np.inf)
    check_absorbing = bool((total <= 0.0).any())

    gens = [_generator(replica_key(master_seed, r)) for r in range(R)]
    if x0 is None:
        # one uniform from each stream selects the start site
        site = np.array([min(int(g.random() * n), n - 1) for g in gens], dtype=np.int64)
    else:
        site = np.full(R, x0, dtype=np.int64)
    start_site = site.copy()

    buf = np.empty((R, block))
    # an event's two uniforms are adjacent in its replica's row, so one
    # complex gather reads both: real part the holding time, imaginary the direction
    pairs = buf.view(np.complex128)
    ptr = block
    pos = np.zeros((d, R), dtype=np.int64)
    now = np.zeros(R)
    nj = np.zeros(R, dtype=np.int64)
    gptr = np.zeros(R, dtype=np.int64)
    next_g = np.full(R, grid[0])

    acc = np.zeros((R, F))
    snap = np.zeros((R, G, F))
    jsum = np.zeros((R, d * W))
    jsnap = np.zeros((R, G, d * W))
    psnap = np.zeros((R, G, d), dtype=np.int64)
    # one buffer, grown in place by a quarter and trimmed after the loop, so
    # storing the holding times costs at most 1.25 times the sample
    holding = np.empty(R) if collect_holding else None
    n_held = 0

    # Until the first replica finishes, `rows` is a full slice and every
    # per-step array is unindexed; afterwards it is the live replicas' index.
    live = None
    step = 0
    while True:
        if ptr >= block:
            for i, g in enumerate(gens):
                g.random(out=buf[i])
            ptr = 0
        rows = slice(None) if live is None else live
        u = np.ascontiguousarray(pairs[rows, ptr // 2])
        u1, u2 = u.real, u.imag
        ptr += 2

        sm = site[rows]
        rate = total[sm]
        if check_absorbing:
            dead = rate <= 0.0
            if dead.any():
                raise AbsorbingState(int(sm[np.flatnonzero(dead)[0]]))
        dt = -np.log1p(-u1) / rate
        t0 = now[rows]
        t_new = t0 + dt

        # snapshot every grid time crossed inside this holding interval;
        # the state used is the pre-jump state, so a sum over jumps at
        # times <= g never includes the jump ending the interval
        hit = next_g[rows] <= t_new
        while hit.any():
            j = np.flatnonzero(hit)
            r = j if live is None else live[j]
            gsel = gptr[r]
            if F:
                snap[r, gsel] = acc[r] + site_fields[sm[j]] * (grid[gsel] - t0[j])[:, None]
            if W:
                jsnap[r, gsel] = jsum[r]
            psnap[r, gsel] = pos[:, r].T
            gptr[r] += 1
            next_g[r] = grid_pad[gptr[r]]
            hit[j] = next_g[r] <= t_new[j]

        done = t_new >= T
        if done.any():
            # a replica finishing at this step jumped once on every earlier step
            keep = np.flatnonzero(~done)
            if live is None:
                nj[done] = step
                live = keep
            else:
                nj[live[done]] = step
                live = live[keep]
            if live.size == 0:
                break
            rows = live
            sm, rate, dt, t_new, u2 = sm[keep], rate[keep], dt[keep], t_new[keep], u2[keep]

        if F:
            inc = site_fields.take(sm, axis=0)
            inc *= dt[:, None]
            acc[rows] += inc
        if holding is not None:
            m = n_held + len(dt)
            if m > len(holding):
                # no view of the buffer outlives a step, so none is left dangling
                holding.resize(max(m, len(holding) * 5 // 4), refcheck=False)
            np.multiply(dt, rate, out=holding[n_held:m])
            n_held = m

        v = u2 * rate
        k = (v >= cum_cols[0][sm]).astype(np.intp)
        for col in cum_cols[1:]:
            k += v >= col[sm]
        k += v >= rate
        np.minimum(k, ndir - 1, out=k)

        edge = sm * ndir + k
        if W:
            jsum[rows] += jump_table.take(edge, axis=0)
        for i in range(d):
            pos[i, rows] += step_of[i][k]
        site[rows] = nbr[edge]
        now[rows] = t_new
        step += 1

    if holding is not None:
        holding.resize(n_held, refcheck=False)
    return EnsembleResult(
        times=grid,
        displacement=psnap.astype(float),
        integrals=snap,
        jump_sums=jsnap.reshape(R, G, d, W),
        start_site=start_site,
        final_site=site.copy(),
        n_jumps=nj,
        holding=holding,
        master_seed=master_seed,
        T=T,
    )


def ensemble_summary_csv(result: EnsembleResult, path: str) -> None:
    """Per-replica summary rows: seed, T, final displacement, jump count."""
    d = result.displacement.shape[2]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "T"] + [f"X_{i + 1}" for i in range(d)] + ["n_jumps"])
        for r in range(result.n_replicas):
            seed = replica_key(result.master_seed, r)
            row = [seed, repr(result.T)]
            row += [repr(float(x)) for x in result.displacement[r, -1]]
            row.append(int(result.n_jumps[r]))
            w.writerow(row)
