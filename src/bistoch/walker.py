"""Event-driven simulation of the quenched walk and its environment process.

The walk is an exact continuous-time Markov chain: at site x it waits an
exponential time with rate sum_k p_k(x), then jumps in direction k with
probability p_k(x) / sum.  No time discretization enters anywhere.

Randomness comes from counter-based Philox streams.  Replica r of a run with
master seed m uses the key (m << 64) | r, so any replica can be reproduced
in isolation and results are independent of how replicas are sharded across
threads.  Each event consumes exactly two uniforms from its replica's
stream, first the holding time, then the direction, which makes the batch
engine below bit-compatible with the single-trajectory simulator.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .env import ConductanceField, Environment, FlowField, _scale
from .errors import AbsorbingState, NoConvergence, NotStationary, Reducible
from .torus import Torus


def replica_key(master_seed: int, replica: int) -> int:
    """128-bit Philox key for one replica of a seeded run."""
    if master_seed < 0 or replica < 0:
        raise ValueError("seeds and replica indices must be nonnegative")
    return (int(master_seed) << 64) | int(replica)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


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

    def positions_at(self, ts) -> np.ndarray:
        """Unwrapped displacement at each query time (step function)."""
        idx = np.searchsorted(self.times, np.asarray(ts, dtype=float), side="right")
        return self.displacement[idx]

    def holding_times(self, total_rate: np.ndarray) -> np.ndarray:
        """Completed holding times scaled by the site total rate (Exp(1) in law).

        The censored final interval [last jump, T] is excluded.
        """
        bounds = np.concatenate([[0.0], self.times])
        durations = np.diff(bounds)
        return durations * total_rate[self.sites[: len(durations)]]

    def to_jsonl(self, path: str) -> None:
        """One JSON record per jump: {"t": time, "k": direction index}."""
        with open(path, "w") as f:
            header = {"format": "bistoch-traj", "version": 1, "d": self.d, "L": self.L,
                      "x0": self.x0, "T": self.T, "seed": self.seed}
            f.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for t, k in zip(self.times, self.dirs):
                f.write(json.dumps({"t": float(t), "k": int(k)},
                                   sort_keys=True, separators=(",", ":")) + "\n")


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


def simulate(env: Environment, x0: int, T: float, seed: int) -> Trajectory:
    """Simulate one walk on [0, T]; deterministic in (env, x0, T, seed).

    Raises
    ------
    ValueError
        if T is not positive or x0 is not a site of the torus.
    AbsorbingState
        if the walk reaches a site with zero total rate.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    t_ = env.torus
    x0 = check_site(x0, t_.n)
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


def environment_view(traj: Trajectory) -> list:
    """The walk as seen from the walker: (time, wrapped site) at each jump."""
    out = [(0.0, int(traj.sites[0]))]
    out.extend((float(t), int(s)) for t, s in zip(traj.times, traj.sites[1:]))
    return out


def occupation_fractions(traj: Trajectory, n: int) -> np.ndarray:
    """Fraction of [0, T] spent at each site."""
    bounds = np.concatenate([[0.0], traj.times, [traj.T]])
    durations = np.diff(bounds)
    out = np.zeros(n)
    np.add.at(out, traj.sites, durations)
    return out / traj.T


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
    """Lockstep simulation output for a block of replicas.

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


def run_ensemble(env: Environment, T: float, n_replicas: int, master_seed: int,
                 grid=None, site_fields: np.ndarray | None = None,
                 jump_weights: np.ndarray | None = None, x0: int | None = None,
                 collect_holding: bool = False, block: int = 512,
                 threads: int = 1) -> EnsembleResult:
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
    threads : int
        Replicas are split into contiguous chunks run concurrently; results
        are identical for every thread count.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    grid = check_grid([T] if grid is None else grid, T)
    n, ndir = env.torus.n, env.torus.ndir
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

    threads = max(1, int(threads))
    if threads == 1 or n_replicas < 2 * threads:
        return _run_chunk(env, T, 0, n_replicas, master_seed, grid, site_fields,
                          jump_weights, x0, collect_holding, block)
    bounds = np.linspace(0, n_replicas, threads + 1).astype(int)
    chunks = [(int(lo), int(hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_chunk, env, T, lo, cnt, master_seed, grid,
                               site_fields, jump_weights, x0, collect_holding, block)
                   for lo, cnt in chunks]
        parts = [f.result() for f in futures]  # fixed order: by replica range
    return _merge_results(parts, master_seed, T)


def _merge_results(parts: list, master_seed: int, T: float) -> EnsembleResult:
    holding = None
    if parts[0].holding is not None:
        holding = np.concatenate([p.holding for p in parts])
    return EnsembleResult(
        times=parts[0].times,
        displacement=np.concatenate([p.displacement for p in parts]),
        integrals=np.concatenate([p.integrals for p in parts]),
        jump_sums=np.concatenate([p.jump_sums for p in parts]),
        start_site=np.concatenate([p.start_site for p in parts]),
        final_site=np.concatenate([p.final_site for p in parts]),
        n_jumps=np.concatenate([p.n_jumps for p in parts]),
        holding=holding,
        master_seed=master_seed,
        T=T,
    )


def _run_chunk(env: Environment, T: float, first_replica: int, R: int,
               master_seed: int, grid: np.ndarray, site_fields: np.ndarray,
               jump_weights: np.ndarray, x0: int | None, collect_holding: bool,
               block: int) -> EnsembleResult:
    t_ = env.torus
    n, ndir, d = t_.n, t_.ndir, t_.d
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
    check_absorbing = bool((total == 0.0).any())

    gens = [_generator(replica_key(master_seed, first_replica + r)) for r in range(R)]
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
    holds = [] if collect_holding else None

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
        if holds is not None:
            holds.append(dt * rate)

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

    holding = np.concatenate(holds) if holds else (np.empty(0) if collect_holding else None)
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


# -- stationary density and reweighting ---------------------------------------

@dataclass
class RateField:
    """Bare jump rates on a torus, not necessarily bistochastic."""

    torus: Torus
    p_full: np.ndarray

    def __post_init__(self):
        self.p_full = np.asarray(self.p_full, dtype=float)
        if self.p_full.shape != (self.torus.n, self.torus.ndir):
            raise ValueError("rate array has wrong shape")
        if np.any(self.p_full < 0):
            raise ValueError("rates must be nonnegative")


@dataclass
class DensityField:
    """Positive site density normalized to site-average one."""

    torus: Torus
    rho: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.torus.n,):
            raise ValueError("density has wrong shape")


def _generator_matrix(torus: Torus, p_full: np.ndarray) -> scipy.sparse.csr_matrix:
    """CTMC generator Q with Q[x, x+k] = p_k(x) and zero row sums."""
    n, ndir = torus.n, torus.ndir
    rows = np.repeat(np.arange(n), ndir)
    cols = torus.nbr.ravel()
    data = p_full.ravel()
    off = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    diag = scipy.sparse.diags(-p_full.sum(axis=1))
    return (off + diag).tocsr()


def solve_stationary_density(rates, dense_cap: int = 4096,
                             tol: float = 1e-10) -> DensityField:
    """Solve the finite-volume stationarity equation for a rate field.

    Finds rho > 0 with sum_k rho(x+k) p_{-k}(x+k) = rho(x) sum_k p_k(x) at
    every site, normalized to site-average one.  Solved as the null space
    of the transposed generator: dense factorization with two steps of
    iterative refinement up to `dense_cap` sites, inverse iteration above.

    Raises
    ------
    Reducible
        if the directed rate graph is not strongly connected.
    NoConvergence
        if the balance residual stays above tolerance or rho is not positive;
        it carries the number of refinement or inverse-iteration steps run.
    """
    t_ = rates.torus
    p = rates.p_full
    n = t_.n
    # csgraph counts explicitly stored zeros as edges, so drop them first
    live = p.ravel() > 0
    adj = scipy.sparse.coo_matrix(
        (np.ones(int(live.sum())),
         (np.repeat(np.arange(n), t_.ndir)[live], t_.nbr.ravel()[live])),
        shape=(n, n))
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        raise Reducible(f"{ncomp} strongly connected components")

    QT = _generator_matrix(t_, p).T.tocsr()
    if n <= dense_cap:
        K = QT.toarray()
        K[-1, :] = 1.0  # replace one balance row by the normalization
        rhs = np.zeros(n)
        rhs[-1] = float(n)
        lu = scipy.linalg.lu_factor(K)
        rho = scipy.linalg.lu_solve(lu, rhs)
        iterations = 2  # steps of iterative refinement, which sharpen the residual
        for _ in range(iterations):
            r = rhs - K @ rho
            rho = rho + scipy.linalg.lu_solve(lu, r)
    else:
        sigma = 1e-8 * float(p.sum(axis=1).mean())
        shifted = (QT - sigma * scipy.sparse.identity(n, format="csr")).tocsc()
        lu = scipy.sparse.linalg.splu(shifted)
        rho = np.ones(n)
        iterations = 50  # steps of inverse iteration
        for _ in range(iterations):
            rho = lu.solve(rho)
            rho = rho / np.max(np.abs(rho))
        rho = rho * (n / rho.sum())

    rho = rho * (n / rho.sum())
    balance = QT @ rho
    scale = _scale(p * rho[:, None])
    res = float(np.max(np.abs(balance)))
    if res > tol * scale:
        raise NoConvergence(iterations, res)
    if rho.min() <= 0:
        raise NoConvergence(iterations, float(rho.min()))
    return DensityField(t_, rho, residual=res)


def reweight_rates(rates, density: DensityField, tol: float = 1e-8) -> Environment:
    """Multiply rates by a stationary density to restore bistochasticity.

    The embedded jump chain is unchanged because rho cancels from the
    per-site jump distribution; only holding times are rescaled.

    Raises
    ------
    NotStationary
        if the density does not balance the rates within tolerance.
    """
    t_ = rates.torus
    p = rates.p_full
    rho = density.rho
    QT = _generator_matrix(t_, p).T
    res = float(np.max(np.abs(QT @ rho)))
    scale = _scale(p * rho[:, None])
    if res > tol * scale:
        raise NotStationary(res, tol * scale)

    p_new = rho[:, None] * p
    s_full = np.empty_like(p_new)
    for k in range(t_.ndir):
        s_full[:, k] = 0.5 * (p_new[:, k] + p_new[t_.nbr[:, k], t_.opposite(k)])
    b_full = p_new - s_full
    weak = bool(s_full.min() > 0)
    env = Environment(t_, ConductanceField(t_, s_full), b=FlowField(t_, b_full),
                      h=None, weak_ellipticity=weak, meta={"generator": "reweighted"})
    return env
