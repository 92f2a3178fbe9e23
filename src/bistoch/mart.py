"""Martingale decompositions of the walk and their computable brackets.

The displacement splits as X = M + I + J, where I and J are the exact path
integrals of the symmetric and antisymmetric local drifts and M is the
compensated jump martingale.  M splits further as M = Z + Y: each jump
across an edge is shared between Z and Y with weights s_bar/s and
1 - s_bar/s, where s_bar is the per-axis harmonic mean conductance.  The
weights are chosen so that the stationary bracket of Z is the constant
matrix diag(2 s_bar_i) and the Z,Y cross bracket averages to zero, which
yields explicit two-sided bounds on the diffusivity.

Every identity here is finite and checkable: the path identities hold for
each realized trajectory up to float accumulation error, and the bracket
averages reduce to exact cancellations over +/- direction pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .env import Environment
from .errors import (InsufficientReplicas, NonzeroFlux, NotDivergenceFree,
                     ZeroConductanceCrossing)
from .helmholtz import stream_from_flow
from .walker import EnsembleResult, Trajectory, check_grid, run_ensemble

# two-sided 99% normal quantile, frozen for reproducibility
Z_99 = 2.5758293035489004

# largest accepted residual of the exact path identities X = M + I + J = Z + Y + I + J
IDENTITY_TOL = 1e-10

# batches of a batch-means interval, and the fewest replicas a bracket estimate accepts
N_BATCHES = 32
MIN_REPLICAS = 1000

# sorted values per strip of the KS sweep, 512 KiB of float64
KS_BLOCK = 2**16


# -- environment moments -------------------------------------------------------

@dataclass
class Diagnostics:
    """Site averages of the environment's integrability functionals.

    This is the one place they are formed; the harmonic mean s_bar, bounds
    and the bracket targets read mean_s and mean_inv_s.  Each is formed on
    its first read, so a reader pays only for what it reads.  An edge with
    s <= 0 is dead: it gives 1/s = +inf.

    mean_s[i]            mean of s_{e_i}, per axis
    mean_inv_s[i]        mean of 1/s_{e_i}, per axis; +inf if an edge of axis i is dead
    mean_h2_over_s[k, l] mean of h_{k,l}^2 / s_l over all n sites, per direction
                         pair; a term is 0 where h_{k,l} = 0 and +inf where
                         h_{k,l} != 0 on a dead edge.  Without a stream
                         tensor h is helmholtz.stream_from_flow(b), one
                         gauge of the flow's streams, and every entry is
                         +inf when no periodic stream has curl b (nonzero
                         flux or divergence)
    """
    env: Environment

    @cached_property
    def mean_s(self) -> np.ndarray:
        return self.env.s.canonical.mean(axis=0)

    @cached_property
    def mean_inv_s(self) -> np.ndarray:
        s = self.env.s.canonical
        return np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0).mean(axis=0)

    @cached_property
    def mean_h2_over_s(self) -> np.ndarray:
        env = self.env
        t = env.torus
        stream = env.h
        if stream is None and np.any(env.b.full):
            try:
                stream = stream_from_flow(env.b)
            except (NonzeroFlux, NotDivergenceFree):
                return np.full((t.ndir, t.ndir), np.inf)
        h = stream.full() if stream is not None else np.zeros((t.n, t.ndir, t.ndir))
        s = env.s.full[:, None, :]  # s_l on the last axis
        dead = np.where(h != 0.0, np.inf, 0.0)
        return np.divide(h ** 2, s, out=dead, where=s > 0).mean(axis=0)


def integrability_diagnostics(env: Environment) -> Diagnostics:
    """The environment's site moments, none formed until it is read."""
    return Diagnostics(env)


# -- local drift fields --------------------------------------------------------

@dataclass
class DriftFields:
    """Per-site drift decomposition and the compensators of Z and Y.

    phi[x, i]   symmetric drift, s_{+e_i}(x) - s_{-e_i}(x)
    psi[x, i]   antisymmetric drift, b_{+e_i}(x) - b_{-e_i}(x)
    alpha[x, i] compensator density of Z
    beta[x, i]  compensator density of Y, beta = phi + psi - alpha
    s_bar[i]    harmonic mean of s over the edges of axis i
    """

    phi: np.ndarray
    psi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    s_bar: np.ndarray


def harmonic_mean_conductance(env: Environment) -> np.ndarray:
    """Per-axis harmonic mean of the conductances, zero on an axis with a dead edge (s <= 0)."""
    means = integrability_diagnostics(env).mean_inv_s
    return np.where(np.isfinite(means), 1.0 / np.where(means > 0, means, 1.0), 0.0)


def drift_fields(env: Environment) -> DriftFields:
    """Compute the local drifts and compensators of an environment.

    phi and psi contract the rate arrays against the direction vectors.
    """
    d = env.torus.d
    s_full = env.s.full
    b_full = env.b.full
    D = env.torus.directions.astype(float)
    phi = s_full @ D
    psi = b_full @ D

    s_bar = harmonic_mean_conductance(env)
    ratio = np.divide(b_full, s_full, out=np.zeros_like(b_full), where=s_full > 0)
    alpha = s_bar[None, :] * (ratio[:, :d] - ratio[:, d:])
    beta = (phi + psi) - alpha
    return DriftFields(phi=phi, psi=psi, alpha=alpha, beta=beta, s_bar=s_bar)


def jump_weight_tables(env: Environment) -> dict:
    """Per-edge weights splitting each jump between Z and Y.

    wZ(x, k) = s_bar / s_k(x) and wY = 1 - wZ.  Edges with zero conductance
    carry zero rate under the domination constraint and are never crossed;
    a zero-conductance edge with positive rate is rejected.
    """
    t_ = env.torus
    s_full = env.s.full
    s_bar = harmonic_mean_conductance(env)
    dead = s_full == 0
    if np.any(dead & (env.p_full > 0)):
        x, k = np.argwhere(dead & (env.p_full > 0))[0]
        raise ZeroConductanceCrossing(int(x), int(k))
    axis_bar = s_bar[t_.axis_of][None, :]
    wz = np.divide(axis_bar * np.ones_like(s_full), s_full,
                   out=np.zeros_like(s_full), where=~dead)
    return {"z": wz, "y": 1.0 - wz}


# -- diffusivity bounds --------------------------------------------------------

@dataclass
class DiffusivityBounds:
    """Explicit two-sided diffusivity bounds from the conductances alone.

    lower        diag(2 s_bar_i); the stationary bracket of Z
    upper_trace  sum over all 2d directions of the mean conductance
    """

    lower: np.ndarray
    upper_trace: float

    def check(self, sigma2: np.ndarray, atol: float = 0.0) -> dict:
        """Compare a diffusivity matrix against both bounds.

        Returns the smallest eigenvalue of sigma2 - lower (order check) and
        the trace gap to the upper bound; nonnegative values pass.
        """
        gap = np.linalg.eigvalsh(np.asarray(sigma2) - self.lower)
        return {
            "matrix_gap": float(gap[0]),
            "trace": float(np.trace(sigma2)),
            "trace_gap": self.upper_trace - float(np.trace(sigma2)),
            "lower_ok": bool(gap[0] >= -atol),
            "upper_ok": bool(np.trace(sigma2) <= self.upper_trace + atol),
        }


def bounds(env: Environment) -> DiffusivityBounds:
    mean_s = integrability_diagnostics(env).mean_s
    return DiffusivityBounds(lower=np.diag(2.0 * harmonic_mean_conductance(env)),
                             upper_trace=float(2.0 * mean_s.sum()))


# -- bracket fields ------------------------------------------------------------

@dataclass
class BracketFields:
    """Site fields of the predictable quadratic brackets and their averages.

    For a compensated jump sum with per-edge weights w, the bracket density
    at x is sum_k p_k(x) w(x,k)^2 k k^T.  The site averages admit closed
    forms because the flow contributions cancel in +/- direction pairs:

        avg <Z>  = diag(2 s_bar_i)
        avg <Z,Y> = 0
        avg <Y>  = diag(2 (mean s_i - s_bar_i))
        avg <M>  = diag(2 mean s_i)
    """

    zz: np.ndarray          # (n, d, d)
    zy: np.ndarray
    yy: np.ndarray
    mm: np.ndarray
    zz_target: np.ndarray   # (d, d)
    zy_target: np.ndarray
    yy_target: np.ndarray
    mm_target: np.ndarray

    def average_residuals(self) -> dict:
        out = {}
        for name in ("zz", "zy", "yy", "mm"):
            got = getattr(self, name).mean(axis=0)
            want = getattr(self, f"{name}_target")
            out[name] = float(np.max(np.abs(got - want)))
        return out


def bracket_fields(env: Environment) -> BracketFields:
    t_ = env.torus
    D = t_.directions.astype(float)
    p = env.p_full
    w = jump_weight_tables(env)
    s_bar = harmonic_mean_conductance(env)
    mean_s = integrability_diagnostics(env).mean_s

    def density(wa, wb):
        return np.einsum("xk,ki,kj->xij", p * wa * wb, D, D)

    return BracketFields(
        zz=density(w["z"], w["z"]),
        zy=density(w["z"], w["y"]),
        yy=density(w["y"], w["y"]),
        mm=density(np.ones_like(p), np.ones_like(p)),
        zz_target=np.diag(2.0 * s_bar),
        zy_target=np.zeros((t_.d, t_.d)),
        yy_target=np.diag(2.0 * (mean_s - s_bar)),
        mm_target=np.diag(2.0 * mean_s),
    )


# -- path decompositions -------------------------------------------------------

def dyadic_grid(T: float, levels: int = 8) -> np.ndarray:
    """Sample times T/2^(levels-1), ..., T/2, T."""
    return T * 0.5 ** np.arange(levels - 1, -1, -1, dtype=float)


# observer columns of the decomposition: site-table integrands, d columns
# each, and jump-table weights; M keeps its own phi + psi integral and Z, Y
# their own weights, so the identity residuals measure real float error
_SITE_COLUMNS = ("phipsi", "phi", "psi", "alpha", "beta")
_JUMP_COLUMNS = ("z", "y")


def field_tables(env: Environment) -> tuple:
    """Stacked observer tables: (n, 5d) site integrands, (n, 2d, 2) jump weights."""
    f = drift_fields(env)
    site = {"phipsi": f.phi + f.psi, "phi": f.phi, "psi": f.psi,
            "alpha": f.alpha, "beta": f.beta}
    jump = jump_weight_tables(env)
    return (np.concatenate([site[name] for name in _SITE_COLUMNS], axis=1),
            np.stack([jump[name] for name in _JUMP_COLUMNS], axis=-1))


def _components(X: np.ndarray, integrals: np.ndarray, jump_sums: np.ndarray) -> dict:
    """X, M, I, J, Z, Y from the displacement and the field_tables observers.

    integrals has the site-table columns on its last axis and jump_sums
    the jump-table columns; leading axes (replica, grid time) pass through.
    """
    site = dict(zip(_SITE_COLUMNS, np.split(integrals, len(_SITE_COLUMNS), axis=-1)))
    jump = dict(zip(_JUMP_COLUMNS, np.moveaxis(jump_sums, -1, 0)))
    # I and J are copies, so the components do not keep the whole table alive
    return {"X": X, "M": X - site["phipsi"], "I": site["phi"].copy(),
            "J": site["psi"].copy(), "Z": jump["z"] - site["alpha"],
            "Y": jump["y"] - site["beta"]}


@dataclass
class DecompositionPath:
    """The six path components of one trajectory at the grid times.

    M keeps its own integral accumulator for phi + psi, and Z + Y uses
    weight tables summing to one per edge, so the reconstruction residuals
    X - (M + I + J) and X - (Z + Y + I + J) measure genuine float
    accumulation error rather than being zero by construction.
    """

    times: np.ndarray
    X: np.ndarray
    M: np.ndarray
    I: np.ndarray
    J: np.ndarray
    Z: np.ndarray
    Y: np.ndarray

    def identity_residuals(self) -> dict:
        three = self.X - (self.M + self.I + self.J)
        four = self.X - (self.Z + self.Y + self.I + self.J)
        return {"three_way": float(np.max(np.abs(three))),
                "four_way": float(np.max(np.abs(four)))}


def decompose(env: Environment, traj: Trajectory, grid=None) -> DecompositionPath:
    """Split one trajectory into its martingale and drift components.

    Replays the recorded path with prefix sums over its holding intervals,
    independently of the lockstep engine.  Snapshots at grid times use the
    pre-jump state, matching the engine: a jump at exactly a grid time
    lands after the snapshot.
    """
    grid = check_grid(dyadic_grid(traj.T) if grid is None else grid, traj.T)
    site_table, jump_table = field_tables(env)
    t_ = env.torus
    m = traj.n_jumps
    start = np.concatenate([[0.0], traj.times])  # start of each holding interval
    held = traj.sites[:-1]

    # the leading zero row makes every prefix sum the running sum of the
    # walk's own accumulation order
    steps = np.zeros((m + 1, site_table.shape[1]))
    steps[1:] = site_table[held] * np.diff(start)[:, None]
    kicks = np.zeros((m + 1, t_.d, jump_table.shape[2]))
    kicks[np.arange(1, m + 1), t_.axis_of[traj.dirs]] = (
        jump_table[held, traj.dirs] * t_.sign_of[traj.dirs].astype(float)[:, None])

    # jumps strictly before each grid time count: the pre-jump rule
    idx = np.searchsorted(traj.times, grid, side="left")
    integrals = (np.cumsum(steps, axis=0)[idx]
                 + site_table[traj.sites[idx]] * (grid - start[idx])[:, None])
    jump_sums = np.cumsum(kicks, axis=0)[idx]
    X = traj.displacement[idx].astype(float)
    return DecompositionPath(times=grid, **_components(X, integrals, jump_sums))


@dataclass
class MartingaleEnsemble(DecompositionPath):
    """Decomposition paths for a replica ensemble at shared grid times.

    The six components carry a leading replica axis: X[r, g] and so on.
    """

    n_jumps: np.ndarray
    final_site: np.ndarray

    @property
    def n_replicas(self) -> int:
        return self.X.shape[0]


def decomposition(res: EnsembleResult) -> MartingaleEnsemble:
    """The decomposition of a walk run with the field_tables observers.

    _components works elementwise, so the decomposition of some of res's
    grid columns, such as the last k of a dyadic grid, is bit for bit that
    of a walk sampled on their times alone.

    Raises
    ------
    ValueError
        if res does not carry the field_tables observer columns.
    """
    columns = (len(_SITE_COLUMNS) * res.displacement.shape[2], len(_JUMP_COLUMNS))
    if (res.integrals.shape[2], res.jump_sums.shape[3]) != columns:
        raise ValueError("the walk carries no field_tables observers: run it with "
                         "mart.field_tables(env) as site_fields and jump_weights")
    return MartingaleEnsemble(
        times=res.times, **_components(res.displacement, res.integrals, res.jump_sums),
        n_jumps=res.n_jumps, final_site=res.final_site)


def run_decomposition_ensemble(env: Environment, T: float, n_replicas: int,
                               master_seed: int, grid=None,
                               x0: int | None = None) -> MartingaleEnsemble:
    site_table, jump_table = field_tables(env)
    return decomposition(run_ensemble(env, T, n_replicas, master_seed,
                                      grid=dyadic_grid(T) if grid is None else grid,
                                      site_fields=site_table, jump_weights=jump_table,
                                      x0=x0))


# -- ensemble statistics -------------------------------------------------------

@dataclass
class MeanInterval:
    """Batch-means confidence interval for the mean of iid replica values."""

    mean: float
    half_width: float
    se: float

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def batch_mean_interval(samples) -> MeanInterval:
    """99% interval from the means of N_BATCHES equal batches of the samples."""
    samples = np.asarray(samples, dtype=float).ravel()
    R = len(samples)
    if R < 2 * N_BATCHES:
        raise InsufficientReplicas(R, 2 * N_BATCHES)
    usable = R - (R % N_BATCHES)
    batches = samples[:usable].reshape(N_BATCHES, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / np.sqrt(N_BATCHES))
    return MeanInterval(mean=float(batches.mean()), half_width=Z_99 * se, se=se)


def variance_rate(ens: MartingaleEnsemble) -> MeanInterval:
    """Estimate E|X(T)|^2 / T at the last grid time with a 99% batch-means interval."""
    t = float(ens.times[-1])
    return batch_mean_interval((ens.X[:, -1, :] ** 2).sum(axis=1) / t)


def second_moment_curve(X: np.ndarray) -> tuple:
    """E|X(t)|^2 at every grid time of X (R, G, d), with per-time standard errors."""
    m2 = (X ** 2).sum(axis=2)  # (R, G)
    ivs = [batch_mean_interval(m2[:, g]) for g in range(m2.shape[1])]
    return np.array([iv.mean for iv in ivs]), np.array([iv.se for iv in ivs])


def growth_slope(times, second_moments) -> float:
    """Least-squares slope of log E|X|^2 against log t; NaN if a moment is 0.

    ValueError for fewer than two times, through which no line is fixed.
    """
    if len(times) < 2:
        raise ValueError("a growth slope needs at least two times")
    lt = np.log(np.asarray(times, dtype=float))
    with np.errstate(divide="ignore"):  # no replica moved by that time: log 0 = -inf
        lm = np.log(np.asarray(second_moments, dtype=float))
    return float(np.polyfit(lt, lm, 1)[0])


def zz_matrix(ens: MartingaleEnsemble) -> tuple:
    """Estimate E[Z Z^T] / t at the last grid time with batch-means standard errors."""
    if ens.n_replicas < MIN_REPLICAS:
        raise InsufficientReplicas(ens.n_replicas, MIN_REPLICAS)
    t = float(ens.times[-1])
    Zg = ens.Z[:, -1, :]
    d = Zg.shape[1]
    est = np.empty((d, d))
    se = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            iv = batch_mean_interval(Zg[:, i] * Zg[:, j] / t)
            est[i, j] = iv.mean
            se[i, j] = iv.se
    return est, se


def orthogonality_report(ens: MartingaleEnsemble) -> dict:
    """99% intervals for the cross moments that vanish for orthogonal parts.

    Tests E[Z(t1) . Y(t2)] and E[Z(t1) . (I+J)(t2)] at the first and last
    grid times; both are zero when Z is orthogonal to the remainder of the
    decomposition.
    """
    if ens.n_replicas < MIN_REPLICAS:
        raise InsufficientReplicas(ens.n_replicas, MIN_REPLICAS)
    Z1 = ens.Z[:, 0, :]
    return {
        "z_dot_y": batch_mean_interval((Z1 * ens.Y[:, -1, :]).sum(axis=1)),
        "z_dot_drift": batch_mean_interval(
            (Z1 * (ens.I[:, -1, :] + ens.J[:, -1, :])).sum(axis=1)),
    }


def _ks_distance(x: np.ndarray, cdf) -> float:
    """Two-sided one-sample KS statistic of x against a distribution function.

    Sorts a copy of x unless x is already ascending, and returns max(D+, D-);
    no p-value is computed.  One pass checks the order, and a NaN fails it.
    An ascending x, such as the engine's holding times, is read in place:
    it differs from np.sort(x) at most in the signs of its zeros, and both
    distribution functions here map -0.0 and +0.0 to the same value.

    The sorted sample is swept in strips of KS_BLOCK values, so only the
    sorted sample and one strip's arrays are alive; each strip keeps its two
    maxima, and a strip's entries are the one-pass entries bit for bit
    (rank + 1.0 is exact, and cdf acts elementwise).
    scipy's kstest reads D+ and D- at their first argmax, which holds the
    maximum: a NaN in x is a NaN in both, which np.max returns too, and no
    entry is -0.0, since (i+1)/n > 0, both CDFs return +0.0 or more and a
    difference of equal values rounds to +0.0.  So the statistic is scipy's.
    """
    if not np.all(x[:-1] <= x[1:]):
        x = np.sort(x)
    return float(np.max([_ks_strip(x, a, cdf) for a in range(0, len(x), KS_BLOCK)]))


def _ks_strip(x: np.ndarray, a: int, cdf) -> tuple:
    """The maxima of D+ and D- of the sorted x on the strip from a.

    The strip's arrays are freed on return, before the next strip's exist.
    """
    n = len(x)
    cdfvals = cdf(x[a:a + KS_BLOCK])
    rank = np.arange(a, a + len(cdfvals), dtype=float)
    return np.max((rank + 1.0) / n - cdfvals), np.max(cdfvals - rank / n)


def _expon_cdf(x: np.ndarray) -> np.ndarray:
    """Unit exponential CDF, bit for bit scipy's expon.cdf.

    scipy evaluates -expm1(-x) on the open support only, so x <= 0 (-0.0
    included) gives +0.0; +inf gives 1.0 and NaN stays NaN on their own.
    """
    cdf = -scipy.special.expm1(-x)
    cdf[x <= 0] = 0.0
    return cdf


def _normal_cdf(x: np.ndarray, sd: float) -> np.ndarray:
    """Centered normal CDF, bit for bit scipy's norm.cdf(x, 0, sd)."""
    return scipy.special.ndtr(x / sd)


def ks_exponential(holding) -> float:
    """KS distance of normalized holding times from the unit exponential.

    The engine's ascending holding times are read without a copy; any
    other order is sorted in a copy.
    """
    if holding is None:
        raise ValueError("no holding times were collected; run with collect_holding=True")
    if len(holding) == 0:
        raise ValueError("no holding-time samples: no replica jumped before T")
    return _ks_distance(np.asarray(holding, dtype=float), _expon_cdf)


def ks_gaussian(samples: np.ndarray) -> float:
    """KS distance from a centered normal with the sample's own scale."""
    samples = np.asarray(samples, dtype=float)
    sd = samples.std()
    if sd == 0:
        return 1.0
    return _ks_distance(samples, lambda x: _normal_cdf(x, sd))


def final_site_chisquare(final_site: np.ndarray, n_sites: int) -> float:
    """Chi-square p-value for uniformity of the wrapped endpoint counts.

    Pearson's statistic and its upper tail with n_sites - 1 degrees of
    freedom, evaluated as scipy's chisquare does, so bit for bit its
    p-value.
    """
    f = np.bincount(final_site, minlength=n_sites).astype(float)
    stat = ((f - f.mean()) ** 2 / f.mean()).sum()
    return float(scipy.special.chdtrc(len(f) - 1.0, stat))
