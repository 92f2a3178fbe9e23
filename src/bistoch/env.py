"""Doubly stochastic environments on periodic tori.

An environment is a field of jump rates p_k(x) = s_k(x) + b_k(x) over the
directed edges of a torus, where s is a symmetric conductance field,
b is an antisymmetric divergence-free flow, and (optionally) b is the curl
of a stream tensor h.  Total outflow equals total inflow at every site, so
the uniform site measure is stationary for the walk.

Edge fields are stored twice over: a canonical array holding one value per
unoriented edge (directions e_1..e_d) or per oriented plaquette, and a full
array over all 2d directions derived through the structural symmetries.
Constructors that start from canonical data therefore satisfy the symmetries
by construction; validation operates on the full arrays so that injected
faults and loaded files are actually checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEdge, InvalidEnvironment, SymmetryViolation
from .torus import Torus

DEFAULT_TOL = 1e-12

ENV_FORMAT = "bistoch-env"
ENV_VERSION = 1


def _scale(*arrays) -> float:
    """Magnitude floor used to turn relative tolerances into absolute ones."""
    m = 1.0
    for a in arrays:
        if a is not None and a.size:
            m = max(m, float(np.max(np.abs(a))))
    return m


def _worst(residual: np.ndarray) -> tuple:
    """Largest |residual| and the index of its first occurrence."""
    a = np.abs(residual)
    i = np.unravel_index(int(np.argmax(a)), a.shape)
    return float(a[i]), tuple(int(v) for v in i)


def edge_symmetry_residual(torus: Torus, values: np.ndarray, odd: bool = False) -> tuple:
    """Worst violation of values[x, k] = +-values[x + k, -k] and where it occurs.

    Axis 0 of `values` is the site and axis 1 the direction; trailing axes
    are compared entrywise.  The sign is + for a symmetric edge field and
    - when `odd`.  Returns (max residual, (x, k, ...)).
    """
    partner = values[torus.nbr, torus.opp]
    return _worst(values + partner if odd else values - partner)


class ConductanceField:
    """Symmetric nonnegative edge field s with s_{-k}(x+k) = s_k(x)."""

    def __init__(self, torus: Torus, full: np.ndarray):
        full = np.asarray(full, dtype=float)
        if full.shape != (torus.n, torus.ndir):
            raise ValueError(f"expected shape {(torus.n, torus.ndir)}, got {full.shape}")
        self.torus = torus
        self.full = full

    @classmethod
    def from_canonical(cls, torus: Torus, canonical: np.ndarray) -> "ConductanceField":
        """Build the full field from one value per unoriented edge.

        canonical[x, i] is the conductance of the edge (x, x + e_i); the
        reverse orientation s_{-e_i}(x) = s_{e_i}(x - e_i) is filled in so
        the edge symmetry holds exactly.
        """
        canonical = np.asarray(canonical, dtype=float)
        if canonical.shape != (torus.n, torus.d):
            raise ValueError(f"expected shape {(torus.n, torus.d)}, got {canonical.shape}")
        full = np.empty((torus.n, torus.ndir))
        full[:, : torus.d] = canonical
        for i in range(torus.d):
            back = torus.nbr[:, torus.d + i]  # x - e_i
            full[:, torus.d + i] = canonical[back, i]
        return cls(torus, full)

    @property
    def canonical(self) -> np.ndarray:
        return self.full[:, : self.torus.d]

    @property
    def r(self) -> np.ndarray:
        """Square-root conductances r = sqrt(s) over all directions."""
        return np.sqrt(self.full)

    def min_value(self) -> float:
        return float(self.full.min())


class StreamTensor:
    """Plaquette field h_{k,l}(x) with the three alternating symmetries.

    Canonical storage is one value per oriented plaquette, h_{e_i,e_j}(x)
    for i < j; the other images follow from

        h_{k,l}(x) = -h_{l,k}(x) = -h_{-k,l}(x+k) = -h_{k,-l}(x+l).
    """

    def __init__(self, torus: Torus, canonical: np.ndarray | None = None,
                 full: np.ndarray | None = None):
        self.torus = torus
        if canonical is None and full is None:
            canonical = np.zeros((torus.n, torus.npairs))
        if canonical is not None:
            canonical = np.asarray(canonical, dtype=float)
            if canonical.shape != (torus.n, torus.npairs):
                raise ValueError(
                    f"expected shape {(torus.n, torus.npairs)}, got {canonical.shape}")
        self.canonical = canonical
        self._full = None if full is None else np.asarray(full, dtype=float)
        if self._full is not None and self._full.shape != (torus.n, torus.ndir, torus.ndir):
            raise ValueError("full stream tensor has wrong shape")

    @classmethod
    def from_full(cls, torus: Torus, full: np.ndarray) -> "StreamTensor":
        """Wrap an explicit (n, 2d, 2d) tensor; symmetries are checked on use."""
        full = np.asarray(full, dtype=float)
        canonical = np.stack([full[:, i, j] for (i, j) in torus.pairs], axis=1) \
            if torus.npairs else np.zeros((torus.n, 0))
        return cls(torus, canonical=canonical, full=full)

    def full(self) -> np.ndarray:
        """(n, 2d, 2d) tensor over all direction pairs."""
        if self._full is not None:
            return self._full
        t = self.torus
        h = np.zeros((t.n, t.ndir, t.ndir))
        for pidx, (i, j) in enumerate(t.pairs):
            v = self.canonical[:, pidx]
            xm_i = t.nbr[:, t.d + i]
            xm_j = t.nbr[:, t.d + j]
            xm_ij = t.nbr[xm_i, t.d + j]
            h[:, i, j] = v
            h[:, t.d + i, j] = -v[xm_i]
            h[:, i, t.d + j] = -v[xm_j]
            h[:, t.d + i, t.d + j] = v[xm_ij]
            h[:, j, i] = -v
            h[:, j, t.d + i] = v[xm_i]
            h[:, t.d + j, i] = v[xm_j]
            h[:, t.d + j, t.d + i] = -v[xm_ij]
        self._full = h
        return h

    def symmetry_faults(self) -> dict:
        """Worst residual of each structural identity and its (site, k, l)."""
        t = self.torus
        h = self.full()
        hT = h.transpose(0, 2, 1)
        # the transpose puts the shifted slot on axis 1; swap the index back
        second, (x, a, b) = edge_symmetry_residual(t, hT, odd=True)
        dirs = np.arange(t.ndir)
        same_axis = (dirs[:, None] == dirs) | (t.opp[:, None] == dirs)
        return {"pair_antisymmetry": _worst(h + hT),
                "first_slot_shift": edge_symmetry_residual(t, h, odd=True),
                "second_slot_shift": (second, (x, b, a)),
                "same_axis_zero": _worst(np.where(same_axis, h, 0.0))}

    def symmetry_residuals(self) -> dict:
        """Max absolute residual of each structural identity on the full tensor."""
        return {name: value for name, (value, _) in self.symmetry_faults().items()}

    def max_abs(self) -> float:
        if self.canonical is not None and self.canonical.size:
            return float(np.max(np.abs(self.canonical)))
        f = self._full
        return float(np.max(np.abs(f))) if f is not None and f.size else 0.0

    def is_zero(self) -> bool:
        return self.max_abs() == 0.0


class FlowField:
    """Antisymmetric edge field b with b_{-k}(x+k) = -b_k(x)."""

    def __init__(self, torus: Torus, full: np.ndarray):
        full = np.asarray(full, dtype=float)
        if full.shape != (torus.n, torus.ndir):
            raise ValueError(f"expected shape {(torus.n, torus.ndir)}, got {full.shape}")
        self.torus = torus
        self.full = full

    @classmethod
    def from_canonical(cls, torus: Torus, canonical: np.ndarray) -> "FlowField":
        canonical = np.asarray(canonical, dtype=float)
        if canonical.shape != (torus.n, torus.d):
            raise ValueError(f"expected shape {(torus.n, torus.d)}, got {canonical.shape}")
        full = np.empty((torus.n, torus.ndir))
        full[:, : torus.d] = canonical
        for i in range(torus.d):
            back = torus.nbr[:, torus.d + i]
            full[:, torus.d + i] = -canonical[back, i]
        return cls(torus, full)

    @classmethod
    def zero(cls, torus: Torus) -> "FlowField":
        return cls(torus, np.zeros((torus.n, torus.ndir)))

    @property
    def canonical(self) -> np.ndarray:
        return self.full[:, : self.torus.d]

    def divergence(self) -> np.ndarray:
        """Per-site sum over directions; zero for a divergence-free flow."""
        return self.full.sum(axis=1)

    def flux(self) -> np.ndarray:
        """Per-direction site averages (e_1..e_d).

        Vanishing flux is necessary and sufficient on the torus for b to be
        the curl of a periodic stream tensor.
        """
        return self.canonical.mean(axis=0)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.full))) if self.full.size else 0.0


def curl(h: StreamTensor, tol: float = DEFAULT_TOL) -> FlowField:
    """Contract a stream tensor to its flow: b_k(x) = sum_l h_{k,l}(x).

    The tensor symmetries are validated first; the resulting flow is
    divergence-free by construction and that is asserted before returning.

    Raises
    ------
    SymmetryViolation
        if any structural identity of the tensor fails beyond tolerance.
    """
    t = h.torus
    full = h.full()
    abs_tol = tol * _scale(full)
    for name, (value, (site, k, l)) in h.symmetry_faults().items():
        if value > abs_tol:
            raise SymmetryViolation(site, (k, l), value, identity=name)
    b_full = full.sum(axis=2)
    flow = FlowField(t, b_full)
    div = np.max(np.abs(flow.divergence())) if t.n else 0.0
    if div > abs_tol:
        raise SymmetryViolation(int(np.argmax(np.abs(flow.divergence()))), (), float(div),
                                identity="divergence_free")
    return flow


@dataclass
class ValidationEntry:
    name: str
    residual: float
    scale: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance * self.scale


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)
    tolerance: float = DEFAULT_TOL

    def add(self, name: str, residual: float, scale: float):
        self.entries.append(ValidationEntry(name, float(residual), scale, self.tolerance))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def residual(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.residual
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "identities": {
                e.name: {"residual": e.residual, "scale": e.scale, "passed": e.passed}
                for e in self.entries
            },
        }

    def __str__(self) -> str:
        lines = [f"validation ({'pass' if self.passed else 'FAIL'}, tol {self.tolerance:g}):"]
        for e in self.entries:
            mark = "ok  " if e.passed else "FAIL"
            lines.append(f"  {mark} {e.name:<22} residual {e.residual:.3e}")
        return "\n".join(lines)


class Environment:
    """Torus, conductances, flow, optional stream tensor, and derived rates."""

    def __init__(self, torus: Torus, s: ConductanceField, b: FlowField | None = None,
                 h: StreamTensor | None = None, weak_ellipticity: bool = True,
                 meta: dict | None = None):
        self.torus = torus
        self.s = s
        self.h = h
        self.b = b if b is not None else FlowField.zero(torus)
        self.weak_ellipticity = weak_ellipticity
        self.meta = dict(meta or {})
        self.p_full = self.s.full + self.b.full
        # cumulative rates per site drive the direction draw; the final column
        # doubles as the total rate so the two can never disagree
        self.cum_rates = np.cumsum(self.p_full, axis=1)
        self.total_rate = self.cum_rates[:, -1].copy()

    @property
    def d(self) -> int:
        return self.torus.d

    @property
    def L(self) -> int:
        return self.torus.L

    @property
    def n(self) -> int:
        return self.torus.n

    def min_gap(self) -> float:
        """min over edges of s_k - |b_k| (zero for totally asymmetric rates)."""
        return float(np.min(self.s.full - np.abs(self.b.full)))

    def validate(self, tolerance: float = DEFAULT_TOL) -> ValidationReport:
        return validate(self, tolerance)


def validate(env: Environment, tolerance: float = DEFAULT_TOL) -> ValidationReport:
    """Check every structural identity and report residuals; never raises.

    Identities checked: conductance symmetry, stream-tensor symmetries (when
    a tensor is present), flow antisymmetry, zero divergence, domination
    |b| <= s, rate nonnegativity, and site-wise bistochasticity.  Each
    residual is compared against tolerance * max(1, field magnitude).
    """
    t = env.torus
    report = ValidationReport(tolerance=tolerance)
    s_scale = _scale(env.s.full)
    b_scale = _scale(env.b.full)
    p_scale = _scale(env.p_full)

    report.add("conductance_symmetry", edge_symmetry_residual(t, env.s.full)[0], s_scale)
    if env.h is not None:
        h_scale = _scale(env.h.full())
        for name, value in env.h.symmetry_residuals().items():
            report.add(f"stream_{name}", value, h_scale)
        flow_gap = np.max(np.abs(env.h.full().sum(axis=2) - env.b.full))
        report.add("flow_is_curl", flow_gap, max(b_scale, h_scale))
    report.add("flow_antisymmetry", edge_symmetry_residual(t, env.b.full, odd=True)[0],
               b_scale)
    report.add("divergence_free", np.max(np.abs(env.b.divergence())), b_scale)
    domin = np.max(np.abs(env.b.full) - env.s.full)
    report.add("domination", max(domin, 0.0), max(s_scale, b_scale))
    report.add("rate_nonnegative", max(float(np.max(-env.p_full)), 0.0), p_scale)
    inflow = np.zeros(t.n)
    for k in range(t.ndir):
        inflow += env.p_full[t.nbr[:, k], t.opposite(k)]
    report.add("bistochasticity", np.max(np.abs(env.p_full.sum(axis=1) - inflow)), p_scale)
    if env.weak_ellipticity:
        gap = env.s.min_value()
        report.add("weak_ellipticity", max(-gap, 0.0) if gap <= 0 else 0.0, 1.0)
        if gap == 0.0:
            report.entries[-1].residual = np.inf
    return report


def make_conductance_stream_env(s_tilde: ConductanceField, h: StreamTensor,
                                meta: dict | None = None) -> Environment:
    """Rates p_k = s_tilde_k + 2(b_k)_+ with b = curl(h).

    The symmetric part of the result is s_tilde_k + |b_k| exactly and the
    antisymmetric part is b, so the environment is bistochastic by
    construction.
    """
    b = curl(h)
    s_full = s_tilde.full + np.abs(b.full)
    env = Environment(h.torus, ConductanceField(h.torus, s_full), b=b, h=h,
                      meta={"generator": "conductance-stream", **(meta or {})})
    return env


def make_totally_asymmetric_env(h: StreamTensor, weak_ellipticity: bool = True,
                                meta: dict | None = None) -> Environment:
    """Rates p_k = 2(b_k)_+ with b = curl(h); every edge is one-way.

    Raises
    ------
    DegenerateEdge
        if some edge has zero flow while weak ellipticity is required.
    """
    b = curl(h)
    if weak_ellipticity:
        zero = np.argwhere(b.full == 0.0)
        if zero.size:
            x, k = zero[0]
            raise DegenerateEdge(int(x), int(k))
    s_full = np.abs(b.full)
    return Environment(h.torus, ConductanceField(h.torus, s_full), b=b, h=h,
                       weak_ellipticity=weak_ellipticity,
                       meta={"generator": "totally-asymmetric", **(meta or {})})


def homogeneous_environment(d: int, L: int, s: float = 1.0) -> Environment:
    """Constant conductances, zero flow."""
    t = Torus(d, L)
    sc = ConductanceField.from_canonical(t, np.full((t.n, t.d), float(s)))
    return Environment(t, sc, h=StreamTensor(t), meta={"generator": "homogeneous"})


def adjoint_environment(env: Environment) -> Environment:
    """The time-reversed walk: same conductances, negated flow.

    For a bistochastic environment the reversal of the uniform-stationary
    chain has rates p*_k(x) = p_{-k}(x + k) = s_k(x) - b_k(x).
    """
    t = env.torus
    b = FlowField(t, -env.b.full)
    h = StreamTensor(t, -env.h.canonical) if env.h is not None else None
    return Environment(t, env.s, b=b, h=h,
                       weak_ellipticity=env.weak_ellipticity,
                       meta={**env.meta, "generator": "adjoint"})


def checkerboard_stream(torus: Torus, c: float = 1.0) -> StreamTensor:
    """h_{e1,e2}(x) = c * (-1)^(x_1 + x_2); requires d >= 2 and even L."""
    if torus.d < 2:
        raise ValueError("checkerboard stream needs d >= 2")
    if torus.L % 2:
        raise ValueError("checkerboard stream needs even L")
    coords = torus.all_coords()
    parity = (-1.0) ** ((coords[:, 0] + coords[:, 1]) % 2)
    canonical = np.zeros((torus.n, torus.npairs))
    canonical[:, 0] = c * parity  # pair (e_1, e_2)
    return StreamTensor(torus, canonical)


# -- random generation ------------------------------------------------------

# parameter count of each distribution name accepted by random_environment
DISTRIBUTIONS = {"uniform": 2, "two_point": 3, "lognormal": 2, "gaussian": 1}
GENERATORS = ("conductance-stream", "totally-asymmetric")


def check_dist(dist) -> None:
    """Raise ValueError unless dist is (known name, *its count of real numbers)."""
    if isinstance(dist, str) or not isinstance(dist, (list, tuple)) or not dist:
        raise ValueError("distribution must be a list [name, *parameters]")
    name, *params = dist
    if not isinstance(name, str) or name not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {name!r}; known: {', '.join(DISTRIBUTIONS)}")
    if len(params) != DISTRIBUTIONS[name] or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in params):
        raise ValueError(f"{name} takes {DISTRIBUTIONS[name]} numeric parameters")


def _draw(rng: np.random.Generator, dist, size) -> np.ndarray:
    """Sample an array from a (name, *params) distribution spec."""
    check_dist(dist)
    name, *params = dist
    if name == "uniform":
        lo, hi = params
        return rng.uniform(lo, hi, size)
    if name == "two_point":
        a, b, prob_a = params
        return np.where(rng.random(size) < prob_a, a, b).astype(float)
    if name == "lognormal":
        mu, sigma = params
        return rng.lognormal(mu, sigma, size)
    (scale,) = params  # gaussian
    return rng.normal(0.0, scale, size)


def random_conductances(torus: Torus, rng: np.random.Generator,
                        dist=("uniform", 0.5, 2.0)) -> ConductanceField:
    """iid conductances per unoriented edge."""
    return ConductanceField.from_canonical(torus, _draw(rng, dist, (torus.n, torus.d)))


def random_stream(torus: Torus, rng: np.random.Generator,
                  dist=("gaussian", 0.3)) -> StreamTensor:
    """iid stream values per oriented plaquette."""
    return StreamTensor(torus, _draw(rng, dist, (torus.n, torus.npairs)))


def random_environment(d: int, L: int, seed: int, generator: str = "conductance-stream",
                       s_dist=("uniform", 0.5, 2.0), h_dist=("gaussian", 0.3)) -> Environment:
    """Convenience builder used by the CLI and the test batteries."""
    t = Torus(d, L)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    h = random_stream(t, rng, h_dist)
    params = {"s_dist": list(s_dist), "h_dist": list(h_dist)}
    if generator == "conductance-stream":
        s_tilde = random_conductances(t, rng, s_dist)
        env = make_conductance_stream_env(s_tilde, h)
    elif generator == "totally-asymmetric":
        if t.npairs == 0:
            raise DegenerateEdge(0, 0)  # no plaquettes, so curl(h) = 0 on every edge
        env = make_totally_asymmetric_env(h)
    else:
        raise ValueError(f"unknown generator {generator!r}")
    env.meta.update({"seed": int(seed), "d": d, "L": L, "params": params})
    return env


# -- integrability diagnostics ----------------------------------------------

@dataclass
class Diagnostics:
    """Site-averaged integrability functionals of the rate field.

    r_l2[k]            mean of s_k  (= mean of r_k^2)
    rinv_l2[k]         mean of 1/s_k, +inf if any edge in direction k is zero
    h_weighted_l2[k,l] mean of h_{k,l}^2 / s_l
    h_l1[k,l]          mean of |h_{k,l}|
    zero_edges         (site, direction) pairs where s_k = 0
    """
    r_l2: np.ndarray
    rinv_l2: np.ndarray
    h_weighted_l2: np.ndarray
    h_l1: np.ndarray
    zero_edges: list


def integrability_diagnostics(env: Environment) -> Diagnostics:
    t = env.torus
    s = env.s.full
    r_l2 = s.mean(axis=0)
    zero_mask = s == 0.0
    inv = np.where(zero_mask, np.inf, 1.0 / np.where(zero_mask, 1.0, s))
    # a direction with any zero edge reports +inf, mirroring the failed moment
    rinv_l2 = np.array([np.inf if zero_mask[:, k].any() else inv[:, k].mean()
                        for k in range(t.ndir)])
    h_full = env.h.full() if env.h is not None else np.zeros((t.n, t.ndir, t.ndir))
    hw = np.empty((t.ndir, t.ndir))
    h1 = np.abs(h_full).mean(axis=0)
    for l in range(t.ndir):
        col = s[:, l]
        bad = col == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = h_full[:, :, l] ** 2 / col[:, None]
        if bad.any():
            nonzero_h = np.abs(h_full[:, :, l]) > 0
            for k in range(t.ndir):
                if (bad & nonzero_h[:, k]).any():
                    hw[k, l] = np.inf
                else:
                    keep = ~bad
                    hw[k, l] = vals[keep, k].mean() if keep.any() else 0.0
        else:
            hw[:, l] = vals.mean(axis=0)
    zero_edges = [(int(x), int(k)) for x, k in np.argwhere(zero_mask)[:64]]
    return Diagnostics(r_l2, rinv_l2, hw, h1, zero_edges)


# -- serialization -----------------------------------------------------------

def env_to_dict(env: Environment) -> dict:
    """JSON-ready document: header plus flat canonical field arrays."""
    meta = env.meta
    doc = {
        "format": ENV_FORMAT,
        "version": ENV_VERSION,
        "d": env.torus.d,
        "L": env.torus.L,
        "seed": meta.get("seed"),
        "generator": meta.get("generator"),
        "params": meta.get("params", {}),
        "weak_ellipticity": env.weak_ellipticity,
        "s": [float(v) for v in env.s.canonical.ravel()],
    }
    if env.h is not None and not env.h.is_zero():
        doc["h"] = [float(v) for v in env.h.canonical.ravel()]
    elif env.b.max_abs() > 0.0:
        doc["b"] = [float(v) for v in env.b.canonical.ravel()]
    return doc


def save_env(env: Environment, path: str) -> None:
    with open(path, "w") as f:
        json.dump(env_to_dict(env), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def env_from_dict(doc: dict, tolerance: float = DEFAULT_TOL) -> Environment:
    """Rebuild an environment and reject it if any invariant fails."""
    if doc.get("format") != ENV_FORMAT:
        raise InvalidEnvironment(f"not a {ENV_FORMAT} document")
    if doc.get("version") != ENV_VERSION:
        raise InvalidEnvironment(f"unsupported version {doc.get('version')!r}")
    if "h" in doc and "b" in doc:
        raise InvalidEnvironment("document carries both a stream tensor and an explicit flow")
    t = Torus(int(doc["d"]), int(doc["L"]))
    s_arr = np.asarray(doc["s"], dtype=float)
    if s_arr.size != t.n * t.d:
        raise InvalidEnvironment(f"conductance array has {s_arr.size} values, expected {t.n * t.d}")
    s = ConductanceField.from_canonical(t, s_arr.reshape(t.n, t.d))
    h = None
    b = None
    if "h" in doc:
        h_arr = np.asarray(doc["h"], dtype=float)
        if h_arr.size != t.n * t.npairs:
            raise InvalidEnvironment(
                f"stream array has {h_arr.size} values, expected {t.n * t.npairs}")
        h = StreamTensor(t, h_arr.reshape(t.n, t.npairs))
        b = curl(h)
    elif "b" in doc:
        b_arr = np.asarray(doc["b"], dtype=float)
        if b_arr.size != t.n * t.d:
            raise InvalidEnvironment(f"flow array has {b_arr.size} values, expected {t.n * t.d}")
        b = FlowField.from_canonical(t, b_arr.reshape(t.n, t.d))
    meta = {"generator": doc.get("generator"), "seed": doc.get("seed"),
            "params": doc.get("params", {})}
    env = Environment(t, s, b=b, h=h, weak_ellipticity=bool(doc.get("weak_ellipticity", True)),
                      meta=meta)
    report = validate(env, tolerance)
    if not report.passed:
        bad = [e.name for e in report.entries if not e.passed]
        raise InvalidEnvironment(f"invariants violated: {', '.join(bad)}\n{report}")
    return env


def load_env(path: str, tolerance: float = DEFAULT_TOL) -> Environment:
    with open(path) as f:
        return env_from_dict(json.load(f), tolerance)
