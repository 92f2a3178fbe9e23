"""Doubly stochastic environments on periodic tori.

An environment is a field of jump rates p_k(x) = s_k(x) + b_k(x) over the
directed edges of a torus, where s is a symmetric conductance field,
b is an antisymmetric divergence-free flow, and (optionally) b is the curl
of a stream tensor h.  Total outflow equals total inflow at every site, so
the uniform site measure is stationary for the walk.

A stream tensor is its canonical values, one per oriented plaquette, and
its full (n, 2d, 2d) form is expanded from them in StreamTensor.full(), so
its symmetries hold by construction.  Edge fields are kept as full arrays
over all 2d directions, built from canonical values or given whole, since an
environment from elsewhere may break them.  validate is the one certifier:
it reports every structural identity, on the full arrays, of every
environment that is loaded or drawn.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEdge, InconsistentRHS, InvalidEnvironment
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


def require_mean_zero(values) -> np.ndarray:
    """values as a float array, once their mean is within 1e-12 of their scale.

    A right side of L g = f or Lap u = f is solvable on the torus only when
    it is mean-zero; anything else is a modeling error.

    Raises
    ------
    InconsistentRHS
        if |mean| exceeds 1e-12 * max(1, max |values|).
    """
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if abs(mean) > 1e-12 * _scale(values):
        raise InconsistentRHS(mean)
    return values


def edge_symmetry_residual(torus: Torus, values: np.ndarray, odd: bool = False) -> float:
    """Worst violation of values[x, k] = +-values[x + k, -k].

    Axis 0 of `values` is the site and axis 1 the direction; trailing axes
    are compared entrywise.  The sign is + for a symmetric edge field and
    - when `odd`.
    """
    partner = values[torus.nbr, torus.opp]
    return float(np.max(np.abs(values + partner if odd else values - partner)))


class EdgeField:
    """An (n, 2d) field with f_{-k}(x+k) = f_k(x), or = -f_k(x) when the subclass is `odd`."""

    def __init__(self, torus: Torus, full: np.ndarray):
        full = np.asarray(full, dtype=float)
        if full.shape != (torus.n, torus.ndir):
            raise ValueError(f"expected shape {(torus.n, torus.ndir)}, got {full.shape}")
        self.torus = torus
        self.full = full

    @classmethod
    def from_canonical(cls, torus: Torus, canonical: np.ndarray):
        """The full field from canonical[x, i], the value on the edge (x, x + e_i).

        The reverse orientation at x takes +-canonical[x - e_i, i], so the
        edge symmetry holds exactly.
        """
        canonical = np.asarray(canonical, dtype=float)
        if canonical.shape != (torus.n, torus.d):
            raise ValueError(f"expected shape {(torus.n, torus.d)}, got {canonical.shape}")
        reverse = canonical[torus.nbr[:, torus.d:], np.arange(torus.d)]  # at x - e_i
        return cls(torus, np.concatenate([canonical, -reverse if cls.odd else reverse],
                                         axis=1))

    @property
    def canonical(self) -> np.ndarray:
        return self.full[:, : self.torus.d]


class ConductanceField(EdgeField):
    """Symmetric nonnegative edge field s with s_{-k}(x+k) = s_k(x)."""

    odd = False


class StreamTensor:
    """Plaquette field h_{k,l}(x) with the three alternating symmetries.

    The tensor is its canonical values, one per oriented plaquette,
    h_{e_i,e_j}(x) for i < j; full() derives the other images from

        h_{k,l}(x) = -h_{l,k}(x) = -h_{-k,l}(x+k) = -h_{k,-l}(x+l).
    """

    def __init__(self, torus: Torus, canonical: np.ndarray | None = None):
        self.torus = torus
        if canonical is None:
            canonical = np.zeros((torus.n, torus.npairs))
        canonical = np.asarray(canonical, dtype=float)
        if canonical.shape != (torus.n, torus.npairs):
            raise ValueError(f"expected shape {(torus.n, torus.npairs)}, got {canonical.shape}")
        self.canonical = canonical
        self._full = None

    def full(self) -> np.ndarray:
        """(n, 2d, 2d) tensor over all direction pairs, expanded once and cached."""
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

    def symmetry_residuals(self) -> dict:
        """Max absolute residual of each structural identity on the full tensor."""
        t = self.torus
        h = self.full()
        hT = h.transpose(0, 2, 1)
        dirs = np.arange(t.ndir)
        same_axis = (dirs[:, None] == dirs) | (t.opp[:, None] == dirs)
        return {"pair_antisymmetry": float(np.max(np.abs(h + hT))),
                "first_slot_shift": edge_symmetry_residual(t, h, odd=True),
                # the transpose puts the shifted slot on axis 1
                "second_slot_shift": edge_symmetry_residual(t, hT, odd=True),
                "same_axis_zero": float(np.max(np.abs(np.where(same_axis, h, 0.0))))}

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.canonical))) if self.canonical.size else 0.0

    def is_zero(self) -> bool:
        return self.max_abs() == 0.0


class FlowField(EdgeField):
    """Antisymmetric edge field b with b_{-k}(x+k) = -b_k(x)."""

    odd = True

    @classmethod
    def zero(cls, torus: Torus) -> "FlowField":
        return cls(torus, np.zeros((torus.n, torus.ndir)))

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


def curl(h: StreamTensor) -> FlowField:
    """Contract a stream tensor to its flow: b_k(x) = sum_l h_{k,l}(x).

    The flow is antisymmetric and divergence-free by construction; validate
    reports both identities, and the tensor's own, for each environment.
    """
    return FlowField(h.torus, h.full().sum(axis=2))


def curl_gap(h: StreamTensor, b: FlowField) -> float:
    """max |curl(h) - b|, how far b is from the curl of h; never raises."""
    return float(np.max(np.abs(curl(h).full - b.full)))


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

    @property
    def residuals(self) -> dict:
        return {e.name: e.residual for e in self.entries}

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

    report.add("conductance_symmetry", edge_symmetry_residual(t, env.s.full), s_scale)
    if env.h is not None:
        h_scale = _scale(env.h.full())
        for name, value in env.h.symmetry_residuals().items():
            report.add(f"stream_{name}", value, h_scale)
        report.add("flow_is_curl", curl_gap(env.h, env.b), max(b_scale, h_scale))
    report.add("flow_antisymmetry", edge_symmetry_residual(t, env.b.full, odd=True), b_scale)
    report.add("divergence_free", np.max(np.abs(env.b.divergence())), b_scale)
    domin = np.max(np.abs(env.b.full) - env.s.full)
    report.add("domination", max(domin, 0.0), max(s_scale, b_scale))
    report.add("rate_nonnegative", max(float(np.max(-env.p_full)), 0.0), p_scale)
    inflow = np.zeros(t.n)
    for k, back in enumerate(t.opp):
        inflow += env.p_full[t.nbr[:, k], back]
    report.add("bistochasticity", np.max(np.abs(env.p_full.sum(axis=1) - inflow)), p_scale)
    if env.weak_ellipticity:
        # an edge with s <= 0 carries no walk at all, however small |s| is
        report.add("weak_ellipticity", np.inf if env.s.full.min() <= 0.0 else 0.0, 1.0)
    return report


def make_conductance_stream_env(s_tilde: ConductanceField, h: StreamTensor) -> Environment:
    """Rates p_k = s_tilde_k + 2(b_k)_+ with b = curl(h).

    The symmetric part of the result is s_tilde_k + |b_k| exactly and the
    antisymmetric part is b, so the environment is bistochastic by
    construction.
    """
    b = curl(h)
    s_full = s_tilde.full + np.abs(b.full)
    return Environment(h.torus, ConductanceField(h.torus, s_full), b=b, h=h,
                       meta={"generator": "conductance-stream"})


def make_totally_asymmetric_env(h: StreamTensor) -> Environment:
    """Rates p_k = 2(b_k)_+ with b = curl(h); every edge is one-way.

    Raises
    ------
    DegenerateEdge
        if some edge has zero flow, which weak ellipticity forbids; on a
        1-d torus, which has no plaquettes, that is every edge.
    """
    b = curl(h)
    zero = np.argwhere(b.full == 0.0)
    if zero.size:
        x, k = zero[0]
        raise DegenerateEdge(int(x), int(k))
    return Environment(h.torus, ConductanceField(h.torus, np.abs(b.full)), b=b, h=h,
                       meta={"generator": "totally-asymmetric"})


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
# each law as (its parameter domain beyond finiteness, that domain's test, its
# sampler); numpy draws uniform as lo + (hi - lo) * u, so the width must be finite
_LAWS = {
    "uniform": ("lo <= hi with hi - lo finite",
                lambda lo, hi: lo <= hi and math.isfinite(hi - lo),
                lambda rng, size, lo, hi: rng.uniform(lo, hi, size)),
    "two_point": ("its probability in [0, 1]",
                  lambda a, b, prob_a: 0.0 <= prob_a <= 1.0,
                  lambda rng, size, a, b, prob_a:
                  np.where(rng.random(size) < prob_a, a, b).astype(float)),
    "lognormal": ("sigma >= 0",
                  lambda mu, sigma: sigma >= 0.0,
                  lambda rng, size, mu, sigma: rng.lognormal(mu, sigma, size)),
    "gaussian": ("scale >= 0",
                 lambda scale: scale >= 0.0,
                 lambda rng, size, scale: rng.normal(0.0, scale, size)),
}
GENERATORS = ("conductance-stream", "totally-asymmetric")
# the conductance and stream laws drawn from unless a caller names others
DEFAULT_LAWS = {"s_dist": ("uniform", 0.5, 2.0), "h_dist": ("gaussian", 0.3)}


def check_generator(generator, d: int) -> None:
    """Raise ValueError unless generator is known and can draw in dimension d.

    A 1-d torus has no plaquettes, so every stream has zero curl and a
    totally asymmetric environment would have no edge to move along.
    """
    if generator not in GENERATORS:
        raise ValueError(f"must be one of {', '.join(GENERATORS)}")
    if generator == "totally-asymmetric" and d < 2:
        raise ValueError("totally-asymmetric needs d >= 2: a 1-d torus has no "
                         "plaquettes, so its flow would vanish on every edge")


def check_dist(dist) -> None:
    """Raise ValueError unless dist is (known name, *finite floats in the law's domain)."""
    if isinstance(dist, str) or not isinstance(dist, (list, tuple)) or not dist:
        raise ValueError("distribution must be a list [name, *parameters]")
    name, *params = dist
    if not isinstance(name, str) or name not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {name!r}; known: {', '.join(DISTRIBUTIONS)}")
    if len(params) != DISTRIBUTIONS[name] or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in params):
        raise ValueError(f"{name} takes {DISTRIBUTIONS[name]} numeric parameters")
    # false for NaN, and exact for an integer of any size
    if not all(-sys.float_info.max <= v <= sys.float_info.max for v in params):
        raise ValueError(f"{name} parameters must be finite floats, got {params}")
    rule, holds, _ = _LAWS[name]
    if not holds(*map(float, params)):
        raise ValueError(f"{name} needs {rule}, got {params}")


def _draw(rng: np.random.Generator, dist, size) -> np.ndarray:
    """Sample an array from a (name, *params) distribution spec."""
    check_dist(dist)
    name, *params = dist
    return _LAWS[name][2](rng, size, *params)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands a 128-bit key to Philox as its seed words, low word first.

    Philox(_PhiloxKey(k)) reads its key from generate_state(2, uint64) and
    so starts in the state of Philox(key=k), without first filling a
    SeedSequence from OS entropy that the key would then override.
    """

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        bits = 8 * np.dtype(dtype).itemsize
        mask = (1 << bits) - 1
        return np.array([(self.key >> (bits * i)) & mask for i in range(n_words)],
                        dtype=dtype)


def _generator(seed: int) -> np.random.Generator:
    """The Philox stream keyed by seed in [0, 2**128), the package's one keyed stream."""
    key = int(seed)
    if not 0 <= key < 1 << 128:
        # Philox(key=...)'s own message, which a report may record
        raise ValueError("key must be positive and less than 2**128.")
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def random_conductances(torus: Torus, rng: np.random.Generator, dist) -> ConductanceField:
    """iid conductances per unoriented edge."""
    return ConductanceField.from_canonical(torus, _draw(rng, dist, (torus.n, torus.d)))


def random_stream(torus: Torus, rng: np.random.Generator,
                  dist=DEFAULT_LAWS["h_dist"]) -> StreamTensor:
    """iid stream values per oriented plaquette."""
    return StreamTensor(torus, _draw(rng, dist, (torus.n, torus.npairs)))


def random_environment(d: int, L: int, seed: int, generator: str = GENERATORS[0],
                       s_dist=DEFAULT_LAWS["s_dist"],
                       h_dist=DEFAULT_LAWS["h_dist"]) -> Environment:
    """Convenience builder used by the CLI and the test batteries."""
    t = Torus(d, L)
    rng = _generator(seed)
    h = random_stream(t, rng, h_dist)
    params = {"s_dist": list(s_dist), "h_dist": list(h_dist)}
    if generator == "conductance-stream":
        s_tilde = random_conductances(t, rng, s_dist)
        env = make_conductance_stream_env(s_tilde, h)
    elif generator == "totally-asymmetric":
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

def canonical_json(obj) -> str:
    """obj as JSON with sorted keys and no whitespace, the package's one byte form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
        f.write(canonical_json(env_to_dict(env)) + "\n")


def _doc_array(doc: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise InvalidEnvironment(f"field {key!r} must be an array of numbers")


# out-of-range values can overflow while the environment is built; validate
# reports the non-finite residuals, which numpy's warnings would only repeat
@np.errstate(over="ignore", invalid="ignore")
def env_from_dict(doc: dict) -> Environment:
    """Rebuild an environment and reject it if any invariant fails at DEFAULT_TOL.

    Raises
    ------
    InvalidEnvironment
        if the document is malformed (not an object, a missing or mistyped
        field, a wrongly sized array) or the environment breaks an invariant.
    """
    if not isinstance(doc, dict) or doc.get("format") != ENV_FORMAT:
        raise InvalidEnvironment(f"not a {ENV_FORMAT} document")
    if doc.get("version") != ENV_VERSION:
        raise InvalidEnvironment(f"unsupported version {doc.get('version')!r}")
    if "h" in doc and "b" in doc:
        raise InvalidEnvironment("document carries both a stream tensor and an explicit flow")
    for key, least in (("d", 1), ("L", 2)):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise InvalidEnvironment(f"field {key!r} must be an integer >= {least}")
    if "s" not in doc:
        raise InvalidEnvironment("missing conductance array 's'")
    t = Torus(doc["d"], doc["L"])
    s_arr = _doc_array(doc, "s")
    if s_arr.size != t.n * t.d:
        raise InvalidEnvironment(f"conductance array has {s_arr.size} values, expected {t.n * t.d}")
    s = ConductanceField.from_canonical(t, s_arr.reshape(t.n, t.d))
    weak = doc.get("weak_ellipticity", True)
    if not isinstance(weak, bool):
        raise InvalidEnvironment("field 'weak_ellipticity' must be true or false")
    if "b" in doc:
        b_arr = _doc_array(doc, "b")
        if b_arr.size != t.n * t.d:
            raise InvalidEnvironment(f"flow array has {b_arr.size} values, expected {t.n * t.d}")
        h, b = None, FlowField.from_canonical(t, b_arr.reshape(t.n, t.d))
    else:
        h = StreamTensor(t)  # env_to_dict writes neither array for a zero stream
        if "h" in doc:
            h_arr = _doc_array(doc, "h")
            if h_arr.size != t.n * t.npairs:
                raise InvalidEnvironment(
                    f"stream array has {h_arr.size} values, expected {t.n * t.npairs}")
            h = StreamTensor(t, h_arr.reshape(t.n, t.npairs))
        b = curl(h)
    meta = {"generator": doc.get("generator"), "seed": doc.get("seed"),
            "params": doc.get("params", {})}
    env = Environment(t, s, b=b, h=h, weak_ellipticity=weak, meta=meta)
    report = validate(env)
    if not report.passed:
        bad = [e.name for e in report.entries if not e.passed]
        raise InvalidEnvironment(f"invariants violated: {', '.join(bad)}\n{report}")
    return env


def load_env(path: str) -> Environment:
    """Read and check an environment file.

    Raises
    ------
    InvalidEnvironment
        if the file is not JSON text or env_from_dict rejects it.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # undecodable bytes or invalid JSON
            raise InvalidEnvironment(f"{path}: not a JSON document: {e}")
    return env_from_dict(doc)
