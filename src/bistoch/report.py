"""Configured check batteries with reproducible, canonical reports.

A config JSON names an environment (inline generator parameters or a file)
and a subset of checks.  Running it produces a report whose bytes depend
only on the config content: seeds derive from the config, replica streams
are keyed per replica, and wall-clock timings go to a separate sidecar, so
a rerun reproduces the report exactly.

Statistical checks (confidence intervals, distribution distances) are
allowed two deterministic reseeds: a sound implementation fails a 99%
assertion about once in a hundred runs, and three independent failures in
a row is evidence of a defect rather than bad luck.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from . import corrector, helmholtz, mart, walker
from .corrector import RESIDUAL_CAP, SPECTRAL_TOL
from .env import (GENERATORS, Environment, _scale, canonical_json, check_dist,
                  check_generator, curl_gap, load_env, random_environment, validate)
from .errors import ConfigError, DegenerateEdge
from .torus import check_integer, check_positive, is_number, site_count
from .walker import SEED_LIMIT, check_grid, check_site

REPORT_FORMAT = "bistoch-report"
REPORT_VERSION = 1

CHECK_NAMES = ("validate", "bounds", "decompose", "orthogonality",
               "corrector", "spectral", "helmholtz", "clt")
STATISTICAL_CHECKS = frozenset({"orthogonality", "clt"})

# attempt seeds walk the master seed by a fixed odd multiplier
RESEED_STEP = 0x9E3779B97F4A7C15
MAX_ATTEMPTS = 3

# admissible range [least, limit) of each integer environment parameter;
# a seed is the high word of every replica key, so it stays below 2**64
ENV_RANGES = {"d": (1, math.inf), "L": (2, math.inf), "seed": (0, SEED_LIMIT)}
# a replica index is the low word of its key, so a run has at most 2**64 replicas
REPLICA_RANGE = (1, SEED_LIMIT + 1)

# large-sample 99% critical coefficient for the one-sample KS statistic
KS_99_COEFF = 1.6276236115189504


def reseed(master_seed: int, attempt: int) -> int:
    """Deterministic per-attempt seed; attempt 0 is the master seed."""
    if attempt == 0:
        return master_seed
    return (master_seed ^ (attempt * RESEED_STEP)) & ((1 << 63) - 1)


@dataclass
class ExperimentConfig:
    """Validated contents of a check-battery config file."""

    seed: int
    env: dict
    checks: tuple       # distinct names, in first-seen order
    T: float
    replicas: int
    tolerance: float
    x0: int | None
    grid: list | None
    raw: dict           # the config as given, numpy numbers as Python ones

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def checked(path: str, rule, *args):
    """rule(*args), with the ValueError it raises re-raised as ConfigError(path, ...).

    This is the one place where an input rule's rejection becomes a usage error.
    """
    try:
        return rule(*args)
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def require_site(x0, n: int, path: str = "x0") -> None:
    """Raise ConfigError unless x0 is None or a site index in [0, n)."""
    if x0 is not None:
        checked(path, check_site, x0, n)


def config_from_dict(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "", "config must be a JSON object")
    known = {"seed", "env", "checks", "T", "replicas", "tolerance", "x0", "grid"}
    for key in data:
        _require(key in known, key, "unknown field")

    seed = checked("seed", check_integer, data.get("seed", 0), "seed", *ENV_RANGES["seed"])

    env = data.get("env")
    _require(isinstance(env, dict), "env", "must be an object")
    if "path" in env:
        _require(set(env) == {"path"}, "env",
                 "a file reference allows no other fields")
        _require(isinstance(env["path"], str), "env.path", "must be a string")
    else:
        env_known = {"d", "L", "seed", "generator", "s_dist", "h_dist"}
        for key in env:
            _require(key in env_known, f"env.{key}", "unknown field")
        for key, (least, limit) in ENV_RANGES.items():
            checked(f"env.{key}", check_integer, env.get(key), key, least, limit)
        checked("env.generator", check_generator, env.get("generator", GENERATORS[0]),
                env["d"])
        for key in ("s_dist", "h_dist"):
            if key in env:
                checked(f"env.{key}", check_dist, env[key])

    checks = data.get("checks", list(CHECK_NAMES))
    _require(isinstance(checks, list) and checks, "checks",
             "must be a non-empty list")
    for i, name in enumerate(checks):
        _require(name in CHECK_NAMES, f"checks[{i}]",
                 f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")

    T = checked("T", check_positive, data.get("T", 100.0), "horizon T")
    replicas = checked("replicas", check_integer, data.get("replicas", 2000), "replicas",
                       *REPLICA_RANGE)
    tolerance = checked("tolerance", check_positive, data.get("tolerance", 1e-12), "tolerance")
    x0 = data.get("x0")
    if x0 is not None:
        x0 = checked("x0", check_integer, x0, "start site x0", 0)
    if "path" not in env:  # an environment file is checked once it is loaded
        require_site(x0, checked("env", site_count, env["d"], env["L"]))
    grid = data.get("grid")
    if grid is not None:
        _require(isinstance(grid, list) and len(grid) > 0 and all(map(is_number, grid)),
                 "grid", "must be a non-empty list of times")
        checked("grid", check_grid, grid, T)
        _require(len(grid) >= 2 or "clt" not in checks, "grid",
                 "clt fits a growth slope, which needs at least two times")

    return ExperimentConfig(seed=seed, env=env, checks=tuple(dict.fromkeys(checks)),
                            T=T, replicas=replicas, tolerance=tolerance, x0=x0, grid=grid,
                            raw=_pyify(data))


def load_config(path: str) -> ExperimentConfig:
    """Read and check a config file; OSError if it cannot be opened."""
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as e:  # undecodable bytes or invalid JSON
            raise ConfigError(path, f"not a JSON document: {e}")
    return config_from_dict(data)


# a law can draw values whose sums overflow; validate reports the non-finite
# residuals, which numpy's warnings would only repeat
@np.errstate(over="ignore", invalid="ignore")
def draw_environment(d: int, L: int, seed: int, path: str, **laws) -> tuple:
    """A random environment and its validation report; ConfigError unless valid.

    Only the laws and the seed shape the draw, so a law parameter outside
    the sampler's domain (a negative scale), a stream law that leaves
    an edge without flow (DegenerateEdge) and an environment that fails
    validation (a law with negative values, say) are input errors.  The
    tolerance is the one load_env applies to files.
    """
    try:
        env = checked(path, lambda: random_environment(d, L, seed, **laws))
    except DegenerateEdge as e:
        raise ConfigError(path, f"the laws draw an edge without flow: {e}")
    rep = validate(env)
    _require(rep.passed, path, f"the laws draw an invalid environment\n{rep}")
    return env, rep


def build_environment(cfg: ExperimentConfig) -> Environment:
    """The config's environment, loaded from its file or drawn and validated."""
    spec = cfg.env
    if "path" in spec:
        return load_env(spec["path"])
    laws = {key: spec[key] for key in ("generator", "s_dist", "h_dist") if key in spec}
    return draw_environment(spec["d"], spec["L"], spec["seed"], "env", **laws)[0]


def _pyify(obj):
    """obj with numpy arrays and scalars as Python lists and scalars.

    Each non-finite float becomes None, JSON's null: the result is strict JSON.
    """
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _interval_dict(iv: mart.MeanInterval) -> dict:
    return {"mean": iv.mean, "half_width": iv.half_width,
            "contains_zero": iv.contains(0.0)}


# -- individual checks ---------------------------------------------------------
#
# Every check is called as fn(ops, cfg, walks): ops is the run's one OperatorAssembly,
# and walks holds the seed of the attempt and the walk of that seed.

# the checks that read the decomposition observers; clt reads only X, the
# holding times and the final sites
DECOMPOSITION_CHECKS = frozenset({"decompose", "orthogonality"})


class _Walks:
    """The walk of one seed, simulated on first use with what its due checks read.

    due names the checks still to run under this seed.  The walk samples the
    config grid or the 8-level dyadic grid, carries the field_tables
    observers only while decompose or orthogonality is due, and collects
    holding times only while clt is due.  Each check reads the whole config
    grid or the last 4, 5 or 8 dyadic times: T * 2**-k is exact, so
    dyadic_grid(T, k) is dyadic_grid(T, 8)[-k:] to the bit.  A replica's
    path depends neither on the observers nor on the grid it is sampled on,
    so every check reads the numbers that a walk of its own would give, bit
    for bit, and each seed is walked once.
    """

    def __init__(self, env: Environment, cfg: ExperimentConfig, seed: int, due: list):
        self.env = env
        self.cfg = cfg
        self.seed = seed
        self.decomposition = not DECOMPOSITION_CHECKS.isdisjoint(due)
        self.collect_holding = "clt" in due
        self._walk = None

    def walk(self, levels: int) -> walker.EnsembleResult:
        """The walk on the config grid, or its last levels dyadic times, as views."""
        cfg = self.cfg
        if self._walk is None:
            site_fields, jump_weights = (mart.field_tables(self.env) if self.decomposition
                                         else (None, None))
            grid = cfg.grid if cfg.grid is not None else mart.dyadic_grid(cfg.T)
            self._walk = walker.run_ensemble(
                self.env, cfg.T, cfg.replicas, self.seed, grid=grid,
                site_fields=site_fields, jump_weights=jump_weights, x0=cfg.x0,
                collect_holding=self.collect_holding)
        w = self._walk
        if cfg.grid is not None:
            return w
        tail = slice(-levels, None)
        return replace(w, times=w.times[tail], displacement=w.displacement[:, tail],
                       integrals=w.integrals[:, tail], jump_sums=w.jump_sums[:, tail])


def _check_validate(ops, cfg, walks):
    rep = validate(ops.env, cfg.tolerance)
    return {"passed": rep.passed,
            "max_residual": rep.max_residual,
            "residuals": rep.residuals}


def bounds_verdict(assembly: corrector.OperatorAssembly) -> dict:
    """The assembly's sigma2 against mart.bounds, to within 1e-9.

    This is a battery's `bounds` entry and the document `bistoch bounds` writes.
    """
    bd = mart.bounds(assembly.env)
    dv = assembly.diffusivity
    chk = bd.check(dv.sigma2, atol=1e-9)
    return {"passed": chk["lower_ok"] and chk["upper_ok"],
            "sigma2": dv.sigma2, "lower": bd.lower,
            "upper_trace": bd.upper_trace, **chk}


def decompose_verdict(ens: mart.MartingaleEnsemble) -> dict:
    """The ensemble's path-identity residuals, each held to mart.IDENTITY_TOL.

    This is a battery's `decompose` entry and the exit code of `bistoch decompose`.
    """
    res = ens.identity_residuals()
    return {"passed": all(v <= mart.IDENTITY_TOL for v in res.values()), **res}


def _check_orthogonality(ops, cfg, walks):
    ens = mart.decomposition(walks.walk(4))
    rep = mart.orthogonality_report(ens)
    est, se = mart.zz_matrix(ens)
    target = mart.bounds(ops.env).lower
    zz_ok = bool(np.all(np.abs(est - target) <= 3.0 * se + 1e-12))
    both_zero = all(iv.contains(0.0) for iv in rep.values())
    return {"passed": zz_ok and both_zero,
            "zz_over_t": est, "zz_target": target, "zz_se": se,
            "zz_within_3se": zz_ok,
            **{name: _interval_dict(iv) for name, iv in rep.items()}}


def _check_corrector(ops, cfg, walks):
    dv = ops.diffusivity
    return {"passed": True, "sigma2": dv.sigma2,
            "harmonic_residuals": [sol.residual for sol in dv.solutions]}


def _check_spectral(ops, cfg, walks):
    env, spec = ops.env, ops.spectral_operator()
    f = mart.drift_fields(env)
    rhs = -(f.phi[:, 0] + f.psi[:, 0])
    sk = ops.diffusivity.solutions[0]  # sigma2's axis 0: the bits of a solve of rhs
    ss = corrector.solve_harmonic_spectral(env, rhs, spec=spec)
    gap = float(np.max(np.abs(sk.potential - ss.potential)))
    heq = corrector.harmonic_equation_residual(env, sk, rhs)
    # The routes agree as far as their residuals allow.  Both potentials are
    # mean-zero, so v = g_k - g_s is too, and L v = r_k - r_s for the residual
    # vectors r = L g - rhs.  Since A is skew, <v, -L v> = <v, S v> >=
    # lam1 |v|_2^2 with lam1 the smallest nonzero eigenvalue of S, hence
    # |v|_inf <= |v|_2 <= |L v|_2 / lam1 <= sqrt(n) (res_k + res_s) / lam1
    # for the reported max-norm residuals.  A fixed gap would fail correct
    # code in d=1, where lam1 ~ (2 pi / L)^2.  The edge form of the harmonic
    # equation is held to the solvers' cap on L g - rhs, relative to the
    # scale of rhs, since both sides grow with the rates; the cap is bound
    # at import, so a solver run with a lifted cap is still held to it.
    route_bound = math.sqrt(env.torus.n) * (sk.residual + ss.residual) / spec.s_eigenvalues[1]
    out = {"skewness": spec.skewness, "min_singular": spec.min_singular,
           "zero_modes": int(np.sum(spec.s_eigenvalues <= 0.0)),
           "route_gap": gap, "harmonic_equation_residual": heq}
    ok = (spec.skewness <= SPECTRAL_TOL and spec.min_singular >= 1.0 - SPECTRAL_TOL
          and gap <= route_bound and heq <= RESIDUAL_CAP * _scale(rhs))
    rc = corrector.riesz_certificate(env, spec)
    out.update({f"riesz_{k}": v for k, v in rc.items()})
    ok = ok and all(v <= SPECTRAL_TOL for v in rc.values())  # a NaN fails
    out["passed"] = bool(ok)
    return out


def _check_helmholtz(ops, cfg, walks):
    # stream_from_flow raises unless the curl gap is within STREAM_TOL of |b|
    recon = helmholtz.stream_from_flow(ops.env.b)
    return {"passed": True, "curl_gap": curl_gap(recon, ops.env.b)}


def _check_clt(ops, cfg, walks):
    walk = walks.walk(5)
    # an empty sample, a walk in which no replica jumped, raises here
    ks_hold = mart.ks_exponential(walk.holding)
    ks_hold_crit = KS_99_COEFF / np.sqrt(len(walk.holding))
    X = walk.displacement
    m2, _ = mart.second_moment_curve(X)
    slope = mart.growth_slope(walk.times, m2)
    ks_components = [mart.ks_gaussian(X[:, -1, i]) for i in range(X.shape[2])]
    chi_p = mart.final_site_chisquare(walk.final_site, ops.env.torus.n)
    passed = (0.95 <= slope <= 1.05
              and max(ks_components) < 0.02
              and ks_hold < ks_hold_crit
              and chi_p >= 1e-3)
    return {"passed": bool(passed), "slope": slope,
            "ks_components": ks_components, "ks_holding": ks_hold,
            "ks_holding_crit": float(ks_hold_crit),
            "holding_samples": int(len(walk.holding)),
            "chisquare_p": chi_p}


CHECK_REGISTRY = {
    "validate": _check_validate,
    "bounds": lambda ops, cfg, walks: bounds_verdict(ops),
    "decompose": lambda ops, cfg, walks: decompose_verdict(mart.decomposition(walks.walk(8))),
    "orthogonality": _check_orthogonality,
    "corrector": _check_corrector,
    "spectral": _check_spectral,
    "helmholtz": _check_helmholtz,
    "clt": _check_clt,
}


# -- runner ---------------------------------------------------------------------

def run_config(cfg: ExperimentConfig) -> tuple:
    """Run every configured check; returns (report dict, timings dict).

    The report is the document that write_report writes (each non-finite
    float None) and holds no timing or host information.  Statistical checks
    retry under deterministic reseeds up to three attempts; deterministic
    checks run once.  A check that raises is recorded as failed with the
    exception type and message, and the remaining checks still run.

    The checks run attempt by attempt: all that are due under one seed run
    before the next seed's walk is simulated, so each distinct seed is
    walked once, at most one walk is alive, and the timings charge the
    simulation to the first check that uses it.  Each walk carries only
    what the checks due under its seed read (see _Walks).
    """
    env = build_environment(cfg)
    require_site(cfg.x0, env.torus.n)
    ops = corrector.assemble(env)
    results = {}
    attempts = {name: [] for name in cfg.checks}
    timings = dict.fromkeys(cfg.checks, 0.0)
    for attempt in range(MAX_ATTEMPTS):
        due = [name for name in cfg.checks if name not in results]
        walks = _Walks(env, cfg, reseed(cfg.seed, attempt), due)
        for name in due:
            t0 = perf_counter()
            try:
                out = CHECK_REGISTRY[name](ops, cfg, walks)
                if name not in STATISTICAL_CHECKS:
                    results[name] = out
                else:
                    attempts[name].append({"seed": walks.seed, **out})
                    if out["passed"] or attempt == MAX_ATTEMPTS - 1:
                        results[name] = {"passed": out["passed"],
                                         "attempts": attempts[name]}
            except Exception as e:
                results[name] = {"passed": False, "error": f"{type(e).__name__}: {e}"}
            timings[name] += perf_counter() - t0

    checks = {name: _pyify(results[name]) for name in cfg.checks}
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": cfg.raw,
        "config_hash": cfg.config_hash,
        "checks": checks,
        "passed": all(r["passed"] for r in checks.values()),
    }
    return report, timings


def write_report(report: dict, path: str) -> None:
    """Canonical serialization: sorted keys, no whitespace, one newline.

    Numpy values (the bounds document holds them) are written as Python ones
    and a non-finite float as null, so the file is strict JSON.
    """
    with open(path, "w") as f:
        f.write(canonical_json(_pyify(report)) + "\n")
