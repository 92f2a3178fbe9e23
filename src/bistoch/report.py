"""Configured check batteries with reproducible, canonical reports.

A config JSON names an environment (inline generator parameters or a file)
and a subset of checks.  Running it produces a report whose bytes depend
only on the config content: seeds derive from the config, replica streams
are keyed per replica, and wall-clock timings go to a separate sidecar, so
a rerun with any thread count reproduces the report exactly.

Statistical checks (confidence intervals, distribution distances) are
allowed two deterministic reseeds: a sound implementation fails a 99%
assertion about once in a hundred runs, and three independent failures in
a row is evidence of a defect rather than bad luck.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import corrector, helmholtz, mart
from .env import GENERATORS, Environment, check_dist, load_env, random_environment
from .errors import BistochError, ConfigError
from .walker import check_grid, check_site

REPORT_FORMAT = "bistoch-report"
REPORT_VERSION = 1

CHECK_NAMES = ("validate", "bounds", "decompose", "orthogonality",
               "corrector", "spectral", "helmholtz", "clt")
STATISTICAL_CHECKS = frozenset({"orthogonality", "clt"})

# attempt seeds walk the master seed by a fixed odd multiplier
RESEED_STEP = 0x9E3779B97F4A7C15
MAX_ATTEMPTS = 3

# large-sample 99% critical coefficient for the one-sample KS statistic
KS_99_COEFF = 1.6276236115189504


def reseed(master_seed: int, attempt: int) -> int:
    """Deterministic per-attempt seed; attempt 0 is the master seed."""
    if attempt == 0:
        return int(master_seed)
    return (int(master_seed) ^ (attempt * RESEED_STEP)) & ((1 << 63) - 1)


@dataclass
class ExperimentConfig:
    """Validated contents of a check-battery config file."""

    seed: int
    env: dict
    checks: tuple
    T: float
    replicas: int
    tolerance: float
    x0: int | None
    grid: list | None
    raw: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def require_site(x0, n: int, path: str = "x0") -> None:
    """Raise ConfigError unless x0 is None or a site index in [0, n)."""
    if x0 is not None:
        try:
            check_site(x0, n)
        except ValueError as e:
            raise ConfigError(path, str(e))


def config_from_dict(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "", "config must be a JSON object")
    known = {"seed", "env", "checks", "T", "replicas", "tolerance", "x0", "grid"}
    for key in data:
        _require(key in known, key, "unknown field")

    seed = data.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed",
             "must be a nonnegative integer")

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
        for key, least in (("d", 1), ("L", 2), ("seed", 0)):
            value = env.get(key)
            _require(isinstance(value, int) and not isinstance(value, bool)
                     and value >= least, f"env.{key}", f"must be an integer >= {least}")
        _require(env.get("generator", GENERATORS[0]) in GENERATORS, "env.generator",
                 f"must be one of {', '.join(GENERATORS)}")
        for key in ("s_dist", "h_dist"):
            if key in env:
                try:
                    check_dist(env[key])
                except ValueError as e:
                    raise ConfigError(f"env.{key}", str(e))

    checks = data.get("checks", list(CHECK_NAMES))
    _require(isinstance(checks, list) and checks, "checks",
             "must be a non-empty list")
    for i, name in enumerate(checks):
        _require(name in CHECK_NAMES, f"checks[{i}]",
                 f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")

    T = data.get("T", 100.0)
    _require(isinstance(T, (int, float)) and T > 0, "T", "must be positive")
    replicas = data.get("replicas", 2000)
    _require(isinstance(replicas, int) and replicas >= 1, "replicas",
             "must be a positive integer")
    tolerance = data.get("tolerance", 1e-12)
    _require(isinstance(tolerance, (int, float)) and tolerance > 0,
             "tolerance", "must be positive")
    x0 = data.get("x0")
    _require(x0 is None or isinstance(x0, int), "x0",
             "must be an integer site index or null")
    grid = data.get("grid")
    if grid is not None:
        _require(isinstance(grid, list) and len(grid) > 0
                 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in grid),
                 "grid", "must be a non-empty list of times")
        try:
            check_grid(grid, float(T))
        except ValueError as e:
            raise ConfigError("grid", str(e))

    return ExperimentConfig(seed=seed, env=env, checks=tuple(checks),
                            T=float(T), replicas=replicas,
                            tolerance=float(tolerance), x0=x0, grid=grid,
                            raw=data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigError(path, "no such file")
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON: {e}")
    return config_from_dict(data)


def build_environment(cfg: ExperimentConfig) -> Environment:
    spec = cfg.env
    if "path" in spec:
        return load_env(spec["path"])
    kwargs = {}
    if "generator" in spec:
        kwargs["generator"] = spec["generator"]
    if "s_dist" in spec:
        kwargs["s_dist"] = tuple(spec["s_dist"])
    if "h_dist" in spec:
        kwargs["h_dist"] = tuple(spec["h_dist"])
    return random_environment(spec["d"], spec["L"], spec["seed"], **kwargs)


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _interval_dict(iv: mart.MeanInterval) -> dict:
    return {"mean": iv.mean, "half_width": iv.half_width,
            "contains_zero": iv.contains(0.0)}


# -- individual checks ---------------------------------------------------------

def _check_validate(env, cfg, seed, threads):
    rep = env.validate(cfg.tolerance)
    return {"passed": rep.passed,
            "max_residual": rep.max_residual,
            "residuals": {e.name: e.residual for e in rep.entries}}


def _check_bounds(env, cfg, seed, threads):
    bd = mart.bounds(env)
    dv = corrector.effective_diffusivity(env)
    chk = bd.check(dv.sigma2, atol=1e-9)
    return {"passed": chk["lower_ok"] and chk["upper_ok"],
            "sigma2": dv.sigma2, "lower": bd.lower,
            "upper_trace": bd.upper_trace, **chk}


def _check_decompose(env, cfg, seed, threads):
    ens = mart.run_decomposition_ensemble(
        env, cfg.T, cfg.replicas, seed, grid=cfg.grid, x0=cfg.x0,
        threads=threads)
    res = ens.identity_residuals()
    return {"passed": max(res.values()) <= mart.IDENTITY_TOL, **res}


def _check_orthogonality(env, cfg, seed, threads):
    grid = cfg.grid if cfg.grid is not None else mart.dyadic_grid(cfg.T, 4)
    ens = mart.run_decomposition_ensemble(
        env, cfg.T, cfg.replicas, seed, grid=grid, x0=cfg.x0, threads=threads)
    rep = mart.orthogonality_report(ens)
    est, se = mart.zz_matrix(ens)
    target = mart.bounds(env).lower
    zz_ok = bool(np.all(np.abs(est - target) <= 3.0 * se + 1e-12))
    both_zero = all(iv.contains(0.0) for iv in rep.values())
    return {"passed": zz_ok and both_zero,
            "zz_over_t": est, "zz_target": target, "zz_se": se,
            "zz_within_3se": zz_ok,
            **{name: _interval_dict(iv) for name, iv in rep.items()}}


def _check_corrector(env, cfg, seed, threads):
    dv = corrector.effective_diffusivity(env)
    return {"passed": True, "sigma2": dv.sigma2,
            "harmonic_residuals": dv.residuals}


def _check_spectral(env, cfg, seed, threads):
    spec = corrector.build_spectral_operator(env)
    f = mart.drift_fields(env)
    rhs = -(f.phi[:, 0] + f.psi[:, 0])
    out = {"skewness": spec.skewness, "min_singular": spec.min_singular,
           "zero_modes": spec.certificate()["zero_modes"]}
    ok = spec.skewness <= 1e-11 and spec.min_singular >= 1.0 - 1e-11
    if abs(float(rhs.mean())) <= 1e-12 * max(1.0, float(np.abs(rhs).max())):
        sk = corrector.solve_harmonic(env, rhs)
        ss = corrector.solve_harmonic_spectral(env, rhs, spec=spec)
        gap = float(np.max(np.abs(sk.potential - ss.potential)))
        heq = corrector.harmonic_equation_residual(env, sk, rhs)
        out.update({"route_gap": gap, "harmonic_equation_residual": heq})
        ok = ok and gap <= 1e-8 and heq <= 1e-8
    if env.torus.n <= 1024:
        rc = corrector.riesz_certificate(env, spec)
        out.update({f"riesz_{k}": v for k, v in rc.items()})
        ok = ok and max(rc.values()) <= 1e-11
    out["passed"] = bool(ok)
    return out


def _check_helmholtz(env, cfg, seed, threads):
    recon = helmholtz.stream_from_flow(env.b)
    from .env import curl

    gap = float(np.max(np.abs(curl(recon).full - env.b.full)))
    scale = max(1.0, float(np.abs(env.b.full).max()))
    return {"passed": gap <= 1e-10 * scale, "curl_gap": gap}


def _check_clt(env, cfg, seed, threads):
    grid = cfg.grid if cfg.grid is not None else mart.dyadic_grid(cfg.T, 5)
    ens = mart.run_decomposition_ensemble(
        env, cfg.T, cfg.replicas, seed, grid=grid, x0=cfg.x0,
        collect_holding=True, threads=threads)
    m2, _ = mart.second_moment_curve(ens)
    slope = mart.growth_slope(ens.times, m2)
    ks_components = [mart.ks_gaussian(ens.X[:, -1, i])
                     for i in range(ens.X.shape[2])]
    ks_hold = mart.ks_exponential(ens.holding)
    ks_hold_crit = KS_99_COEFF / np.sqrt(len(ens.holding))
    chi_p = mart.final_site_chisquare(ens.final_site, env.torus.n)
    passed = (0.95 <= slope <= 1.05
              and max(ks_components) < 0.02
              and ks_hold < ks_hold_crit
              and chi_p >= 1e-3)
    return {"passed": bool(passed), "slope": slope,
            "ks_components": ks_components, "ks_holding": ks_hold,
            "ks_holding_crit": float(ks_hold_crit),
            "holding_samples": int(len(ens.holding)),
            "chisquare_p": chi_p}


CHECK_REGISTRY = {
    "validate": _check_validate,
    "bounds": _check_bounds,
    "decompose": _check_decompose,
    "orthogonality": _check_orthogonality,
    "corrector": _check_corrector,
    "spectral": _check_spectral,
    "helmholtz": _check_helmholtz,
    "clt": _check_clt,
}


# -- runner ---------------------------------------------------------------------

def run_config(cfg: ExperimentConfig, threads: int = 1) -> tuple:
    """Run every configured check; returns (report dict, timings dict).

    The report contains no timing or host information.  Statistical checks
    retry under deterministic reseeds up to three attempts; deterministic
    checks run once.  A check that raises a package error is recorded as
    failed with the message.
    """
    from time import perf_counter

    env = build_environment(cfg)
    require_site(cfg.x0, env.torus.n)
    results = {}
    timings = {}
    for name in cfg.checks:
        fn = CHECK_REGISTRY[name]
        t0 = perf_counter()
        try:
            if name in STATISTICAL_CHECKS:
                attempts = []
                for attempt in range(MAX_ATTEMPTS):
                    s = reseed(cfg.seed, attempt)
                    out = fn(env, cfg, s, threads)
                    attempts.append({"seed": s, **out})
                    if out["passed"]:
                        break
                result = {"passed": attempts[-1]["passed"],
                          "attempts": attempts}
            else:
                result = fn(env, cfg, cfg.seed, threads)
        except BistochError as e:
            result = {"passed": False, "error": f"{type(e).__name__}: {e}"}
        timings[name] = perf_counter() - t0
        results[name] = _pyify(result)

    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": cfg.raw,
        "config_hash": cfg.config_hash,
        "checks": results,
        "passed": all(r["passed"] for r in results.values()),
    }
    return report, timings


def write_report(report: dict, path: str) -> None:
    """Canonical serialization: sorted keys, no whitespace, one newline."""
    with open(path, "w") as f:
        f.write(canonical_json(report) + "\n")


def write_timings(timings: dict, path: str) -> None:
    with open(path, "w") as f:
        f.write(json.dumps({k: round(v, 6) for k, v in timings.items()},
                           sort_keys=True, indent=2) + "\n")
