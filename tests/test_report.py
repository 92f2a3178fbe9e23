import dataclasses
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from bistoch import corrector, mart, report, walker
from bistoch.env import canonical_json, save_env
from bistoch.errors import DenseCapExceeded

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import README_CONFIG  # noqa: E402


def _config(*checks):
    return report.config_from_dict({"env": {"d": 2, "L": 4, "seed": 1},
                                    "checks": list(checks)})


def test_spectral_gate_fails_on_nan_riesz_residual(monkeypatch):
    nan_cert = {"gram_vs_projector": 0.0, "idempotency": math.nan, "symmetry": 0.0}
    monkeypatch.setattr(corrector, "riesz_certificate", lambda env, spec: nan_cert)
    rep, _ = report.run_config(_config("spectral"))
    result = rep["checks"]["spectral"]
    assert result["riesz_idempotency"] is None
    assert result["passed"] is False
    assert rep["passed"] is False


def _assemblies(monkeypatch) -> list:
    """The list that collects each OperatorAssembly that corrector.assemble returns."""
    records, real = [], corrector.assemble
    monkeypatch.setattr(corrector, "assemble",
                        lambda env: records.append(real(env)) or records[-1])
    return records


def test_a_battery_that_reads_no_operator_forms_none(monkeypatch):
    # the checks that read no operator leave the run's one assembly as it was made
    records = _assemblies(monkeypatch)
    checks = ["validate", "decompose", "orthogonality", "helmholtz", "clt"]
    cfg = report.config_from_dict({"env": {"d": 2, "L": 4, "seed": 1}, "T": 4.0,
                                   "replicas": 1000, "checks": checks})
    report.run_config(cfg)
    (ops,) = records
    assert vars(ops).keys() == {"env"}


def test_a_battery_forms_the_gradient_once_and_no_stream_operator(monkeypatch):
    # only the Riesz certificate reads G; no check reads a factorization residual.
    # The checks share one assembly and one sigma2, whose axis-0 solve is the
    # spectral check's Krylov route: one solve per axis in all
    calls = {"gradient_matrix": [], "stream_edge_operator": [], "assemble": [], "solve": []}
    for name, seen in calls.items():
        owner = corrector.OperatorAssembly if name == "solve" else corrector
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
    records = _assemblies(monkeypatch)
    # the README environment, on which all three checks pass
    cfg = report.config_from_dict({"env": {"d": 2, "L": 8, "seed": 7},
                                   "checks": ["bounds", "corrector", "spectral"]})
    rep, _ = report.run_config(cfg)
    assert rep["passed"]
    assert [len(v) for v in calls.values()] == [1, 0, 1, 2]
    # the run's one assembly keeps its sparse operators and sigma2, nothing n x n,
    # and forms no certificate residual
    (ops,) = records
    assert not {"a_antisymmetry", "row_sums", "col_sums"} & vars(ops).keys()
    kept = list(vars(ops).values())
    assert not any(isinstance(v, corrector.SpectralOperator)
                   or isinstance(v, np.ndarray) and v.size >= ops.env.torus.n ** 2 for v in kept)


@pytest.mark.parametrize("time", [np.int64(16), np.float32(16.0)], ids=repr)
def test_a_numpy_grid_time_is_a_time(time):
    # the "a number, not a bool" rule is the one check_positive applies
    base = {"env": {"d": 2, "L": 4, "seed": 1}, "T": 16.0, "checks": ["decompose"]}
    got = report.config_from_dict({**base, "grid": [2.0, time]})
    want = report.config_from_dict({**base, "grid": [2.0, time.item()]})
    assert got.config_hash == want.config_hash


def test_a_numpy_start_site_is_a_site():
    # x0 passes the one integer rule that seed and replicas pass
    base = {"env": {"d": 2, "L": 4, "seed": 1}}
    got = report.config_from_dict({**base, "x0": np.int64(3)})
    want = report.config_from_dict({**base, "x0": 3})
    assert type(got.x0) is int and got.x0 == 3
    assert got.config_hash == want.config_hash


# environments whose file holds neither a stream nor a flow array
ZERO_STREAM_ENVS = [{"d": 1, "L": 8, "seed": 3},
                    {"d": 2, "L": 4, "seed": 1, "h_dist": ["gaussian", 0.0]}]


@pytest.mark.parametrize("env_spec", ZERO_STREAM_ENVS)
def test_a_saved_environment_reports_like_the_inline_one(tmp_path, env_spec):
    checks = ["validate", "bounds", "spectral", "helmholtz"]
    inline = report.run_config(report.config_from_dict({"env": env_spec, "checks": checks}))
    path = tmp_path / "env.json"
    save_env(report.build_environment(report.config_from_dict({"env": env_spec})), str(path))
    text = path.read_text()
    assert '"h":' not in text and '"b":' not in text
    cfg = report.config_from_dict({"env": {"path": str(path)}, "checks": checks})
    saved = report.run_config(cfg)
    assert canonical_json(saved[0]["checks"]) == canonical_json(inline[0]["checks"])
    assert "stream_pair_antisymmetry" in saved[0]["checks"]["validate"]["residuals"]
    # the file reloads to the same bytes
    save_env(report.build_environment(cfg), str(path))
    assert path.read_text() == text


# -- the spectral route gate -------------------------------------------------------


def _spectral(env_spec) -> dict:
    cfg = report.config_from_dict({"env": env_spec, "checks": ["spectral"]})
    return report.run_config(cfg)[0]["checks"]["spectral"]


@pytest.mark.parametrize("L", [64, 128, 200, 256, 512, 700, 1024])
def test_spectral_check_passes_in_one_dimension(L):
    # a fixed 1e-8 route gap failed every draw from L = 200 on: the Krylov
    # residual is amplified by 1 / lam1 ~ (L / 2 pi)^2
    for seed in range(5):
        result = _spectral({"d": 1, "L": L, "seed": seed})
        assert result["passed"] is True, (seed, result)


def test_spectral_check_fails_past_the_dense_cap():
    # the cap is the spectral check's one size rule: no verdict without the
    # Riesz certificate, whose Pi is (2 d n)^2 doubles
    env_spec = {"d": 1, "L": corrector.DENSE_CAP + 1, "seed": 0}
    env = report.build_environment(report.config_from_dict({"env": env_spec}))
    with pytest.raises(DenseCapExceeded):
        corrector.build_spectral_operator(env)
    assert _spectral(env_spec) == {
        "passed": False, "error": "DenseCapExceeded: 1025 sites exceeds dense cap 1024"}


def _route_bound(env_spec) -> float:
    """sqrt(n) (res_k + res_s) / lam1, as _check_spectral computes it."""
    env = report.build_environment(report.config_from_dict({"env": env_spec}))
    ops = corrector.assemble(env)
    spec = ops.spectral_operator()
    f = mart.drift_fields(env)
    rhs = -(f.phi[:, 0] + f.psi[:, 0])
    res = (ops.diffusivity.solutions[0].residual
           + corrector.solve_harmonic_spectral(env, rhs, spec=spec).residual)
    return math.sqrt(env.torus.n) * res / spec.s_eigenvalues[1]


@pytest.mark.parametrize("env_spec", [{"d": 1, "L": 256, "seed": 0},
                                      {"d": 2, "L": 8, "seed": 7}])
def test_spectral_route_gap_beyond_its_bound_fails(monkeypatch, env_spec):
    assert _spectral(env_spec)["passed"] is True
    bound = _route_bound(env_spec)
    solve = corrector.solve_harmonic_spectral

    def shifted(env, rhs, spec):
        sol = solve(env, rhs, spec=spec)
        kick = np.zeros(env.torus.n)
        kick[:2] = (2.0 * bound, -2.0 * bound)  # mean-zero; residual left as it was
        return dataclasses.replace(sol, potential=sol.potential + kick)

    monkeypatch.setattr(corrector, "solve_harmonic_spectral", shifted)
    result = _spectral(env_spec)
    assert result["route_gap"] > bound
    assert result["passed"] is False


@pytest.mark.parametrize("lift_cap", [False, True])
def test_spectral_check_fails_a_loose_krylov_solve(monkeypatch, lift_cap):
    monkeypatch.setattr(corrector, "KRYLOV_TOL", 1e-6)
    if lift_cap:
        monkeypatch.setattr(corrector, "RESIDUAL_CAP", 1.0)
    result = _spectral({"d": 1, "L": 256, "seed": 0})
    assert result["passed"] is False
    if lift_cap:  # the solve returns, and the equation residual gate catches it
        assert result["harmonic_equation_residual"] > 1e-8
    else:
        assert result["error"].startswith("NoConvergence")


# the default laws with every rate scaled by 100 and by 1000: the same walks, run faster
SCALED_LAWS = [{"d": 2, "L": 8, "seed": 0, "s_dist": ["uniform", 50.0, 200.0],
                "h_dist": ["gaussian", 30.0]},
               {"d": 2, "L": 8, "seed": 1, "s_dist": ["uniform", 500.0, 2000.0],
                "h_dist": ["gaussian", 300.0]}]


@pytest.mark.parametrize("env_spec", SCALED_LAWS)
def test_spectral_harmonic_equation_gate_scales_with_the_rates(env_spec):
    # an absolute 1e-8 failed both: the residual grows with the rates
    result = _spectral(env_spec)
    assert result["harmonic_equation_residual"] > 1e-8
    assert result["passed"] is True, result


@pytest.mark.parametrize("env_spec", [{"d": 2, "L": 8, "seed": 7}, SCALED_LAWS[0]])
def test_spectral_harmonic_equation_beyond_its_bound_fails(monkeypatch, env_spec):
    assert _spectral(env_spec)["passed"] is True
    solve = corrector.OperatorAssembly.solve
    bounds = []

    def perturbed(ops, rhs):
        sol = solve(ops, rhs)
        bounds.append(corrector.RESIDUAL_CAP * max(1.0, float(np.max(np.abs(rhs)))))
        p = ops.env.p_full
        k = int(np.argmax(p[0]))
        kick = np.zeros_like(sol.gradient)
        kick[0, k] = 2.0 * bounds[-1] / p[0, k]  # the potential is left as it was
        return dataclasses.replace(sol, gradient=sol.gradient + kick)

    # the shared solve: the check reads sigma2's axis-0 solve, the first
    monkeypatch.setattr(corrector.OperatorAssembly, "solve", perturbed)
    result = _spectral(env_spec)
    assert result["harmonic_equation_residual"] > bounds[0]
    assert result["passed"] is False


def test_foreign_exception_is_recorded_against_its_check(monkeypatch):
    def boom(env, cfg, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(report.CHECK_REGISTRY, "validate", boom)
    rep, timings = report.run_config(_config("validate", "helmholtz"))
    assert rep["checks"]["validate"] == {"passed": False, "error": "RuntimeError: boom"}
    assert rep["checks"]["helmholtz"]["passed"] is True
    assert set(timings) == {"validate", "helmholtz"}
    assert rep["passed"] is False


# -- one ensemble per seed -------------------------------------------------------

SMALL = {"seed": 11, "env": {"d": 2, "L": 8, "seed": 7}, "T": 16.0, "replicas": 1000}
WALK_CHECKS = ["decompose", "orthogonality", "clt"]


def test_the_readme_config_is_the_benchmarked_one():
    cli = (ROOT / "README.md").read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    assert json.loads(cli.split("```json\n")[1].split("```")[0]) == README_CONFIG
    assert README_CONFIG["checks"] == list(report.CHECK_NAMES)


class _FreshWalks:
    """The old path: every request simulates a new walk on exactly its grid,
    with the decomposition observers and the holding times."""

    def __init__(self, env, cfg, seed):
        self.env, self.cfg, self.seed = env, cfg, seed

    def walk(self, levels):
        cfg = self.cfg
        grid = cfg.grid if cfg.grid is not None else mart.dyadic_grid(cfg.T, levels)
        site_table, jump_table = mart.field_tables(self.env)
        return walker.run_ensemble(self.env, cfg.T, cfg.replicas, self.seed, grid=grid,
                                   site_fields=site_table, jump_weights=jump_table,
                                   x0=cfg.x0, collect_holding=True)


def _reference_report(cfg) -> dict:
    """run_config as it was: checks in config order, each walk check on its own
    ensemble, and every check on operators of its own."""
    env = report.build_environment(cfg)
    results = {}
    for name in cfg.checks:
        fn = report.CHECK_REGISTRY[name]
        try:
            if name in report.STATISTICAL_CHECKS:
                attempts = []
                for attempt in range(report.MAX_ATTEMPTS):
                    s = report.reseed(cfg.seed, attempt)
                    out = fn(corrector.assemble(env), cfg, _FreshWalks(env, cfg, s))
                    attempts.append({"seed": s, **out})
                    if out["passed"]:
                        break
                result = {"passed": attempts[-1]["passed"], "attempts": attempts}
            else:
                result = fn(corrector.assemble(env), cfg, _FreshWalks(env, cfg, cfg.seed))
        except Exception as e:
            result = {"passed": False, "error": f"{type(e).__name__}: {e}"}
        results[name] = report._pyify(result)
    return {"format": report.REPORT_FORMAT, "version": report.REPORT_VERSION,
            "config": cfg.raw, "config_hash": cfg.config_hash, "checks": results,
            "passed": all(r["passed"] for r in results.values())}


def _spy_walks(monkeypatch):
    """Record each walk as (observers, master seed, collects holding times).

    A walk with site fields is labelled "decomposition", one without "plain".
    """
    calls = []
    real = walker.run_ensemble

    def spy(*args, **kwargs):
        observers = "plain" if kwargs.get("site_fields") is None else "decomposition"
        calls.append((observers, args[3], kwargs.get("collect_holding", False)))
        return real(*args, **kwargs)

    monkeypatch.setattr(walker, "run_ensemble", spy)
    return calls


def _seeds(master):
    return [report.reseed(master, attempt) for attempt in range(report.MAX_ATTEMPTS)]


@pytest.fixture(scope="module")
def readme_run():
    """The README battery's report and timings, and the ensembles it walked."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_walks(mp)
        rep, timings = report.run_config(report.config_from_dict(README_CONFIG))
    return rep, timings, calls


def test_readme_config_walks_each_seed_once(monkeypatch, readme_run):
    rep, timings, calls = readme_run
    first, *retries = _seeds(README_CONFIG["seed"])
    # clt fails every attempt, so three seeds are due; only the first
    # carries decompose and orthogonality, the retries walk plain
    assert [a["seed"] for a in rep["checks"]["clt"]["attempts"]] == [first, *retries]
    assert calls == [("decomposition", first, True),
                     *[("plain", seed, True) for seed in retries]]
    calls = _spy_walks(monkeypatch)
    want = _reference_report(report.config_from_dict(README_CONFIG))
    assert len(calls) == 5  # decompose, orthogonality and three clt attempts
    assert report.canonical_json(rep) == report.canonical_json(want)
    assert list(rep["checks"]) == list(timings) == README_CONFIG["checks"]


def test_clt_alone_reports_what_the_readme_battery_does(readme_run):
    # alone, clt walks every seed plain; in the battery its first seed is
    # the decomposition ensemble that decompose and orthogonality read
    rep, _, _ = readme_run
    cfg = report.config_from_dict({**README_CONFIG, "checks": ["clt"]})
    alone, _ = report.run_config(cfg)
    assert (report.canonical_json(alone["checks"]["clt"])
            == report.canonical_json(rep["checks"]["clt"]))


@pytest.fixture(scope="module")
def readme_clt_attempt():
    """The arguments of the README config's first clt attempt, its walk made."""
    cfg = report.config_from_dict({**README_CONFIG, "checks": ["clt"]})
    env = report.build_environment(cfg)
    walks = report._Walks(env, cfg, report.reseed(cfg.seed, 0), ["clt"])
    walks.walk(5)
    return corrector.assemble(env), cfg, walks


# With the component KS forced to 0 the README config's first clt attempt
# passes: slope 0.98933, holding KS 0.0014272 against 0.0018778, chi-square
# p 0.7135.  Each other statistic, forced to fail alone, fails it.
@pytest.mark.parametrize("forced, passed", [
    pytest.param({"ks_gaussian": 0.0}, True, id="every-gate-holds"),
    pytest.param({}, False, id="component-ks"),
    pytest.param({"ks_gaussian": 0.0, "growth_slope": 1.2}, False, id="slope"),
    pytest.param({"ks_gaussian": 0.0, "ks_exponential": 1.0}, False, id="holding-ks"),
    pytest.param({"ks_gaussian": 0.0, "final_site_chisquare": 0.0}, False, id="chisquare"),
])
def test_each_clt_gate_decides_on_its_own(monkeypatch, readme_clt_attempt, forced, passed):
    for name, value in forced.items():
        monkeypatch.setattr(mart, name, lambda *args, value=value: value)
    assert report._check_clt(*readme_clt_attempt)["passed"] is passed


def test_an_orthogonality_retry_collects_no_holding_times(monkeypatch):
    real = dict(report.CHECK_REGISTRY)
    monkeypatch.setitem(report.CHECK_REGISTRY, "orthogonality",
                        lambda *args: {**real["orthogonality"](*args), "passed": False})
    monkeypatch.setitem(report.CHECK_REGISTRY, "clt",
                        lambda *args: {**real["clt"](*args), "passed": True})
    calls = _spy_walks(monkeypatch)
    rep, _ = report.run_config(report.config_from_dict({**SMALL, "checks": WALK_CHECKS}))
    assert len(rep["checks"]["orthogonality"]["attempts"]) == 3
    assert len(rep["checks"]["clt"]["attempts"]) == 1
    first, *retries = _seeds(SMALL["seed"])
    assert calls == [("decomposition", first, True),
                     *[("decomposition", seed, False) for seed in retries]]


@pytest.mark.parametrize("fields", [
    pytest.param({"seed": 0, "grid": [2.0, 5.0, 16.0], "checks": WALK_CHECKS}, id="grid"),
    pytest.param({"seed": 0, "grid": [2.0, 5.0, 16.0], "checks": ["clt"]}, id="clt-on-grid"),
    # orthogonality needs all three attempts here, interleaved with clt's
    pytest.param({"seed": 0, "x0": 5, "checks": WALK_CHECKS}, id="fixed-x0"),
    pytest.param({"seed": 0, "env": {"d": 1, "L": 16, "seed": 3}, "checks": WALK_CHECKS},
                 id="d1"),
    pytest.param({"seed": 3, "env": {"d": 3, "L": 4, "seed": 2}, "checks": WALK_CHECKS},
                 id="d3"),
    pytest.param({"checks": ["clt", "validate", "orthogonality", "decompose", "clt"]},
                 id="clt-before-decompose"),
    pytest.param({"replicas": 50, "checks": WALK_CHECKS}, id="too-few-replicas"),
])
def test_shared_ensembles_give_the_reference_report(monkeypatch, fields):
    cfg = report.config_from_dict({**SMALL, **fields})
    calls = _spy_walks(monkeypatch)
    rep, _ = report.run_config(cfg)
    seeds = [seed for _, seed, _ in calls]
    assert len(seeds) == len(set(seeds))  # no seed is walked twice
    assert report.canonical_json(rep) == report.canonical_json(_reference_report(cfg))
