"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single
``ACCEPTANCE <n> PASS/FAIL`` line (visible with ``pytest -v -s``) and
enforcing its runtime budget.  Random seeds are frozen so every run
exercises the identical arithmetic.
"""

import json
import time

import numpy as np

from bistoch import corrector as cor
from bistoch import mart, report
from bistoch.cli import main
from bistoch.env import (ConductanceField, Environment, FlowField,
                         curl, homogeneous_environment, random_environment,
                         random_stream, validate)
from bistoch.errors import NonzeroFlux
from bistoch.helmholtz import stream_from_flow
from bistoch.torus import Torus
from bistoch.walker import run_ensemble


def _verdict(num, ok, detail, t0, budget=None):
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_structural_exactness():
    t0 = time.perf_counter()
    cases = []
    for d in (1, 2, 3):
        gens = (("conductance-stream",) if d == 1
                else ("conductance-stream", "totally-asymmetric"))
        for L in (2, 4, 8):
            for gen in gens:
                for seed in range(7):
                    cases.append((d, L, gen, seed))
    worst = 0.0
    for d, L, gen, seed in cases[:100]:
        rep = validate(random_environment(d, L, seed=seed, generator=gen))
        assert rep.passed, (d, L, gen, seed)
        worst = max(worst, rep.max_residual)
    _verdict(1, worst <= 1e-12,
             f"100 environments validated, max residual {worst:.2e}", t0, 10.0)


def test_criterion_02_homogeneous_calibration():
    t0 = time.perf_counter()
    env = homogeneous_environment(2, 8)
    bd = mart.bounds(env)
    exact = np.trace(bd.lower) == 4.0 and bd.upper_trace == 4.0
    res = run_ensemble(env, 1000.0, 10000, 23)
    iv = mart.batch_mean_interval(
        (res.displacement[:, -1, :] ** 2).sum(axis=1) / 1000.0)
    within = abs(iv.mean - 4.0) <= 3.0 * iv.se
    _verdict(2, exact and within,
             f"rate {iv.mean:.4f} (3se {3 * iv.se:.4f}), bound traces exactly 4",
             t0, 120.0)


def test_criterion_03_harmonic_mean_oracle():
    t0 = time.perf_counter()
    t = Torus(1, 16)
    draw = np.random.default_rng(7).choice([1.0, 4.0], size=16)
    env = Environment(t, ConductanceField.from_canonical(t, draw[:, None]))
    sigma2 = cor.effective_diffusivity(env).sigma2[0, 0]
    target = 2.0 / np.mean(1.0 / draw)
    oracle_ok = abs(sigma2 - target) <= 1e-10
    res = run_ensemble(env, 200.0, 4000, 31)
    iv = mart.batch_mean_interval(
        (res.displacement[:, -1, :] ** 2).sum(axis=1) / 200.0)
    mc_ok = abs(iv.mean - sigma2) <= 3.0 * iv.se
    _verdict(3, oracle_ok and mc_ok,
             f"sigma2 {sigma2:.10f} vs 2/harmonic-mean {target:.10f}; "
             f"MC {iv.mean:.4f} (3se {3 * iv.se:.4f})", t0, 120.0)


def test_criterion_04_martingale_construction():
    t0 = time.perf_counter()
    env = random_environment(2, 8, seed=7)
    ens = mart.run_decomposition_ensemble(env, 64.0, 10000, 13,
                                          grid=mart.dyadic_grid(64.0, 4))
    est, se = mart.zz_matrix(ens)
    want = mart.bounds(env).lower
    zz_ok = bool(np.all(np.abs(est - want) <= 3.0 * se))
    ortho = mart.orthogonality_report(ens)
    ortho_ok = all(iv.contains(0.0) for iv in ortho.values())
    _verdict(4, zz_ok and ortho_ok,
             f"zz gap/se max {float(np.max(np.abs(est - want) / se)):.2f}; "
             "cross-moment CIs contain 0", t0, 300.0)


def test_criterion_05_operator_certification(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(cor, "KRYLOV_TOL", 1e-13)
    shapes = [(1, 8, "conductance-stream"), (1, 16, "conductance-stream"),
              (1, 32, "conductance-stream"), (1, 64, "conductance-stream"),
              (1, 128, "conductance-stream"), (1, 256, "conductance-stream"),
              (2, 4, "conductance-stream"), (2, 8, "conductance-stream"),
              (2, 12, "conductance-stream"), (2, 16, "conductance-stream"),
              (2, 8, "totally-asymmetric"), (2, 16, "totally-asymmetric"),
              (3, 4, "conductance-stream"), (3, 6, "conductance-stream"),
              (1, 100, "conductance-stream"), (2, 10, "conductance-stream"),
              (2, 6, "totally-asymmetric"), (3, 4, "totally-asymmetric"),
              (2, 14, "conductance-stream"), (3, 6, "totally-asymmetric")]
    worst = {"skew": 0.0, "minsv": 1.0, "route": 0.0, "heq": 0.0}
    for i, (d, L, gen) in enumerate(shapes):
        env = random_environment(d, L, seed=40 + i, generator=gen)
        spec = cor.build_spectral_operator(env)
        assert np.sum(spec.s_eigenvalues <= 0.0) == 1, (d, L, gen)
        worst["skew"] = max(worst["skew"], spec.skewness)
        worst["minsv"] = min(worst["minsv"], spec.min_singular)
        f = mart.drift_fields(env)
        for ax in range(d):
            rhs = -(f.phi + f.psi)[:, ax]
            if np.abs(rhs).max() == 0.0:
                continue
            sk = cor.solve_harmonic(env, rhs)
            ss = cor.solve_harmonic_spectral(env, rhs, spec=spec)
            worst["route"] = max(worst["route"],
                                 float(np.max(np.abs(sk.potential - ss.potential))))
            worst["heq"] = max(worst["heq"],
                               cor.harmonic_equation_residual(env, sk, rhs),
                               cor.harmonic_equation_residual(env, ss, rhs))
    ok = (worst["skew"] <= 1e-11 and worst["minsv"] >= 1.0 - 1e-11
          and worst["route"] <= 1e-8 and worst["heq"] <= 1e-8)
    _verdict(5, ok,
             f"20 operators: skew {worst['skew']:.1e}, "
             f"min sv {worst['minsv']:.12f}, route gap {worst['route']:.1e}, "
             f"equation residual {worst['heq']:.1e}", t0, 60.0)


def test_criterion_06_stream_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for d, L in ((2, 4), (2, 8), (2, 16), (3, 4)):
        t = Torus(d, L)
        for seed in range(13):
            if count == 50:
                break
            rng = np.random.Generator(np.random.Philox(key=1000 * d + 10 * L + seed))
            b0 = curl(random_stream(t, rng))
            recon = stream_from_flow(b0)
            scale = max(1.0, float(np.abs(b0.full).max()))
            worst = max(worst, float(np.max(np.abs(curl(recon).full - b0.full))) / scale)
            count += 1
    t2 = Torus(2, 4)
    winding = np.zeros((t2.n, 4))
    winding[:, 0] = 0.7
    winding[:, 2] = -0.7
    raised = False
    try:
        stream_from_flow(FlowField(t2, winding))
    except NonzeroFlux:
        raised = True
    _verdict(6, count == 50 and worst <= 1e-10 and raised,
             f"50 round trips, worst relative gap {worst:.2e}; "
             "winding flow rejected", t0, 30.0)


def test_criterion_07_clt_shape():
    t0 = time.perf_counter()
    env = random_environment(2, 8, seed=7)
    grid = mart.dyadic_grid(1024.0, 5)
    attempts = []
    ok = False
    for attempt in range(report.MAX_ATTEMPTS):
        seed = report.reseed(11, attempt)
        res = run_ensemble(env, 1024.0, 10000, seed, grid=grid)
        m2 = mart.second_moment_curve(res.displacement)[0]
        slope = mart.growth_slope(grid, m2)
        ks = max(mart.ks_gaussian(res.displacement[:, -1, i]) for i in range(2))
        chi_p = mart.final_site_chisquare(res.final_site, env.torus.n)
        attempts.append((seed, slope, ks, chi_p))
        ok = 0.95 <= slope <= 1.05 and ks < 0.02 and chi_p >= 1e-3
        if ok:
            break
    seed, slope, ks, chi_p = attempts[-1]
    _verdict(7, ok,
             f"slope {slope:.5f} in [0.95, 1.05], worst component KS {ks:.4f} "
             f"< 0.02, final-site chi-square p {chi_p:.3f} >= 1e-3 "
             f"(attempt {len(attempts)})", t0, 600.0)


def test_criterion_08_exact_path_identities():
    t0 = time.perf_counter()
    env = random_environment(2, 8, seed=7)
    ens = mart.run_decomposition_ensemble(env, 100.0, 2000, 19,
                                          grid=mart.dyadic_grid(100.0, 8))
    r = ens.identity_residuals()
    worst = max(r.values())
    _verdict(8, worst <= 1e-10,
             f"X=M+I+J and X=Z+Y+I+J at every replica and grid time, "
             f"max error {worst:.2e}", t0)


def test_criterion_09_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    env_path = tmp_path / "env.json"
    from bistoch.env import save_env
    save_env(random_environment(2, 8, seed=7), str(env_path))
    raw = {
        "seed": 11,
        "env": {"path": str(env_path)},
        "T": 64.0,
        "replicas": 2000,
        "checks": ["validate", "bounds", "decompose", "orthogonality",
                   "corrector", "spectral", "helmholtz"],
    }
    cfg = report.config_from_dict(raw)
    rep, _ = report.run_config(cfg)
    rerun, _ = report.run_config(cfg)
    expected = (report.canonical_json(rep) + "\n").encode()
    # the CLI accepts --threads and ignores it
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    codes, cli_reports = [], []
    for threads in ("1", "4"):
        out = tmp_path / f"report{threads}.json"
        codes.append(main(["check-all", "--config", str(cfg_path), "-o", str(out),
                           "--threads", threads]))
        cli_reports.append(out.read_bytes())
    identical = (report.canonical_json(rerun) == report.canonical_json(rep)
                 and codes == [0, 0] and cli_reports == [expected, expected])
    _verdict(9, identical and rep["passed"],
             "reports byte-identical across reruns and through the CLI "
             "with --threads 1 and 4", t0)
