import math

from bistoch import corrector, report


def _config(*checks):
    return report.config_from_dict({"env": {"d": 2, "L": 4, "seed": 1},
                                    "checks": list(checks)})


def test_spectral_gate_fails_on_nan_riesz_residual(monkeypatch):
    nan_cert = {"gram_vs_projector": 0.0, "idempotency": math.nan, "symmetry": 0.0}
    monkeypatch.setattr(corrector, "riesz_certificate", lambda env, spec: nan_cert)
    rep, _ = report.run_config(_config("spectral"))
    result = rep["checks"]["spectral"]
    assert math.isnan(result["riesz_idempotency"])
    assert result["passed"] is False
    assert rep["passed"] is False


def test_foreign_exception_is_recorded_against_its_check(monkeypatch):
    def boom(env, cfg, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(report.CHECK_REGISTRY, "validate", boom)
    rep, timings = report.run_config(_config("validate", "helmholtz"))
    assert rep["checks"]["validate"] == {"passed": False, "error": "RuntimeError: boom"}
    assert rep["checks"]["helmholtz"]["passed"] is True
    assert set(timings) == {"validate", "helmholtz"}
    assert rep["passed"] is False
