"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

The lockstep counters are derived from returned jump counts; these tests
count the engine's Philox refills directly, through a wrapped generator, and
check the derivations against them on tiny ensembles.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bistoch import env as envmod  # noqa: E402
from bistoch import mart  # noqa: E402
from bistoch import walker  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import ensemble_digest, lockstep_counters  # noqa: E402


class CountingGenerator:
    """Forwards to a numpy Generator and logs each buffer refill."""

    def __init__(self, gen, log):
        self._gen = gen
        self._log = log

    def random(self, *args, **kwargs):
        if "out" in kwargs:
            self._log.append(1)
        return self._gen.random(*args, **kwargs)


def run_counted(monkeypatch, env, T, R, seed, block, x0=None):
    """Run an ensemble; return it with the number of refills the loop made."""
    log = []
    real = walker._generator
    monkeypatch.setattr(walker, "_generator", lambda s: CountingGenerator(real(s), log))
    try:
        res = walker.run_ensemble(env, T, R, seed, block=block, x0=x0)
    finally:
        monkeypatch.setattr(walker, "_generator", real)
    assert len(log) % R == 0  # each refill fills every replica's row
    return res, len(log) // R


@pytest.fixture(scope="module")
def tiny_env():
    return envmod.random_environment(2, 4, 7)


@pytest.mark.parametrize("x0", [None, 3])
def test_lockstep_steps_and_refills_match_the_engine(monkeypatch, tiny_env, x0):
    # with block=2 the buffer is refilled on every step, so refills == steps
    res, steps = run_counted(monkeypatch, tiny_env, 6.0, 25, 5, block=2, x0=x0)
    counters = lockstep_counters(res.n_jumps, 2)
    assert counters["walker.lockstep_steps"] == steps
    assert counters["walker.rng_refills"] == steps
    for block in (4, 6, 512):
        again, refills = run_counted(monkeypatch, tiny_env, 6.0, 25, 5, block=block, x0=x0)
        assert np.array_equal(again.n_jumps, res.n_jumps)
        assert refills == math.ceil(steps / (block // 2))
        assert lockstep_counters(again.n_jumps, block)["walker.rng_refills"] == refills


@pytest.mark.parametrize("seed", range(6))
def test_each_replica_is_active_for_its_jumps_plus_one_step(monkeypatch, tiny_env, seed):
    # a lone replica shows how many lockstep steps one lane stays active,
    # which is what the occupancy formula counts per lane
    res, steps = run_counted(monkeypatch, tiny_env, 6.0, 1, seed, block=2)
    assert steps == int(res.n_jumps[0]) + 1
    assert lockstep_counters(res.n_jumps, 2)["walker.occupancy"] == 1.0


def test_occupancy_counts_active_lanes(tiny_env):
    res = walker.run_ensemble(tiny_env, 6.0, 40, 9)
    c = lockstep_counters(res.n_jumps, 512)
    assert c["walker.occupancy"] == pytest.approx(
        (res.n_jumps + 1).sum() / (40 * c["walker.lockstep_steps"]), rel=1e-15)
    assert 0.0 < c["walker.occupancy"] < 1.0


def test_ensemble_digest_pins_every_bit(tiny_env):
    plain = walker.run_ensemble(tiny_env, 6.0, 20, 3)
    base = ensemble_digest(plain)
    assert ensemble_digest(walker.run_ensemble(tiny_env, 6.0, 20, 3)) == base
    plain.n_jumps = plain.n_jumps.astype(np.int32)
    assert ensemble_digest(plain) == base
    plain.final_site = plain.final_site[::-1]
    assert ensemble_digest(plain) != base

    ens = mart.run_decomposition_ensemble(tiny_env, 6.0, 20, 3)
    base = ensemble_digest(ens)
    ens.M = ens.M.copy()
    ens.M.view(np.int64)[0, 0, 0] ^= 1  # one bit of one jump-time-dependent value
    assert ensemble_digest(ens) != base


def test_tracer_nests_spans_and_sums_per_pass():
    tr = Tracer()
    for i in range(2):
        tr.iteration = i
        with tr.span("pass"):
            with tr.span("a"):
                pass
            with tr.span("a"):
                with tr.span("b"):
                    pass
    assert [s["name"] for s in tr.spans] == ["pass", "a", "a", "b"] * 2
    assert tr.spans[3]["parent"] == 2 and tr.spans[1]["parent"] == 0
    totals = tr.totals(1)
    assert set(totals) == {"a", "b"}
    a_spans = [s for s in tr.spans if s["iteration"] == 1 and s["name"] == "a"]
    assert totals["a"] == pytest.approx(sum(s["end"] - s["start"] for s in a_spans))

    off = Tracer(enabled=False)
    with off.span("a"):
        pass
    assert off.spans == []


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "peak_rss_mb"} <= set(names)
    assert "trace.overhead_s" in names
