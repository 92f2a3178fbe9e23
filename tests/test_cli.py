import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bistoch import report, walker
from bistoch.cli import main
from bistoch.env import (ConductanceField, Environment, canonical_json,
                         homogeneous_environment, load_env, save_env,
                         validate)
from bistoch.errors import ConfigError
from bistoch.torus import Torus
from bistoch.walker import replica_key

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def env_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "env.json"
    rc = main(["gen-env", "--d", "2", "--L", "4", "--seed", "3",
               "-o", str(path)])
    assert rc == 0
    return str(path)


def _usage_error(capsys, flag):
    """Assert that stderr holds one usage error about flag and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "Traceback" not in err
    return err


def test_gen_env_writes_loadable_file(env_file):
    env = load_env(env_file)
    assert env.torus.d == 2 and env.torus.L == 4
    assert validate(env).passed


def test_gen_env_accepts_distribution_flags(tmp_path):
    out = tmp_path / "ta.json"
    rc = main(["gen-env", "--d", "2", "--L", "4", "--seed", "5",
               "--generator", "totally-asymmetric",
               "--s-dist", "uniform,1.0,3.0", "--h-dist", "gaussian,0.5",
               "-o", str(out)])
    assert rc == 0
    env = load_env(str(out))
    assert env.meta["generator"] == "totally-asymmetric"


@pytest.mark.parametrize("flag", ["--s-dist", "--h-dist"])
@pytest.mark.parametrize("law", ["bogus,1.0", "uniform,1.0", "uniform,a,2.0"])
def test_gen_env_rejects_bad_distribution(tmp_path, capsys, flag, law):
    rc = main(["gen-env", "--d", "2", "--L", "4", "--seed", "5", flag, law,
               "-o", str(tmp_path / "env.json")])
    assert rc == 2
    _usage_error(capsys, flag)


def test_simulate_summary_csv(tmp_path, env_file):
    out = tmp_path / "sum.csv"
    rc = main(["simulate", "--env", env_file, "--T", "5.0",
               "--replicas", "6", "--seed", "9", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,T,X_1,X_2,n_jumps"
    assert len(lines) == 7
    assert int(lines[1].split(",")[0]) == replica_key(9, 0)


def test_simulate_trajectory_jsonl(tmp_path, env_file):
    out = tmp_path / "walk.jsonl"
    rc = main(["simulate", "--env", env_file, "--T", "5.0", "--seed", "9",
               "--x0", "0", "--traj", str(out)])
    assert rc == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["format"] == "bistoch-traj"
    assert header["seed"] == replica_key(9, 0)


def test_traj_requires_x0(tmp_path, env_file, capsys):
    rc = main(["simulate", "--env", env_file, "--T", "5.0", "--seed", "9",
               "--traj", str(tmp_path / "walk.jsonl")])
    assert rc == 2
    _usage_error(capsys, "--traj")


def test_traj_requires_single_replica(tmp_path, env_file, capsys):
    rc = main(["simulate", "--env", env_file, "--T", "5.0", "--seed", "9",
               "--x0", "0", "--replicas", "4",
               "--traj", str(tmp_path / "walk.jsonl")])
    assert rc == 2
    _usage_error(capsys, "--traj")
    assert not (tmp_path / "walk.jsonl").exists()


def test_decompose_csv(tmp_path, env_file):
    out = tmp_path / "mart.csv"
    rc = main(["decompose", "--env", env_file, "--T", "10.0",
               "--replicas", "16", "--seed", "2", "--grid", "5.0,10.0",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("replica,t,X_1")
    assert len(lines) == 1 + 16 * 2


def test_bounds_json(tmp_path, env_file):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--env", env_file, "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["lower_ok"] and doc["upper_ok"]
    assert np.asarray(doc["sigma2"]).shape == (2, 2)


def test_bounds_document_is_the_battery_entry(tmp_path, env_file):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--env", env_file, "-o", str(out)]) == 0
    cfg = report.config_from_dict({"env": {"path": env_file}, "checks": ["bounds"]})
    entry = report.run_config(cfg)[0]["checks"]["bounds"]
    assert json.loads(out.read_text()) == entry
    assert entry["passed"] is True


def test_corrector_outputs(tmp_path, env_file):
    out = tmp_path / "chi.csv"
    coo = tmp_path / "ops"
    rc = main(["corrector", "--env", env_file, "--axis", "2",
               "-o", str(out), "--coo", str(coo)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "site,value"
    for name in ("S", "A", "L"):
        text = (tmp_path / f"ops_{name}.txt").read_text()
        assert text.splitlines()[0] == "row,col,value"


def test_corrector_axis_range(tmp_path, env_file, capsys):
    for axis in ("3", "0"):
        rc = main(["corrector", "--env", env_file, "--axis", axis])
        assert rc == 2
        _usage_error(capsys, "--axis")


def test_corrector_has_no_method_flag(env_file, capsys):
    # the Krylov route is the only one; the dense route is a test oracle
    with pytest.raises(SystemExit) as done:
        main(["corrector", "--env", env_file, "--method", "krylov"])
    assert done.value.code == 2
    assert "--method" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "decompose"])
def test_only_check_all_accepts_threads(tmp_path, env_file, capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--env", env_file, "--T", "1", "--seed", "0",
              "-o", str(tmp_path / "out.csv"), "--threads", "2"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 2" in err and "Traceback" not in err


def test_helmholtz_round_trip(tmp_path, env_file):
    out = tmp_path / "recon.json"
    rc = main(["helmholtz", "--env", env_file, "-o", str(out)])
    assert rc == 0
    rebuilt = load_env(str(out))
    assert rebuilt.meta["params"]["stream"] == "reconstructed"
    orig = load_env(env_file)
    assert np.allclose(rebuilt.b.full, orig.b.full, atol=1e-10)


def _fast_config(tmp_path, env_file):
    cfg = {
        "seed": 77,
        "env": {"path": env_file},
        "T": 16.0,
        "replicas": 128,
        "checks": ["validate", "bounds", "decompose", "corrector",
                   "spectral", "helmholtz"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_all_passes_and_is_deterministic(tmp_path, env_file, capsys):
    cfg = _fast_config(tmp_path, env_file)
    out1 = tmp_path / "rep1.json"
    out2 = tmp_path / "rep2.json"
    rc1 = main(["check-all", "--config", cfg, "-o", str(out1), "--threads", "1"])
    text = capsys.readouterr().out
    rc2 = main(["check-all", "--config", cfg, "-o", str(out2), "--threads", "2"])
    assert rc1 == 0 and rc2 == 0
    for name in ("validate", "bounds", "decompose", "corrector",
                 "spectral", "helmholtz"):
        assert f"PASS {name}" in text
    # --threads is ignored, so the reports are byte-identical; timings are a sidecar
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "rep1.timings.json").exists()
    doc = json.loads(out1.read_text())
    assert doc["format"] == "bistoch-report" and doc["passed"] is True


def test_check_all_runs_prints_and_reports_a_repeated_check_once(tmp_path, env_file, capsys):
    config = {"env": {"path": env_file}, "checks": ["validate", "validate", "bounds"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rep.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "PASS validate", "PASS bounds", f"wrote {out} and {tmp_path / 'rep.timings.json'}"]
    doc = json.loads(out.read_text())
    assert sorted(doc["checks"]) == ["bounds", "validate"]
    # the config is kept and hashed as given
    assert doc["config"] == config
    assert doc["config_hash"] == hashlib.sha256(canonical_json(config).encode()).hexdigest()
    assert report.load_config(str(path)).checks == ("validate", "bounds")


def test_check_all_names_a_walk_without_jumps(tmp_path, capsys):
    # T is so short that no replica jumps, so clt has no holding times
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"d": 2, "L": 4, "seed": 3}, "T": 1e-9,
                                "replicas": 100, "checks": ["clt"]}))
    out = tmp_path / "report.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 1
    assert "Warning" not in capsys.readouterr().err
    assert json.loads(out.read_text())["checks"]["clt"] == {
        "passed": False, "error": "ValueError: no holding-time samples: no replica jumped before T"}


def test_check_all_rejects_a_one_time_grid_for_clt(tmp_path, capsys):
    # one grid time leaves the clt growth slope a line through one point
    path = tmp_path / "config.json"
    cfg = {"seed": 0, "env": {"d": 2, "L": 4, "seed": 3}, "T": 8.0, "replicas": 200,
           "grid": [8.0], "checks": ["clt"]}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: grid: clt fits a growth slope, which needs at least two times\n")
    assert not out.exists()
    path.write_text(json.dumps({**cfg, "checks": ["decompose"]}))
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 0


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_check_all_writes_strict_json(tmp_path):
    # so few jumps before T that the clt slope fit is NaN in every attempt
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0, "env": {"d": 2, "L": 4, "seed": 3}, "T": 0.01,
                                "replicas": 100, "checks": ["clt"]}))
    out = tmp_path / "report.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 1
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert [a["slope"] for a in doc["checks"]["clt"]["attempts"]] == [None] * 3


def test_the_report_in_memory_is_the_written_document(tmp_path):
    # the battery above, whose clt slopes are NaN: run_config already holds them as null
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0, "env": {"d": 2, "L": 4, "seed": 3}, "T": 0.01,
                                "replicas": 100, "checks": ["clt"]}))
    out = tmp_path / "report.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 1
    rep, _ = report.run_config(report.load_config(str(path)))
    assert canonical_json(rep) + "\n" == out.read_text()


def test_the_timings_sidecar_is_canonical_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"d": 2, "L": 4, "seed": 3},
                                "checks": ["validate", "helmholtz"]}))
    out, sidecar = tmp_path / "report.json", tmp_path / "report.timings.json"
    assert main(["check-all", "--config", str(path), "-o", str(out)]) == 0
    text = sidecar.read_text()
    timings = json.loads(text)
    assert sorted(timings) == ["helmholtz", "validate"]
    assert all(v == round(v, 6) for v in timings.values())
    assert text == canonical_json(timings) + "\n"


@pytest.mark.parametrize("fields", [
    pytest.param({"bogus": 1}, id="unknown-field"),
    pytest.param({"T": 8.0, "grid": ["a", 8.0]}, id="grid-string"),
    pytest.param({"T": 8.0, "grid": [[4.0, 8.0]]}, id="grid-nested"),
    pytest.param({"T": 8.0, "grid": ["4", "8"]}, id="grid-numeric-strings"),
    pytest.param({"T": 8.0, "grid": [True, 8.0]}, id="grid-bool"),
    pytest.param({"env": {"d": 0, "L": 4, "seed": 1}}, id="env-d-zero"),
    pytest.param({"env": {"d": 2, "L": 0, "seed": 1}}, id="env-L-zero"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": -1}}, id="env-seed-negative"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": 1, "generator": "bogus"}},
                 id="env-generator-unknown"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": 1, "s_dist": ["bogus"]}},
                 id="s-dist-unknown"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": 1, "h_dist": ["bogus", 1.0]}},
                 id="h-dist-unknown"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": 1}, "x0": 99}, id="x0-past-last-site"),
    pytest.param({"env": {"d": 2, "L": 4, "seed": 1}, "x0": -1}, id="x0-negative"),
    pytest.param({"x0": 16}, id="x0-past-last-site-of-env-file"),
    # both x0 and this environment are rejected before anything is drawn
    pytest.param({"env": {"d": 1, "L": 2, "seed": 0, "generator": "totally-asymmetric"},
                  "x0": 2}, id="x0-checked-before-the-environment-is-drawn"),
    pytest.param({"T": math.inf}, id="T-infinite"),
    pytest.param({"T": True}, id="T-bool"),
    pytest.param({"replicas": True}, id="replicas-bool"),
    # a replica index is the low word of its key: 2**64 replicas at most
    pytest.param({"replicas": 2**64 + 1}, id="replicas-past-2-to-the-64"),
    pytest.param({"tolerance": True}, id="tolerance-bool"),
    # an infinite tolerance would pass every residual, even an infinite one
    pytest.param({"tolerance": math.inf}, id="tolerance-infinite"),
])
def test_check_all_bad_config(tmp_path, env_file, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"env": {"path": env_file}, **fields}))
    assert main(["check-all", "--config", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "decompose"])
@pytest.mark.parametrize("x0", ["-1", "16"])
def test_start_site_out_of_range(tmp_path, env_file, capsys, command, x0):
    rc = main([command, "--env", env_file, "--T", "5.0", "--seed", "9",
               "--x0", x0, "-o", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--x0" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    pytest.param("simulate --T -1 --seed 9", "--T", id="simulate-T-negative"),
    pytest.param("simulate --T nan --seed 9", "--T", id="simulate-T-nan"),
    pytest.param("simulate --T 5 --replicas 0 --seed 9", "--replicas",
                 id="simulate-replicas-zero"),
    pytest.param("simulate --T 5 --seed -1", "--seed", id="simulate-seed-negative"),
    pytest.param("decompose --T 5 --replicas 0 --seed 9", "--replicas",
                 id="decompose-replicas-zero"),
    pytest.param(f"simulate --T 5 --replicas {2**64 + 1} --seed 9", "--replicas",
                 id="simulate-replicas-past-2-to-the-64"),
    pytest.param(f"decompose --T 5 --replicas {2**64 + 1} --seed 9", "--replicas",
                 id="decompose-replicas-past-2-to-the-64"),
    pytest.param("gen-env --d 0 --L 4 --seed 1", "--d", id="gen-env-d-zero"),
    pytest.param("gen-env --d 2 --L 1 --seed 1", "--L", id="gen-env-L-one"),
    pytest.param("gen-env --d 2 --L 4 --seed -2", "--seed", id="gen-env-seed-negative"),
])
def test_numeric_argument_out_of_range(tmp_path, env_file, capsys, argv, flag):
    words = argv.split()
    if words[0] != "gen-env":
        words += ["--env", env_file]
    rc = main(words + ["-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("grid, message", [
    pytest.param("5.0,9.0", "grid must end exactly at T", id="unended"),
    # an empty grid is not the default one
    pytest.param("", "could not convert string to float: ''", id="empty"),
])
def test_decompose_bad_grid(tmp_path, env_file, capsys, grid, message):
    rc = main(["decompose", "--env", env_file, "--T", "10.0", "--seed", "2",
               "--grid", grid, "-o", str(tmp_path / "mart.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --grid: {message}\n"


def test_missing_environment_file(tmp_path):
    rc = main(["bounds", "--env", str(tmp_path / "nope.json")])
    assert rc == 2


@pytest.mark.parametrize("case", ["directory", "undecodable"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, env_file, capsys, case):
    path = tmp_path / "input.json"
    if case == "directory":
        path.mkdir()
    else:  # 0xff starts no UTF-8 sequence
        path.write_bytes(b"\xff" + Path(env_file).read_bytes())
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert main(["bounds", "--env", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")


def _malformed(env_file):
    text = Path(env_file).read_text()
    doc = json.loads(text)
    cases = {"truncated": text[:len(text) // 2], "not-an-object": "[1, 2]",
             "binary": "\udcff"}
    for key in ("d", "L", "s"):
        cases[f"no-{key}"] = json.dumps({k: v for k, v in doc.items() if k != key})
    cases["d-string"] = json.dumps({**doc, "d": "2"})
    cases["s-strings"] = json.dumps({**doc, "s": ["a"] * len(doc["s"])})
    cases["s-ragged"] = json.dumps({**doc, "s": [[1.0], [1.0, 2.0]]})
    cases["h-object"] = json.dumps({**doc, "h": {"a": 1}})
    for name, value in (("string", "false"), ("list", [1]), ("int", 0)):
        cases[f"weak-ellipticity-{name}"] = json.dumps({**doc, "weak_ellipticity": value})
    # sums overflow to NaN residuals, with no numpy RuntimeWarning on stderr
    cases["s-overflows"] = json.dumps({**doc, "s": [1e308] * len(doc["s"])})
    # a flow or stream array one value short
    flow_doc = {k: v for k, v in doc.items() if k != "h"}
    cases["b-short"] = json.dumps({**flow_doc, "b": [0.0] * (len(doc["s"]) - 1)})
    cases["h-short"] = json.dumps({**doc, "h": doc["h"][:-1]})
    # 10^18 sites: refused by its array sizes before any table is allocated
    cases["L-huge"] = json.dumps({**doc, "d": 2, "L": 10**9, "s": [1.0]})
    return cases


MALFORMED = ["truncated", "not-an-object", "binary", "no-d", "no-L", "no-s", "d-string",
             "s-strings", "s-ragged", "h-object", "weak-ellipticity-string",
             "weak-ellipticity-list", "weak-ellipticity-int", "s-overflows", "b-short",
             "h-short", "L-huge"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_environment_file_is_a_usage_error(tmp_path, env_file, capsys, case):
    path = tmp_path / "bad.json"
    path.write_bytes(_malformed(env_file)[case].encode("utf-8", "surrogateescape"))
    assert main(["bounds", "--env", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"env": {"path": str(path)}, "checks": ["validate"]}))
    assert main(["check-all", "--config", str(config), "-o", str(tmp_path / "r.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err


# numpy refuses the 6.94 EiB of a 10^18-site torus before asking the system
# for memory; the front end reports it as a failed computation
@pytest.mark.parametrize("command", ["gen-env", "check-all"])
def test_a_torus_too_large_to_allocate_is_one_error_line(tmp_path, capsys, command):
    if command == "gen-env":
        argv = ["gen-env", "--d", "2", "--L", str(10**9), "--seed", "0"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"env": {"d": 2, "L": 10**9, "seed": 0},
                                      "checks": ["validate"]}))
        argv = ["check-all", "--config", str(config)]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


# L**d of a huge d takes minutes to form; a torus of 2**63 sites or more is
# refused before it is.  Each case runs in a subprocess under a timeout, so a
# hang fails the test in place of stalling the suite.
HUGE_ENV = {"format": "bistoch-env", "version": 1, "d": 10**8, "L": 3, "s": [1.0]}
HUGE_INLINE = {"d": 10**8, "L": 3, "seed": 1}


@pytest.mark.parametrize("argv, doc, prefix", [
    pytest.param("gen-env --d 100000000 --L 3 --seed 0", None, "error: --d/--L: ",
                 id="gen-env-d-1e8"),
    pytest.param("gen-env --d 63 --L 2 --seed 0", None, "error: --d/--L: ", id="gen-env-d-63"),
    pytest.param("gen-env --d 64 --L 2 --seed 0", None, "error: --d/--L: ", id="gen-env-d-64"),
    pytest.param("gen-env --d 40 --L 3 --seed 0", None, "error: --d/--L: ", id="gen-env-d-40-L-3"),
    pytest.param("bounds --env", HUGE_ENV, "error: a torus of side L = 3 ", id="bounds-file"),
    pytest.param("check-all --config", {"env": HUGE_INLINE, "x0": 0}, "error: env: ",
                 id="check-all-x0"),
    pytest.param("check-all --config", {"env": HUGE_INLINE}, "error: env: ",
                 id="check-all-no-x0"),
])
def test_a_torus_of_2_to_the_63_sites_is_refused_at_once(tmp_path, argv, doc, prefix):
    argv = argv.split()
    if doc is not None:
        (tmp_path / "in.json").write_text(json.dumps(doc))
        argv.append(str(tmp_path / "in.json"))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "bistoch.cli", *argv,
                           "-o", str(tmp_path / "out.json")],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr.startswith(prefix) and done.stderr.count("\n") == 1
    assert "2**63 sites or more" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "out.json").exists()


# Each output array is mapped before any replica's stream is made, so a
# replica count too large to map fails before the walk starts.  The child
# runs under a 4 GiB address-space limit, so no count can be granted.
CHILD_UNDER_4_GIB = ("import resource, sys; "
                     "resource.setrlimit(resource.RLIMIT_AS, (1 << 32,) * 2); "
                     "from bistoch.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("replicas", [
    pytest.param(2**64, id="past-ssize_t"),
    pytest.param(2**47, id="refused-by-the-system"),
])
def test_a_replica_count_too_large_to_map_is_a_memory_error(tmp_path, env_file, replicas):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD_UNDER_4_GIB, "simulate",
                           "--env", env_file, "--T", "1", "--seed", "0",
                           "--replicas", str(replicas), "-o", str(tmp_path / "out.csv")],
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stderr == (f"error: MemoryError: cannot map an array of shape ({replicas},): "
                           f"{8 * replicas} bytes\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("L", ["2", "5"])
def test_gen_env_rejects_a_one_dimensional_totally_asymmetric_environment(tmp_path, capsys, L):
    rc = main(["gen-env", "--d", "1", "--L", L, "--seed", "0",
               "--generator", "totally-asymmetric", "-o", str(tmp_path / "env.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--generator" in err and "d >= 2" in err and "Traceback" not in err
    assert not (tmp_path / "env.json").exists()


def test_config_rejects_a_one_dimensional_totally_asymmetric_environment(tmp_path, capsys):
    env = {"d": 1, "L": 5, "seed": 0, "generator": "totally-asymmetric"}
    with pytest.raises(ConfigError, match="env.generator: totally-asymmetric needs d >= 2"):
        report.config_from_dict({"env": env})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": env, "checks": ["validate"]}))
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert report.config_from_dict({"env": {**env, "d": 2}}).env["d"] == 2


@pytest.fixture(scope="module")
def absorbing_env_file(tmp_path_factory):
    """d=2, L=4 without weak ellipticity: site 5 has s = 0 on all four of its edges."""
    t = Torus(2, 4)
    s = np.ones((t.n, t.d))
    s[5] = 0.0
    for k in range(t.ndir):
        if t.sign_of[k] < 0:
            s[t.nbr[5, k], t.axis_of[k]] = 0.0
    env = Environment(t, ConductanceField.from_canonical(t, s), weak_ellipticity=False)
    assert env.total_rate[5] == 0.0 and np.count_nonzero(env.total_rate <= 0.0) == 1
    path = tmp_path_factory.mktemp("absorbing") / "env.json"
    save_env(env, str(path))
    return str(path)


ABSORBED_AT_5 = "error: AbsorbingState: absorbing state at site 5: total rate is not positive\n"


def test_a_package_error_exits_1_with_one_line(absorbing_env_file, capsys):
    assert main(["simulate", "--env", absorbing_env_file, "--T", "1.0", "--seed", "1",
                 "--x0", "5"]) == 1
    assert capsys.readouterr().err == ABSORBED_AT_5


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked processes")
def test_an_absorbing_ensemble_exits_1_without_a_worker(absorbing_env_file, capsys,
                                                        monkeypatch):
    real, forked = walker._fork, []
    monkeypatch.setattr(walker, "_fork", lambda *args: forked.append(args) or real(*args))
    monkeypatch.setattr(walker, "worker_count", lambda n_replicas: 2)
    # uniform starts: some of the 3000 replicas start at site 5
    assert main(["simulate", "--env", absorbing_env_file, "--T", "1.0", "--seed", "1",
                 "--replicas", "3000"]) == 1
    assert capsys.readouterr().err == ABSORBED_AT_5
    assert forked == []


def test_a_reconstructed_totally_asymmetric_environment_walks(tmp_path):
    # the stream that helmholtz rebuilds leaves some rates at about -2e-16,
    # within validation's tolerance; every total rate stays positive
    env, stream = str(tmp_path / "env.json"), str(tmp_path / "stream.json")
    assert main(["gen-env", "--d", "2", "--L", "8", "--seed", "3",
                 "--generator", "totally-asymmetric", "-o", env]) == 0
    assert main(["helmholtz", "--env", env, "-o", stream]) == 0
    rebuilt = load_env(stream)
    assert rebuilt.p_full.min() < 0 < rebuilt.total_rate.min()
    walk = ["--env", stream, "--T", "8.0", "--seed", "1", "--replicas", "20"]
    assert main(["simulate", *walk, "-o", str(tmp_path / "summary.csv")]) == 0
    assert main(["decompose", *walk, "-o", str(tmp_path / "mart.csv")]) == 0


NEGATIVE_LAW = {"d": 2, "L": 4, "seed": 3, "s_dist": ["gaussian", 0.3]}


def test_inline_environment_is_validated_like_a_file(tmp_path, capsys):
    # the law draws negative conductances: a config error, not a failed check
    cfg = report.config_from_dict({"env": NEGATIVE_LAW, "checks": ["validate"]})
    with pytest.raises(ConfigError, match="env: the laws draw an invalid environment"):
        report.run_config(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": NEGATIVE_LAW}))
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert "FAIL validate" not in captured.out and "Traceback" not in captured.err
    assert "rate_nonnegative" in captured.err
    assert not (tmp_path / "r.json").exists()
    # gen-env applies the same rule to the same law
    assert main(["gen-env", "--d", "2", "--L", "4", "--seed", "3", "--s-dist", "gaussian,0.3",
                 "-o", str(tmp_path / "env.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "env.json").exists()


FLOWLESS_LAW = {"d": 2, "L": 4, "seed": 1, "generator": "totally-asymmetric",
                "h_dist": ["two_point", 1.0, 1.0, 0.5]}


def test_a_stream_law_without_flow_is_a_usage_error(tmp_path, capsys):
    # a constant stream has zero curl, so no edge of a totally asymmetric
    # environment can move: the laws decide this, not the computation
    cfg = report.config_from_dict({"env": FLOWLESS_LAW, "checks": ["validate"]})
    with pytest.raises(ConfigError, match="env: the laws draw an edge without flow"):
        report.run_config(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": FLOWLESS_LAW}))
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "without flow" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()
    assert main(["gen-env", "--d", "2", "--L", "4", "--seed", "1",
                 "--generator", "totally-asymmetric", "--h-dist", "two_point,1,1,0.5",
                 "-o", str(tmp_path / "env.json")]) == 2
    err = capsys.readouterr().err
    assert "--h-dist" in err and "without flow" in err and "Traceback" not in err
    assert not (tmp_path / "env.json").exists()


@pytest.mark.parametrize("key, law", [("s_dist", ["uniform", 2.0, 1.0]),
                                      ("h_dist", ["gaussian", -1.0]),
                                      ("h_dist", ["lognormal", 0.0, -1.0]),
                                      # numpy would raise OverflowError on these three
                                      ("s_dist", ["uniform", 0.0, math.inf]),
                                      ("s_dist", ["uniform", math.nan, 1.0]),
                                      ("s_dist", ["uniform", 1e308, -1e308]),
                                      ("h_dist", ["two_point", 1.0, 2.0, 1.5])])
def test_a_law_parameter_outside_its_domain_is_a_usage_error(tmp_path, capsys, key, law):
    # check_dist knows each law's domain, so the error names the law's field
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"d": 2, "L": 4, "seed": 0, key: law}}))
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert _usage_error(capsys, f"env.{key}").count("\n") == 1
    flag = "--" + key.replace("_", "-")
    assert main(["gen-env", "--d", "2", "--L", "4", "--seed", "0",
                 flag, ",".join(map(str, law)), "-o", str(tmp_path / "env.json")]) == 2
    assert _usage_error(capsys, flag).count("\n") == 1
    assert not (tmp_path / "env.json").exists()


def test_a_file_with_a_negative_conductance_is_a_usage_error(tmp_path, capsys):
    # -1e-13 passes every tolerance but weak ellipticity's: an edge with
    # s <= 0 carries no walk, however small |s| is
    path = tmp_path / "env.json"
    save_env(homogeneous_environment(1, 4), str(path))
    doc = json.loads(path.read_text())
    doc["s"][0] = -1e-13
    path.write_text(json.dumps(doc))
    assert main(["bounds", "--env", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weak_ellipticity" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, law", [("--h-dist", "gaussian,1e308"),
                                       ("--s-dist", "lognormal,1000,1")])
def test_a_law_that_overflows_prints_only_the_error_block(tmp_path, capsys, flag, law):
    # the draw overflows to non-finite rates; validate reports them as NaN
    # residuals, and numpy adds no RuntimeWarning of its own
    assert main(["gen-env", "--d", "2", "--L", "2", "--seed", "0", flag, law,
                 "-o", str(tmp_path / "env.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --s-dist/--h-dist: the laws draw an invalid environment\n")
    assert "Warning" not in err and "residual nan" in err
    assert not (tmp_path / "env.json").exists()


SEED_MAX = str(2**64 - 1)
SEED_PAST = str(2**64)


@pytest.mark.parametrize("command", ["gen-env", "simulate", "simulate-traj", "decompose"])
def test_cli_seed_range_ends_below_two_to_the_64(tmp_path, env_file, capsys, command):
    argv = {"gen-env": ["gen-env", "--d", "2", "--L", "4"],
            "simulate": ["simulate", "--env", env_file, "--T", "2", "--replicas", "2"],
            "simulate-traj": ["simulate", "--env", env_file, "--T", "2", "--x0", "0",
                              "--traj", str(tmp_path / "t.jsonl")],
            "decompose": ["decompose", "--env", env_file, "--T", "2", "--replicas", "2"]}[command]
    argv += ["-o", str(tmp_path / "out")]
    assert main(argv + ["--seed", SEED_MAX]) == 0
    capsys.readouterr()
    assert main(argv + ["--seed", SEED_PAST]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["seed", "env.seed"])
def test_config_seed_range_ends_below_two_to_the_64(tmp_path, env_file, capsys, where):
    def config(seed):
        if where == "seed":
            return {"seed": seed, "env": {"path": env_file}}
        return {"env": {"d": 2, "L": 4, "seed": seed}}

    cfg = report.config_from_dict({**config(int(SEED_MAX)), "T": 2.0, "replicas": 2,
                                   "checks": ["validate", "decompose"]})
    rep, _ = report.run_config(cfg)
    assert all("error" not in result for result in rep["checks"].values())
    with pytest.raises(ConfigError, match=where.replace(".", r"\.")):
        report.config_from_dict(config(int(SEED_PAST)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config(int(SEED_PAST)), "checks": ["decompose"]}))
    assert main(["check-all", "--config", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_output_prefix_env_var(tmp_path, env_file, monkeypatch):
    monkeypatch.setenv("RWRE_OUT", str(tmp_path))
    rc = main(["simulate", "--env", env_file, "--T", "2.0",
               "--replicas", "2", "--seed", "1", "-o", "sub/sum.csv"])
    assert rc == 0
    assert (tmp_path / "sub" / "sum.csv").exists()


def test_thread_env_var(env_file, monkeypatch):
    monkeypatch.setenv("RWRE_THREADS", "2")
    rc = main(["simulate", "--env", env_file, "--T", "2.0",
               "--replicas", "4", "--seed", "1"])
    assert rc == 0
    monkeypatch.setenv("RWRE_THREADS", "two")  # no longer read
    assert main(["simulate", "--env", env_file, "--T", "2.0",
                 "--replicas", "4", "--seed", "1"]) == 0
