import json

import numpy as np
import pytest

from bistoch.cli import main
from bistoch.env import load_env
from bistoch.walker import replica_key


@pytest.fixture(scope="module")
def env_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "env.json"
    rc = main(["gen-env", "--d", "2", "--L", "4", "--seed", "3",
               "-o", str(path)])
    assert rc == 0
    return str(path)


def test_gen_env_writes_loadable_file(env_file):
    env = load_env(env_file)
    assert env.torus.d == 2 and env.torus.L == 4
    assert env.validate().passed


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
@pytest.mark.parametrize("law", ["bogus,1.0", "uniform,1.0"])
def test_gen_env_rejects_bad_distribution(tmp_path, capsys, flag, law):
    rc = main(["gen-env", "--d", "2", "--L", "4", "--seed", "5", flag, law,
               "-o", str(tmp_path / "env.json")])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


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


def test_traj_requires_x0(tmp_path, env_file):
    rc = main(["simulate", "--env", env_file, "--T", "5.0", "--seed", "9",
               "--traj", str(tmp_path / "walk.jsonl")])
    assert rc == 2


def test_traj_requires_single_replica(tmp_path, env_file):
    rc = main(["simulate", "--env", env_file, "--T", "5.0", "--seed", "9",
               "--x0", "0", "--replicas", "4",
               "--traj", str(tmp_path / "walk.jsonl")])
    assert rc == 2


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


def test_corrector_axis_range(tmp_path, env_file):
    rc = main(["corrector", "--env", env_file, "--axis", "3"])
    assert rc == 2


def test_helmholtz_round_trip(tmp_path, env_file):
    out = tmp_path / "recon.json"
    rc = main(["helmholtz", "--env", env_file, "-o", str(out)])
    assert rc == 0
    rebuilt = load_env(str(out))
    assert rebuilt.meta["params"]["stream"] == "reconstructed"
    orig = load_env(env_file)
    assert np.allclose(rebuilt.b.full, orig.b.full, atol=1e-10)


def _fast_config(tmp_path, env_file, threads_independent=True):
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
    # reports are byte-identical across thread counts; timings are a sidecar
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "rep1.timings.json").exists()
    doc = json.loads(out1.read_text())
    assert doc["format"] == "bistoch-report" and doc["passed"] is True


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


def test_decompose_bad_grid(tmp_path, env_file, capsys):
    rc = main(["decompose", "--env", env_file, "--T", "10.0", "--seed", "2",
               "--grid", "5.0,9.0", "-o", str(tmp_path / "mart.csv")])
    assert rc == 2
    assert "must end exactly at T" in capsys.readouterr().err


def test_missing_environment_file(tmp_path):
    rc = main(["bounds", "--env", str(tmp_path / "nope.json")])
    assert rc == 2


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
    monkeypatch.setenv("RWRE_THREADS", "two")
    assert main(["simulate", "--env", env_file, "--T", "2.0",
                 "--replicas", "4", "--seed", "1"]) == 2
