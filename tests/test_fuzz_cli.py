"""Fuzz tests of the CLI exit-code contract.

Every config and argument vector drawn here must make ``cli.main`` return
0 (ok), 1 (a failed computation or check) or 2 (usage or config error),
and nothing may reach stderr as a traceback.  Each case breaks one field
with one bad value, or none; hypothesis draws every other field from good
values, and the exit code must be 2 exactly when a field is broken.  Tori
stay tiny, replicas at most two and horizons at most 2, so no example can
start a long run.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bistoch.cli import main
from bistoch.env import GENERATORS
from bistoch.report import CHECK_NAMES

FUZZ = settings(max_examples=4, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# stand-ins for the environment file paths: the stand-in's suffix on the good file
ENV, MISSING, TRUNCATED, NO_S = "<env>", "<missing>", "<truncated>", "<no-s>"
DIRECTORY, UNDECODABLE = "<directory>", "<undecodable>"
SUFFIX = {ENV: "", MISSING: ".missing", TRUNCATED: ".truncated", NO_S: ".no-s",
          DIRECTORY: ".dir", UNDECODABLE: ".undecodable"}
# 0xff starts no UTF-8 sequence, so a file that begins with it cannot be read as text
NOT_UTF8 = b"\xff"
LAWS = ([None, ["uniform", 0.5, 2.0], ["two_point", 1.0, 4.0, 0.5],
         ["lognormal", 0.0, 0.5], ["gaussian", 0.3]],
        [["bogus", 1.0], ["uniform", 1.0], ["uniform", "a", 2.0],
         ["gaussian", True], [], "uniform"])
# a conductance law must draw a valid environment: a gaussian may draw a
# negative conductance, and one below zero everywhere breaks domination
# on every edge, so the conductance-stream generator rejects it at any size
S_LAWS = ([law for law in LAWS[0] if law is None or law[0] != "gaussian"],
          [*LAWS[1], ["uniform", -2.0, -1.0]])
BAD_GRIDS = [[1.0, 0.5, 2.0], [-1.0, 2.0], [0.0, 2.0], [0.1], ["a"], [[2.0]],
             [True], [], "2.0"]
# field: (good values, bad values); None leaves an optional field out
FIELDS = {
    "d": ([1, 2], [-1, 0]),
    "L": ([2, 4], [-1, 0, 1]),
    "seed": ([0, 5, 2**64 - 1], [-1, 2**64]),
    "replicas": ([1, 2], [-1, 0]),
    "T": ([0.5, 2.0], [-1.0, 0.0, math.nan, math.inf]),
    "generator": (list(GENERATORS), ["bogus"]),
    "s_dist": S_LAWS,
    "h_dist": LAWS,
    "path": ([ENV], [MISSING, TRUNCATED, NO_S, DIRECTORY, UNDECODABLE]),
    "config": ([None], [DIRECTORY, UNDECODABLE]),  # the config file itself
    "grid": (None, BAD_GRIDS),  # good grids follow T
    "x0": (None, [-1, 99, 1.5, True, "0"]),  # good sites follow the torus
    "checks": ([None, ["validate", "decompose", "clt"], list(CHECK_NAMES)],
               [[], ["bogus"]]),
    # command-line forms: argparse turns a non-integer --x0 into a usage error
    "--x0": ([None, 0, 15], [-1, 16, 99]),
    "--grid": (None, [g for g in BAD_GRIDS if g and not isinstance(g, str)]),
}
ENV_FIELDS = ("d", "L", "env.seed", "generator", "s_dist", "h_dist")
# a 1-d torus has no plaquettes, so only the conductance-stream generator
# draws there; the pair (d=1, totally-asymmetric) is a usage error of its own
GOOD_GENERATORS = {1: GENERATORS[:1]}
THREADS = st.sampled_from([None, -1, 0, 1, 4])


def _generators(d, broken):
    """Generators to draw from: only conductance-stream reads a broken s_dist."""
    if broken and broken[0] == "s_dist":
        return GENERATORS[:1]
    return GOOD_GENERATORS.get(d, GENERATORS)


def _h_laws(generator):
    """Good stream laws for a generator.

    A two-point law repeats its values, so neighbouring plaquettes cancel
    and leave some totally-asymmetric edge without flow: an input error.
    """
    if generator == "totally-asymmetric":
        return [law for law in LAWS[0] if law is None or law[0] != "two_point"]
    return LAWS[0]


def _cases(*names, command=None):
    """The clean case, then one case per bad value of each named field."""
    cases = [("clean", None)] + [
        (f"{name}={value!r}", (name, value))
        for name in names for value in FIELDS[name.removeprefix("env.")][1]]
    if command is None:
        return [pytest.param(broken, id=label) for label, broken in cases]
    return [pytest.param(command, broken, id=f"{command}-{label}") for label, broken in cases]


def _picker(draw, broken):
    def pick(name, good):
        if broken and broken[0] == name:
            return broken[1]
        return draw(st.sampled_from(good))
    return pick


@pytest.fixture(scope="module")
def env_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "env.json"
    assert main(["gen-env", "--d", "2", "--L", "4", "--seed", "3", "-o", str(path)]) == 0
    text = path.read_text()
    (path.parent / ("env.json" + SUFFIX[TRUNCATED])).write_text(text[:len(text) // 2])
    doc = json.loads(text)
    del doc["s"]
    (path.parent / ("env.json" + SUFFIX[NO_S])).write_text(json.dumps(doc))
    (path.parent / ("env.json" + SUFFIX[DIRECTORY])).mkdir()
    (path.parent / ("env.json" + SUFFIX[UNDECODABLE])).write_bytes(NOT_UTF8 + text.encode())
    return str(path)


def _text(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, list) else str(value)


def _run(capsys, argv, broken) -> None:
    capsys.readouterr()
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err, (argv, err)
    assert rc == 2 if broken else rc in (0, 1), (argv, rc, err)


@pytest.mark.parametrize("broken", _cases(*ENV_FIELDS, "path", "seed", "T", "replicas",
                                          "grid", "x0", "checks", "config"))
@FUZZ
@given(data=st.data())
def test_check_all_config_exit_codes(tmp_path, capsys, env_file, broken, data):
    draw = data.draw
    pick = _picker(draw, broken)
    field = broken and broken[0]
    inline = field in ENV_FIELDS or (field != "path" and draw(st.booleans()))
    if inline:
        d = pick("d", FIELDS["d"][0])
        env = {"d": d, "L": pick("L", FIELDS["L"][0]),
               "seed": pick("env.seed", FIELDS["seed"][0]),
               "generator": pick("generator", _generators(d, broken))}
        for key in ("s_dist", "h_dist"):
            law = pick(key, _h_laws(env["generator"]) if key == "h_dist" else FIELDS[key][0])
            if law is not None:
                env[key] = law
        n = max(env["L"], 0) ** max(env["d"], 0)
    else:
        env = {"path": env_file + SUFFIX[pick("path", FIELDS["path"][0])]}
        n = 16
    T = pick("T", FIELDS["T"][0])
    cfg = {"seed": pick("seed", FIELDS["seed"][0]), "env": env, "T": T,
           "replicas": pick("replicas", FIELDS["replicas"][0])}
    # a broken T gets no grid, so the config fails on T alone
    grids = [None, [T], [T / 4, T]] if 0 < T < math.inf else [None]
    optional = {"grid": pick("grid", grids), "x0": pick("x0", [None, 0, n - 1]),
                "checks": pick("checks", FIELDS["checks"][0])}
    cfg.update({k: v for k, v in optional.items() if v is not None})
    path = tmp_path / "config.json"
    stand_in = pick("config", FIELDS["config"][0])
    if stand_in == DIRECTORY:
        path.mkdir(exist_ok=True)
    else:
        text = json.dumps(cfg).encode()
        path.write_bytes(NOT_UTF8 + text if stand_in == UNDECODABLE else text)
    argv = ["check-all", "--config", path, "-o", tmp_path / "report.json"]
    threads = draw(THREADS)
    if threads is not None:
        argv += ["--threads", threads]
    _run(capsys, argv, broken)


@pytest.mark.parametrize("command,broken", [
    *_cases("path", "T", "replicas", "seed", "--x0", command="simulate"),
    *_cases("path", "T", "replicas", "seed", "--x0", "--grid", command="decompose"),
])
@FUZZ
@given(data=st.data())
def test_simulate_and_decompose_exit_codes(tmp_path, capsys, env_file, command, broken,
                                           data):
    draw = data.draw
    pick = _picker(draw, broken)
    T = pick("T", FIELDS["T"][0])
    env = env_file + SUFFIX[pick("path", FIELDS["path"][0])]
    argv = [command, "--env", env, "--T", T,
            "--replicas", pick("replicas", FIELDS["replicas"][0]),
            "--seed", pick("seed", FIELDS["seed"][0]), "-o", tmp_path / "out.csv"]
    for flag, value in (("--x0", pick("--x0", FIELDS["--x0"][0])),
                        ("--threads", draw(THREADS))):
        if value is not None:
            argv += [flag, value]
    if command == "decompose":
        grids = [None, [T], [T / 4, T]] if 0 < T < math.inf else [None]
        grid = pick("--grid", grids)
        if grid is not None:
            argv.append(f"--grid={_text(grid)}")  # "=" keeps a leading "-" a value
    _run(capsys, argv, broken)


@pytest.mark.parametrize("broken", _cases("d", "L", "seed", "s_dist", "h_dist"))
@FUZZ
@given(data=st.data())
def test_gen_env_exit_codes(tmp_path, capsys, broken, data):
    draw = data.draw
    pick = _picker(draw, broken)
    d = pick("d", FIELDS["d"][0])
    generator = draw(st.sampled_from(_generators(d, broken)))
    argv = ["gen-env", "--generator", generator, "-o", tmp_path / "env.json", "--d", d]
    for key in ("L", "seed"):
        argv += [f"--{key}", pick(key, FIELDS[key][0])]
    for key in ("s_dist", "h_dist"):
        law = pick(key, _h_laws(generator) if key == "h_dist" else FIELDS[key][0])
        if law is not None:
            argv.append(f"--{key.replace('_', '-')}={_text(law)}")
    _run(capsys, argv, broken)
