"""Every module-level import in the package is used by its module.

No lint tool is required: the check reads each module's syntax tree.  A
name bound by an import counts as used when the module loads it anywhere;
`import a.b` counts as used only when an attribute chain starting with
a.b appears, so an import of one submodule is not excused by another.
Fresh interpreters also check the scipy import graph: the package imports
bare `scipy` only, so each command loads just the submodules it calls
(importing the package loads none of sparse, linalg, special or stats, and
the walk commands load neither sparse nor linalg), and every scipy
attribute chain the package names resolves from `import scipy`.  The same
syntax trees check that a usage error reaches exit 2 by one path only: a
rule's ValueError becomes a ConfigError in report.checked (or, for bad
JSON, report.load_config), and only cli.main returns 2.  They also check
that the env module alone keys a Philox stream and alone writes canonical
(separators=) JSON, and that no int() call truncates a seed, a key or a
replica index, which torus.check_integer checks instead.  Last, imports
run one way, from each module to earlier layers of LAYERS only, none inside
a function, and only env, report and cli open files.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bistoch"


def _dotted(node) -> str | None:
    """'a.b.c' for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list:
    """Module-level imports of `source` that nothing in it references."""
    tree = ast.parse(source)
    chains = {_dotted(node) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))}

    def used(name: str) -> bool:
        return any(c == name or c.startswith(name + ".") for c in chains if c)

    bound = [alias.asname or alias.name for stmt in tree.body
             if isinstance(stmt, ast.Import)
             or isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
             for alias in stmt.names]
    return [name for name in bound if not used(name)]


def test_unused_import_detector_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import json\nimport scipy.sparse\nimport scipy.linalg\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n"
              "def f(m):\n    return scipy.sparse.csr_matrix(m)\n")
    assert unused_imports(source) == ["json", "scipy.linalg", "field"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def assert_runs_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_importing_the_package_loads_no_heavy_scipy_submodule():
    """Importing bistoch leaves scipy's sparse, linalg, special and stats unloaded.

    scipy.stats alone costs more than half a second and nothing needs it;
    sparse, linalg and special together cost about 0.3 s and 28 MB, and only
    the operator commands and the clt check need them.
    """
    code = ("import sys\n"
            "import bistoch, bistoch.cli, bistoch.report\n"
            "heavy = ('scipy.sparse', 'scipy.linalg', 'scipy.special', 'scipy.stats')\n"
            "loaded = sorted(m for m in heavy if m in sys.modules)\n"
            "assert not loaded, loaded\n")
    assert_runs_fresh(code)


def test_walk_commands_load_neither_sparse_nor_linalg(tmp_path):
    """gen-env, simulate, decompose and helmholtz do no linear algebra.

    bounds, which assembles and solves sparse operators, must load both,
    so the test cannot pass because nothing is ever loaded.
    """
    env_file = str(tmp_path / "env.json")
    commands = [
        ["gen-env", "--d", "2", "--L", "4", "--seed", "3", "-o", env_file],
        ["simulate", "--env", env_file, "--T", "5.0", "--replicas", "4", "--seed", "9",
         "-o", str(tmp_path / "sum.csv")],
        ["decompose", "--env", env_file, "--T", "4.0", "--replicas", "50", "--seed", "2",
         "-o", str(tmp_path / "dec.csv")],
        ["helmholtz", "--env", env_file, "-o", str(tmp_path / "stream.json")],
    ]
    code = ("import contextlib, io, sys\n"
            "from bistoch.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules)\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    assert loaded() == [], (argv[0], loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['bounds', '--env', {env_file!r}])\n"
            "assert loaded() == ['scipy.linalg', 'scipy.sparse'], ('bounds', loaded())\n")
    assert_runs_fresh(code)


def eager_scipy_imports(source: str) -> list:
    """Lines of `source` with a module-level import of a scipy submodule.

    That is `import scipy.<sub>` or any `from scipy... import`; a bare
    `import scipy` loads no submodule until an attribute names it.
    """
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Import):
            if any(alias.name.startswith("scipy.") for alias in stmt.names):
                found.append(stmt.lineno)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and (
                stmt.module == "scipy" or stmt.module.startswith("scipy.")):
            found.append(stmt.lineno)
    return found


def test_eager_scipy_import_detector_sees_what_it_should():
    source = ("import scipy\nimport scipy.sparse\nimport numpy, scipy.linalg as sl\n"
              "from scipy import special\nfrom scipy.sparse.linalg import cg\n"
              "from scipyx import y\nimport scipyx.sub\n"
              "def f():\n    import scipy.stats\n    return scipy.stats\n")
    assert eager_scipy_imports(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_no_scipy_submodule_eagerly(module):
    assert eager_scipy_imports((PACKAGE / module).read_text()) == []


def scipy_chains(source: str) -> set:
    """Every attribute chain scipy.a.b... that `source` names."""
    return {chain for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and (chain := _dotted(node)) and chain.startswith("scipy.")}


def test_scipy_chain_collector_sees_what_it_should():
    source = ("import scipy\nx: scipy.sparse.csr_matrix\n"
              "y = scipy.sparse.linalg.cg(a, b)[0].real\n"
              "z = notscipy.sparse\ndoc = 'scipy.stats.kstest'\n")
    assert scipy_chains(source) == {"scipy.sparse", "scipy.sparse.csr_matrix",
                                    "scipy.sparse.linalg", "scipy.sparse.linalg.cg"}


def test_every_scipy_chain_resolves_from_bare_import():
    """Each scipy.a.b... the package names resolves by getattr from `import scipy`.

    A typo, or a submodule that the installed scipy does not load on first
    attribute access, would otherwise show only when its code path first runs.
    """
    chains = sorted(set().union(*(scipy_chains(p.read_text())
                                  for p in PACKAGE.glob("*.py"))))
    assert "scipy.sparse.linalg.lgmres" in chains
    code = ("import functools, scipy\n"
            f"chains = {chains!r}\n"
            "broken = []\n"
            "for chain in chains:\n"
            "    try:\n"
            "        functools.reduce(getattr, chain.split('.')[1:], scipy)\n"
            "    except AttributeError as e:\n"
            "        broken.append(f'{chain}: {e}')\n"
            "assert not broken, broken\n")
    assert_runs_fresh(code)


def test_helmholtz_names_no_scipy():
    """The FFT Poisson solver and the stream tensor need numpy alone."""
    assert scipy_chains((PACKAGE / "helmholtz.py").read_text()) == set()


def _enclosed(node, func=None):
    """(name of the innermost def around it or None, node) for node and all below it."""
    yield func, node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    for child in ast.iter_child_nodes(node):
        yield from _enclosed(child, func)


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught)


def _raises_config_error(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ConfigError"
               for node in ast.walk(handler))


def second_exit_paths(source: str, translators=()) -> list:
    """Lines of `source` that take a usage error to exit 2 outside the one path.

    That is a `return 2` outside a function named main, and an `except
    ValueError` handler that raises ConfigError outside the functions named
    in translators.
    """
    found = []
    for func, node in _enclosed(ast.parse(source)):
        if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                and node.value.value == 2 and func != "main"):
            found.append(node.lineno)
        elif (isinstance(node, ast.ExceptHandler) and _catches_value_error(node)
              and _raises_config_error(node) and func not in translators):
            found.append(node.lineno)
    return found


def test_exit_path_detector_sees_what_it_should():
    source = ("def checked(rule):\n"
              "    try:\n        return rule()\n"
              "    except ValueError as e:\n        raise ConfigError('x', str(e))\n"
              "def parse(text):\n"
              "    try:\n        return float(text)\n"
              "    except (TypeError, ValueError):\n        raise ConfigError('y', text)\n"
              "def run(args):\n"
              "    if args.bad:\n        print('bad')\n        return 2\n"
              "    try:\n        return int(args.n)\n"
              "    except ValueError:\n        return None\n"
              "def main():\n    return 2\n")
    assert second_exit_paths(source, translators=("checked",)) == [9, 14]


@pytest.mark.parametrize("module, translators", [
    ("cli.py", ()), ("report.py", ("checked", "load_config"))])
def test_usage_errors_take_one_path_to_exit_two(module, translators):
    assert second_exit_paths((PACKAGE / module).read_text(), translators) == []


def convention_sites(source: str) -> list:
    """(kind, line) of each Philox construction and each JSON write with separators=."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = (_dotted(node.func) or "").rsplit(".", 1)[-1]
        if name == "Philox":
            found.append(("philox", node.lineno))
        elif name in ("dump", "dumps") and any(kw.arg == "separators" for kw in node.keywords):
            found.append(("separators", node.lineno))
    return found


def test_convention_detector_sees_what_it_should():
    source = ("import json\nimport numpy as np\nfrom numpy.random import Philox\n"
              "g = np.random.Generator(np.random.Philox(key=1))\n"
              "h = Philox(2)\n"
              "a = json.dumps({}, sort_keys=True, separators=(',', ':'))\n"
              "json.dump({}, f, indent=2)\n"
              "json.dump({}, f, separators=(',', ':'))\n")
    assert sorted(convention_sites(source)) == [
        ("philox", 4), ("philox", 5), ("separators", 6), ("separators", 8)]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_env_alone_keys_philox_and_writes_canonical_json(module):
    kinds = sorted(kind for kind, _ in convention_sites((PACKAGE / module).read_text()))
    assert kinds == (["philox", "separators"] if module == "env.py" else [])


# names of the integers that select a walk or an environment
SEED_NAMES = frozenset({"seed", "key", "master_seed", "replica"})


def seed_truncations(source: str) -> list:
    """Lines of `source` with an int(...) call on a name in SEED_NAMES.

    int() turns 1.5 and True into 1 without a word, so such a call would
    let a float or a bool seed name another seed's walk.
    """
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int"
            and any(isinstance(a, ast.Name) and a.id in SEED_NAMES for a in node.args)]


def test_seed_truncation_detector_sees_what_it_should():
    source = ("def f(seed, key, master_seed, replica, n):\n"
              "    a = int(seed)\n    b = int(n) + int(key)\n"
              "    c = (int(master_seed) << 64) | int(replica)\n"
              "    return int(seed.bit_length()), a, b, c\n")
    assert seed_truncations(source) == [2, 3, 4, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_seed_is_truncated_by_int(module):
    assert seed_truncations((PACKAGE / module).read_text()) == []


# the package's layers, lowest first: a module imports only from earlier layers
LAYERS = (("errors", "torus"), ("env",), ("walker", "helmholtz"), ("mart",),
          ("corrector",), ("report",), ("cli",))
# the modules that open files: env's environment files, report's configs and
# reports, and the command line's own outputs
OPENERS = frozenset({"env", "report", "cli"})


def _package_modules(node) -> list:
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("bistoch.")]
    module = node.module or ""
    if node.level == 0:  # absolute: bistoch, bistoch.<module> or another package
        package, _, module = module.partition(".")
        if package != "bistoch":
            return []
    return [module.split(".")[0]] if module else [alias.name for alias in node.names]


def layering_faults(module: str, source: str) -> list:
    """(kind, line) of each import in a function body, each import of a module
    not in an earlier layer than `module`, and each call of open outside OPENERS.

    __init__ re-exports the package, so it may import any module.
    """
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    own = len(LAYERS) if module == "__init__" else rank.get(module, -1)
    found = []
    for func, node in _enclosed(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if func is not None:
                found.append(("nested", node.lineno))
            if any(rank.get(name, len(LAYERS)) >= own for name in _package_modules(node)):
                found.append(("upward", node.lineno))
        elif (isinstance(node, ast.Call) and module not in OPENERS
              and (_dotted(node.func) or "").rsplit(".", 1)[-1] == "open"):
            found.append(("open", node.lineno))
    return found


def test_layering_detector_sees_what_it_should():
    source = ("import json\nimport bistoch.report\n"
              "from . import corrector as cor, torus\n"
              "from .env import Environment\nfrom .mart import bounds\n"
              "from bistoch.walker import simulate\nfrom bistoch import cli\n"
              "def f(path):\n"
              "    from .helmholtz import stream_from_flow\n"
              "    import csv\n"
              "    with open(path) as fh:\n        return io.open(fh)\n")
    assert layering_faults("walker", source) == [
        ("upward", 2), ("upward", 3), ("upward", 5), ("upward", 6), ("upward", 7),
        ("nested", 9), ("upward", 9), ("nested", 10), ("open", 11), ("open", 12)]
    assert layering_faults("cli", source) == [
        ("upward", 7), ("nested", 9), ("nested", 10)]
    assert layering_faults("fresh", "x = 1\n") == []
    assert layering_faults("fresh", "from .errors import BistochError\n") == [("upward", 1)]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_imports_run_one_way_and_only_three_modules_open_files(module):
    assert layering_faults(module, (PACKAGE / f"{module}.py").read_text()) == []


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == {name for layer in LAYERS for name in layer}
