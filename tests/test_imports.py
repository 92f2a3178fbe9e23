"""Every module-level import in the package is used by its module.

No lint tool is required: the check reads each module's syntax tree.  A
name bound by an import counts as used when the module loads it anywhere;
`import a.b` counts as used only when an attribute chain starting with
a.b appears, so an import of one submodule is not excused by another.
A fresh interpreter also checks that importing the package leaves
scipy.stats out of the import graph.
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


def test_package_never_imports_scipy_stats():
    """scipy.stats costs more than half a second to import and nothing needs it."""
    code = ("import sys\n"
            "import bistoch, bistoch.cli, bistoch.report\n"
            "assert 'scipy.stats' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy.stats'))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
