"""Every public function, class, method and property of the package has a user.

A public name counts as used when a module of the package or a benchmark
script (perfbench/*.py) refers to it anywhere but in its own definition:
a function or class as a name, an attribute or an imported name, a method
only as an attribute, so a local variable or parameter of the same name
does not hide it.  The package __init__.py only re-exports, and tests do
not count, so a name that only tests reach fails unless ALLOWED names it
with its reason.  Methods are matched by attribute name alone, whatever
the object, so a pass is a floor, not proof of use.
"""

import ast
import collections
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bistoch"

# names that only tests reach, kept on purpose
ALLOWED = {
    "bracket_fields": "oracle: bracket densities whose site averages the tests "
                      "hold to the closed forms behind the bounds",
    "BracketFields.average_residuals": "oracle: those averages against their closed forms",
    "decompose": "oracle: the one-trajectory prefix-sum replay that the tests hold "
                 "the lockstep engine's decomposition to",
    "homogeneous_environment": "oracle: the environment whose diffusivity is known exactly",
    "adjoint_environment": "oracle: the time-reversed walk, which flips J and keeps I",
    "checkerboard_stream": "oracle: a stream tensor with a closed-form curl",
    "Diagnostics.mean_h2_over_s": "the stream functional <h^2/s> that the H-1 upper "
                                  "bound and the integrability check of ROADMAP "
                                  "items 1 and 6 read",
}


def public_definitions(tree) -> list:
    """(qualified name, node) of each public top-level def, class and method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def references(tree, method: bool) -> collections.Counter:
    """How often each attribute occurs in tree, and unless method, each name
    and imported name too."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif method:
            continue
        elif isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def unreferenced(modules: dict, scripts: list) -> list:
    """Public names of modules (name -> source) that nothing else refers to."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    kinds = (False, True)  # whether the definition is a method
    refs = {name: {m: references(tree, m) for m in kinds} for name, tree in trees.items()}
    outside = {m: set().union(*(references(ast.parse(src), m) for src in scripts))
               for m in kinds}
    found = []
    for name, tree in sorted(trees.items()):
        seen = {m: outside[m].union(*(r[m] for other, r in refs.items() if other != name))
                for m in kinds}
        for qual, node in public_definitions(tree):
            m = "." in qual
            # a use inside the definition itself (recursion) does not count
            own = refs[name][m][node.name] - references(node, m)[node.name]
            if node.name not in seen[m] and own == 0:
                found.append(qual)
    return found


@functools.cache
def _package_unreferenced() -> frozenset:
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    scripts = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    return frozenset(unreferenced(modules, scripts))


def test_detector_sees_what_it_should():
    lib = ("class A:\n"
           "    def used(self):\n        return self.helper()\n"
           "    def helper(self):\n        return 1\n"
           "    def unused(self):\n        return self.unused()\n"
           "    def coords(self, index):\n        return index\n"
           "    def index(self):\n        return 0\n"
           "def lonely():\n    return lonely\n"
           "def _private():\n    pass\n")
    # a local variable named like a method does not count as its use
    script = "from lib import A\ncoords = A().used()\n"
    assert unreferenced({"lib": lib}, [script]) == [
        "A.unused", "A.coords", "A.index", "lonely"]


def test_every_public_name_has_a_user():
    assert sorted(_package_unreferenced() - set(ALLOWED)) == []


def test_allowlist_holds_no_stale_entry():
    assert sorted(set(ALLOWED) - _package_unreferenced()) == []
