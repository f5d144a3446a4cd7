"""Every public name in ``src/mintwo`` has a caller outside the unit tests.

A public name is a top-level function or class, or a method of a public
class, whose name does not start with an underscore.  It is live when its
bare name is referenced from the CLI, a demo, the acceptance criteria, the
benchmark, or ``src/`` outside its own definition.  References are
identifiers, attribute names and imported names; in ``bench/`` the dotted
parts of string constants count too, since its patch points name their
targets as strings.  The check goes by bare name, so a name shared by two
definitions keeps both alive: it can miss dead code, but never flags live
code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mintwo"

# names kept without a caller, each for the open ROADMAP item that needs it.
# detect_high_density_points (item 5) is not listed: singular_graph_fit
# calls it.
ALLOWLIST = {
    "harmonic_defect": "item 3: blow-up defects on every rung",
    "homogeneity_defect": "item 3: blow-up defects on every rung",
    "coarser_excess": "item 3: the lemma's no-coarser-cone hypothesis",
    "singular_graph_fit": "item 5: the singular set as a C^{1,alpha} graph",
    "holder_seminorm": "item 5: the C^{1,alpha} seminorm",
    "sheets": "items 3 and 5: sheets oriented by the labels",
    "plane_with_multiplicity": "multiplicity-two pairs from cone JSON",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$")


def _public_definitions():
    """(bare name, qualified name, file) of every public definition."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((node.name, node.name, path.name))
            if isinstance(node, ast.ClassDef):
                out.extend((m.name, node.name + "." + m.name, path.name)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_"))
    return out


def _references(tree, strings=False):
    """Bare names referenced in a tree, except inside their own definition.

    A reference to N inside a function or class named N is a recursion or
    a self-reference and does not count.
    """
    refs = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1]]
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and _DOTTED.match(node.value)):
            names = node.value.split(".")
        refs.update(n for n in names if n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def _callers():
    refs = set()
    sources = [(p, False) for p in SRC.glob("*.py")]
    sources += [(p, False) for p in (ROOT / "demos").glob("*.py")]
    sources += [(ROOT / "tests" / "test_acceptance.py", False)]
    sources += [(p, True) for p in (ROOT / "bench").glob("*.py")]
    for path, strings in sources:
        refs |= _references(ast.parse(path.read_text()), strings)
    return refs


def test_every_public_name_has_a_caller():
    refs = _callers()
    dead = sorted("%s (%s)" % (qual, path)
                  for name, qual, path in _public_definitions()
                  if name not in refs and name not in ALLOWLIST)
    assert not dead, "public names without a caller: " + ", ".join(dead)


def test_allowlist_holds_only_names_without_a_caller():
    # an allowlisted name that is gone or has found a caller comes off
    defined = {name for name, _, _ in _public_definitions()}
    refs = _callers()
    assert not set(ALLOWLIST) - defined
    assert not set(ALLOWLIST) & refs


def test_self_reference_is_not_a_caller():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    def g(self):\n        return C()\n")
    assert not {"f", "C"} & _references(tree)
    assert {"f", "C"} <= _references(ast.parse("f(C())"))
