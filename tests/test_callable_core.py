"""Every public name in ``src/mintwo`` has a caller outside the unit tests.

A public name is a top-level function or class, or a method of a public
class, whose name does not start with an underscore.  It is live when its
bare name is referenced from the CLI, a demo, the acceptance criteria, the
benchmark, or ``src/`` outside its own definition.  References are
identifiers, attribute names and imported names; in ``bench/`` the dotted
parts of string constants count too, since its patch points name their
targets as strings.  The check goes by bare name, so a name shared by two
definitions keeps both alive.  Such a name could hide a dead definition
behind a live one, so every definition of a shared name must be declared
in ``SHARED`` with what keeps it alive.  No module of ``src/mintwo``
imports another module's private (underscore) name: a helper that two
modules need belongs to the module that owns it, or is public.  None
imports SciPy, which is a test dependency only.
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

# bare names with more than one public definition: each definition and
# the caller that keeps it alive (or the ROADMAP item it is kept for)
SHARED = {
    "to_json": {
        "Cone.to_json": "fit report; cone inside a cone-field JSON",
        "ConeField.to_json": "acceptance criterion 11 writes --field input",
        "DecayReport.to_json": "decay report",
        "ExcessReport.to_json": "excess report",
        "LinkClassification.to_json": "classify-link report",
        "TwoValuedGrid.to_json": "gen",
    },
    "from_json": {
        "Cone.from_json": "--cone given as a file",
        "ConeField.from_json": "dehomogenize --field",
        "TwoValuedGrid.from_json": "the custom_grid fixture",
    },
    "from_function": {
        "ConeField.from_function": "item 3: blow-up fields sampled per rung",
        "TwoValuedGrid.from_function": "every closed-form fixture",
    },
    "dim": {
        "HalfPlane.dim": "Cone validates its half-planes",
        "Subspace.dim": "cone axes, fits and blow-up frames",
    },
    "distance": {
        "HalfPlane.distance": "Cone.dist_to_support, four_hp fits",
        "Subspace.distance": "Cone.dist_to_support, the axis distance",
    },
    "contains": {
        "Ball.contains": "fit windows and decay rungs",
        "Cylinder.contains": "the excess_Q reverse domain",
    },
    "query": {
        "SampleIndex.query": "SimilarityView.query's nearest samples",
        "SimilarityView.query": "dist_to_varifold, the reverse excess",
    },
    "total_mass": {
        "SampledVarifold.total_mass": "excess_decay_ladder demo",
        "SimilarityView.total_mass": "decay_pipeline rung-0 mass",
    },
    "frames": {
        "SampledVarifold.frames": "first_variation_defect, axis_tilt",
        "SimilarityView.frames": "dist_to_varifold's patch refinement",
    },
    "has_frames": {
        "SampledVarifold.has_frames": "first_variation_defect, axis_tilt",
        "SimilarityView.has_frames": "dist_to_varifold's patch refinement",
    },
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


def _private_imports(tree):
    """(module, name) of each private name a tree imports from mintwo."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").startswith("mintwo")):
            continue
        found += [(node.module, alias.name) for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name():
    found = ["%s imports %s from %s" % (path.name, name, module or ".")
             for path in sorted(SRC.glob("*.py"))
             for module, name in _private_imports(ast.parse(
                 path.read_text()))]
    assert not found, "; ".join(found)


def test_private_import_check_sees_relative_imports():
    tree = ast.parse("from .excess import _sq_dist, excess_E\n"
                     "from mintwo.cones import _halton\n"
                     "from . import __version__\n"
                     "from numpy import _globals\n")
    assert _private_imports(tree) == [("excess", "_sq_dist"),
                                      ("mintwo.cones", "_halton")]


def _scipy_imports(tree):
    """Module names of each scipy import in a tree, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [n for n in names if n.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    found = ["%s imports %s" % (path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _scipy_imports(ast.parse(path.read_text()))]
    assert not found, "; ".join(found)


def test_scipy_import_check_sees_nested_imports():
    tree = ast.parse("import numpy, scipy.spatial\n"
                     "def f():\n    from scipy.special import gamma\n"
                     "from . import scipy\n"
                     "import scipyx\n")
    assert _scipy_imports(tree) == ["scipy.spatial", "scipy.special"]


def test_shared_names_declare_every_definition():
    # a definition that shares its bare name with a live one passes the
    # caller check unseen; SHARED must name each one, and only those
    shared = {}
    for name, qual, _ in _public_definitions():
        shared.setdefault(name, set()).add(qual)
    shared = {name: quals for name, quals in shared.items()
              if len(quals) > 1}
    declared = {name: set(quals) for name, quals in SHARED.items()}
    assert declared == shared
