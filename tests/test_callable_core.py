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
imports SciPy, which is a test dependency only, or uses ``numpy.random``,
whose import loads ``hashlib`` (OpenSSL) and ``secrets``.  No function or
method takes a parameter named ``seed``: the program draws no random
number, and the CLI's ``--seed`` is only recorded.  None but ``varifold``
reads a ``.points`` attribute: a graph cloud builds every row on that
read, and the program reads coordinates through ``points_at(rows)``.
None but ``varifold`` builds a ``SampleIndex``, so that its ``cKDTree``
sees every index the program builds.

A public method is live only when it is referenced as an attribute whose
root is not a module alias (a name an ``import`` statement binds), or as
a part after the first of a dotted string in ``bench/``: ``x.norm``
counts, and neither ``np.linalg.norm`` nor a local variable ``norm``
does.

Every optional parameter of a public callable (a function, a method, or
a class through its ``__init__``) is set by some call in the same
sources, or is listed in ``SEAMS`` with the reason that keeps it; an
option no caller sets is a constant.  A call sets an option when it
passes it by keyword, or passes enough positional arguments (or a
starred one) to reach it.  Calls match by bare name against every
definition, as the name check does, and ``cls(...)`` inside a class's
methods calls that class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mintwo"

# names kept without a caller, each for the open ROADMAP item that needs
# it
ALLOWLIST = {
    "harmonic_defect": "item 3: blow-up defects on every rung",
    "homogeneity_defect": "item 3: blow-up defects on every rung",
    "coarser_excess": "item 3: the lemma's no-coarser-cone hypothesis",
    "holder_seminorm": "item 5: the C^{1,alpha} seminorm",
    "sheets": "items 3 and 5: sheets oriented by the labels",
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
    "points_at": {
        "SampledVarifold.points_at": "every reader of a cloud's coordinates",
        "SimilarityView.points_at": "dist_to_varifold's patch refinement",
    },
    "has_frames": {
        "SampledVarifold.has_frames": "first_variation_defect, axis_tilt",
        "SimilarityView.has_frames": "dist_to_varifold's patch refinement",
    },
    "nbytes": {
        "GraphPoints.nbytes": "SampledVarifold.nbytes of a graph cloud",
        "SampleIndex.nbytes": "the index memory bounds of the unit tests",
        "SampledVarifold.nbytes": "the traced varifold.cloud_mb of the "
                                  "next benchmark change (CHANGES.md)",
    },
}

# optional parameters that no call outside the unit tests sets, each with
# the test or open ROADMAP item that sets it
SEAMS = {
    "BumpField(amplitude)": "the linearity test of the first variation",
    "coarser_excess(C0)": "item 3: the lemma's no-coarser-cone hypothesis",
    "coarser_excess(R)": "item 3: the lemma's no-coarser-cone hypothesis",
    "decay_pipeline(q_gate)": "the q-gate test; item 10's hypothesis gate",
    "homogeneity_defect(degree)":
        "the degree-two test; item 3: blow-up defects on every rung",
    "propagate_labels(exclusion)": "the swapped-storage property test",
    "radial_homogeneity_deficit(tau)": "the closed-form comparisons",
    "radial_homogeneity_deficit(rays)": "the closed-form comparisons",
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


def _sources():
    """(tree, whether dotted strings count) of every caller source."""
    sources = [(p, False) for p in SRC.glob("*.py")]
    sources += [(p, False) for p in (ROOT / "demos").glob("*.py")]
    sources += [(ROOT / "tests" / "test_acceptance.py", False)]
    sources += [(p, True) for p in (ROOT / "bench").glob("*.py")]
    return [(ast.parse(path.read_text()), strings)
            for path, strings in sources]


def _callers():
    refs = set()
    for tree, strings in _sources():
        refs |= _references(tree, strings)
    return refs


def _optional_parameters():
    """(bare name, parameter, positional index or None, "qual(parameter)")
    of every optional parameter of a public callable; the index leaves out
    ``self`` and ``cls``."""
    out = []

    def add(name, qual, args, skip):
        pos = args.posonlyargs + args.args
        first = len(pos) - len(args.defaults)
        out.extend((name, p.arg, i - skip, "%s(%s)" % (qual, p.arg))
                   for i, p in enumerate(pos) if i >= first)
        out.extend((name, p.arg, None, "%s(%s)" % (qual, p.arg))
                   for p, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                add(node.name, node.name, node.args, 0)
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    if m.name == "__init__":
                        add(node.name, node.name, m.args, 1)
                    elif not m.name.startswith("_"):
                        add(m.name, node.name + "." + m.name, m.args, 1)
    return out


def _calls(tree):
    """(bare name, positional count, keywords) of each call in a tree;
    ``cls(...)`` inside a class calls that class, a starred positional
    argument reaches every position and ``**`` every keyword (None)."""
    out = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name == "cls" and cls:
                name = cls
            if any(isinstance(a, ast.Starred) for a in node.args):
                reach = float("inf")
            else:
                reach = len(node.args)
            out.append((name, reach, {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)
    visit(tree, None)
    return out


def _unset_options():
    calls = [c for tree, _ in _sources() for c in _calls(tree)]
    return sorted(
        label for name, param, index, label in _optional_parameters()
        if not any(called == name
                   and (param in kws or None in kws
                        or (index is not None and reach > index))
                   for called, reach, kws in calls))


def _method_references(tree, strings=False):
    """Attribute names referenced in a tree whose root is not a module
    alias, except inside their own definition; with ``strings``, the
    parts after the first of each dotted string constant too."""
    aliases = {(a.asname or a.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    refs = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in aliases):
                refs.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and _DOTTED.match(node.value)):
            refs.update(node.value.split(".")[1:])
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def _dead_methods():
    refs = set()
    for tree, strings in _sources():
        refs |= _method_references(tree, strings)
    return sorted(qual for name, qual, _ in _public_definitions()
                  if "." in qual and name not in refs
                  and name not in ALLOWLIST)


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


def test_every_public_method_is_referenced_as_an_attribute():
    dead = _dead_methods()
    assert not dead, "public methods without a caller: " + ", ".join(dead)


def test_method_references_skip_module_aliases_and_bare_names():
    tree = ast.parse("import numpy as np\nimport os.path\n"
                     "np.linalg.norm(x)\nos.path.join(a)\nvalue = 1\n"
                     "psi.norm()\nf().g.value\n")
    assert _method_references(tree) == {"norm", "g", "value"}
    assert _method_references(ast.parse("'Cone.nu_step'"), True) \
        == {"nu_step"}
    assert not _method_references(ast.parse("np.norm\nimport numpy as np"))


def test_every_option_is_set_or_a_seam():
    unset = [q for q in _unset_options() if q not in SEAMS]
    assert not unset, "options no caller sets: " + ", ".join(unset)


def test_seams_hold_only_options_no_caller_sets():
    # a seam that is gone or has found a caller comes off
    assert sorted(SEAMS) == [q for q in _unset_options() if q in SEAMS]


def test_option_check_counts_keywords_positions_and_cls():
    tree = ast.parse("f(1, b=2)\nx.g(1, 2)\nh(*args)\nk(**kw)\n"
                     "class C:\n    @classmethod\n"
                     "    def make(cls):\n        return cls(1, 2, 3)\n")
    calls = _calls(tree)
    assert ("f", 1, {"b"}) in calls and ("g", 2, set()) in calls
    assert ("h", float("inf"), set()) in calls
    assert ("k", 0, {None}) in calls and ("C", 3, set()) in calls


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


def _excluded_imports(tree):
    """Each scipy or numpy.random import in a tree, at any depth, by module
    name, and each ``random`` attribute of a numpy alias, as written."""
    found = []
    numpy = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            numpy |= {alias.asname for alias in node.names
                      if alias.name == "numpy" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
            if node.module == "numpy":
                names += ["numpy." + alias.name for alias in node.names]
        else:
            continue
        found += [n for n in names if n.split(".")[0] == "scipy"
                  or n.split(".")[:2] == ["numpy", "random"]]
    found += [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in numpy]
    return found


def test_no_module_imports_scipy_or_numpy_random():
    found = ["%s uses %s" % (path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _excluded_imports(ast.parse(path.read_text()))]
    assert not found, "; ".join(found)


def test_scipy_import_check_sees_nested_imports():
    tree = ast.parse("import numpy, scipy.spatial\n"
                     "def f():\n    from scipy.special import gamma\n"
                     "from . import scipy\n"
                     "import scipyx\n")
    assert _excluded_imports(tree) == ["scipy.spatial", "scipy.special"]


def test_numpy_random_check_sees_imports_and_attributes():
    tree = ast.parse("import numpy.random\n"
                     "def f():\n    from numpy.random import default_rng\n"
                     "from numpy import random, linalg\n"
                     "import numpy.randomx\n"
                     "from . import random\n")
    assert _excluded_imports(tree) == ["numpy.random", "numpy.random",
                                       "numpy.random"]
    tree = ast.parse("import numpy as np\n"
                     "def f(seed):\n"
                     "    return np.random.default_rng(seed)\n"
                     "g = numpy.random.normal\n"
                     "h = rng.random(3)\n")
    assert sorted(_excluded_imports(tree)) == ["np.random", "numpy.random"]


def _seed_parameters(tree):
    """Name of each function or method in a tree, at any depth, that takes
    a parameter named ``seed``, of any kind."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        if any(p is not None and p.arg == "seed" for p in params):
            found.append(node.name)
    return found


def test_no_function_takes_a_seed():
    found = ["%s: %s" % (path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _seed_parameters(ast.parse(path.read_text()))]
    assert not found, "functions taking a seed: " + ", ".join(found)


def test_seed_check_sees_every_kind_of_parameter():
    tree = ast.parse("def f(x, seed=0):\n    pass\n"
                     "class C:\n    def g(self, *, seed):\n        pass\n"
                     "    def h(self, seed_node=None, *seed):\n"
                     "        def k(**seed):\n            pass\n"
                     "def m(seeds, rng):\n    pass\n")
    assert sorted(_seed_parameters(tree)) == ["f", "g", "h", "k"]


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


def _points_reads(tree):
    """Line of each ``.points`` attribute in a tree, in order."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "points")


def test_only_varifold_reads_points():
    # a graph cloud builds every row on a read of ``points``; the program
    # reads coordinates through ``points_at(rows)``
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "varifold.py"
             for line in _points_reads(ast.parse(path.read_text()))]
    assert not found, "reads of .points: " + ", ".join(found)


def test_points_check_sees_attribute_reads():
    tree = ast.parse("x = V.points\n"
                     "f(V.points[keep], V.points_at(rows))\n"
                     "points = base_points\n"
                     "view.base.points.shape\n")
    assert _points_reads(tree) == [1, 2, 4]


def _index_builds(tree):
    """Line of each call of ``SampleIndex`` in a tree, by bare name or as
    an attribute, in order."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "SampleIndex" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None)))


def test_only_varifold_builds_an_index():
    # varifold.cKDTree builds every index, so counting its calls counts
    # every index the program builds
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "varifold.py"
             for line in _index_builds(ast.parse(path.read_text()))]
    assert not found, "SampleIndex built at " + ", ".join(found)


def test_index_check_sees_bare_and_attribute_calls():
    tree = ast.parse("t = SampleIndex(pts)\n"
                     "u = varifold.SampleIndex(pts, leafsize=8)\n"
                     "SampleIndex.query(t, x)\n"
                     "f(SampleIndex)\n"
                     "v = cKDTree(pts)\n")
    assert _index_builds(tree) == [1, 2]
