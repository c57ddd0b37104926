import ast
import importlib
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "epslie")


def _git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=False
    )


def _require_git_checkout():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        pytest.skip("not a git checkout")


def test_no_tracked_file_is_ignored():
    """Generated files and logs that .gitignore lists are not committed."""
    _require_git_checkout()
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_engine_reads_no_environment():
    """The engine has one configuration: no module consults the environment."""
    readers = []
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    if re.search(r"\b(environ|getenv)\b", fh.read()):
                        readers.append(name)
    assert readers == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_package_builds_from_pyproject_alone():
    """One elimination kernel, in Python: no setup script, no build-time
    dependency beyond setuptools, and no source under src/epslie that
    would need a compiler."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    assert not os.path.exists(os.path.join(ROOT, "setup.py"))
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["build-system"]["requires"] == ["setuptools>=68"]
    _require_git_checkout()
    listed = _git("ls-files", "src/epslie")
    assert listed.returncode == 0, listed.stderr
    assert [f for f in listed.stdout.split() if not f.endswith(".py")] == []


def test_engine_has_no_unused_imports():
    """Every name an engine module imports is read in that module; the
    package __init__ only re-exports."""
    unused = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = alias.name
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s: %s" % (name, imported[b]) for b in sorted(set(imported) - used)]
    assert unused == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_unreferenced_private_function():
    """Every _name function of the engine, module-level or a method, is used
    somewhere in the engine outside its own definition, and every self._name
    attribute that a method stores is read somewhere."""
    defined = set()
    used = set()
    stored = set()
    read = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        # (definition, nodes to scan): a module-level statement, or one
        # statement of a class body
        units = []
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                if _private(top.name):
                    defined.add(top.name)
                units.append((None, top.bases + top.decorator_list))
                units += [(item, [item]) for item in top.body]
            else:
                units.append((top, [top]))
        for top, roots in units:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if _private(own):
                    defined.add(own)
            for node in (n for root in roots for n in ast.walk(root)):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                    if not isinstance(node.ctx, ast.Store):
                        read.add(ref)
                    elif isinstance(node.value, ast.Name) and node.value.id == "self":
                        if _private(ref):
                            stored.add(ref)
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                if ref != own:
                    used.add(ref)
    assert sorted(defined - used) == []
    assert sorted(stored - read) == []


def test_no_dead_local_assignment():
    """No engine function binds a name through a single-target `name = ...`
    and then never reads it."""
    dead = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    if isinstance(node.targets[0], ast.Name):
                        stored.add(node.targets[0].id)
                elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
            dead += ["%s: %s: %s" % (name, fn.name, n) for n in sorted(stored - read)]
    assert dead == []


def test_every_traced_name_exists():
    """Each p(owner, "name", ...) in the benchmark's tracer names an attribute
    the engine still has; a missing one would fail every traced run."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read(), "tracer.py")
    modules = {}  # local name -> the epslie module it is bound to
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "import_module"):
            modules[node.targets[0].id] = importlib.import_module(node.value.args[0].value)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return modules[expr.id]
        return getattr(resolve(expr.value), expr.attr)

    traced, missing = 0, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "p"):
            owner, name = node.args[0], node.args[1].value
            traced += 1
            if not hasattr(resolve(owner), name):
                missing.append("%s.%s" % (ast.unparse(owner), name))
    assert traced > 0
    assert missing == []


def test_engine_never_builds_the_full_coboundary():
    """Cochains have one coordinate system, the sector-local positions: no
    engine module calls CochainComplex.delta, which lays out the whole level
    for the benchmark's tracer and the tests."""
    calls = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            calls += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "delta"]
    assert calls == []


def test_one_builder_of_maps_between_sectors():
    """Sector positions become a matrix in one place only, the row-rule
    builder CochainComplex.sector_map, which builds the blocks of delta as
    well.  No other engine function both reads a layout (.sector( or
    ._layout() and constructs a RationalSparseMatrix."""
    both = []
    for _, tree in _trees(os.path.join("src", "epslie")):
        functions = [node for top in tree.body
                     for node in (top.body if isinstance(top, ast.ClassDef) else [top])
                     if isinstance(node, ast.FunctionDef)]
        for fn in functions:
            called = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(func.attr if isinstance(func, ast.Attribute)
                               else getattr(func, "id", None))
            if called & {"sector", "_layout"} and "RationalSparseMatrix" in called:
                both.append(fn.name)
    assert both == ["sector_map"]


def test_brackets_are_mirrored_once():
    """The skew rule <A,B> = -eps(a,b) <B,A> is applied in one place, when
    EpsLieAlgebra builds its table of both triangles, which every bracket
    read looks up.  The given upper triangle, .table, is read only where the
    stored pairs themselves are wanted: to index and check them, to span
    the derived subalgebra, to export them and to regrade them."""
    readers = []
    for name, tree in _trees(os.path.join("src", "epslie")):
        functions = [node for top in tree.body
                     for node in (top.body if isinstance(top, ast.ClassDef) else [top])
                     if isinstance(node, ast.FunctionDef)]
        for fn in functions:
            if any(isinstance(node, ast.Attribute) and node.attr == "table"
                   and isinstance(node.ctx, ast.Load) for node in ast.walk(fn)):
                readers.append("%s.%s" % (name[:-3], fn.name))
    assert sorted(readers) == [
        "algebra.bracket_preimages", "algebra.derived_subalgebra", "algebra.validate",
        "fileio.algebra_to_dict", "gmodule.regrade_algebra",
    ]


def test_only_grading_reduces_a_degree():
    """A degree is reduced where it enters, by GradingGroup.degree, and by
    the group's arithmetic after that; every other reader uses the stored
    degrees as they are.  Outside grading, .reduce( is a SpanTracker's
    reduction of a vector by its span: the divisor of graded_subquotient
    and SpanTracker's own calls."""
    calls = []
    for name, tree in _trees(os.path.join("src", "epslie")):
        if name == "grading.py":
            continue
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else ""
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "reduce"):
                    calls.append((name[:-3], owner, ast.unparse(node.func.value)))
    assert sorted(set(calls)) == [("algebra", "", "divisor"),
                                  ("exactlin", "SpanTracker", "self")]


def test_engine_never_calls_the_reference_boundaries():
    """H_2 reads d2 and d3 from the trivial cochain complex, as the
    transposes of delta^1 and delta^2.  extensions.boundary2 and boundary3
    build them apart, from the formulas, only as references for the tests;
    they stay in extensions because the benchmark's tracer wraps those
    names.  No engine module calls them."""
    calls = []
    for name, tree in _trees(os.path.join("src", "epslie")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in ("boundary2", "boundary3"):
                    calls.append("%s:%d" % (name, node.lineno))
    assert calls == []


def test_coboundary_pushes_forward_without_listing_a_sector():
    """cohomology.coboundary follows the support of its cochain and shares
    no code with the assembly: it calls neither the assembly's bracket sum
    _sub_terms nor the sector and level listings."""
    tree = next(tree for name, tree in _trees(os.path.join("src", "epslie"))
                if name == "cohomology.py")
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "coboundary")
    called = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    assert called & {"_sub_terms", "_sector_monomials", "monomials_by_degree"} == set()
    assert "canonicalize" in called  # the walk above sees the calls


def test_only_exactlin_imports_the_elimination_kernel():
    """One elimination kernel, reached through exactlin: no other engine
    module imports _elim_py, so every elimination goes through the one
    name the benchmark's tracer wraps, exactlin._elim.rref."""
    importers = []
    for name, tree in _trees(os.path.join("src", "epslie")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_elim_py" for n in names):
                importers.append(name)
    assert importers == ["exactlin.py"]


def test_the_elimination_kernel_only_eliminates_forward():
    """_elim_py defines rref and its row normalizer and nothing else: no
    back-substitution into finished rows.  No engine code names of_rref,
    which rescaled rows that are no longer reduced."""
    trees = dict(_trees(os.path.join("src", "epslie")))
    defined = [node.name for node in trees["_elim_py.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined == ["_strip_normalize", "rref"]
    named = [name for name, tree in trees.items() for node in ast.walk(tree)
             if "of_rref" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))]
    assert named == []


def test_every_true_division_is_exact():
    """The left operand of each / in the engine is ONE or a Fraction(...)
    call, and no /= is written, so no division of two ints, which yields a
    float, can arise however the operands are normalised."""
    def exact(node):
        return ((isinstance(node, ast.Name) and node.id == "ONE")
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Fraction"))

    bad = []
    for name, tree in _trees(os.path.join("src", "epslie")):
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                bad.append("%s:%d" % (name, node.lineno))
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and not exact(node.left)):
                bad.append("%s:%d" % (name, node.lineno))
    assert bad == []


def _trees(*dirs):
    for d in dirs:
        for dirpath, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        yield name, ast.parse(fh.read(), name)


def test_no_write_only_attribute_stored_from_outside():
    """A public attribute that the engine stores on an object other than
    self (L.name = ...) is read somewhere in the engine, the tests or the
    benchmark, as an attribute or by name."""
    stored = set()
    for name, tree in _trees(os.path.join("src", "epslie")):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and not node.attr.startswith("_")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                stored.add("%s: %s" % (name, node.attr))
    read = set()
    for _, tree in _trees(os.path.join("src", "epslie"), "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert sorted(s for s in stored if s.split(": ")[1] not in read) == []


def test_every_public_engine_name_is_referenced():
    """Each public top-level function or class of the engine is referenced
    outside its own definition, in the engine, the tests or the benchmark.
    An import or an __all__ entry is not a reference; a reference is a read
    of the name in its own module, of a name imported from that module, or
    of an attribute of that module."""
    modules = {n[:-3] for n in os.listdir(SRC) if n.endswith(".py")} - {"__init__"}
    defined = set()
    used = set()
    src = os.path.join("src", "epslie")
    for d, name, tree in ((d, *t) for d in (src, "tests", "perfbench") for t in _trees(d)):
        here = name[:-3] if d == src and name[:-3] in modules else None
        names = {}  # local name -> (module, name) bound by an import
        aliases = {}  # local name -> module bound by an import
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                base = (node.module or "").split(".")[-1]
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name in modules:
                        aliases[local] = alias.name
                    elif base in modules:
                        names[local] = (base, alias.name)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "attr", None) == "import_module"
                    and isinstance(node.value.args[0], ast.Constant)):
                aliases[node.targets[0].id] = node.value.args[0].value.split(".")[-1]
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if here and own and not own.startswith("_"):
                defined.add((here, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in names:
                        used.add(names[node.id])
                    elif here and node.id != own:
                        used.add((here, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in aliases):
                    used.add((aliases[node.value.id], node.attr))
    assert sorted("%s.%s" % d for d in defined - used) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Set-up is paid by every process: importing the command line loads
    neither dataclasses nor inspect, which it pulls in (with ast, dis and
    tokenize).  -S keeps site hooks from loading modules of their own."""
    probe = ("import sys; import epslie.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=False, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def _calls_by_function(tree):
    """(function name, call node) for each call inside a module-level
    function or a method."""
    for top in tree.body:
        for fn in (top.body if isinstance(top, ast.ClassDef) else [top]):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        yield fn.name, node


def test_only_the_reference_boundaries_walk_an_exterior_power_again():
    """Every engine reader takes its monomials from the algebra's one table
    per level, monomials_by_degree; exterior.basis walks the monomial tree
    again, and only the test references boundary2 and boundary3 call it."""
    callers = set()
    for name, tree in _trees(os.path.join("src", "epslie")):
        for fn, node in _calls_by_function(tree):
            if ast.unparse(node.func) in ("exterior.basis", "basis"):
                callers.add("%s.%s" % (name[:-3], fn))
    assert sorted(callers) == ["extensions.boundary2", "extensions.boundary3"]


def test_engine_never_keys_on_an_object_id():
    """An id() can be reused once its object is freed, so no engine function
    calls id(): the catalog's builders are memoized on their arguments by
    functools.cache, which holds the algebra itself."""
    calls = ["%s.%s" % (name[:-3], fn)
             for name, tree in _trees(os.path.join("src", "epslie"))
             for fn, node in _calls_by_function(tree)
             if isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []


def test_canonicalize_is_the_one_reordering_sign_rule():
    """The engine signs a reordering of slots with exterior.canonicalize
    only; permutation_sign and CommutationFactor.eps_n are references that
    the tests compare it against."""
    calls = ["%s.%s" % (name[:-3], fn)
             for name, tree in _trees(os.path.join("src", "epslie"))
             for fn, node in _calls_by_function(tree)
             if ast.unparse(node.func).split(".")[-1] in ("eps_n", "permutation_sign")]
    assert calls == []


def test_the_command_table_is_the_one_list_of_commands():
    """README's "Command line" block shows exactly the commands of
    cli.COMMANDS, and cli names each command once, as a key of that table."""
    from epslie import cli

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"## Command line\n\n```\n(.*?)```", fh.read(), re.S).group(1)
    assert {line.split()[1] for line in block.splitlines()} == set(cli.COMMANDS)
    assert not hasattr(cli, "HANDLERS")
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in cli.COMMANDS]
    assert sorted(named) == sorted(cli.COMMANDS)
