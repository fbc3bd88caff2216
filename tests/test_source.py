"""Rules checked on the package source itself."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "edfnet"

# the modules whose ``__all__`` the package republishes by star import
PUBLISHED = ("errors", "frontier", "harness", "leadtime", "simulator", "topology")


def test_no_assert_statements():
    """``python -O`` strips asserts, so a check the package relies on
    must raise a named error instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _modules():
    """Each package module but ``__init__.py``, parsed, by file name."""
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    return {p.name: ast.parse(p.read_text(), str(p)) for p in paths}


def test_no_unused_imports():
    """A module binds no imported name it never reads, so code left
    behind by a deletion shows up here.  ``__future__`` imports are
    compiler directives, not names."""
    found = []
    for name, tree in _modules().items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {imported}" for imported, line in bound.items()
                  if imported not in read]
    assert found == []


def test_all_names_are_defined():
    """Every name in a module's ``__all__`` is bound at the module's top
    level by a def, a class or an assignment, not only imported."""
    found = []
    for name, tree in _modules().items():
        defined = set()
        exported = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
        found += [f"{name}: {export}" for export in exported if export not in defined]
    assert found == []


def test_public_names_are_in_all():
    """Every public top-level function and class of a library module (all
    but ``cli.py``, which publishes only its entry point) is in that
    module's ``__all__``, so ``import edfnet`` publishes it."""
    found = []
    for name, tree in _modules().items():
        if name == "cli.py":
            continue
        exported = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
        public = [node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")]
        found += [f"{name}: {public_name}" for public_name in public
                  if public_name not in sum(exported, [])]
    assert found == []


def test_package_republishes_each_module_all():
    """A fresh ``import edfnet`` binds exactly the published modules'
    ``__all__`` names and the submodules; no name is in two of those
    lists, and each package name is its module's own object."""
    script = ("import edfnet; "
              "print(*sorted(n for n in vars(edfnet) if not n.startswith('_')))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    modules = {name: importlib.import_module(f"edfnet.{name}") for name in PUBLISHED}
    exported = Counter(export for module in modules.values() for export in module.__all__)
    assert [export for export, n in exported.items() if n > 1] == []
    assert run.stdout.split() == sorted([*exported, *PUBLISHED, "dists"])
    package = importlib.import_module("edfnet")
    assert [f"{name}.{export}" for name, module in modules.items()
            for export in module.__all__
            if getattr(package, export) is not getattr(module, export)] == []


def test_no_environment_reads():
    """A config file and the call arguments define a run, so no module
    reads ``os.environ`` or calls ``os.getenv``."""
    hidden = {"environ", "getenv"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in hidden
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and hidden & {alias.name for alias in node.names}]
    assert found == []


def test_one_yaml_reader():
    """Only ``harness._load_yaml`` calls a PyYAML load function, so every
    file the package reads goes through one parser and one error path."""
    loads = {"load", "safe_load", "full_load", "unsafe_load",
             "load_all", "safe_load_all", "full_load_all", "unsafe_load_all"}
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in loads and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "yaml"
                and (module, function) != ("harness.py", "_load_yaml")):
            found.append(f"{module}:{node.lineno} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    assert found == []


def _file_access(node):
    """"write" for a call that opens a file for writing: ``open`` or an
    ``.open`` method with a mode holding w, a or x, or a path's
    ``write_text``/``write_bytes``; "read" for any other ``open`` call
    or a path's ``read_text``/``read_bytes``; None for anything else."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes", "write_text", "write_bytes"):
        return name.split("_")[0]
    if name != "open":
        return None
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
    writes = (modes and isinstance(modes[0], ast.Constant)
              and set("wax") & set(str(modes[0].value)))
    return "write" if writes else "read"


def _openers(access):
    """The (module, function) pairs in the package whose body opens a
    file for ``access``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _file_access(node) == access:
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    return found


def test_one_file_reader():
    """Only ``harness._read_text`` opens a file for reading, so every
    config, report and profile file decodes one way, and a file that is
    not text fails as ParseError naming it."""
    assert _openers("read") == {("harness.py", "_read_text")}


def test_one_file_writer():
    """Only ``harness._write_text`` opens a file for writing, so every
    report and profile file edfnet writes is UTF-8 with newline line
    ends, whatever the locale or platform."""
    assert _openers("write") == {("harness.py", "_write_text")}


def test_no_csv_module():
    """No module imports ``csv``: ``read_profile_csv`` reads the unquoted
    text ``harness._csv_text`` writes, with no second dialect and no
    field size limit."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Import) and "csv" in {a.name.split(".")[0] for a in node.names}
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv"]
    assert found == []


def test_cli_reads_no_number_itself():
    """``cli.py`` reads every number flag through ``harness._number`` and
    the codec's parsers: it makes no ``float()`` or ``int()`` call, and
    gives argparse no ``type=float`` or ``type=int``."""
    tree = ast.parse((SRC / "cli.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = [f"cli.py:{node.lineno} {ast.unparse(node.func)}" for node in calls
             if isinstance(node.func, ast.Name) and node.func.id in ("float", "int")]
    found += [f"cli.py:{node.lineno} type={ast.unparse(kw.value)}" for node in calls
              for kw in node.keywords if kw.arg == "type"]
    assert found == []


def test_one_reader_per_scalar_kind():
    """``_whole``, ``_real``, ``_positive``, ``_reals`` and ``_flag`` are
    defined only in ``errors.py`` and imported only from there, so an
    integer, a real, a positive real, an array of reals and a flag read
    alike wherever the package takes one."""
    readers = {"_whole", "_real", "_positive", "_reals", "_flag"}
    defined, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in readers:
                if path.name == "errors.py":
                    defined.add(node.name)
                else:
                    found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if (isinstance(node, ast.ImportFrom) and node.module != "errors"
                    and readers & {alias.name for alias in node.names}):
                found.append(f"{path.name}:{node.lineno} imports from {node.module}")
    assert found == []
    assert defined == readers


def test_no_argument_read_by_float():
    """``frontier.py`` and ``simulator.py`` read every real argument
    through ``errors._real``, which rejects the bools and strings that
    ``float()`` reads.  The only ``float()`` calls left convert results
    the module computed itself; each is listed by function and call."""
    results = {("frontier.py", "predict_profile", "float(out)"),
               ("simulator.py", "totals", "float(sum(vec))")}
    found = set()
    for name in ("frontier.py", "simulator.py"):
        tree = ast.parse((SRC / name).read_text())
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(name, function.name, ast.unparse(node))
                          for node in ast.walk(function)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "float"}
    assert found == results


def test_station_id_checked_once():
    """Every station id is checked by ``topology._station_id``: its
    message is written once in the package."""
    counts = {path.name: path.read_text().count("is not in the network")
              for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"topology.py": 1}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_unreferenced_private_helpers():
    """Every private module-level function or class, and every private
    method, is referenced somewhere in the package outside its own
    ``def``, so a helper that a refactor leaves behind shows up here."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    assert trees

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    used = Counter(name for tree in trees.values() for name in names(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        members = [item for node in tree.body if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, defs[:2])]
        for node in [n for n in tree.body if isinstance(n, defs)] + members:
            if _private(node.name) and used[node.name] == names(node).count(node.name):
                found.append(f"{module}:{node.lineno} {node.name}")
    assert found == []


def test_one_station_block():
    """``simulator.py`` writes each piece of a station's work once, in
    the station block of ``SimState._run``: one departure push (a
    ``heappush`` whose tuple holds ``_DEPART``) and one ``+=`` to each
    time integral."""
    tree = ast.parse((SRC / "simulator.py").read_text())
    pushes = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "heappush"
              and any(isinstance(arg, ast.Tuple) and any(
                  isinstance(item, ast.Name) and item.id == "_DEPART" for item in arg.elts)
                  for arg in node.args)]
    adds = Counter(node.target.attr for node in ast.walk(tree)
                   if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                   and isinstance(node.target, ast.Attribute))
    integrals = ("idle_time", "int_present", "int_behind")
    assert len(pushes) == 1, pushes
    assert {name: adds[name] for name in integrals} == dict.fromkeys(integrals, 1)


def test_one_roundoff_constant_in_the_solvers():
    """``frontier.py`` holds exactly one float literal in (0, 1e-3), the
    scale of ``_roundoff``: every "close enough" in the solvers is that
    allowance, so a hand-set tolerance cannot come back unseen."""
    tree = ast.parse((SRC / "frontier.py").read_text())
    small = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-3]
    ulps = [node for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_ULPS"]]
    assert len(small) == 1 and len(ulps) == 1
    assert small[0] in list(ast.walk(ulps[0]))


def test_terms_built_only_by_term():
    """``_Term`` is constructed in one place, ``frontier._clip``, so every
    table the solvers and the prediction read comes from one builder and
    one "mass above a level" routine reads it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_Term"):
                inside = [name for name, scope in scopes if node in list(ast.walk(scope))]
                found.append((path.name, inside))
    assert found == [("frontier.py", ["_clip"])]


def test_closed_form_builds_no_network():
    """``two_station_closed_form`` builds its terms from the rates and
    deadlines alone: it makes no class, network, topology or model."""
    tree = ast.parse((SRC / "frontier.py").read_text())
    [closed] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "two_station_closed_form"]
    called = {node.func.id for node in ast.walk(closed)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_clip" in called
    assert not called & {"ClassSpec", "NetworkSpec", "Topology", "build_topology",
                         "count_model", "WeightedModel"}


def test_error_messages_echo_values_through_one_clip():
    """A message shows a caller's value only through ``errors._echo``,
    which clips it past 40 characters, so a huge bad value still gives a
    short error line: no f-string in ``errors.py`` or ``harness.py``
    formats a value with ``!r`` outside ``_echo``, and no raise
    statement anywhere in the package does."""
    found = []
    for name, tree in _modules().items():
        echo = {id(node) for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and function.name == "_echo"
                for node in ast.walk(function)}
        scopes = ([tree] if name in ("errors.py", "harness.py")
                  else [node for node in ast.walk(tree) if isinstance(node, ast.Raise)])
        found += [f"{name}:{node.lineno}" for scope in scopes for node in ast.walk(scope)
                  if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                  and id(node) not in echo]
    assert found == []
