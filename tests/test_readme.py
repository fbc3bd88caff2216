"""The README's library example, its package-layout table and the
``edfnet`` commands written in the README and the shipped configs hold
against the current API."""

import importlib
import pathlib
import re
import shlex

from edfnet import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_example_runs():
    """The one ```python block of the README executes as written and
    solves its network to the frontiers its comment states."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    sol = namespace["sol"]
    assert sol.frontiers == (250.0, 188.0)
    assert sol.permutation == (1, 2)


def test_documented_commands_parse():
    """Every line that starts with ``edfnet`` in the README, or in a
    config's comments, parses as a command line (nothing is run); a
    trailing ``-> result`` note is not part of the command."""
    commands = []
    for path in [README, *sorted((ROOT / "configs").glob("*.yaml"))]:
        comment = "#" if path.suffix == ".yaml" else ""
        for line in path.read_text().splitlines():
            match = re.match(rf"{comment}\s*edfnet (.*)", line)
            if match:
                commands.append((path.name, match.group(1).split("->")[0]))
    assert len(commands) >= 9
    failed = []
    for name, command in commands:
        try:
            cli._build_parser().parse_args(shlex.split(command))
        except SystemExit:
            failed.append(f"{name}: edfnet {command}")
    assert failed == []


def test_package_layout_names_resolve():
    """Every ``edfnet.<module>`` row of the README's package-layout table
    imports, and every backticked dotted name in a row's contents (such
    as ``Topology.station_count``) resolves in that module, so a deleted
    public name cannot linger in the table."""
    section = README.read_text().split("## Package layout", 1)[1]
    rows = re.findall(r"^\| `(edfnet\.\w+)` +\|(.*)\|$", section, re.M)
    assert len(rows) >= 8
    unresolved = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for dotted in re.findall(r"`(\w+(?:\.\w+)+)`", contents):
            obj = module
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                unresolved.append(f"{module_name}: {dotted}")
    assert unresolved == []
