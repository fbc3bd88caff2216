"""The README's library example runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
