"""Guards the traced benchmark run against renames in the library.

``bench/tracing.py`` patches ``(owner, attribute)`` pairs by name; a pair
that no longer exists would make the traced run fail. This reads the list
from the file without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in bench/tracing.py")


def test_every_traced_target_exists():
    targets = _targets()
    assert targets
    for owner_path, attr, _ in targets:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} is gone"
