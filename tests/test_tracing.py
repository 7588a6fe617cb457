"""The benchmark's tracer rebinds package globals by name; each must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_targets():
    """TARGETS of perfbench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def test_every_traced_name_resolves():
    targets = tracing_targets()
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing
