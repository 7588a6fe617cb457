"""Package globals: the benchmark's tracer rebinds them by name, so each must
exist, and no module imports one it never reads beyond those."""

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


SRC = Path(__file__).resolve().parent.parent / "src" / "jacobibands"


def test_no_module_imports_a_name_it_never_reads():
    # A name a module imports must be read there, or listed in its __all__.
    # The only exceptions are the globals that TARGETS rebinds by name.
    traced = {(module, attr) for module, attr, _ in tracing_targets()}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = "jacobibands" if path.stem == "__init__" else f"jacobibands.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused += [
            f"{module}.{name}"
            for name in imported
            if name not in read | exported and (module, name) not in traced
        ]
    assert not unused
