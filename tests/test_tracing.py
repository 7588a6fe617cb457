"""Package globals: the benchmark's tracer rebinds them by name, so each must
exist, and no module imports one it never reads beyond those. Package data:
every dataclass field is read somewhere."""

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


def test_only_these_traced_globals_are_never_read():
    # Globals bound only so that TARGETS can rebind them: neither their
    # module reads the name nor another module the attribute, so their
    # spans never open. A new one must be added here on purpose, and one
    # that comes into use must leave.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    attributes = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = set()
    for module, attr, _ in tracing_targets():
        tree = trees[module.split(".")[-1]]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if attr not in names | attributes:
            unread.add(f"{module}.{attr}")
    assert unread == {
        "jacobibands.discriminant.real_roots_in",
        "jacobibands.bands.eval_discriminant_stable",
        "jacobibands.bands.band_edges_oracle",
        "jacobibands.ensemble.band_edges_oracle",
    }


def _is_dataclass(cls):
    return any(
        getattr(dec, "id", None) == "dataclass" or getattr(getattr(dec, "func", None), "id", None) == "dataclass"
        for dec in cls.decorator_list
    )


def test_every_dataclass_field_is_read():
    # Each field of a dataclass of the package must be read as an attribute
    # somewhere in the package or the benchmark; one that is not is data
    # nobody reads.
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    benchmark = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TRACING.parent.glob("*.py"))]
    read = {
        n.attr
        for tree in package + benchmark
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{cls.name}.{stmt.target.id}"
        for tree in package
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id not in read
    ]
    assert not unread
