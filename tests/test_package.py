import ast
from pathlib import Path

import grf

SRC = Path(grf.__file__).resolve().parent

# Imported names that nothing in their module reads, each kept on purpose.
UNUSED_IMPORTS_KEPT = {
    # perfbench/tracing.py patches the placeholder grf.autodiff.Tensor by name
    # until ROADMAP R1a; this import keeps the module loaded
    ("__init__.py", "autodiff"),
    # perfbench/tracing.py patches grf.flow.operator_norm_power by name
    # until ROADMAP R1a
    ("flow.py", "operator_norm_power"),
}


def test_every_export_resolves():
    assert len(grf.__all__) == len(set(grf.__all__))
    for name in grf.__all__:
        assert getattr(grf, name) is not None, name


def unused_imports(path: Path) -> set[str]:
    """Names bound by an import in the module at `path` that the module
    neither reads nor lists in its `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported


def test_src_has_no_unused_import():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path)}
    assert found == UNUSED_IMPORTS_KEPT
