"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

import qdist

MODULES = sorted(
    p for p in pathlib.Path(qdist.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


# the validated projector constructors; every kernel reads ``mat`` instead
PROJECTOR_BUILDERS = {"outer", "as_density"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fock_core_builds_projectors(path):
    if path.name == "fock_core.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = sorted(
        f"{ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in PROJECTOR_BUILDERS
        and not ast.unparse(node.func).startswith("np.")  # np.outer, np.add.outer
    )
    assert not calls, f"{path.name} calls {', '.join(calls)}"
