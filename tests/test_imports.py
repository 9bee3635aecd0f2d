"""Import hygiene: every imported name is used, and importing qdist loads no scipy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qdist

PACKAGE = pathlib.Path(qdist.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
# dense ladder operators and their powers; every moment is read off diagonals instead
DENSE_LADDER = {"annihilation", "matrix_power"}


def _calls(path, names):
    """'callee (line n)' for every call in the module whose name is one of ``names``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        f"{ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fock_core_builds_projectors(path):
    if path.name == "fock_core.py":
        return
    calls = [c for c in _calls(path, PROJECTOR_BUILDERS) if not c.startswith("np.")]  # np.outer, np.add.outer
    assert not calls, f"{path.name} calls {', '.join(calls)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fock_core_uses_dense_ladder_operators(path):
    # fock_core included: the dense reference lives in the tests (conftest.annihilation)
    calls = _calls(path, DENSE_LADDER)
    assert not calls, f"{path.name} calls {', '.join(calls)}"


def _scopes(path, match):
    """Nodes of the module that satisfy ``match``, counted by the qualified name of the function that holds them."""
    counts = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif match(node):
            counts[scope] = counts.get(scope, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return counts


def _callers(path, name):
    """Calls of ``name`` in the module, counted by the qualified name of the function that makes them."""
    def match(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name

    return _scopes(path, match)


# The density types check their own mass; no producer integrates one itself.
MASS_INTEGRALS = {
    # Simpson weights on an X grid: the tomogram's own mass, the divergence, and
    # the one v line integral of the Wigner route
    ("tomography.py", "simpson_weights"): {
        "Tomogram.__post_init__": 1, "classical_divergence": 1, "marginal_from_wigner": 1,
    },
    ("phase_space.py", "grid_integral"): {"QuasiDistribution.__post_init__": 1, "hs_from_phase_space": 2},
}


@pytest.mark.parametrize("module,name", MASS_INTEGRALS, ids=lambda v: v)
def test_only_the_density_types_integrate_their_mass(module, name):
    assert _callers(PACKAGE / module, name) == MASS_INTEGRALS[module, name]


# The kernels read state factors; only these functions read a state's dense ``mat``:
# the trace norm of a general pair, and the Wigner grid's position-space density matrix.
DENSE_READERS = {"distances.py": {"jmg_distance"}, "phase_space.py": {"wigner"}}


@pytest.mark.parametrize("module", DENSE_READERS)
def test_only_named_kernels_read_the_dense_matrix(module):
    readers = _scopes(PACKAGE / module, lambda node: isinstance(node, ast.Attribute) and node.attr == "mat")
    assert set(readers) <= DENSE_READERS[module], f"{module} reads .mat in {sorted(readers)}"


# A square that rounding can push below 0 is clamped there in one place, which raises
# below fock_core.NOISE_FLOOR.  The closed forms keep their own: their oracles stay
# independent of the numerics.
SQRT_CLAMPS = {"_clamped_sqrt": 1}


def _is_sqrt_of_max(node):
    """math.sqrt(...) with a max(..., 0) call, one argument a literal 0, anywhere in its argument."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "math.sqrt"
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "max"
                    and any(isinstance(a, ast.Constant) and a.value == 0 for a in n.args)
                    for arg in node.args for n in ast.walk(arg)))


def test_one_clamp_for_negative_squares():
    counts = {}
    for path in MODULES:
        if path.name != "closed_forms.py":
            for scope, n in _scopes(path, _is_sqrt_of_max).items():
                counts[scope] = counts.get(scope, 0) + n
    assert counts == SQRT_CLAMPS


def _module_level_imports(tree):
    """Modules named by the import statements that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy costs ~0.3 s to import; only the Wigner line integral (scipy.ndimage) needs it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scipy = sorted(
        f"{name} (line {line})" for line, name in _module_level_imports(tree) if name.split(".")[0] == "scipy"
    )
    assert not scipy, f"{path.name} imports at module level: {', '.join(scipy)}"


def _scipy_loaded_after(code: str) -> str:
    """The sorted scipy module names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.resolve().parent))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-300:]
    return proc.stdout.strip()


def test_importing_qdist_loads_no_scipy():
    assert _scipy_loaded_after("import qdist, qdist.cli") == "[]"


def test_phase_space_imports_no_scipy():
    # not even inside a function: the Husimi and pp kernels read Poisson weights from ``states``
    tree = ast.parse((PACKAGE / "phase_space.py").read_text(encoding="utf-8"))
    scipy = sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""])
        if name.split(".")[0] == "scipy"
    )
    assert not scipy, f"phase_space.py imports {', '.join(scipy)}"


def test_phase_space_forms_load_no_scipy():
    code = (
        "from qdist import hs_from_phase_space, parse_state_spec\n"
        "a, b = parse_state_spec('thermal:1'), parse_state_spec('thermal:2')\n"
        "hs_from_phase_space(a, b, 'pp')\n"
        "hs_from_phase_space(a, b, 'qp')"
    )
    assert _scipy_loaded_after(code) == "[]"
