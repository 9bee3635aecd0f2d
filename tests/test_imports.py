"""Import hygiene: every imported name is used, ``import qdist`` loads neither numpy nor scipy, no
subcommand loads scipy, and every qdist name the benchmark harness reaches exists."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qdist
from qdist.states import FAMILIES

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


# One dispatch per decision: tomography picks a state's marginal route in ``_marginals``
# (``marginal_analytic`` checks the family it is handed), and one function checks that two
# states share a dim; the polarization weights and the moment tables have checks of their own.
def test_tomography_picks_marginals_in_one_place():
    readers = _scopes(PACKAGE / "tomography.py", lambda node: isinstance(node, ast.Attribute) and node.attr == "family")
    assert set(readers) <= {"_marginals", "marginal_analytic"}, sorted(readers)


# What a family is lives in its record in ``states.FAMILIES``: no code in src/ compares
# anything with a family name or a grammar head.
GRAMMAR_HEADS = {"fock", "coherent", "gencoh", "cat", "squeezed", "phase", "thermal"}


def _family_literals(node):
    """The family names and grammar heads among a Compare operand's string literals."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    names = set(FAMILIES) | GRAMMAR_HEADS
    return {e.value for e in elts if isinstance(e, ast.Constant) and e.value in names}


def test_no_function_branches_on_a_family_name():
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and any(map(_family_literals, [node.left, *node.comparators]))
    ]
    assert not found, f"{len(found)} family comparisons: {found}"


def test_one_dimension_check():
    def raises_mismatch(node):
        return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "DimensionMismatchError")

    raisers = {f"{path.stem}.{scope}" for path in MODULES for scope in _scopes(path, raises_mismatch)}
    assert raisers == {"fock_core._check_dims", "distances._check_polarization", "distances.hs_from_moments"}


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


def _child_stdout(code: str) -> str:
    """What a fresh interpreter, importing this qdist, prints on running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.resolve().parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-300:]
    return proc.stdout


def _loaded_after(code: str) -> set:
    """Which of numpy and scipy a fresh interpreter holds after running ``code``."""
    code += "\nimport sys; print(*sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    return set(_child_stdout(code).splitlines()[-1].split())


def test_importing_qdist_loads_neither_numpy_nor_scipy():
    assert _loaded_after("import qdist") == set()


@pytest.mark.parametrize("fid", [1, 2])
def test_figure_loads_no_numpy(fid):
    # the figures are closed forms: cli imports only closed_forms and errors at module level
    assert _loaded_after(f"from qdist.cli import main; assert main(['figure', '--id', '{fid}']) == 0") == set()


# one light call of each subcommand; tomo-distance on a thermal state takes the Fock-basis marginals
SUBCOMMANDS = {
    "distance": ["distance", "--a", "thermal:1", "--b", "coherent:1,0.5", "--metric", "bu"],
    "sweep": ["sweep", "--a", "coherent:?", "--b", "fock:1", "--metric", "hs", "--range", "0:1:0.5"],
    "figure": ["figure", "--id", "2"],
    "tomo-distance": ["tomo-distance", "--a", "thermal:0.5", "--b", "coherent:1", "--kind", "kullback"],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_no_subcommand_loads_scipy(argv):
    assert "scipy" not in _loaded_after(f"from qdist.cli import main; assert main({argv!r}) == 0")


# the names qdist exported before its exports went lazy; none may be lost
EXPORTS = [
    "DensityOperator", "DiagonalState", "DistanceReport", "FockVector", "HSBounds", "MomentTable", "PhaseGrid",
    "QuasiDistribution", "StateSpec", "Tomogram", "adaptive_dim", "as_density", "build_state", "bures_uhlmann",
    "cat", "cat_distances", "classical_divergence", "coherent", "coherent_fock", "coherent_pair", "coherent_phase",
    "default_grid", "evaluate_metric", "fock", "fock_pair", "generalized_coherent", "grid_to_csv", "hermitian_sqrt",
    "hilbert_schmidt", "hs_bounds", "hs_from_moments", "hs_from_phase_space", "husimi_q", "jmg_distance",
    "mandel_q", "marginal_analytic", "marginal_from_wigner", "modified_hs", "moment", "moment_table",
    "oscillator_eigenfunctions", "outer", "p_function_thermal", "parse_state_spec", "phase_pair", "polarized",
    "polarized_sqrt", "pure_state_distance", "purity", "quasidistance_DZ", "quasidistance_Da", "squeezed_pair",
    "squeezed_vacuum", "thermal", "thermal_approximations", "thermal_pair", "tomographic_distance", "trace_norm",
    "trace_product", "truncation_tail", "wigner", "yurke_stoler_phases",
]


def test_lazy_exports_are_pinned():
    assert sorted(qdist.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(qdist))


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_home_modules_object(name):
    obj = getattr(qdist, name)
    assert obj.__module__.startswith("qdist.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qdist.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    code = "from qdist import *\nprint(sorted(n for n in dir() if not n.startswith('_')))"
    assert _child_stdout(code).strip() == repr(EXPORTS)


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
    assert "scipy" not in _loaded_after(code)


# the benchmark harness looks each qdist name up only when it calls it, so a lost name reads as an
# absent metric, not as a failed run; these files are read here, never imported
BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
BENCH_FILES = ("spans.py", "probes.py", "ops.py")


def _bench_names():
    """(module, name) for every literal entry(layer, name) or .call(layer, name), and every qdist from-import."""
    found = set()
    for fname in BENCH_FILES:
        for node in ast.walk(ast.parse((BENCH / fname).read_text(encoding="utf-8"))):
            callee = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(callee, "id", getattr(callee, "attr", None)) in ("entry", "call"):
                args = node.args[:2]
                if len(args) == 2 and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
                    found.add((f"qdist.{args[0].value}", args[1].value))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdist":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_the_benchmark_reaches_qdist_names():
    names = _bench_names()
    assert ("qdist.phase_space", "wigner") in names and ("qdist.states", "build_state") in names


@pytest.mark.parametrize("module,name", _bench_names(), ids=lambda v: v)
def test_every_name_the_benchmark_reaches_resolves(module, name):
    assert hasattr(__import__(module, fromlist=[name]), name), f"{module}.{name} is gone"


def test_attributes_the_benchmark_reads():
    import numpy as np

    from qdist import cli
    from qdist.distances import evaluate_metric
    from qdist.phase_space import wigner
    from qdist.states import fock
    from qdist.tomography import marginal_from_wigner

    assert callable(cli.figure1_rows) and callable(cli.figure2_rows)  # reached as f"figure{id}_rows"
    assert isinstance(evaluate_metric("hs", fock(0, 8), fock(1, 8)).value, float)
    qd = wigner(fock(0, 8))
    assert (qd.grid.nq, qd.grid.n_p) == (257, 257)
    span = qd.grid.q_max
    assert marginal_from_wigner(qd, 0.6, 0.8, np.linspace(-span, span, 2049)).w.shape == (2049,)
