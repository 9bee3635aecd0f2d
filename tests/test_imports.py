"""Import hygiene: every imported name is used, ``import qdist`` loads neither numpy nor scipy, no
module imports scipy, everything runs where scipy cannot be imported, and every qdist name the
benchmark harness reaches exists."""

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
    # Simpson weights on an X grid: a single tomogram's grid, the divergence's and the rows of a block
    # of angular nodes
    ("tomography.py", "simpson_weights"): {"Tomogram.__post_init__": 1, "classical_divergence": 1, "_x_rows": 1},
    # the one row-wise mass check of a tomogram: a single one's row, and every block of a distance's
    # nodes; no marginal integrates its own mass
    ("tomography.py", "_normalized"): {"Tomogram.__post_init__": 1, "tomographic_distance": 1},
    ("phase_space.py", "grid_integral"): {"QuasiDistribution.__post_init__": 1, "hs_from_phase_space": 2},
}


@pytest.mark.parametrize("module,name", MASS_INTEGRALS, ids=lambda v: v)
def test_only_the_density_types_integrate_their_mass(module, name):
    assert _callers(PACKAGE / module, name) == MASS_INTEGRALS[module, name]


# The Wigner line integral reads the grid's Fourier transform on the grid's own trapezoid rule: its weights
# on both axes and on the ray come from the helper ``grid_integral`` calls, and it interpolates nothing and
# lays out no grid or Simpson rule of its own.
def test_wigner_marginal_reads_the_grid_rule():
    assert _callers(PACKAGE / "phase_space.py", "trapezoid_weights") == {"grid_integral": 2}
    assert _callers(PACKAGE / "tomography.py", "trapezoid_weights") == {"marginal_from_wigner": 3}
    for name in ("simpson_weights", "map_coordinates", "linspace"):
        assert "marginal_from_wigner" not in _callers(PACKAGE / "tomography.py", name), name


# One grid rule for the phase-space forms: the wigner and qp branches of ``hs_from_phase_space`` each
# build their grid through ``_nyquist_grid`` and write no point count or step of their own; the 2 of
# 2 pi and of a square are their only numbers.
NYQUIST_FORMS = ("wigner", "qp")


def _form_branches():
    """The body of each ``if form == "<name>":`` branch of ``hs_from_phase_space``, by name."""
    tree = ast.parse((PACKAGE / "phase_space.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body if getattr(node, "name", None) == "hs_from_phase_space")
    return {node.test.comparators[0].value: node.body for node in ast.walk(func)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and getattr(node.test.left, "id", None) == "form" and isinstance(node.test.ops[0], ast.Eq)}


@pytest.mark.parametrize("form", NYQUIST_FORMS)
def test_phase_space_forms_size_their_grid_by_one_rule(form):
    nodes = [node for stmt in _form_branches()[form] for node in ast.walk(stmt)]
    calls = [getattr(node.func, "id", getattr(node.func, "attr", None))
             for node in nodes if isinstance(node, ast.Call)]
    assert calls.count("_nyquist_grid") == 1, calls
    assert not {"PhaseGrid", "default_grid", "linspace"} & set(calls), calls
    numbers = {node.value for node in nodes if isinstance(node, ast.Constant) and type(node.value) in (int, float)}
    assert numbers <= {2}, f"the {form} form writes the numbers {sorted(numbers)}"


# One radial rule for the pp form: its branch of ``hs_from_phase_space`` reads its nodes and weights
# from ``_radial_rule`` and builds no uniform grid or Simpson weights of its own.
def test_pp_form_reads_one_radial_rule():
    calls = [getattr(node.func, "id", getattr(node.func, "attr", None))
             for stmt in _form_branches()["pp"] for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    assert calls.count("_radial_rule") == 1, calls
    assert not {"linspace", "simpson_weights"} & set(calls), calls


# One Gauss-Legendre table: ``leggauss`` runs in ``phase_space._gauss_legendre`` alone, which caches
# it per node count, for the angular panels of ``tomography`` and the radial ones of the pp form.
def test_one_gauss_legendre_table():
    calls = {path.name: _callers(path, "leggauss") for path in MODULES}
    assert {name: c for name, c in calls.items() if c} == {"phase_space.py": {"_gauss_legendre": 1}}


# The kernels read state factors; only these functions read a state's dense ``mat``:
# the trace norm of a general pair, and the Wigner grid's position-space density matrix.
DENSE_READERS = {"distances.py": {"jmg_distance"}, "phase_space.py": {"_wigner_functions"}}


@pytest.mark.parametrize("module", DENSE_READERS)
def test_only_named_kernels_read_the_dense_matrix(module):
    readers = _scopes(PACKAGE / module, lambda node: isinstance(node, ast.Attribute) and node.attr == "mat")
    assert set(readers) <= DENSE_READERS[module], f"{module} reads .mat in {sorted(readers)}"


# One table per call: the Wigner helper builds the eigenfunction table and the Husimi helper the
# coherent amplitudes once for every state it is handed; ``wigner``, ``husimi_q`` and the phase-space
# forms call the helpers.
ONCE_PER_CALL = {"oscillator_eigenfunctions": {"_wigner_functions": 1}, "coherent_amplitudes": {"_husimi_functions": 1}}


@pytest.mark.parametrize("name", ONCE_PER_CALL)
def test_phase_space_builds_each_table_in_one_place(name):
    assert _callers(PACKAGE / "phase_space.py", name) == ONCE_PER_CALL[name]


# One dispatch per decision: tomography picks a state's marginal route in ``_marginals`` alone
# (``marginal_analytic`` is its one-row case), and one function checks that two states share a
# dim; the polarization weights and the moment tables have checks of their own.
def test_tomography_picks_marginals_in_one_place():
    readers = _scopes(PACKAGE / "tomography.py", lambda node: isinstance(node, ast.Attribute) and node.attr == "family")
    assert set(readers) <= {"_marginals"}, sorted(readers)


# One Gaussian rule: a family record gives its closed-form ladder moments and nothing else of its tomogram,
# tomography reads no spec parameter, and a quadrature's mean and spread come from ``quadrature_moments``
# in the Gaussian marginal (``_marginals``) and for the X grids (``tomographic_distance``) alone.
def test_gaussian_tomograms_read_one_rule():
    from dataclasses import fields

    from qdist import states
    from qdist.states import Family

    assert "density" not in {f.name for f in fields(Family)}
    assert not hasattr(states, "_coherent_density")
    path = PACKAGE / "tomography.py"
    params = _scopes(path, lambda node: isinstance(node, ast.Attribute) and node.attr == "params")
    assert not params, f"tomography.py reads .params in {sorted(params)}"
    assert {scope.split(".")[0] for scope in _callers(path, "quadrature_moments")} == {"_marginals",
                                                                                       "tomographic_distance"}


# One tomogram route: the Fock-basis marginal walks the eigenfunction levels once over a block of
# angular nodes, in ``_marginals``, and builds no eigenfunction table.
def test_tomography_streams_eigenfunction_levels_in_one_place():
    path = PACKAGE / "tomography.py"
    tables = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if "oscillator_eigenfunctions" in (getattr(node, "id", None), getattr(node, "attr", None),
                                                 getattr(node, "name", None))]
    assert not tables, f"tomography.py names oscillator_eigenfunctions at lines {tables}"
    assert {scope.split(".")[0] for scope in _callers(path, "_oscillator_levels")} == {"_marginals"}


# One diagonal rule: ``fock_core`` alone says whether rho^p is diagonal, by making ``factor(p)`` 1-d; a
# kernel reads a factor's ``ndim`` or ``shape`` and otherwise only computes with it, never inspects its entries.
def test_only_fock_core_tests_for_number_states():
    found = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "fock_core.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, "id", getattr(node, "attr", None)) == "count_nonzero"]
    assert not found, f"count_nonzero in {found}"


FACTOR_READERS = ("distances.py", "phase_space.py", "tomography.py")
# calls a factor may be handed to: an elementwise root, a pairing of sequences, ``fock_core``'s product
# primitive, and the module's own functions, whose parameters are then read by the same rule
FACTOR_CALLS = {"sqrt", "zip", "_product_diagonal"}


def _factor_uses(tree):
    """'line: code' for every read of a factor that is not metadata, arithmetic or a permitted call.

    A factor is a ``.factor(p)`` call, a name bound to one or to a sequence of them (by assignment,
    loop or comprehension, through tuples and ``zip`` too), or a parameter of a module function
    that a factor is passed to.
    """
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    params = {name: set() for name in functions}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def is_factor_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "factor"

    def held(node, names):
        """Whether ``node`` holds factors: a bool, or a list of them over a tuple's elements."""
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, (ast.Tuple, ast.List)):
            return [held(e, names) is True for e in node.elts]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return held(node.elt, names) is True
        return is_factor_call(node)

    def item(node, names):
        """Whether an item of the sequence ``node`` holds factors, per position for a ``zip``."""
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "zip":
            return [held(a, names) is True for a in node.args]
        h = held(node, names)
        return any(h) if isinstance(h, list) else h

    def bind(target, h, names):
        if h is True and isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(h, list) and isinstance(target, ast.Tuple):
            for t, sub in zip(target.elts, h):
                bind(t, sub, names)

    def names_of(func):
        names = set(params[func.name])
        for _ in range(3):  # a binding may read one that the walk meets later
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        bind(target, held(node.value, names), names)
                elif isinstance(node, (ast.comprehension, ast.For)):
                    bind(node.target, item(node.iter, names), names)
        return names

    for _ in range(3):  # factors reach a helper's parameters through its call sites
        for func in functions.values():
            names = names_of(func)
            for node in ast.walk(func):
                callee = functions.get(getattr(getattr(node, "func", None), "id", None))
                if isinstance(node, ast.Call) and callee is not None:
                    for arg, param in zip(node.args, callee.args.args):
                        if held(arg, names) is True:
                            params[callee.name].add(param.arg)

    def permitted(node):
        parent = parents[node]
        if isinstance(parent, ast.Attribute):
            return parent.attr in ("ndim", "shape", "conj")
        if isinstance(parent, ast.Call) and node in parent.args:
            name = getattr(parent.func, "id", getattr(parent.func, "attr", None))
            return name in FACTOR_CALLS or name in functions
        return isinstance(parent, (ast.BinOp, ast.UnaryOp, ast.Assign, ast.Tuple, ast.List, ast.comprehension,
                                   ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.For))

    found = []
    for func in functions.values():
        names = names_of(func)
        for node in ast.walk(func):
            if (is_factor_call(node) or isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)) and not permitted(node):
                found.append(f"{node.lineno}: {ast.unparse(parents[node])}")
    return sorted(set(found))


@pytest.mark.parametrize("module", FACTOR_READERS)
def test_no_kernel_inspects_a_factors_entries(module):
    found = _factor_uses(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
    assert not found, f"{module} reads factor entries at {found}"


# One pair rule: ``states.build_pair`` sizes and builds every pair, and ``tomography._marginals`` its one
# state.  A bare module name admits every function in it.
SIZERS = {
    "adaptive_dim": {"states.build_pair", "tomography._marginals"},
    "build_state": {"states", "tomography._marginals"},
}


@pytest.mark.parametrize("name", SIZERS)
def test_one_pair_builder(name):
    callers = {f"{path.stem}.{scope}" for path in MODULES for scope in _callers(path, name)}
    stray = sorted(c for c in callers if not {c, c.split(".")[0]} & SIZERS[name])
    assert not stray, f"{name} is called in {stray}"


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


# One difference: every squared-difference metric reads ``distances._delta_sq``, which forms rho1^p - rho2^p
# before it squares it, directly or through ``modified_hs``; none reads a factor or the pure-state forms itself,
# and only ``_delta_sq`` expands a square into products (``bures_uhlmann`` reads one, its rank-one fidelity).
SQUARED_DIFFERENCE_METRICS = ("hilbert_schmidt", "modified_hs", "polarized", "polarized_sqrt",
                              "quasidistance_DZ", "quasidistance_Da")


def _reached_calls(tree, name, stop):
    """Names that the module function ``name`` calls, through the module functions it calls, but not past ``stop``."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [name]
    while todo:
        calls = [n for n in ast.walk(functions[todo.pop()]) if isinstance(n, ast.Call)]
        for callee in {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in calls} - seen:
            seen.add(callee)
            if callee in functions and callee != stop:
                todo.append(callee)
    return seen


@pytest.mark.parametrize("name", SQUARED_DIFFERENCE_METRICS)
def test_every_squared_difference_metric_reads_one_difference(name):
    calls = _reached_calls(ast.parse((PACKAGE / "distances.py").read_text(encoding="utf-8")), name, "_delta_sq")
    assert "_delta_sq" in calls, f"{name} does not reach _delta_sq"
    assert not calls & {"factor", "pure_state_distance", "_product_diagonal"}, sorted(calls)


def test_only_the_difference_kernel_expands_a_square():
    assert _callers(PACKAGE / "distances.py", "_product_diagonal") == {"_delta_sq": 5, "bures_uhlmann": 1}


def test_distances_keeps_no_noise_cut_of_its_own():
    # rounding noise has one rule, in fock_core (NOISE_FLOOR, _clamped_sqrt); a literal below 1e-9 in the
    # code of distances would be a second one, as the 1e-14 cuts DZ and Da once made were
    tree = ast.parse((PACKAGE / "distances.py").read_text(encoding="utf-8"))
    small = [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex) and 0 < abs(node.value) < 1e-9]
    assert not small, small


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


# one light call of each subcommand; tomo-distance on a phase state takes the Fock-basis marginals
SUBCOMMANDS = {
    "distance": ["distance", "--a", "thermal:1", "--b", "coherent:1,0.5", "--metric", "bu"],
    "sweep": ["sweep", "--a", "coherent:?", "--b", "fock:1", "--metric", "hs", "--range", "0:1:0.5"],
    "figure": ["figure", "--id", "2"],
    "tomo-distance": ["tomo-distance", "--a", "phase:0.5", "--b", "coherent:1", "--kind", "kullback"],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_no_subcommand_loads_scipy(argv):
    assert "scipy" not in _loaded_after(f"from qdist.cli import main; assert main({argv!r}) == 0")


# every name qdist exports; none may be lost
EXPORTS = [
    "DensityOperator", "DiagonalState", "DistanceReport", "FockVector", "HSBounds", "MomentTable", "PhaseGrid",
    "QuasiDistribution", "StateSpec", "Tomogram", "adaptive_dim", "as_density", "build_pair", "build_state",
    "bures_uhlmann", "cat", "cat_distances", "classical_divergence", "coherent", "coherent_fock",
    "coherent_pair", "coherent_phase", "default_grid", "evaluate_metric", "fock", "fock_pair",
    "generalized_coherent", "grid_to_csv", "hermitian_sqrt", "hilbert_schmidt", "hs_bounds", "hs_from_moments",
    "hs_from_phase_space", "husimi_q", "jmg_distance", "mandel_q", "marginal_analytic", "marginal_from_wigner",
    "modified_hs", "moment", "moment_table", "oscillator_eigenfunctions", "outer", "p_function_thermal",
    "parse_state_spec", "phase_pair", "polarized", "polarized_sqrt", "pure_state_distance", "purity",
    "quasidistance_DZ", "quasidistance_Da", "squeezed_pair", "squeezed_vacuum", "thermal",
    "thermal_approximations", "thermal_pair", "tomographic_distance", "trace_norm", "trace_product",
    "truncation_tail", "wigner", "yurke_stoler_phases",
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # not even inside a function: scipy is a test dependency only
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scipy = sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""])
        if name.split(".")[0] == "scipy"
    )
    assert not scipy, f"{path.name} imports {', '.join(scipy)}"


def test_phase_space_forms_load_no_scipy():
    code = (
        "from qdist import hs_from_phase_space, parse_state_spec\n"
        "a, b = parse_state_spec('thermal:1'), parse_state_spec('thermal:2')\n"
        "hs_from_phase_space(a, b, 'pp')\n"
        "hs_from_phase_space(a, b, 'qp')"
    )
    assert "scipy" not in _loaded_after(code)


def test_everything_runs_where_scipy_cannot_be_imported():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # import scipy now raises ImportError\n"
        "import numpy as np\n"
        "from qdist import fock, hs_from_phase_space, husimi_q, marginal_from_wigner, parse_state_spec, wigner\n"
        "from qdist.cli import main\n"
        f"for argv in {list(SUBCOMMANDS.values())!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "a, b = parse_state_spec('thermal:1'), parse_state_spec('thermal:2')\n"
        "for form in ('wigner', 'qp', 'pp'):\n"
        "    assert hs_from_phase_space(a, b, form) > 0.0\n"
        "husimi_q(fock(1, 8))\n"
        "tom = marginal_from_wigner(wigner(fock(1, 8)), 0.6, 0.8, np.linspace(-6.0, 6.0, 257))\n"
        "print('ok', tom.quadrature_defect < 1e-9)"
    )
    assert _child_stdout(code).splitlines()[-1] == "ok True"


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
