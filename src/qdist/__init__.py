"""Distances and quasidistances between single-mode bosonic quantum states.

The package provides, over a truncated number basis:

- state constructors for the number, coherent, generalized-coherent,
  cat, squeezed-vacuum, coherent-phase and thermal families;
- the standard distance functionals (Fubini-Study and relatives,
  trace-norm, Hilbert-Schmidt with modifications, Bures-Uhlmann) and
  their energy-sensitive polarized and quasidistance variants;
- closed-form oracles for every family pairing with a printed formula,
  used to cross-validate the matrix numerics;
- Wigner / Husimi / thermal-P phase-space grids and the phase-space
  integral forms of the Hilbert-Schmidt distance;
- quadrature tomograms and classical-like distances built on them.

Every public name is exported lazily (PEP 562): ``import qdist`` loads
neither numpy nor scipy, and the first use of a name imports its home
module, as listed in ``_EXPORTS``.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "closed_forms": (
        "cat_distances", "coherent_fock", "coherent_pair", "fock_pair", "phase_pair", "squeezed_pair",
        "thermal_approximations", "thermal_pair",
    ),
    "distances": (
        "DistanceReport", "HSBounds", "bures_uhlmann", "evaluate_metric", "hilbert_schmidt", "hs_bounds",
        "hs_from_moments", "jmg_distance", "modified_hs", "polarized", "polarized_sqrt",
        "pure_state_distance", "quasidistance_Da", "quasidistance_DZ",
    ),
    "fock_core": (
        "DensityOperator", "DiagonalState", "FockVector", "hermitian_sqrt", "outer", "purity", "trace_norm",
        "trace_product",
    ),
    "phase_space": (
        "PhaseGrid", "QuasiDistribution", "default_grid", "grid_to_csv", "hs_from_phase_space", "husimi_q",
        "oscillator_eigenfunctions", "p_function_thermal", "wigner",
    ),
    "states": (
        "MomentTable", "StateSpec", "adaptive_dim", "as_density", "build_pair", "build_state", "cat", "coherent",
        "coherent_phase", "fock", "generalized_coherent", "mandel_q", "moment", "moment_table",
        "parse_state_spec", "squeezed_vacuum", "thermal", "truncation_tail", "yurke_stoler_phases",
    ),
    "tomography": (
        "Tomogram", "classical_divergence", "marginal_analytic", "marginal_from_wigner", "tomographic_distance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
