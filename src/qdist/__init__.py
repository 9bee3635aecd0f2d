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
"""

from .closed_forms import (
    cat_distances,
    coherent_fock,
    coherent_pair,
    fock_pair,
    phase_pair,
    squeezed_pair,
    thermal_approximations,
    thermal_pair,
)
from .distances import (
    DistanceReport,
    HSBounds,
    bures_uhlmann,
    evaluate_metric,
    hilbert_schmidt,
    hs_bounds,
    hs_from_moments,
    jmg_distance,
    modified_hs,
    polarized,
    polarized_sqrt,
    pure_state_distance,
    quasidistance_Da,
    quasidistance_DZ,
)
from .fock_core import (
    DensityOperator,
    DiagonalState,
    FockVector,
    hermitian_sqrt,
    outer,
    purity,
    trace_norm,
    trace_product,
)
from .phase_space import (
    PhaseGrid,
    QuasiDistribution,
    default_grid,
    grid_to_csv,
    hs_from_phase_space,
    husimi_q,
    oscillator_eigenfunctions,
    p_function_thermal,
    wigner,
)
from .states import (
    MomentTable,
    StateSpec,
    adaptive_dim,
    as_density,
    build_state,
    cat,
    coherent,
    coherent_phase,
    fock,
    generalized_coherent,
    mandel_q,
    moment,
    moment_table,
    parse_state_spec,
    squeezed_vacuum,
    thermal,
    truncation_tail,
    yurke_stoler_phases,
)
from .tomography import (
    Tomogram,
    classical_divergence,
    marginal_analytic,
    marginal_from_wigner,
    tomographic_distance,
)

__version__ = "0.1.0"
