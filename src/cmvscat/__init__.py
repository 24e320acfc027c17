"""Scattering transforms for banded unitary (CMV) operators.

Inverse scattering takes a contractive boundary function to its
Verblunsky coefficients through defect-vector computations in a
weighted two-component space; direct scattering reconstructs the
boundary function from the Krylov moments of the banded operator on its
wandering vectors. A dense-quadrature oracle and an invariant harness
certify both directions.
"""

from .circle import (
    CircleGrid,
    LaurentSeries,
    ScatteringFunction,
    SzegoReport,
    analyze,
    harmonic_extension,
    require_szego,
    synthesize,
    szego_check,
)
from .cmv import CmvMatrix, apply, apply_adjoint, build_cmv
from .config import RunConfig
from .lrspace import (
    DefectPair,
    GeneratorFrame,
    LrElement,
    converged_defect_pair,
    defect_pair,
    evaluate,
    frame_gram,
    generator,
    inner_product,
    shift,
)
from .oracle import QuadratureSpace, oracle_verblunsky, quadrature_gram, quadrature_space
from .scattering import (
    boundary_reconstruction,
    direct_scattering,
    moment_horizon,
    moment_series,
    roundtrip,
    wandering_vectors,
)
from .spectral import (
    SpectralDensity,
    change_basis_density,
    defect_samples,
    moment_check,
    sigma_recursion_check,
    spectral_density,
)
from .verblunsky import (
    SchurFunction,
    VerblunskySequence,
    alpha_from_defects,
    convergence_report,
    inverse_scattering,
    recover_omega,
    schur_step,
    union_verblunsky,
)

__version__ = "0.1.0"
