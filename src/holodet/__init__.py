"""Numerical toolkit for flat-torus determinants and their holomorphic extensions.

Modules
-------
special_functions   the Dedekind eta function and modular reduction
torus_spectral      flat-torus heat trace and zeta-regularized determinant
potential_builder   cone-integrated holomorphic potentials of closed (2,0)-forms
extension           symmetrization, pluriharmonic splitting, assembled extensions
polarization        reconstruction of holomorphic functions from diagonal samples
catalog             serializable form catalog used by the CLI
verify              one-shot verification suite behind ``holodet verify-all``
"""

from .errors import (
    BudgetError,
    DomainError,
    FitRankError,
    HolodetError,
    NotPluriharmonicError,
    QuadratureError,
)
from .extension import (
    ExtensionRecipe,
    ProductPoint,
    assemble_extension,
    genus1_extension,
    genus1_recipe,
    pluriharmonic_split,
    symmetrized_evaluator,
)
from .polarization import (
    DiagonalSampleSet,
    PolarizedPolynomial,
    polarize_fit,
    uniqueness_residual,
)
from .potential_builder import (
    ClosedHoloForm,
    ProductDomain,
    check_closed_and_holomorphic,
    cone_potential,
    cone_potentials,
    verify_boundary_vanishing,
    verify_mixed_derivative,
)
from .special_functions import (
    eta,
    log_eta,
    reduce,
)
from .torus_spectral import (
    SpectralDetResult,
    closed_form_log_det,
    zeta_log_det,
)

__version__ = "0.1.0"
