"""Exact-arithmetic engine for equivariant basic cohomology computations.

Subpackages by concern: ratmat (exact linear algebra), algebra_core (graded
complexes), gstar (operator packages and the universal acyclic structure),
cartan (equivariant cohomology and its module), spectral (pages and
formality), module_theory (Hilbert/Koszul/Tor/depth), series (Poincare
arithmetic), foliation (strata, Morse, Borel, polytope formulas), cli
(file formats and the command surface), fixtures (bundled models and the
golden suite).
"""

from .algebra_core import (
    CochainComplex,
    CohomologyResult,
    GradedVectorSpace,
    ShortExactSequence,
    cohomology_dims,
    les_exactness_check,
    verify_complex,
)
from .cartan import (
    CartanComplex,
    EquivariantCohomologyResult,
    commuting_reduction_check,
    equivariant_cohomology,
    generator_degrees,
    module_presentation,
)
from .gstar import (
    ConnectionElements,
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    basic_subcomplex,
    check_gstar_axioms,
    detect_type_c,
    tensor_gstar,
    weil_algebra,
    weil_model_cohomology,
)
from .foliation import (
    FoliationStrataModel,
    MorseComponent,
    MorseData,
    PolytopeData,
    Stratum,
    basic_series_formal,
    borel_check,
    equivariant_series_from_strata,
    localization_rank_check,
    morse_series,
    perfectness_check,
    polytope_series,
    validate_strata,
)
from .module_theory import (
    GradedModulePresentation,
    depth_dim_cm,
    freeness_test,
    hilbert,
    koszul_tor,
    localized_rank,
    ses_cm_check,
)
from .ratmat import RationalMatrix
from .series import (
    PoincarePolynomial,
    PoincareSeriesRational,
    euler_at_minus_one,
    morse_gap,
)
from .spectral import (
    DoubleComplexPage,
    FormalityVerdict,
    formality_verdict,
    run_pages,
)

__version__ = "0.1.0"
