"""Integral Khovanov homology of braid closures and signed PD diagrams."""

from .braid import (
    BraidPermutation,
    BraidWord,
    CrossingId,
    braid_closure,
    braid_permutation,
    parse_braid,
    reduced_diagram,
)
from .cube import ChainComplex, build_complex
from .diagram import Diagram, from_pd
from .errors import (
    CapExceededError,
    GeneratorBudgetError,
    InputError,
    NonPositiveWordError,
    TruncatedComplexError,
)
from .homology import BigradedGroup, SmithForm, homology_table, smith_normal_form
from .invariants import (
    LaurentPolynomial,
    VerificationReport,
    convention_toggle,
    graded_euler_characteristic,
    jones_state_sum,
    kernel_structure_check,
    reduction_consistency,
    verify_positive_braid,
)

__all__ = [
    "BigradedGroup",
    "BraidPermutation",
    "BraidWord",
    "CapExceededError",
    "ChainComplex",
    "CrossingId",
    "Diagram",
    "GeneratorBudgetError",
    "InputError",
    "LaurentPolynomial",
    "NonPositiveWordError",
    "SmithForm",
    "TruncatedComplexError",
    "VerificationReport",
    "braid_closure",
    "braid_permutation",
    "build_complex",
    "convention_toggle",
    "from_pd",
    "graded_euler_characteristic",
    "homology_table",
    "jones_state_sum",
    "kernel_structure_check",
    "parse_braid",
    "reduced_diagram",
    "reduction_consistency",
    "smith_normal_form",
    "verify_positive_braid",
]

__version__ = "0.1.0"
