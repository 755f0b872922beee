"""Exact-arithmetic non-linearizability certificates over F_p((t)).

For a polynomial map f(z) = z*(lambda + sum a_i z^i) with lambda in 1 + m not
a root of unity, the package computes the conjugacy-coefficient recurrence,
level chain sums and their Newton slopes, and decides (soundly, possibly
inconclusively) whether f fails to be linearizable at 0.
"""

from .errors import (
    BudgetExceeded,
    CharpError,
    ConfigError,
    DegenerateLinearMap,
    DivisibilityViolation,
    DominanceNotCertified,
    PartsMismatch,
    PrecisionExhausted,
    UncertifiedLeadingTerm,
)
from .field import (
    INF,
    LaurentElement,
    Multiplier,
    PrimeContext,
    make_lambda,
    parse_laurent,
    val_p,
)
from .recurrence import (
    ConjugacyPrefix,
    DynamicalSeries,
    LevelTable,
    Phi,
    Phi_chain,
    b_coeffs,
    b_via_structure,
    conjugacy_residual,
    phi_k,
    phi_k_via_recursion,
    psi_k,
    run_certified,
)
from .criterion import (
    DominanceReport,
    M0,
    Mk_bounds,
    Mk_point,
    SlopeSample,
    divergence_witness,
    is_k_dominant,
    support_gcd,
    verdict,
)

__version__ = "0.1.0"

# the coefficient arithmetic is pure Python (packed big-integer products)
backend_name = "python"

__all__ = [
    "BudgetExceeded",
    "CharpError",
    "ConfigError",
    "ConjugacyPrefix",
    "DegenerateLinearMap",
    "DivisibilityViolation",
    "DominanceNotCertified",
    "DominanceReport",
    "DynamicalSeries",
    "INF",
    "LaurentElement",
    "LevelTable",
    "M0",
    "Mk_bounds",
    "Mk_point",
    "Multiplier",
    "PartsMismatch",
    "Phi",
    "Phi_chain",
    "PrecisionExhausted",
    "PrimeContext",
    "SlopeSample",
    "UncertifiedLeadingTerm",
    "b_coeffs",
    "b_via_structure",
    "backend_name",
    "conjugacy_residual",
    "divergence_witness",
    "is_k_dominant",
    "make_lambda",
    "parse_laurent",
    "phi_k",
    "phi_k_via_recursion",
    "psi_k",
    "run_certified",
    "support_gcd",
    "val_p",
    "verdict",
]
