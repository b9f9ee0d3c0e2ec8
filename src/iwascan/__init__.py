"""Vanishing tests for Iwasawa invariants of real quadratic fields at split p,
plus Fermat-quotient statistics over primes and random elements."""

from .arith import is_prime, is_squarefree, kronecker, valuation
from .fermat import Capped, DeltaReport, delta_embed, delta_exact
from .greenberg import (FieldVerdict, ScanResult, admissible, check_field,
                        scan_range)
from .pell import fundamental_unit
from .qforms import class_number, class_order, represent
from .quadint import QuadElem, QuadResidue, hensel_sqrt, make_elem
from .stats import (DensityTally, NORM_CONSTRAINED, StatTally, UNCONSTRAINED,
                    expected_proportions, prime_fermat_scan, random_elem_density)
from .sunits import (FieldContext, PreconditionError, UsageError, build_context,
                     validate_field)

__version__ = "0.1.0"

__all__ = [
    "Capped", "DeltaReport", "DensityTally", "FieldContext", "FieldVerdict",
    "NORM_CONSTRAINED", "PreconditionError", "QuadElem", "QuadResidue",
    "ScanResult", "StatTally", "UNCONSTRAINED", "UsageError", "admissible",
    "build_context", "check_field", "class_number", "class_order", "delta_embed",
    "delta_exact", "expected_proportions", "fundamental_unit", "hensel_sqrt",
    "is_prime", "is_squarefree", "kronecker", "make_elem", "prime_fermat_scan",
    "random_elem_density", "represent", "scan_range", "validate_field", "valuation",
]
