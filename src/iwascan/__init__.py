"""Vanishing tests for Iwasawa invariants of real quadratic fields at split p,
plus Fermat-quotient statistics over primes and random elements.

The root loads each submodule on first use of one of its names (PEP 562), so
``import iwascan`` alone imports neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule it lives in.
_HOME = {
    **dict.fromkeys(("is_prime", "is_squarefree", "kronecker", "valuation"), "arith"),
    **dict.fromkeys(("Capped", "DeltaReport", "delta_embed", "delta_exact"), "fermat"),
    **dict.fromkeys(("FieldVerdict", "ScanResult", "admissible", "check_field",
                     "scan_range"), "greenberg"),
    "fundamental_unit": "pell",
    **dict.fromkeys(("class_number", "class_order", "represent"), "qforms"),
    **dict.fromkeys(("QuadElem", "QuadResidue", "hensel_sqrt", "make_elem"), "quadint"),
    **dict.fromkeys(("DensityTally", "NORM_CONSTRAINED", "StatTally", "UNCONSTRAINED",
                     "expected_proportions", "prime_fermat_scan",
                     "random_elem_density"), "stats"),
    **dict.fromkeys(("FieldContext", "PreconditionError", "UsageError", "build_context",
                     "validate_field"), "sunits"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
