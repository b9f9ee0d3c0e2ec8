"""Per-field context: unit, class data, and the S-unit generators above p.

`field_context` gives, in plain ints, what the Fermat-quotient machinery
needs at p from a field's `pell.CycleRecord`, which holds the unit, and its
wide class number h: the Hensel root s fixing which prime is which, lifted
once, uncached, to p^(h+2), the most that the walks (p^(k+1), k <= h) and
the first deltas (p^(2+h0)) read; the order h0 of the canonical prime above
p; and a generator pi1 of that prime's h0-th power (norm +-p^h0, certified
by `pell`).  It returns them as a `FieldContext`, a named tuple of ints and
the record, the one form in which a scan row, the tally and the library read
them; its `QuadElem`s eps, pi1 and pi2 are built only when read.
`build_context(m, p)` makes the record and h after `validate_field`.
`real_field` is the one radicand test of every command: it refuses a D past
the int64 range before m is factored.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import divisors, is_prime, is_squarefree, kronecker
from .pell import CycleRecord, _cycle_record, _principal_power
from .qforms import _INT64_ROOT, class_numbers
from .quadint import QuadElem, QuadResidue, _lift_sqrt, hensel_sqrt, make_elem, residues


class PreconditionError(ValueError):
    """Raised when (m, p) violates the engine's standing hypotheses."""


class UsageError(ValueError):
    """Raised for a run parameter outside its range (a bad flag value)."""


class FieldContext(NamedTuple):
    """The facts of (m, p) that the vanishing test and the tally read, in plain ints; the
    `QuadElem`s eps, pi1 and pi2 = pi1' that the library reads are built when read."""

    m: int
    p: int
    h: int           # wide class number
    record: CycleRecord  # the principal cycle and unit (E, F, N(eps)) of Q(sqrt(m))
    s: int           # sqrt(m) mod p^N, in the canonical root class
    N: int           # precision exponent carried by s: h + 2
    h0: int          # order of the canonical prime above p, wide sense
    pi: tuple[int, int]  # (A, B): (A + B*sqrt(m))/2 generates that prime's h0-th power

    @property
    def eps(self) -> QuadElem:
        return make_elem(*self.record.unit[:2], 2, self.m)

    @property
    def pi1(self) -> QuadElem:
        return make_elem(*self.pi, 2, self.m)

    @property
    def pi2(self) -> QuadElem:
        return make_elem(self.pi[0], -self.pi[1], 2, self.m)

    def embed(self, x: QuadElem, n: int | None = None) -> QuadResidue:
        """Residue pair of x mod p^(n+1) (defaults to the stored precision)."""
        mod = self.p ** (prec := self.N if n is None else n + 1)
        s = self.s if prec <= self.N else hensel_sqrt(self.m, self.p, prec)
        return QuadResidue(*residues(x.coords(), s, mod), mod)


def validate_prime(p: int) -> None:
    try:
        odd_prime = p != 2 and is_prime(p)
    except ValueError as exc:  # is_prime refuses past its Miller-Rabin witness range
        raise PreconditionError(f"p={p} is too large to prove prime") from exc
    if not odd_prime:
        raise PreconditionError(f"p={p} must be an odd prime")


def real_field(m: int) -> bool:
    """True when m, an int > 1, is squarefree: the radicand of a real quadratic field.
    A D = m or 4m past the class number's int64 range is refused before m is factored."""
    if not (isinstance(m, int) and m > 1):
        return False
    if (m if m % 4 == 1 else 4 * m) > _INT64_ROOT**2:
        raise PreconditionError(f"m={m}: the discriminant is past the class number's int64 range")
    return is_squarefree(m)


def validate_field(m: int, p: int) -> None:
    if not real_field(m):
        raise PreconditionError(f"m={m} must be a squarefree integer > 1")
    validate_prime(p)
    if kronecker(m, p) != 1:
        raise PreconditionError(f"p={p} is not split in Q(sqrt({m}))")


@lru_cache(maxsize=256)
def build_context(m: int, p: int) -> FieldContext:
    """Assemble the field data for (m, p); raises PreconditionError."""
    validate_field(m, p)
    record = _cycle_record(m)
    return field_context(record, p, class_numbers((record,))[0])


def field_context(record: CycleRecord, p: int, h: int) -> FieldContext:
    """The context at p, split, in the field of `record`, whose wide class number is h:
    s = sqrt(m) mod p^(h+2), h0 and pi1 = (A + B*sqrt(m))/2 as (A, B), in plain ints."""
    # one lift serves the walks (up to p^(h+1)) and the n = 1 deltas (up to p^(2+h0))
    s = _lift_sqrt(record.m, p, h + 2)
    found = _principal_power(record, p, divisors(h), s)
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    return FieldContext(record.m, p, h, record, s, h + 2, *found)
