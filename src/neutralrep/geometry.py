"""Field-of-moduli checks for curves and pointed varieties with cyclic
automorphism groups.

Both checks are pure divisibility tests on caller-supplied dimension data:
for each prime p dividing the automorphism order, the drop from the ambient
invariant (genus, or local dimension) to its H_p-fixed counterpart must be
prime to p.  Hypotheses the tool cannot verify -- tameness, exactness of the
automorphism group, smoothness of the marked point -- are recorded verbatim
in the output as caller assertions, so the conditional nature of the verdict
stays visible.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .abelian import is_prime_divisor, prime_divisors
from .errors import (
    ExtraneousPrimeError,
    InvalidDimsError,
    InvalidGenusError,
    MissingFixedDimError,
    MissingQuotientGenusError,
)
from .rep import is_int

VERDICT_DEFINED = "DefinedOverFieldOfModuli"
VERDICT_UNKNOWN = "Unknown"


class CurveInstance(NamedTuple):
    """A smooth projective curve with cyclic automorphism group of order n:
    its genus and, per prime divisor p of n, the genus of the quotient by
    the order-p subgroup."""

    n: int
    genus: int
    quotient_genus: Mapping[int, int]


class MarkedInstance(NamedTuple):
    """A pointed variety with automorphism group mu_n: the local dimension
    at the marked point and, per prime divisor p of n, the local dimension
    of the fixed locus of the order-p subgroup."""

    n: int
    dim: int
    fixed_dim: Mapping[int, int]


class PrimeDifference(NamedTuple):
    prime: int
    difference: int

    @property
    def passes(self) -> bool:
        return self.difference % self.prime != 0


class GeometryReport(NamedTuple):
    verdict: str
    checks: tuple[PrimeDifference, ...]
    assertions: tuple[str, ...]


def _check(n, top, data: Mapping[int, int], errors: tuple[type, type], names: tuple,
           assertions: tuple[str, ...]) -> GeometryReport:
    """The body of both checks: validate n, the ambient invariant ``top``
    and its per-prime counterparts ``data``, then test the difference at
    each prime divisor p of n.  ``names`` gives the invariant's name, its
    least value and the counterpart's name for the messages of the first
    of ``errors``, raised on a value out of range; the second is raised
    with the first prime that has no entry.  Keys that are not prime
    divisors of n are rejected before that, never silently ignored."""
    invalid, missing = errors
    name, least, part = names
    if not is_int(n) or n < 1:
        raise invalid(f"automorphism order n = {n!r} must be an integer >= 1")
    if not is_int(top) or top < least:
        raise invalid(f"{name} {top!r} must be an integer >= {least}")
    divisors = prime_divisors(n)
    for key in data:
        if not isinstance(key, int) or not is_prime_divisor(key, n):
            raise ExtraneousPrimeError(key, n)
    absent = [p for p in divisors if p not in data]
    if absent:
        raise missing(absent[0])
    for p in divisors:
        if not is_int(data[p]) or data[p] < 0 or data[p] > top:
            raise invalid(f"{part} {data[p]!r} at p = {p} must be an integer in [0, {top}]")
    checks = tuple(PrimeDifference(p, top - data[p]) for p in divisors)
    verdict = VERDICT_DEFINED if all(c.passes for c in checks) else VERDICT_UNKNOWN
    return GeometryReport(verdict=verdict, checks=checks, assertions=assertions)


def curve_check(instance: CurveInstance) -> GeometryReport:
    """Defined over the field of moduli iff, for every prime p dividing the
    automorphism order, p does not divide genus(X) - genus(X/H_p).

    Requires genus >= 2 and quotient genera in [0, genus]; the caller
    asserts that the automorphism group is exactly cyclic of order n, prime
    to the characteristic.
    """
    n = instance.n
    return _check(
        n, instance.genus, instance.quotient_genus,
        (InvalidGenusError, MissingQuotientGenusError), ("genus", 2, "quotient genus"),
        (f"caller asserts: the full automorphism group is cyclic of order exactly {n}",
         f"caller asserts: {n} is prime to the characteristic of the base field"),
    )


def marked_check(instance: MarkedInstance) -> GeometryReport:
    """Defined over the field of moduli iff, for every prime p dividing n,
    p does not divide dim_x0(X) - dim_x0(X^(H_p)).

    The caller asserts that the automorphism group of the pointed variety
    is mu_n and that the marked point is smooth.
    """
    n = instance.n
    return _check(
        n, instance.dim, instance.fixed_dim,
        (InvalidDimsError, MissingFixedDimError), ("dimension", 1, "fixed dimension"),
        (f"caller asserts: the automorphism group of the pointed variety is mu_{n}",
         "caller asserts: the marked point is a smooth point"),
    )


class ReductionNote(NamedTuple):
    """Explanatory metadata: how the curve check arises from the cyclic
    dimension criterion on the space of global 1-forms."""

    summary: str
    per_prime: tuple[str, ...]


def curve_to_representation_note(instance: CurveInstance) -> ReductionNote:
    """Explain the reduction behind the curve check: the automorphisms act
    on the g-dimensional space of global 1-forms, the quotient genus equals
    the dimension of its H_p-fixed subspace, and the per-prime test is the
    cyclic dimension-difference criterion on that (otherwise unknown)
    representation.

    The per-prime lines are read off ``curve_check(instance).checks``, so an
    instance that :func:`curve_check` refuses raises the same error here."""
    per_prime = tuple(
        f"p = {c.prime}: induced check is {c.prime} does not divide {c.difference}; certifies"
        if c.passes
        else f"p = {c.prime}: difference {c.difference} is divisible by {c.prime}; "
        f"the criterion is silent here (not a negative result)"
        for c in curve_check(instance).checks
    )
    return ReductionNote(
        summary=(
            "the genus equals the dimension of the space of global 1-forms and "
            "the quotient genus equals the dimension of its order-p-fixed "
            "subspace, so each per-prime test is the cyclic dimension-difference "
            "criterion applied to that representation"
        ),
        per_prime=per_prime,
    )
