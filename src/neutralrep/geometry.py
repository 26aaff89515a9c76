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

from dataclasses import dataclass
from typing import Mapping

from .abelian import is_prime_divisor, prime_factorization
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


@dataclass(frozen=True)
class CurveInstance:
    """A smooth projective curve with cyclic automorphism group of order n:
    its genus and, per prime divisor p of n, the genus of the quotient by
    the order-p subgroup."""

    n: int
    genus: int
    quotient_genus: Mapping[int, int]


@dataclass(frozen=True)
class MarkedInstance:
    """A pointed variety with automorphism group mu_n: the local dimension
    at the marked point and, per prime divisor p of n, the local dimension
    of the fixed locus of the order-p subgroup."""

    n: int
    dim: int
    fixed_dim: Mapping[int, int]


@dataclass(frozen=True)
class PrimeDifference:
    prime: int
    difference: int

    @property
    def passes(self) -> bool:
        return self.difference % self.prime != 0


@dataclass(frozen=True)
class GeometryReport:
    verdict: str
    checks: tuple[PrimeDifference, ...]
    assertions: tuple[str, ...]


def _checked_prime_map(data: Mapping[int, int], n: int, what: str) -> dict[int, int]:
    """Validate that per-prime data covers exactly the prime divisors of n.

    Extra keys are rejected, never silently ignored; missing primes raise
    the matching error type.
    """
    divisors = sorted(prime_factorization(n)) if n > 1 else []
    for key in data:
        if not isinstance(key, int) or not is_prime_divisor(key, n):
            raise ExtraneousPrimeError(key, n)
    missing = [p for p in divisors if p not in data]
    if missing:
        if what == "quotient_genus":
            raise MissingQuotientGenusError(missing[0])
        raise MissingFixedDimError(missing[0])
    return {p: data[p] for p in divisors}


def curve_check(instance: CurveInstance) -> GeometryReport:
    """Defined over the field of moduli iff, for every prime p dividing the
    automorphism order, p does not divide genus(X) - genus(X/H_p).

    Requires genus >= 2 and quotient genera in [0, genus]; the caller
    asserts that the automorphism group is exactly cyclic of order n, prime
    to the characteristic.
    """
    n, g = instance.n, instance.genus
    if not is_int(n) or n < 1:
        raise InvalidGenusError(f"automorphism order n = {n!r} must be an integer >= 1")
    if not is_int(g) or g < 2:
        raise InvalidGenusError(f"genus {g!r} must be an integer >= 2")
    data = _checked_prime_map(instance.quotient_genus, n, "quotient_genus")
    for p, gp in data.items():
        if not is_int(gp) or gp < 0 or gp > g:
            raise InvalidGenusError(
                f"quotient genus {gp!r} at p = {p} must be an integer in [0, {g}]"
            )
    checks = tuple(PrimeDifference(p, g - gp) for p, gp in data.items())
    verdict = VERDICT_DEFINED if all(c.passes for c in checks) else VERDICT_UNKNOWN
    return GeometryReport(
        verdict=verdict,
        checks=checks,
        assertions=(
            f"caller asserts: the full automorphism group is cyclic of order exactly {n}",
            f"caller asserts: {n} is prime to the characteristic of the base field",
        ),
    )


def marked_check(instance: MarkedInstance) -> GeometryReport:
    """Defined over the field of moduli iff, for every prime p dividing n,
    p does not divide dim_x0(X) - dim_x0(X^(H_p)).

    The caller asserts that the automorphism group of the pointed variety
    is mu_n and that the marked point is smooth.
    """
    n, d = instance.n, instance.dim
    if not is_int(n) or n < 1:
        raise InvalidDimsError(f"automorphism order n = {n!r} must be an integer >= 1")
    if not is_int(d) or d < 1:
        raise InvalidDimsError(f"dimension {d!r} must be an integer >= 1")
    data = _checked_prime_map(instance.fixed_dim, n, "fixed_dim")
    for p, fp in data.items():
        if not is_int(fp) or fp < 0 or fp > d:
            raise InvalidDimsError(
                f"fixed dimension {fp!r} at p = {p} must be an integer in [0, {d}]"
            )
    checks = tuple(PrimeDifference(p, d - fp) for p, fp in data.items())
    verdict = VERDICT_DEFINED if all(c.passes for c in checks) else VERDICT_UNKNOWN
    return GeometryReport(
        verdict=verdict,
        checks=checks,
        assertions=(
            f"caller asserts: the automorphism group of the pointed variety is mu_{n}",
            "caller asserts: the marked point is a smooth point",
        ),
    )


@dataclass(frozen=True)
class ReductionNote:
    """Explanatory metadata: how the curve check arises from the cyclic
    dimension criterion on the space of global 1-forms."""

    summary: str
    per_prime: tuple[str, ...]


def curve_to_representation_note(instance: CurveInstance) -> ReductionNote:
    """Explain the reduction behind the curve check: the automorphisms act
    on the g-dimensional space of global 1-forms, the quotient genus equals
    the dimension of its H_p-fixed subspace, and the per-prime test is the
    cyclic dimension-difference criterion on that (otherwise unknown)
    representation."""
    n, g = instance.n, instance.genus
    per_prime = []
    for p in sorted(prime_factorization(n)) if n > 1 else []:
        gp = instance.quotient_genus.get(p)
        if gp is None:
            per_prime.append(f"p = {p}: no quotient genus supplied")
            continue
        diff = g - gp
        if diff % p:
            per_prime.append(
                f"p = {p}: induced check is {p} does not divide {diff}; certifies"
            )
        else:
            per_prime.append(
                f"p = {p}: difference {diff} is divisible by {p}; the criterion "
                f"is silent here (not a negative result)"
            )
    return ReductionNote(
        summary=(
            "the genus equals the dimension of the space of global 1-forms and "
            "the quotient genus equals the dimension of its order-p-fixed "
            "subspace, so each per-prime test is the cyclic dimension-difference "
            "criterion applied to that representation"
        ),
        per_prime=tuple(per_prime),
    )
