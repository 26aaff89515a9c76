"""Arithmetic of finite abelian groups presented as character groups.

A group is stored canonically by its invariant factors d_1 | d_2 | ... | d_k
(all >= 2; the empty list is the trivial group).  Elements -- "characters"
-- are reduced coordinate tuples, and the library computes on those tuples:
a :class:`Character` pairs a tuple with its group only where a character
is read in or handed out, and it has no arithmetic.  On top of that the
module provides Smith normal form over the integers, construction from
relation matrices, primary parts and mod-p reductions, and the test of
whether a set of characters generates the group.

All types are immutable after construction and all operations are pure, so
values can be shared freely across concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import (
    BadCoordinateLengthError,
    InfiniteGroupError,
    InvalidInvariantFactorsError,
)

#: Default hard cap on closure enumerations (number of elements kept).
DEFAULT_CAP = 10**6


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_prime_divisor(p: int, n: int) -> bool:
    """True when p is a prime dividing n.  Divisibility comes first: trial
    division costs sqrt(p), and a divisor of n is at most |n|."""
    return p >= 2 and n % p == 0 and is_prime(p)


def prime_factorization(n: int) -> dict[int, int]:
    """Return ``{p: e}`` with ``n == prod(p**e)``.  Requires ``n >= 1``."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def identity_matrix(k: int) -> tuple[tuple[int, ...], ...]:
    """The k x k identity matrix as its rows, which are also its columns."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _min_abs_entry(A, t, m, n):
    """Position of the smallest-|value| nonzero entry of A[t:, t:], scanning
    rows then columns so ties break deterministically; None if all zero."""
    best = None
    for i in range(t, m):
        row = A[i]
        for j in range(t, n):
            v = abs(row[j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix M as U*M*W = D.

    U and W are unimodular (|det| = 1) and D is diagonal with each diagonal
    entry nonnegative and dividing the next; zero entries come last.  The
    pivot is always the smallest-absolute-value nonzero entry of the
    remaining submatrix, so the output is deterministic.

    Returns ``(U, D, W)`` as lists of lists of Python ints.  Total on
    rectangular integer matrices, including empty ones.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must all have the same length")
    U = [list(row) for row in identity_matrix(m)]
    W = [list(row) for row in identity_matrix(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in W:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in W:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        pivot = _min_abs_entry(A, t, m, n)
        if pivot is None:
            break
        while True:
            _, pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if A[t][t] < 0:
                negate_row(t)
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p  # remainder lands in [0, p)
                if q:
                    add_row(t, i, -q)
            for j in range(t + 1, n):
                q = A[t][j] // p
                if q:
                    add_col(t, j, -q)
            clean = all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            )
            if clean:
                bad = next(
                    (
                        i
                        for i in range(t + 1, m)
                        for j in range(t + 1, n)
                        if A[i][j] % p
                    ),
                    None,
                )
                if bad is None:
                    break
                # pull a non-divisible row up so the next pivot shrinks to a gcd
                add_row(bad, t, 1)
            pivot = _min_abs_entry(A, t, m, n)
        t += 1
    return U, A, W


# ---------------------------------------------------------------------------
# Groups and characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in invariant-factor form.

    ``invariant_factors`` is an ordered tuple d_1 | d_2 | ... | d_k with each
    d_i >= 2; the empty tuple is the trivial group.  This canonical shape
    makes equality and hashing trivial; `from_relations`, which accepts a
    relation matrix, normalizes first.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise InvalidInvariantFactorsError(
                    f"invariant factor {d} is smaller than 2"
                )
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise InvalidInvariantFactorsError(
                    f"invariant factor {a} does not divide its successor {b}"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_relations(cls, matrix: Sequence[Sequence[int]]) -> "FiniteAbelianGroup":
        """Group presented by a relation matrix: rows are relations among the
        k generators named by the columns.

        Raises :class:`InfiniteGroupError` when the cokernel has free rank,
        i.e. when the relation matrix has rank < k.
        """
        rows = [list(map(int, r)) for r in matrix]
        k = len(rows[0]) if rows else 0
        if any(len(r) != k for r in rows):
            raise ValueError("relation rows must all have the same length")
        _, D, _ = smith_normal_form(rows)
        diag = [D[i][i] for i in range(min(len(rows), k))]
        if len(diag) < k or any(d == 0 for d in diag):
            raise InfiniteGroupError(
                "relation matrix has rank below the number of generators"
            )
        return cls(tuple(d for d in diag if d > 1))

    # -- basic data ---------------------------------------------------------

    @cached_property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        """Number of invariant factors (minimal generator count)."""
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @cached_property
    def _prime_divisors(self) -> tuple[int, ...]:
        return _prime_divisors(self.order)

    def prime_divisors(self) -> tuple[int, ...]:
        return self._prime_divisors

    def __str__(self):
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)

    # -- elements ------------------------------------------------------------

    def zero(self) -> "Character":
        """The zero character, one object shared by equal groups (a
        ``Character`` is frozen) and kept on this one after its first use."""
        return self._zero

    @cached_property
    def _zero(self) -> "Character":
        return _shared_zero(self)

    def character(self, coords: Sequence[int]) -> "Character":
        return Character(tuple(coords), self)

    # -- structure -----------------------------------------------------------

    def primary_part(self, p: int) -> "PrimaryPart":
        """The p-primary direct summand, with the parent coordinates it uses.
        Shared by every equal group and kept on this one; its ``indices`` are
        the one place that decides which coordinates are divisible by p."""
        pp = self._primary_parts.get(p)
        if pp is None:
            pp = self._primary_parts[p] = _primary_part(self, p)
        return pp

    @cached_property
    def _primary_parts(self) -> dict[int, "PrimaryPart"]:
        return {}

    def p_rank(self, p: int) -> int:
        """Number of invariant factors divisible by p."""
        return sum(1 for d in self.invariant_factors if d % p == 0)


# Prime divisors and primary parts depend only on the group's value, so
# equal groups built separately share them; each group also keeps its own
# in a plain attribute, which is cheaper to read than a cache lookup.


@lru_cache(maxsize=256)
def _prime_divisors(order: int) -> tuple[int, ...]:
    return tuple(sorted(prime_factorization(order))) if order > 1 else ()


@lru_cache(maxsize=1024)
def _primary_part(group: FiniteAbelianGroup, p: int) -> "PrimaryPart":
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    indices = []
    powers = []
    for i, d in enumerate(group.invariant_factors):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            indices.append(i)
            powers.append(p**e)
    return PrimaryPart(FiniteAbelianGroup(tuple(powers)), tuple(indices))


@lru_cache(maxsize=256)
def _shared_zero(group: FiniteAbelianGroup) -> "Character":
    return Character((0,) * group.rank, group)


@dataclass(frozen=True)
class Character:
    """An element of a character group, stored as a reduced coordinate tuple.

    The coordinates are reduced on construction, so two equal characters
    always carry identical coordinates.
    """

    coords: tuple[int, ...]
    group: FiniteAbelianGroup

    def __post_init__(self):
        d = self.group.invariant_factors
        if len(self.coords) != len(d):
            raise BadCoordinateLengthError(
                f"character has {len(self.coords)} coordinates, "
                f"group has {len(d)} invariant factors"
            )
        object.__setattr__(
            self, "coords", tuple(int(a) % di for a, di in zip(self.coords, d))
        )

    @property
    def order(self) -> int:
        d = self.group.invariant_factors
        return math.lcm(*(di // math.gcd(di, a) for di, a in zip(d, self.coords))) if d else 1

    def __str__(self):
        return "(" + ", ".join(map(str, self.coords)) + ")"


@dataclass(frozen=True)
class PrimaryPart:
    """The p-primary summand of a group, as a group of its own.

    ``indices`` lists the parent coordinates divisible by p; coordinate s of
    the primary part is the mod-p^{e_s} reduction of parent coordinate
    ``indices[s]``.
    """

    group: FiniteAbelianGroup
    indices: tuple[int, ...]


# ---------------------------------------------------------------------------
# Primary projections and mod-p images
# ---------------------------------------------------------------------------


def primary_projection(chi: Character, p: int) -> tuple[int, ...]:
    """The coordinates of the image of a character under the restriction to
    the p-primary part, as ``mod_p_image`` gives those of its image mod p.

    Concretely, in a coordinate with invariant factor p^e * m (p not dividing
    m) the image coordinate is the mod-p^e reduction; this equals eps * a
    mod p^e for the CRT idempotent eps = 1 mod p^e, 0 mod m.  When p does not
    divide the group order the primary part is trivial and the image is ().
    """
    pp = chi.group.primary_part(p)
    return tuple(chi.coords[i] % q for i, q in zip(pp.indices, pp.group.invariant_factors))


def mod_p_image(chi: Character, p: int) -> tuple[int, ...]:
    """The image of the p-primary projection in the F_p vector space
    G_p / p*G_p: the coordinates mod p at the p-divisible positions."""
    return tuple(chi.coords[i] % p for i in chi.group.primary_part(p).indices)


def rank_mod_p(vectors: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a list of F_p row vectors.

    Each row joins the echelon basis of the rows before it when it is
    independent of them (``_echelon_add``).
    """
    basis: list[tuple[int, list[int]]] = []
    for v in vectors:
        _echelon_add(v, basis, p)
    return len(basis)


def _reduce_mod_p(v: Sequence[int], basis: list[tuple[int, list[int]]], p: int) -> list[int]:
    """``v`` mod p, reduced against an echelon ``basis``."""
    v = [x % p for x in v]
    for pivot, b in basis:
        c = v[pivot]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, b)]
    return v


def _echelon_add(v: Sequence[int], basis: list[tuple[int, list[int]]], p: int) -> None:
    """One mod-p echelon step: reduce ``v`` against ``basis``, a list of
    (pivot column, row with 1 there) pairs in which every row is zero at
    the pivots chosen before its own, and append the remainder, scaled to 1
    at its first nonzero entry, when it is not zero."""
    v = _reduce_mod_p(v, basis, p)
    pivot = next((j for j, x in enumerate(v) if x), None)
    if pivot is not None:
        inv = pow(v[pivot], -1, p)
        basis.append((pivot, [x * inv % p for x in v]))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generates(elements: Iterable[Character], group: FiniteAbelianGroup) -> bool:
    """True iff the subgroup closure of the given elements is the whole group.

    A subgroup of the product of the primary parts is the product of its
    projections, and a set generates a p-group exactly when its mod-p images
    span the Frattini quotient F_p^{p-rank}.  So the question is decided by
    one mod-p rank per prime divisor, never by enumerating the group.
    """
    coords = []
    for chi in elements:
        if chi.group != group:
            raise ValueError("elements must belong to the given group")
        coords.append(chi.coords)
    for p in group.prime_divisors():
        idx = group.primary_part(p).indices
        if len(idx) == 1:  # a cyclic p-part: some coordinate must be prime to p
            i = idx[0]
            if not any(c[i] % p for c in coords):
                return False
        elif rank_mod_p([[c[i] for i in idx] for c in coords], p) < len(idx):
            return False
    return True
