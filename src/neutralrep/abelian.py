"""Arithmetic of finite abelian groups presented as character groups.

A group is stored canonically by its invariant factors d_1 | d_2 | ... | d_k
(all >= 2; the empty list is the trivial group).  Elements -- "characters",
written additively -- are reduced coordinate tuples.  On top of that the
module provides Smith normal form over the integers, construction from
relation matrices or arbitrary cyclic-factor lists, primary parts and mod-p
reductions, and subgroup generation / membership tests.

All types are immutable after construction and all operations are pure, so
values can be shared freely across concurrent tasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadCoordinateLengthError,
    CapExceededError,
    InfiniteGroupError,
    InvalidInvariantFactorsError,
    NonCyclicPrimaryPartError,
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


def _identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    U = _identity_matrix(m)
    W = _identity_matrix(n)

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
    makes equality and hashing trivial; constructors that accept other
    presentations (`from_relations`, `from_cyclic_factors`) normalize first.
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

    @classmethod
    def from_cyclic_factors(cls, moduli: Sequence[int]) -> "CyclicFactorPresentation":
        """Normalize a direct sum of cyclic groups Z/n_1 + ... + Z/n_r.

        Returns a :class:`CyclicFactorPresentation` whose ``group`` is the
        invariant-factor form and whose ``character`` method converts
        coordinates given in the original factors.  The conversion is the
        canonical one: per prime, the p-power component of each original
        coordinate is carried over unchanged, so primary projections commute
        with the re-coordinatization.
        """
        return CyclicFactorPresentation.build(cls, moduli)

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
        return tuple(sorted(prime_factorization(self.order))) if not self.is_trivial else ()

    def prime_divisors(self) -> tuple[int, ...]:
        return self._prime_divisors

    def __str__(self):
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)

    # -- elements ------------------------------------------------------------

    def zero(self) -> "Character":
        return Character((0,) * self.rank, self)

    def character(self, coords: Sequence[int]) -> "Character":
        return Character(tuple(coords), self)

    def characters(self) -> Iterator["Character"]:
        """All characters in lexicographic coordinate order."""
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield Character(coords, self)

    @cached_property
    def coordinate_tuples(self) -> tuple[tuple[int, ...], ...]:
        """All coordinate tuples, lexicographic.  Materializes |G| tuples."""
        return tuple(itertools.product(*(range(d) for d in self.invariant_factors)))

    @cached_property
    def _index_weights(self) -> tuple[int, ...]:
        weights = []
        w = 1
        for d in reversed(self.invariant_factors):
            weights.append(w)
            w *= d
        return tuple(reversed(weights))

    def index_of(self, coords: Sequence[int]) -> int:
        """Position of a reduced coordinate tuple in lexicographic order."""
        return sum(a * w for a, w in zip(coords, self._index_weights))

    # -- structure -----------------------------------------------------------

    def primary_part(self, p: int) -> "PrimaryPart":
        """The p-primary direct summand, with the parent coordinates it uses.
        Built once per prime and kept on the group; its ``indices`` are the
        one place that decides which coordinates are divisible by p."""
        pp = self._primary_parts.get(p)
        if pp is not None:
            return pp
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        indices = []
        powers = []
        for i, d in enumerate(self.invariant_factors):
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                indices.append(i)
                powers.append(p**e)
        pp = self._primary_parts[p] = PrimaryPart(
            prime=p,
            group=FiniteAbelianGroup(tuple(powers)),
            parent=self,
            indices=tuple(indices),
        )
        return pp

    @cached_property
    def _primary_parts(self) -> dict[int, "PrimaryPart"]:
        return {}

    def p_rank(self, p: int) -> int:
        """Number of invariant factors divisible by p."""
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def subgroup(self, generators: Iterable["Character"]) -> "Subgroup":
        gens = tuple(generators)
        for g in gens:
            if g.group != self:
                raise ValueError("subgroup generators must belong to this group")
        return Subgroup(gens, self)


@dataclass(frozen=True)
class Character:
    """An element of a character group, stored as a reduced coordinate tuple.

    Arithmetic reduces eagerly, so two equal characters always carry
    identical coordinates.
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

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        if other.group != self.group:
            raise ValueError("characters belong to different groups")
        return Character(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.group
        )

    def __neg__(self) -> "Character":
        return Character(tuple(-a for a in self.coords), self.group)

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __mul__(self, n: int) -> "Character":
        if not isinstance(n, int):
            return NotImplemented
        return Character(tuple(n * a for a in self.coords), self.group)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

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

    prime: int
    group: FiniteAbelianGroup
    parent: FiniteAbelianGroup
    indices: tuple[int, ...]


@dataclass(frozen=True)
class CyclicFactorPresentation:
    """A group given as Z/n_1 + ... + Z/n_r together with the canonical
    conversion of presentation coordinates into the normalized group."""

    moduli: tuple[int, ...]
    group: FiniteAbelianGroup
    # slot s of the normalized group collects, per prime p, the p-power part
    # of presentation coordinate _source[s][p]
    _sources: tuple[tuple[tuple[int, int, int], ...], ...]  # (prime_power, prime, coord)

    @classmethod
    def build(cls, group_cls, moduli: Sequence[int]) -> "CyclicFactorPresentation":
        mods = tuple(int(n) for n in moduli)
        if any(n < 1 for n in mods):
            raise InvalidInvariantFactorsError("cyclic factor moduli must be >= 1")
        # per prime: list of (exponent, source coordinate), largest exponent first
        per_prime: dict[int, list[tuple[int, int]]] = {}
        for j, n in enumerate(mods):
            for p, e in prime_factorization(n).items():
                per_prime.setdefault(p, []).append((e, j))
        for entries in per_prime.values():
            entries.sort(key=lambda t: (-t[0], t[1]))
        depth = max((len(v) for v in per_prime.values()), default=0)
        # slot 0 is the largest invariant factor; build then reverse
        slots: list[list[tuple[int, int, int]]] = [[] for _ in range(depth)]
        for p in sorted(per_prime):
            for s, (e, j) in enumerate(per_prime[p]):
                slots[s].append((p**e, p, j))
        factors = tuple(math.prod(q for q, _, _ in slot) for slot in reversed(slots))
        return cls(mods, group_cls(factors), tuple(tuple(s) for s in reversed(slots)))

    def character(self, coords: Sequence[int]) -> Character:
        """Convert presentation coordinates to the normalized group."""
        coords = tuple(int(a) for a in coords)
        if len(coords) != len(self.moduli):
            raise BadCoordinateLengthError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        out = []
        for slot in self._sources:
            residues = [(coords[j] % q, q) for q, _, j in slot]
            out.append(_crt(residues))
        return self.group.character(out)


def _crt(residues: list[tuple[int, int]]) -> int:
    """Chinese remainder recombination for pairwise coprime moduli."""
    x, m = 0, 1
    for r, q in residues:
        # solve x' = x (mod m), x' = r (mod q)
        inv = pow(m, -1, q)
        x = x + m * ((r - x) * inv % q)
        m *= q
    return x


# ---------------------------------------------------------------------------
# Primary projections and mod-p images
# ---------------------------------------------------------------------------


def primary_projection(chi: Character, p: int) -> Character:
    """The image of a character under the restriction to the p-primary part.

    Concretely, in a coordinate with invariant factor p^e * m (p not dividing
    m) the image coordinate is the mod-p^e reduction; this equals eps * a
    mod p^e for the CRT idempotent eps = 1 mod p^e, 0 mod m.  When p does not
    divide the group order the primary part is trivial and the image is zero.
    """
    pp = chi.group.primary_part(p)
    coords = tuple(
        chi.coords[i] % q for i, q in zip(pp.indices, pp.group.invariant_factors)
    )
    return pp.group.character(coords)


def mod_p_image(chi: Character, p: int) -> tuple[int, ...]:
    """The image of the p-primary projection in the F_p vector space
    G_p / p*G_p: the coordinates mod p at the p-divisible positions."""
    return tuple(chi.coords[i] % p for i in chi.group.primary_part(p).indices)


def rank_mod_p(vectors: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a list of F_p row vectors.

    Each row is reduced against the echelon basis of the rows before it
    (every basis row is zero at the pivots chosen before its own), and the
    scan stops once the basis spans the whole row space.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row with 1 there)
    for v in vectors:
        row = [x % p for x in v]
        for col, b in basis:
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, b)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            inv = pow(row[col], -1, p)
            basis.append((col, [x * inv % p for x in row]))
            if len(basis) == len(row):
                break
    return len(basis)


# ---------------------------------------------------------------------------
# Subgroups: generation and membership
# ---------------------------------------------------------------------------


def generates(elements: Iterable[Character], group: FiniteAbelianGroup) -> bool:
    """True iff the subgroup closure of the given elements is the whole group.

    A subgroup of the product of the primary parts is the product of its
    projections, and a set generates a p-group exactly when its mod-p images
    span the Frattini quotient F_p^{p-rank}.  So the question is decided by
    one mod-p rank per prime divisor, never by enumerating the group.
    """
    gens = list(elements)
    for chi in gens:
        if chi.group != group:
            raise ValueError("elements must belong to the given group")
    for p in group.prime_divisors():
        idx = group.primary_part(p).indices
        if rank_mod_p([[chi.coords[i] for i in idx] for chi in gens], p) < len(idx):
            return False
    return True


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a character group, held by a generating set.

    Membership is decided exactly by solving the defining linear system over
    Z via Smith normal form, so it never enumerates the subgroup.
    """

    generators: tuple[Character, ...]
    group: FiniteAbelianGroup

    @cached_property
    def _snf_data(self):
        k = self.group.rank
        d = self.group.invariant_factors
        s = len(self.generators)
        # columns: generator coordinates, then the relation lattice diag(d)
        M = [
            [self.generators[j].coords[i] for j in range(s)]
            + [d[i] if j == i else 0 for j in range(k)]
            for i in range(k)
        ]
        U, D, _ = smith_normal_form(M)
        return U, [D[i][i] for i in range(k)]

    def contains(self, chi: Character) -> bool:
        if chi.group != self.group:
            raise ValueError("character belongs to a different group")
        k = self.group.rank
        if k == 0:
            return True
        U, diag = self._snf_data
        for i in range(k):
            y = sum(U[i][j] * chi.coords[j] for j in range(k))
            if diag[i] == 0:
                if y != 0:
                    return False
            elif y % diag[i]:
                return False
        return True

    @cached_property
    def order(self) -> int:
        if self.group.rank == 0:
            return 1
        _, diag = self._snf_data
        return self.group.order // math.prod(diag)

    def elements(self, cap: int = DEFAULT_CAP) -> tuple[Character, ...]:
        """Enumerate the subgroup by breadth-first closure, sorted
        lexicographically; raises :class:`CapExceededError` past ``cap``."""
        d = self.group.invariant_factors
        gens = [g.coords for g in self.generators]
        zero = (0,) * len(d)
        seen = {zero}
        frontier = [zero]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = tuple((a + b) % di for a, b, di in zip(x, g, d))
                    if y not in seen:
                        if len(seen) >= cap:
                            raise CapExceededError(cap)
                        seen.add(y)
                        new.append(y)
            frontier = new
        return tuple(self.group.character(c) for c in sorted(seen))


def restriction_faithful_on_primary(chi: Character, p: int) -> bool:
    """For cyclic p-primary part: does the restriction of ``chi`` to the
    p-Sylow subgroup have trivial kernel, i.e. does its primary projection
    generate the whole primary part?

    Raises :class:`NonCyclicPrimaryPartError` when the p-rank exceeds 1 --
    a single character is then never faithful, and silently answering False
    would hide a misuse.
    """
    pp = chi.group.primary_part(p)
    rank = pp.group.rank
    if rank > 1:
        raise NonCyclicPrimaryPartError(
            f"{p}-primary part has rank {rank}; a single character "
            "cannot restrict faithfully"
        )
    if rank == 0:
        return True
    return primary_projection(chi, p).coords[0] % p != 0


def character_sum(chars: Iterable[Character], group: FiniteAbelianGroup) -> Character:
    """Sum of characters (the zero of ``group`` when the iterable is empty)."""
    return reduce(lambda a, b: a + b, chars, group.zero())
