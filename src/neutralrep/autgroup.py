"""Automorphisms of a finite abelian character group and their orbits.

An automorphism is stored as its integer matrix alone: column j is the image
of the j-th standard generator, entries of row i reduced mod d_i.  That form
is canonical, feeds the mod-p line tests, and decides bijectivity without
enumerating the group (a legal matrix is an automorphism exactly when its
mod-p reduction on the p-divisible coordinates is invertible for every prime
p; Hillar and Rhea, "Automorphisms of finite abelian groups", 2007).  The
permutation of the character indices is derived on demand for orbits, which
are tuples of indices: no ``Character`` is built until a caller asks.

The subgroup preserving an eigenspace-multiplicity map is computed by
closing a standard generating set of the full automorphism group and
filtering, never by stabilizer-chain search.  The closure is built coset by
coset (Dimino's algorithm), about one matrix product per element, and the
element cap is checked before each coset is listed, so oversized closures
fail loudly instead of silently slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Mapping, Sequence

from .abelian import DEFAULT_CAP, Character, FiniteAbelianGroup, rank_mod_p
from .errors import CapExceededError


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of a finite abelian group, stored as its matrix.

    ``perm``, the induced permutation of the characters in lexicographic
    order, is derived from the matrix on first use; only orbit computations
    read it.
    """

    group: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    @classmethod
    def from_matrix(
        cls, group: FiniteAbelianGroup, matrix: Sequence[Sequence[int]]
    ) -> "Automorphism":
        """Build from a k x k integer matrix; validates that the matrix
        defines a well-defined bijective endomorphism."""
        d = group.invariant_factors
        k = len(d)
        rows = tuple(
            tuple(int(matrix[i][j]) % d[i] for j in range(k)) for i in range(k)
        )
        for i in range(k):
            for j in range(k):
                step = d[i] // math.gcd(d[i], d[j])
                if rows[i][j] % step:
                    raise ValueError(
                        f"entry ({i},{j}) = {rows[i][j]} must be a multiple of "
                        f"{step} for the map to respect generator orders"
                    )
        a = cls(group, rows)
        for p in group.prime_divisors():
            induced = induced_mod_p_matrix(a, p)
            if rank_mod_p(induced, p) < len(induced):
                raise ValueError("matrix does not induce a bijection of the characters")
        return a

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "Automorphism":
        k = group.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        return cls(group, rows)

    def apply(self, chi: Character) -> Character:
        if chi.group != self.group:
            raise ValueError("character belongs to a different group")
        return self.group.character(self.apply_coords(chi.coords))

    def apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        d = self.group.invariant_factors
        return tuple([sum(map(mul, row, coords)) % di for row, di in zip(self.matrix, d)])

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """Composition: ``(f * g)(x) == f(g(x))``."""
        if not isinstance(other, Automorphism):
            return NotImplemented
        if other.group != self.group:
            raise ValueError("automorphisms of different groups")
        cols = tuple(zip(*other.matrix))
        rows = tuple(
            tuple([sum(map(mul, row, col)) % di for col in cols])
            for row, di in zip(self.matrix, self.group.invariant_factors)
        )
        return Automorphism(self.group, rows)

    @property
    def is_identity(self) -> bool:
        return self == Automorphism.identity(self.group)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        apply, index_of = self.apply_coords, self.group.index_of
        return tuple(index_of(apply(c)) for c in self.group.coordinate_tuples)


def aut_generators(group: FiniteAbelianGroup) -> list[Automorphism]:
    """A generating set for the full automorphism group: unit scalings of
    each coordinate, the minimal legal transvections between coordinate
    pairs, and swaps of coordinates with equal invariant factors.

    The list is deterministic; it can be empty (trivial group, Z/2).
    """
    d = group.invariant_factors
    k = len(d)
    gens: list[Automorphism] = []

    def base():
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    for i in range(k):
        for u in range(2, d[i]):
            if math.gcd(u, d[i]) == 1:
                M = base()
                M[i][i] = u
                gens.append(Automorphism.from_matrix(group, M))
    for i in range(k):
        for j in range(k):
            if i != j:
                M = base()
                M[i][j] = d[i] // math.gcd(d[i], d[j])
                gens.append(Automorphism.from_matrix(group, M))
    for i in range(k):
        for j in range(i + 1, k):
            if d[i] == d[j]:
                M = base()
                M[i][i] = M[j][j] = 0
                M[i][j] = M[j][i] = 1
                gens.append(Automorphism.from_matrix(group, M))
    return gens


def close_group(
    gens: Sequence[Automorphism], cap: int = DEFAULT_CAP
) -> list[Automorphism]:
    """Closure of a nonempty generator list by coset enumeration (Dimino's
    algorithm), in a deterministic order starting with the identity.
    Raises :class:`CapExceededError` before listing a coset that would take
    the subgroup past ``cap`` elements, that is, exactly when the closure
    has more than ``cap`` elements."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not gens:
        raise ValueError("need at least one automorphism to close over")
    ident = Automorphism.identity(gens[0].group)
    elements, seen, used = [ident], {ident.matrix}, []
    for s in gens:
        _extend_closure(elements, seen, used, s, cap)
    return elements


def _extend_closure(
    elements: list[Automorphism], seen: set, used: list[Automorphism], s: Automorphism, cap: int
) -> None:
    """Grow ``elements``, the closure of ``used`` listed identity first, and
    ``seen``, its matrices, in place to the closure of ``used + [s]``.  Each
    right coset H*r of the subgroup H built so far is listed starting with r,
    and r*t is tried for every such r and used generator t."""
    if s.matrix in seen:
        return
    subgroup = elements[:]
    used.append(s)
    rep = 0
    while rep < len(elements):
        for t in used:
            r = elements[rep] * t
            if r.matrix not in seen:
                if len(elements) + len(subgroup) > cap:
                    raise CapExceededError(cap)
                coset = [r] + [h * r for h in subgroup[1:]]
                elements.extend(coset)
                seen.update(a.matrix for a in coset)
        rep += len(subgroup)


@lru_cache(maxsize=64)
def _cached_full_closure(
    group: FiniteAbelianGroup, cap: int
) -> tuple[Automorphism, ...] | None:
    """The full closure, or None when it outgrows the cap: ``lru_cache``
    does not keep exceptions, so the failure is cached as a value instead
    of being enumerated again on every call."""
    gens = aut_generators(group)
    if not gens:
        return (Automorphism.identity(group),)
    try:
        return tuple(close_group(gens, cap))
    except CapExceededError:
        return None


@dataclass(frozen=True)
class AutVSubgroup:
    """The subgroup of automorphisms preserving a multiplicity map.

    ``multiplicity_by_index`` assigns each character (in lexicographic
    order) its eigenspace dimension, zero off the support.  ``elements`` is
    the complete subgroup sorted lexicographically by matrix;
    ``generator_subset`` is a greedily chosen generating subset (every
    member was outside the closure of its predecessors).
    """

    group: FiniteAbelianGroup
    multiplicity_by_index: tuple[int, ...]
    elements: tuple[Automorphism, ...]
    generator_subset: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def aut_v_subgroup(
    group: FiniteAbelianGroup,
    multiplicity: Mapping[Character, int],
    cap: int = DEFAULT_CAP,
) -> AutVSubgroup:
    """All automorphisms under which the multiplicity map is invariant.

    Closes the full automorphism group (cached per group and cap) and keeps
    the elements matching the map on its support; matching on the support
    forces matching everywhere because the map vanishes off it.

    The computation lives on the character side.  Transporting to the point
    side is an anti-isomorphism, and since the computed subgroup is closed
    under inverses the two actions give identical orbit partitions.
    """
    mult = [0] * group.order
    support: dict[tuple[int, ...], int] = {}
    for chi, m in multiplicity.items():
        if chi.group != group:
            raise ValueError("multiplicity map keyed by foreign characters")
        if m < 0:
            raise ValueError("multiplicities cannot be negative")
        if m:
            mult[group.index_of(chi.coords)] = support[chi.coords] = int(m)
    full = _cached_full_closure(group, cap)
    if full is None:
        raise CapExceededError(cap)
    elements = [
        a
        for a in full
        if all(support.get(a.apply_coords(c)) == m for c, m in support.items())
    ]
    elements.sort(key=lambda a: a.matrix)
    return AutVSubgroup(
        group=group,
        multiplicity_by_index=tuple(mult),
        elements=tuple(elements),
        generator_subset=tuple(_greedy_generators(group, elements)),
    )


def _greedy_generators(
    group: FiniteAbelianGroup, elements: Sequence[Automorphism]
) -> list[Automorphism]:
    ident = Automorphism.identity(group)
    closure, covered, chosen = [ident], {ident.matrix}, []
    for a in elements:
        _extend_closure(closure, covered, chosen, a, cap=len(elements))
    return chosen


@dataclass(frozen=True)
class Orbit:
    """One orbit of characters, held as its members' sorted lexicographic
    indices, with their common eigenspace multiplicity.  ``characters`` and
    ``sum_coords``, the coordinates of the orbit sum, are built on first use."""

    group: FiniteAbelianGroup
    indices: tuple[int, ...]
    multiplicity: int

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        group, coords = self.group, self.group.coordinate_tuples
        return tuple(Character(coords[i], group) for i in self.indices)

    @cached_property
    def sum_coords(self) -> tuple[int, ...]:
        columns = zip(*(self.group.coordinate_tuples[i] for i in self.indices))
        return tuple(sum(c) % d for c, d in zip(columns, self.group.invariant_factors))


@dataclass(frozen=True)
class OrbitPartition:
    """The partition of all characters into orbits, ordered by their least
    members; ``orbit_of`` looks a character up by its index."""

    group: FiniteAbelianGroup
    orbits: tuple[Orbit, ...]

    def orbit_of(self, chi: Character) -> Orbit:
        return self.orbits[self._orbit_number[self.group.index_of(chi.coords)]]

    @cached_property
    def _orbit_number(self) -> dict[int, int]:
        return {i: n for n, orbit in enumerate(self.orbits) for i in orbit.indices}


def orbit_partition(subgroup: AutVSubgroup) -> OrbitPartition:
    """Orbits of the character set under the subgroup, each orbit sorted and
    the orbit list ordered by least representative."""
    group = subgroup.group
    n = group.order
    perms = [a.perm for a in subgroup.generator_subset] or [tuple(range(n))]
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            x = stack.pop()
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
                    stack.append(y)
        members.sort()
        mults = {subgroup.multiplicity_by_index[i] for i in members}
        if len(mults) != 1:
            raise ValueError(
                "multiplicity map is not constant on an orbit; the subgroup "
                "does not preserve it"
            )
        orbits.append(Orbit(group, tuple(members), mults.pop()))
    return OrbitPartition(group=group, orbits=tuple(orbits))


def induced_mod_p_matrix(a: Automorphism, p: int) -> list[list[int]]:
    """The matrix induced on the F_p space G_p / p*G_p: the submatrix on the
    p-divisible coordinates, reduced mod p."""
    idxs = a.group.primary_part(p).indices
    return [[a.matrix[i][j] % p for j in idxs] for i in idxs]


def is_scalar_matrix_mod_p(matrix: Sequence[Sequence[int]], p: int) -> bool:
    """True iff the square F_p matrix is a nonzero scalar multiple of the
    identity."""
    n = len(matrix)
    if n == 0:
        return True
    lam = matrix[0][0] % p
    if lam == 0:
        return False
    for i in range(n):
        for j in range(n):
            if (matrix[i][j] - (lam if i == j else 0)) % p:
                return False
    return True


def acts_trivially_on_lines(subgroup: AutVSubgroup, p: int) -> bool:
    """Does the subgroup fix every line of G_p / p*G_p?

    A linear map fixing every line of an F_p space is a scalar, and scalars
    are closed under composition, so checking the generators for scalar
    shape decides the whole subgroup.  With at most one p-divisible
    coordinate there is at most one line and the action is always trivial.
    """
    if subgroup.group.p_rank(p) <= 1:
        return True
    return all(
        is_scalar_matrix_mod_p(induced_mod_p_matrix(a, p), p)
        for a in subgroup.generator_subset
    )
