"""Automorphisms of a finite abelian character group and their orbits.

An automorphism is carried in two forms at once: an integer matrix (column j
is the image of the j-th standard generator, entries of row i reduced mod
d_i) feeding the mod-p line tests, and the induced permutation of the full
character list feeding orbit computations.

The subgroup preserving an eigenspace-multiplicity map is computed by
closing a standard generating set of the full automorphism group and
filtering, never by stabilizer-chain search; the element cap makes oversized
closures fail loudly instead of silently slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .abelian import DEFAULT_CAP, Character, FiniteAbelianGroup
from .errors import CapExceededError


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of a finite abelian group, as matrix plus permutation."""

    group: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]
    perm: tuple[int, ...]

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
        perm = _permutation_of(group, rows)
        return cls(group, rows, perm)

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "Automorphism":
        k = group.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        return cls(group, rows, tuple(range(group.order)))

    def apply(self, chi: Character) -> Character:
        if chi.group != self.group:
            raise ValueError("character belongs to a different group")
        return self.group.character(self.apply_coords(chi.coords))

    def apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        d = self.group.invariant_factors
        return tuple(
            sum(row[j] * coords[j] for j in range(len(d))) % d[i]
            for i, row in enumerate(self.matrix)
        )

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """Composition: ``(f * g)(x) == f(g(x))``."""
        if not isinstance(other, Automorphism):
            return NotImplemented
        if other.group != self.group:
            raise ValueError("automorphisms of different groups")
        d = self.group.invariant_factors
        k = len(d)
        rows = tuple(
            tuple(
                sum(self.matrix[i][t] * other.matrix[t][j] for t in range(k)) % d[i]
                for j in range(k)
            )
            for i in range(k)
        )
        perm = tuple(self.perm[p] for p in other.perm)
        return Automorphism(self.group, rows, perm)

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))


def _permutation_of(
    group: FiniteAbelianGroup, rows: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    coords_list = group.coordinate_tuples
    d = group.invariant_factors
    k = len(d)
    index_of = group.index_of
    perm = []
    for coords in coords_list:
        image = tuple(
            sum(rows[i][j] * coords[j] for j in range(k)) % d[i] for i in range(k)
        )
        perm.append(index_of(image))
    if len(set(perm)) != len(perm):
        raise ValueError("matrix does not induce a bijection of the characters")
    return tuple(perm)


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
    """Breadth-first closure of a nonempty generator list, in deterministic
    discovery order.  Raises :class:`CapExceededError` when the subgroup
    would exceed ``cap`` elements."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not gens:
        raise ValueError("need at least one automorphism to close over")
    group = gens[0].group
    ident = Automorphism.identity(group)
    seen: dict[tuple[int, ...], Automorphism] = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        new = []
        for b in frontier:
            for g in gens:
                c = g * b
                if c.perm not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(cap)
                    seen[c.perm] = c
                    new.append(c)
        frontier = new
    return list(seen.values())


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
    for chi, m in multiplicity.items():
        if chi.group != group:
            raise ValueError("multiplicity map keyed by foreign characters")
        if m < 0:
            raise ValueError("multiplicities cannot be negative")
        if m:
            mult[group.index_of(chi.coords)] = int(m)
    support = [i for i, m in enumerate(mult) if m]
    full = _cached_full_closure(group, cap)
    if full is None:
        raise CapExceededError(cap)
    elements = [
        a for a in full if all(mult[a.perm[i]] == mult[i] for i in support)
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
    chosen: list[Automorphism] = []
    covered = {Automorphism.identity(group).perm}
    for a in elements:
        if a.perm not in covered:
            chosen.append(a)
            covered = {b.perm for b in close_group(chosen, cap=max(len(elements), 1))}
    return chosen


@dataclass(frozen=True)
class Orbit:
    """One orbit of characters, with its common eigenspace multiplicity."""

    characters: tuple[Character, ...]
    multiplicity: int

    @property
    def size(self) -> int:
        return len(self.characters)


@dataclass(frozen=True)
class OrbitPartition:
    """The partition of all characters into orbits, ordered by their
    lexicographically least representative."""

    group: FiniteAbelianGroup
    orbits: tuple[Orbit, ...]

    def orbit_of(self, chi: Character) -> Orbit:
        return self.orbits[self._orbit_index[chi.coords]]

    @cached_property
    def _orbit_index(self) -> dict[tuple[int, ...], int]:
        return {
            ch.coords: n for n, orb in enumerate(self.orbits) for ch in orb.characters
        }


def orbit_partition(subgroup: AutVSubgroup) -> OrbitPartition:
    """Orbits of the character set under the subgroup, each orbit sorted and
    the orbit list ordered by least representative."""
    group = subgroup.group
    coords_list = group.coordinate_tuples
    n = len(coords_list)
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
        orbits.append(
            Orbit(
                characters=tuple(group.character(coords_list[i]) for i in members),
                multiplicity=mults.pop(),
            )
        )
    return OrbitPartition(group=group, orbits=tuple(orbits))


def induced_mod_p_matrix(a: Automorphism, p: int) -> list[list[int]]:
    """The matrix induced on the F_p space G_p / p*G_p: the submatrix on the
    p-divisible coordinates, reduced mod p."""
    idxs = [i for i, d in enumerate(a.group.invariant_factors) if d % p == 0]
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
