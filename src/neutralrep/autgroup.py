"""Automorphisms of a finite abelian character group and their orbits.

An automorphism is stored as its integer matrix alone: column j is the image
of the j-th standard generator, entries of row i reduced mod d_i.  That form
is canonical, feeds the mod-p line tests, and decides bijectivity without
enumerating the group: a legal matrix is an automorphism exactly when, for
every prime p, its rows on the p-divisible coordinates are independent mod p
within each block of equal p-exponent (Hillar and Rhea, "Automorphisms of
finite abelian groups", 2007).  An orbit is the tuple of its members'
coordinates: no ``Character`` is built until a caller asks.

The subgroup preserving an eigenspace-multiplicity map is found by a
backtrack over matrix rows in lexicographic order, a set-stabilizer search
in the style of Leon ("Permutation group algorithms based on partitions, I",
1991): after row i the first i+1 image coordinates of every support
character must begin a support character of the same multiplicity, and a
row that breaks the mod-p independence is never tried, so every leaf is an
automorphism that maps the support into itself.  Aut(G) is not listed to
find it: its order comes from the Hillar-Rhea closed form, and the element
cap refuses the search before it starts.  The subgroup keeps the support
alone, never a table over all |G| characters.

Orbits come from one walk that applies the subgroup's generator matrices to
coordinate tuples.  The subgroup maps the support onto itself, so the orbits
the criteria read, those of support characters, are walked from the support
alone (``support_orbits``); only the blended decomposition walks all |G|
characters (``orbit_partition``).

Closures of generator lists are built one left coset r*H at a time
(Dimino's algorithm), on column form: an element is the tuple of its
columns, so r is evaluated once on the distinct columns of H and each r*h is
read off by lookups, with no matrix product.  One driver serves
``close_group``, the closure that certificate replay filters, and AutV,
whose backtrack leaves stream into it; it takes generators as row matrices
and returns, beside the closure, the greedy generating subset as row
matrices.  An :class:`Automorphism` is built only where a caller receives
one: the elements ``close_group`` lists and AutV's greedy generators.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .abelian import DEFAULT_CAP, Character, FiniteAbelianGroup, _echelon_add, _reduce_mod_p
from .errors import CapExceededError


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of a finite abelian group, stored as its reduced
    matrix; it acts on character coordinates by the matrix-vector product."""

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
        blocks = _mod_p_blocks(group)
        for i, row in enumerate(rows):
            if not _independence_test(blocks[i], rows)(row):
                raise ValueError("matrix does not induce a bijection of the characters")
        return cls(group, rows)

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "Automorphism":
        k = group.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        return cls(group, rows)

    def apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        d = self.group.invariant_factors
        return tuple([sum(map(mul, row, coords)) % di for row, di in zip(self.matrix, d)])


@lru_cache(maxsize=64)
def _mod_p_blocks(group: FiniteAbelianGroup) -> tuple[tuple[tuple, ...], ...]:
    """For each row i, one (p, columns, rows above) triple per prime p | d_i.

    Entry (i, j) of a legal matrix is divisible by p when d_j has fewer
    factors p than d_i, so mod p the rows and columns at the p-divisible
    coordinates form a block upper triangular matrix whose diagonal blocks
    gather the coordinates of equal p-exponent.  It is invertible exactly
    when each row, on the columns of its block, is independent of the rows
    above it in that block."""
    blocks: list[list[tuple]] = [[] for _ in group.invariant_factors]
    for p in group.prime_divisors():
        pp = group.primary_part(p)
        power = dict(zip(pp.indices, pp.group.invariant_factors))
        for i in pp.indices:
            cols = tuple(j for j in pp.indices if power[j] == power[i])
            blocks[i].append((p, cols, tuple(j for j in cols if j < i)))
    return tuple(map(tuple, blocks))


def _independence_test(
    blocks: Sequence[tuple], rows: Sequence[Sequence[int]]
) -> Callable[[Sequence[int]], bool]:
    """A test of whether a row is independent mod p, on the columns of each
    of its ``blocks``, of the rows of ``rows`` that the block names as above
    it (those rows are independent).  They are brought to echelon form once,
    so each row tested costs one reduction per block."""
    reduced = []
    for p, cols, above in blocks:
        basis: list[tuple[int, list[int]]] = []
        for a in above:
            _echelon_add([rows[a][j] for j in cols], basis, p)
        reduced.append((p, cols, basis))
    return lambda row: all(
        any(_reduce_mod_p([row[j] for j in cols], basis, p)) for p, cols, basis in reduced
    )


@lru_cache(maxsize=256)
def aut_order(group: FiniteAbelianGroup) -> int:
    """|Aut(G)| from the invariant factors alone, by the closed form of
    Hillar and Rhea on each primary part: with p-exponents e_1 <= ... <= e_n,
    d_k = #{l : e_l <= e_k} and c_k = #{l : e_l < e_k} + 1,
    |Aut(G_p)| = prod_k (p^d_k - p^(k-1)) p^(e_k (n - d_k)) p^((e_k - 1)(n - c_k + 1))."""
    total = 1
    for p in group.prime_divisors():
        exps = []
        for q in group.primary_part(p).group.invariant_factors:
            e = 0
            while q > 1:
                q //= p
                e += 1
            exps.append(e)
        n = len(exps)
        for k, e in enumerate(exps, 1):
            d, c = bisect_right(exps, e), bisect_left(exps, e) + 1
            total *= (p**d - p ** (k - 1)) * p ** (e * (n - d) + (e - 1) * (n - c + 1))
    return total


def check_aut_order(group: FiniteAbelianGroup, cap: int) -> None:
    """Raise :class:`CapExceededError`, carrying |Aut(G)|, when it exceeds
    ``cap``; called before any automorphism is listed."""
    order = aut_order(group)
    if order > cap:
        raise CapExceededError(
            cap, f"|Aut(G)| = {order} exceeds the element cap ({cap})", size=order
        )


def aut_generators(group: FiniteAbelianGroup) -> list[Automorphism]:
    """A generating set for the full automorphism group: unit scalings of
    each coordinate, the minimal legal transvections between coordinate
    pairs, and swaps of coordinates with equal invariant factors.

    Each is built as its reduced matrix, which is legal and bijective by
    construction, so none is passed through :meth:`Automorphism.from_matrix`.
    The list is deterministic; it can be empty (trivial group, Z/2).
    """
    d = group.invariant_factors
    k = len(d)
    ident = Automorphism.identity(group).matrix

    def changed(entries: dict[tuple[int, int], int]) -> Automorphism:
        rows = [list(row) for row in ident]
        for (i, j), value in entries.items():
            rows[i][j] = value
        return Automorphism(group, tuple(map(tuple, rows)))

    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    units = [
        {(i, i): u} for i in range(k) for u in range(2, d[i]) if math.gcd(u, d[i]) == 1
    ]
    transvections = [{(i, j): d[i] // math.gcd(d[i], d[j])} for i, j in pairs]
    swaps = [
        {(i, i): 0, (j, j): 0, (i, j): 1, (j, i): 1}
        for i, j in pairs
        if i < j and d[i] == d[j]
    ]
    return [changed(entries) for entries in units + transvections + swaps]


def close_group(
    gens: Sequence[Automorphism], cap: int = DEFAULT_CAP
) -> list[Automorphism]:
    """Closure of a nonempty generator list by coset enumeration (Dimino's
    algorithm) on column form, listed one left coset at a time and starting
    with the identity, in a deterministic order that is not lexicographic.
    Raises :class:`CapExceededError` before listing a coset that would take
    the subgroup past ``cap`` elements, that is, exactly when the closure
    has more than ``cap`` elements."""
    if not gens:
        raise ValueError("need at least one automorphism to close over")
    group = gens[0].group
    columns, _ = _close_columns(group, [a.matrix for a in gens], cap)
    return [Automorphism(group, tuple(zip(*cols))) for cols in columns]


def _close_columns(
    group: FiniteAbelianGroup,
    gens: Iterable[tuple[tuple[int, ...], ...]],
    cap: int = DEFAULT_CAP,
    extra: Sequence[tuple[int, ...]] = (),
) -> tuple[list[tuple], list[tuple]]:
    """``close_group`` in column form, with no :class:`Automorphism` built:
    each element is the tuple of its columns, the images of the standard
    generators, followed by its images of the ``extra`` points; and the
    greedy generating subset, the members of the iterable ``gens`` of row
    matrices (which may be empty) that lay outside the closure of those
    before them."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    # the identity matrix is its own column form
    ident = Automorphism.identity(group).matrix + tuple(extra)
    elements, seen, used = [ident], {ident}, []
    for s in gens:
        _extend_closure(elements, seen, used, s, group.invariant_factors, cap)
    return elements, used


def _images(
    rows: Sequence[Sequence[int]], d: Sequence[int], points: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The image of each point under the matrix with these rows: one
    matrix-vector product per point, each coordinate i reduced mod d_i."""
    rd = list(zip(rows, d))
    return [tuple([sum(map(mul, row, x)) % di for row, di in rd]) for x in points]


def _extend_closure(
    elements: list[tuple], seen: set, used: list[tuple], s: tuple, d: Sequence[int], cap: int
) -> None:
    """Grow ``elements``, the closure of the row matrices ``used`` in column
    form listed identity first, and ``seen``, its set, in place to the
    closure of ``used + [s]``, appending ``s`` to ``used``; do nothing when
    ``s`` lies in the closure already.  The group has invariant factors
    ``d``.  Every element carries, after its k columns, its images of the
    points that follow them in the identity.

    Each left coset r*H of the subgroup H built so far is listed starting
    with r: r is evaluated once on the distinct points among H's elements,
    and r*h, the images of r on the points of h, is looked up from those
    images.  The next representatives t*r are tried for every used
    generator t, by applying t to the points of r."""
    k = len(d)
    if tuple(zip(*s)) + tuple(_images(s, d, elements[0][k:])) in seen:
        return
    subgroup = elements[:]
    points = list(dict.fromkeys(itertools.chain.from_iterable(subgroup)))
    used.append(s)
    rep = 0
    while rep < len(elements):
        g = elements[rep]
        for t in used:
            r = tuple(_images(t, d, g))
            if r not in seen:
                if len(elements) + len(subgroup) > cap:
                    raise CapExceededError(cap)
                image = dict(zip(points, _images(tuple(zip(*r[:k])), d, points)))
                coset = [tuple([image[c] for c in h]) for h in subgroup]
                elements.extend(coset)
                seen.update(coset)
        rep += len(subgroup)


@dataclass(frozen=True)
class AutVSubgroup:
    """The subgroup of automorphisms preserving a multiplicity map.

    ``support`` lists the (coordinates, multiplicity) pairs of the
    characters of nonzero multiplicity, in coordinate order; every other
    character has multiplicity zero, so nothing sized |G| is kept.
    No element list is kept: ``order`` is |AutV|, and ``generator_subset``
    holds each element that, in matrix order, lay outside the closure of
    the ones before it (the greedy generating subset).
    """

    group: FiniteAbelianGroup
    support: tuple[tuple[tuple[int, ...], int], ...]
    order: int
    generator_subset: tuple[Automorphism, ...]


def aut_v_subgroup(
    group: FiniteAbelianGroup,
    multiplicity: Mapping[Character, int],
    cap: int = DEFAULT_CAP,
) -> AutVSubgroup:
    """All automorphisms under which the multiplicity map is invariant.

    Raises :class:`CapExceededError` when |Aut(G)| exceeds ``cap``, before
    any search and before anything sized |G| exists.  Otherwise the
    elements are the leaves of a backtrack over matrix rows
    (``_preserving_matrices``), in lexicographic order of their matrices:
    bijections that map each support character to one of the same
    multiplicity.  Such a bijection permutes each multiplicity class of the
    support, and the map vanishes off the support, so it preserves the map.
    The leaves stream into one closure as row matrices; none is kept, and
    only the greedy generators become :class:`Automorphism` objects.

    The computation lives on the character side.  Transporting to the point
    side is an anti-isomorphism, and since the computed subgroup is closed
    under inverses the two actions give identical orbit partitions.
    """
    support: dict[tuple[int, ...], int] = {}
    for chi, m in multiplicity.items():
        if chi.group != group:
            raise ValueError("multiplicity map keyed by foreign characters")
        if m < 0:
            raise ValueError("multiplicities cannot be negative")
        if m:
            support[chi.coords] = int(m)
    check_aut_order(group, cap)
    elements, used = _close_columns(group, _preserving_matrices(group, support), cap)
    return AutVSubgroup(
        group=group,
        support=tuple(sorted(support.items())),
        order=len(elements),
        generator_subset=tuple(Automorphism(group, rows) for rows in used),
    )


@lru_cache(maxsize=256)
def _candidate_rows(group: FiniteAbelianGroup, i: int) -> tuple[tuple[int, ...], ...]:
    """The legal rows i in lexicographic order, keeping those that can begin
    their block for every prime p | d_i (nonzero mod p on its columns).  For
    a cyclic group these are the units."""
    d = group.invariant_factors
    first = [(p, cols, ()) for p, cols, _ in _mod_p_blocks(group)[i]]
    entries = [range(0, d[i], d[i] // math.gcd(d[i], dj)) for dj in d]
    return tuple(filter(_independence_test(first, ()), itertools.product(*entries)))


def _preserving_matrices(
    group: FiniteAbelianGroup, support: Mapping[tuple[int, ...], int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The automorphism matrices mapping each support character to one of
    the same multiplicity, yielded in lexicographic order, built row by row.

    Row i gives coordinate i of every image, so after it the first i+1
    image coordinates of each support character must begin some support
    character of the same multiplicity.  A row is tried only when it keeps
    the rows independent mod p (``_independence_test``), so every leaf is a
    bijection and every node extends to an automorphism."""
    d = group.invariant_factors
    k = len(d)
    items = list(support.items())
    prefixes = [{(c[: i + 1], m) for c, m in items} for i in range(k)]
    dependent = [tuple(b for b in blocks if b[2]) for blocks in _mod_p_blocks(group)]
    # depth first; children are pushed in reverse so they pop in lex order
    stack: list[tuple[tuple, list]] = [((), [()] * len(items))]
    while stack:
        rows, images = stack.pop()
        i = len(rows)
        if i == k:
            yield rows
            continue
        di, allowed = d[i], prefixes[i]
        independent = _independence_test(dependent[i], rows)
        children = []
        for row in _candidate_rows(group, i):
            grown = []
            for (c, m), image in zip(items, images):
                image += (sum(map(mul, row, c)) % di,)
                if (image, m) not in allowed:
                    break
                grown.append(image)
            else:
                if independent(row):
                    children.append((rows + (row,), grown))
        stack.extend(reversed(children))


@dataclass(frozen=True)
class Orbit:
    """One orbit of characters, held as its members' coordinate tuples in
    lexicographic order, with their common eigenspace multiplicity d.
    ``characters``, ``sum_coords`` (the coordinates of the orbit sum) and
    ``det_character`` (d times the orbit sum, the determinant of the
    orbit's eigenspaces) are built from the members on first use."""

    group: FiniteAbelianGroup
    members: tuple[tuple[int, ...], ...]
    multiplicity: int

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        return tuple(Character(c, self.group) for c in self.members)

    @cached_property
    def sum_coords(self) -> tuple[int, ...]:
        columns = zip(*self.members)
        return tuple(sum(c) % d for c, d in zip(columns, self.group.invariant_factors))

    @cached_property
    def det_character(self) -> Character:
        """Zero without a sum when d = 0."""
        if not self.multiplicity:
            return self.group.zero()
        return self.group.character([self.multiplicity * a for a in self.sum_coords])


def _orbits(subgroup: AutVSubgroup, starts: Iterable[tuple[int, ...]]) -> list[Orbit]:
    """The orbit of each start point under the subgroup, found by applying
    its generator matrices to coordinates, each orbit once and in the order
    of the first start that reaches it.  Raises ``ValueError`` when the
    multiplicity is not constant on an orbit."""
    group, mult, gens = subgroup.group, dict(subgroup.support), subgroup.generator_subset
    seen: set[tuple[int, ...]] = set()
    out = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        m = mult.get(start, 0)
        members = [start]
        for x in members:  # breadth first: the loop reaches what it appends
            for a in gens:
                y = a.apply_coords(x)
                if y not in seen:
                    if mult.get(y, 0) != m:
                        raise ValueError(
                            "multiplicity map is not constant on an orbit; the "
                            "subgroup does not preserve it"
                        )
                    seen.add(y)
                    members.append(y)
        members.sort()
        out.append(Orbit(group, tuple(members), m))
    return out


def support_orbits(subgroup: AutVSubgroup) -> dict[tuple[int, ...], Orbit]:
    """The orbit of each support character, keyed by its coordinates.  The
    subgroup maps the support onto itself, so no character outside it is
    visited."""
    starts = [c for c, _ in subgroup.support]
    return {c: orbit for orbit in _orbits(subgroup, starts) for c in orbit.members}


def orbit_partition(subgroup: AutVSubgroup) -> tuple[Orbit, ...]:
    """Orbits of the whole character set under the subgroup, ordered by
    least member.  Walks all |G| characters; only the blended decomposition
    needs the orbits off the support."""
    starts = itertools.product(*map(range, subgroup.group.invariant_factors))
    return tuple(_orbits(subgroup, starts))


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
