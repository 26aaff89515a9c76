"""Automorphisms of a finite abelian character group and their orbits.

An automorphism is its integer row matrix, a tuple of rows: column j is the
image of the j-th standard generator, entries of row i reduced mod d_i.  That
form is canonical, feeds the mod-p line tests, and decides bijectivity
without enumerating the group: a legal matrix is an automorphism exactly
when, for every prime p, its rows on the p-divisible coordinates are
independent mod p within each block of equal p-exponent (Hillar and Rhea,
"Automorphisms of finite abelian groups", 2007).  An orbit is the tuple of its members'
coordinates: no ``Character`` is built until a caller asks.

The subgroup AutV preserving an eigenspace-multiplicity map is found on a
cyclic group Z/n by arithmetic on units: a unit acts on the support through
its residue mod L, the lcm of the support's orders, and the support
character of largest order leaves that residue at most as many values as
its multiplicity class has members, so the work is sized by the support
and by |AutV|, not by the phi(n) units.  Above rank 1 it is found by a
backtrack over matrix rows in lexicographic order, a set-stabilizer search
in the style of Leon ("Permutation group algorithms based on partitions, I",
1991): after row i the first i+1 image coordinates of every support
character must begin a support character of the same multiplicity, and a
row that breaks the mod-p independence is never tried, so every leaf is an
automorphism that maps the support into itself.  Neither path lists
Aut(G): its order comes from the Hillar-Rhea closed form, and the element
cap refuses the search before it starts.  The subgroup keeps the support
alone, never a table over all |G| characters.

Orbits come from one walk that applies the subgroup's generator matrices to
coordinate tuples and sums each orbit as it closes it, so an :class:`Orbit`,
a named tuple, carries its sum as a plain field.  The subgroup maps the
support onto itself, so the orbits the criteria read, those of support
characters, are walked from the support alone (``support_orbits``, which
builds no ``Character``); only the blended decomposition walks all |G|
characters (``orbit_partition``).

Closures of generator lists are built one left coset r*H at a time
(Dimino's algorithm), on column form: an element is the tuple of its
columns, so r is evaluated once on the distinct columns of H and each r*h is
picked from those images by index, with no matrix product.  The next
representatives t*r read each generator t's images of points from a memo
kept for the whole closure, so a point costs one product per generator.
The driver serves the checker's AutV above rank 1, whose backtrack leaves
stream into it, and the public ``close_group``.  It takes generators as
row matrices and returns, beside the closure in column form, the greedy
generating subset as row matrices.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .abelian import (
    DEFAULT_CAP,
    Character,
    FiniteAbelianGroup,
    _echelon_add,
    _reduce_mod_p,
    identity_matrix,
)
from .errors import CapExceededError


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


def aut_generators(group: FiniteAbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """A generating set for the full automorphism group, as row matrices:
    unit scalings of each coordinate, then the minimal legal transvections
    between coordinate pairs, each legal and bijective by construction.

    No swap of coordinates is listed: when d_i = d_j the transvections
    between i and j have entry 1, and E_ij(1) E_ji(-1) E_ij(1), with
    E_ji(-1) a power of E_ji(1), followed by the scaling of coordinate j
    by -1 is the swap, so the closure holds every swap already.  The list
    is deterministic; it can be empty (trivial group, Z/2).
    """
    d = group.invariant_factors
    k = len(d)
    ident = identity_matrix(k)

    def changed(i: int, j: int, value: int) -> tuple[tuple[int, ...], ...]:
        rows = [list(row) for row in ident]
        rows[i][j] = value
        return tuple(map(tuple, rows))

    units = [changed(i, i, u) for i in range(k) for u in range(2, d[i]) if math.gcd(u, d[i]) == 1]
    transvections = [
        changed(i, j, d[i] // math.gcd(d[i], d[j])) for i in range(k) for j in range(k) if i != j
    ]
    return units + transvections


def close_group(
    group: FiniteAbelianGroup,
    gens: Iterable[tuple[tuple[int, ...], ...]],
    cap: int = DEFAULT_CAP,
) -> list[tuple]:
    """Closure of the row matrices ``gens`` (which may be empty) by coset
    enumeration (Dimino's algorithm), in column form: each element is the
    tuple of its columns, the images of the standard generators.  It is
    listed one left coset at a time, starting with the identity, in a
    deterministic order that is not lexicographic.  Raises
    :class:`CapExceededError` before listing a coset that would take the
    subgroup past ``cap`` elements, that is, exactly when the closure has
    more than ``cap`` elements."""
    return _close_columns(group, gens, cap)[0]


def _close_columns(
    group: FiniteAbelianGroup,
    gens: Iterable[tuple[tuple[int, ...], ...]],
    cap: int = DEFAULT_CAP,
) -> tuple[list[tuple], list[tuple]]:
    """``close_group``'s closure, and the greedy generating subset: the
    members of ``gens`` that lay outside the closure of those before them,
    as row matrices."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    # the identity matrix is its own column form
    ident = identity_matrix(group.rank)
    elements, seen, memos = [ident], {ident}, []
    for s in gens:
        _extend_closure(elements, seen, memos, s, group.invariant_factors, cap)
    return elements, [memo.rows for memo in memos]


def _images(
    rows: Sequence[Sequence[int]], d: Sequence[int], points: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The image of each point under the matrix with these rows: one
    matrix-vector product per point, each coordinate i reduced mod d_i."""
    rd = list(zip(rows, d))
    return [tuple([sum(map(mul, row, x)) % di for row, di in rd]) for x in points]


class _ImageMemo(dict):
    """The images of points under the matrix with rows ``rows``, each
    computed by ``_images`` on its first lookup and kept."""

    __slots__ = ("rows", "d")

    def __init__(self, rows: Sequence[Sequence[int]], d: Sequence[int]) -> None:
        self.rows, self.d = rows, d

    def __missing__(self, x: tuple[int, ...]) -> tuple[int, ...]:
        y = self[x] = _images(self.rows, self.d, (x,))[0]
        return y


def _extend_closure(
    elements: list[tuple], seen: set, memos: list, s: tuple, d: Sequence[int], cap: int
) -> None:
    """Grow ``elements``, the closure in column form, listed identity first,
    of the row matrices of ``memos``, and ``seen``, its set, in place to the
    closure of those and ``s``, appending a memo of ``s`` to ``memos``; do
    nothing when ``s`` lies in the closure already.  The group has
    invariant factors ``d``.

    Each left coset r*H of the subgroup H built so far is listed starting
    with r: r is evaluated once on the distinct points among H's elements,
    into a plain list, and each r*h is picked from that list by an
    ``itemgetter`` over the positions of h's points, built once per call.
    An element of width 1 is its one point, so H's points are its elements
    in order and the coset is that list, each image wrapped in a tuple.
    The next representatives t*r are tried for every generator t, through
    its memo, which the whole closure shares, so a distinct point costs at
    most one product per generator; the memo of ``s`` starts from its
    images of the identity's points, which the membership test computed."""
    ident = elements[0]
    first = tuple(zip(*s))
    if first in seen:
        return
    size = len(elements)
    points = list(dict.fromkeys(itertools.chain.from_iterable(elements)))
    if len(ident) == 1:  # each element is its one point: H's points, in order
        picks = None
    else:
        position = dict(zip(points, range(len(points))))
        picks = [itemgetter(*map(position.__getitem__, h)) for h in elements]
    memo = _ImageMemo(s, d)
    memo.update(zip(ident, first))
    memos.append(memo)
    lookups = [m.__getitem__ for m in memos]
    rep = 0
    while rep < len(elements):
        g = elements[rep]
        for lookup in lookups:
            r = tuple(map(lookup, g))
            if r not in seen:
                if len(elements) + size > cap:
                    raise CapExceededError(cap)
                images = _images(tuple(zip(*r)), d, points)
                coset = list(zip(images)) if picks is None else [pick(images) for pick in picks]
                elements.extend(coset)
                seen.update(coset)
        rep += size


class AutVSubgroup(NamedTuple):
    """The subgroup of automorphisms preserving a multiplicity map.

    ``support`` lists the (coordinates, multiplicity) pairs of the
    characters of nonzero multiplicity, in coordinate order; every other
    character has multiplicity zero, so nothing sized |G| is kept.
    No element list is kept: ``order`` is |AutV|, and ``generator_subset``
    holds the row matrix of each element that, in matrix order, lay outside
    the closure of the ones before it (the greedy generating subset).
    """

    group: FiniteAbelianGroup
    support: tuple[tuple[tuple[int, ...], int], ...]
    order: int
    generator_subset: tuple[tuple[tuple[int, ...], ...], ...]


def aut_v_subgroup(
    group: FiniteAbelianGroup,
    multiplicity: Mapping[Character, int],
    cap: int = DEFAULT_CAP,
) -> AutVSubgroup:
    """All automorphisms under which the multiplicity map is invariant.

    Raises :class:`CapExceededError` when |Aut(G)| exceeds ``cap``, before
    any search and before anything sized |G| exists.  The elements are the
    bijections that map each support character to one of the same
    multiplicity.  Such a bijection permutes each multiplicity class of the
    support, and the map vanishes off the support, so it preserves the map.
    On a cyclic group they are units found by arithmetic
    (``_cyclic_aut_v``), which never lists the units it rules out.  Above
    rank 1 they are the leaves of a backtrack over matrix rows
    (``_preserving_matrices``), in lexicographic order of their matrices,
    streamed into one closure as row matrices; none is kept but the greedy
    generators.  Both paths give the same greedy generators, those of the
    elements in matrix order.

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
    if group.rank == 1:
        order, used = _cyclic_aut_v(group, support)
    else:
        elements, used = _close_columns(group, _preserving_matrices(group, support), cap)
        order = len(elements)
    return AutVSubgroup(
        group=group,
        support=tuple(sorted(support.items())),
        order=order,
        generator_subset=tuple(used),
    )


def _cyclic_aut_v(
    group: FiniteAbelianGroup, support: Mapping[tuple[int, ...], int]
) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """|AutV| and its greedy generators on G = Z/n, by arithmetic on units.

    A unit u acts on a character c of order n_c = n / g, g = gcd(c, n),
    through u mod n_c, so it acts on the support through u mod L, L the
    lcm of the support's orders: AutV is the preimage of AutV_L in
    (Z/L)^x, and |AutV| = |AutV_L| phi(n) / phi(L), where phi(n) is
    |Aut(G)|.  The support character c of largest order pins u mod n_c:
    u c = s needs gcd(s, n) = g and forces u = (s/g) (c/g)^-1 mod n_c, one
    residue per s of c's multiplicity.  Their lifts to L that are units
    and map every support character to one of the same multiplicity are
    AutV_L.

    The generators are the backtrack's: the members of AutV in increasing
    order, each kept when it lies outside the closure of those before it.
    The closure is a set of units, grown by whole cosets, and the scan
    stops when it holds |AutV| of them."""
    n = group.invariant_factors[0]
    classes: dict[int, set[int]] = {}
    for (c,), m in support.items():
        classes.setdefault(m, set()).add(c)
    orders = {c: n // math.gcd(c, n) for (c,) in support}
    lcm = math.lcm(*orders.values())
    residues = [0]  # AutV_1, when the support is empty
    if support:
        top = max(orders, key=orders.get)
        nt = orders[top]
        g = n // nt
        inverse = pow(top // g, -1, nt)
        targets = [(c, classes[m]) for (c,), m in support.items()]
        residues = sorted(
            v
            for s in classes[support[(top,)]]
            if math.gcd(s, n) == g
            for v in range(s // g * inverse % nt, lcm, nt)
            if math.gcd(v, lcm) == 1 and all(v * c % n in cls for c, cls in targets)
        )
    phi_lcm = lcm  # phi(L), from the primes of n that divide L
    for p in group.prime_divisors():
        if lcm % p == 0:
            phi_lcm = phi_lcm // p * (p - 1)
    order = len(residues) * aut_order(group) // phi_lcm
    lifts = (base + v for base in range(0, n, lcm) for v in residues)
    members = (u for u in lifts if math.gcd(u, n) == 1)
    closure, used = {1}, []
    while len(closure) < order:
        u = next(members)
        if u not in closure:
            used.append(((u,),))
            coset, x = list(closure), u
            while x not in closure:  # <H, u> is the union of the cosets u^k H
                closure.update([x * h % n for h in coset])
                x = x * u % n
    return order, used


@lru_cache(maxsize=256)
def _candidate_rows(group: FiniteAbelianGroup, i: int) -> tuple[tuple[int, ...], ...]:
    """The legal rows i in lexicographic order, keeping those that can begin
    their block for every prime p | d_i (nonzero mod p on its columns).
    Only the row backtrack reads them, so ``aut_v_subgroup`` lists them
    only above rank 1."""
    d = group.invariant_factors
    blocks = [(p, cols) for p, cols, _ in _mod_p_blocks(group)[i]]
    entries = [range(0, d[i], d[i] // math.gcd(d[i], dj)) for dj in d]
    return tuple(
        row
        for row in itertools.product(*entries)
        if all(any(row[j] % p for j in cols) for p, cols in blocks)
    )


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


class Orbit(NamedTuple):
    """One orbit of characters, held as its members' coordinate tuples in
    lexicographic order, with their common eigenspace multiplicity d and
    ``sum_coords``, the coordinates of the orbit sum, which the walk that
    found the orbit computed.  ``characters`` and ``det_character`` build
    their ``Character`` values on each read."""

    group: FiniteAbelianGroup
    members: tuple[tuple[int, ...], ...]
    multiplicity: int
    sum_coords: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def characters(self) -> tuple[Character, ...]:
        return tuple([Character(c, self.group) for c in self.members])

    @property
    def det_character(self) -> Character:
        """The determinant of the orbit's eigenspaces, d times the orbit
        sum: the group's shared zero when d = 0, with no product taken."""
        if not self.multiplicity:
            return self.group.zero()
        return self.group.character([self.multiplicity * a for a in self.sum_coords])


def _orbits(subgroup: AutVSubgroup, starts: Iterable[tuple[int, ...]]) -> list[Orbit]:
    """The orbit of each start point under the subgroup, each orbit once and
    in the order of the first start that reaches it, with its sum.

    The walk applies the generators' row matrices to coordinate tuples, one
    matrix-vector product per member and generator, as ``_images`` does.  A
    closed orbit is sorted and its columns summed; a singleton orbit is its
    own sum.  Raises ``ValueError`` when the multiplicity is not constant
    on an orbit."""
    group, mult = subgroup.group, dict(subgroup.support)
    d = group.invariant_factors
    gens = [list(zip(rows, d)) for rows in subgroup.generator_subset]
    seen: set[tuple[int, ...]] = set()
    out = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        m = mult.get(start, 0)
        members = [start]
        for x in members:  # breadth first: the loop reaches what it appends
            for rd in gens:
                y = tuple([sum(map(mul, row, x)) % di for row, di in rd])
                if y not in seen:
                    if mult.get(y, 0) != m:
                        raise ValueError(
                            "multiplicity map is not constant on an orbit; the "
                            "subgroup does not preserve it"
                        )
                    seen.add(y)
                    members.append(y)
        if len(members) == 1:
            total = start
        else:
            members.sort()
            total = tuple([sum(c) % di for c, di in zip(zip(*members), d)])
        out.append(Orbit(group, tuple(members), m, total))
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


def induced_mod_p_matrix(
    group: FiniteAbelianGroup, matrix: Sequence[Sequence[int]], p: int
) -> list[list[int]]:
    """The matrix induced by the automorphism with rows ``matrix`` on the
    F_p space G_p / p*G_p: the submatrix on the p-divisible coordinates,
    reduced mod p."""
    idxs = group.primary_part(p).indices
    return [[matrix[i][j] % p for j in idxs] for i in idxs]


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
    coordinate every automorphism induces a scalar, so the answer is yes.
    """
    return all(
        is_scalar_matrix_mod_p(induced_mod_p_matrix(subgroup.group, rows, p), p)
        for rows in subgroup.generator_subset
    )
