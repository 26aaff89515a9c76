"""Brute-force oracles for the test suite.

Everything here is deliberately dumb and self-contained: breadth-first
closures on coordinate tuples, exhaustive enumeration of endomorphism
matrices, per-vector line checks, residue searches.  Nothing imports the
package under test, so agreement between the two sides is meaningful.
"""

import functools
import itertools
from math import gcd


def det(matrix):
    """Exact integer determinant by Laplace expansion (small matrices only)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * det(minor)
    return total


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def add_tuples(x, y, factors):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def closure_bruteforce(factors, gens):
    """Subgroup closure of coordinate tuples by breadth-first search."""
    zero = (0,) * len(factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = add_tuples(x, g, factors)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def all_coord_tuples(factors):
    return list(itertools.product(*(range(d) for d in factors)))


def pairing(chi, g, factors):
    """The pairing of a character with a point of the dual group, both as
    coordinate tuples, valued in Z/exponent: term i is scaled by
    exponent/d_i, which realizes the root-of-unity pairing in integers."""
    e = factors[-1] if factors else 1
    return sum(a * x * (e // d) for a, x, d in zip(chi, g, factors)) % e


@functools.lru_cache(maxsize=None)
def coord_index(factors):
    """The lexicographic position of each coordinate tuple, keyed in that
    order.  Memoised per ``factors`` (a tuple)."""
    return {c: i for i, c in enumerate(all_coord_tuples(factors))}


def addition_table(factors):
    """Dense addition table over lexicographic element indices."""
    coords = all_coord_tuples(factors)
    index = {c: i for i, c in enumerate(coords)}
    table = [
        [index[add_tuples(x, y, factors)] for y in coords] for x in coords
    ]
    return table, coords, index


def closure_size_indexed(n, table, gens):
    """Size of the closure of int-coded generators, using the table."""
    seen = bytearray(n)
    seen[0] = 1
    todo = [0]
    count = 1
    while todo:
        row = table[todo.pop()]
        for g in gens:
            y = row[g]
            if not seen[y]:
                seen[y] = 1
                count += 1
                todo.append(y)
    return count


def valid_endomorphism_matrices(factors):
    """All matrices defining endomorphisms: entry (i, j) runs over the
    multiples of d_i / gcd(d_i, d_j), which is exactly the condition for the
    generator relations to be respected."""
    k = len(factors)
    choices = []
    for i in range(k):
        for j in range(k):
            step = factors[i] // gcd(factors[i], factors[j])
            choices.append(range(0, factors[i], step))
    for flat in itertools.product(*choices):
        yield [list(flat[i * k : (i + 1) * k]) for i in range(k)]


def apply_matrix(matrix, coords, factors):
    k = len(factors)
    return tuple(
        sum(matrix[i][j] * coords[j] for j in range(k)) % factors[i]
        for i in range(k)
    )


def perm_of(matrix, factors):
    """The permutation of lexicographic element indices that a matrix
    induces on the coordinate tuples."""
    index = coord_index(tuple(factors))
    return tuple(index[apply_matrix(matrix, c, factors)] for c in index)


@functools.lru_cache(maxsize=None)
def automorphism_perms(factors):
    """Permutations (on lexicographic element indices) of all bijective
    endomorphisms, by exhausting the constrained matrices.  Memoised per
    ``factors`` (a tuple), since the sweeps ask for the same few groups
    thousands of times."""
    coords = all_coord_tuples(factors)
    index = {c: i for i, c in enumerate(coords)}
    out = set()
    for M in valid_endomorphism_matrices(factors):
        perm = tuple(index[apply_matrix(M, c, factors)] for c in coords)
        if len(set(perm)) == len(perm):
            out.add(perm)
    return frozenset(out)


def perm_closure(perms, n):
    """The group generated by permutations of range(n), as a set, by
    breadth-first search; the identity alone when ``perms`` is empty."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in perms:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def orbits_of_perms(perms, n):
    """Canonical partition of range(n) under a set of permutations."""
    perms = list(perms) or [tuple(range(n))]
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = {start}
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    members.add(y)
                    stack.append(y)
        out.append(frozenset(members))
    return frozenset(out)


def fixes_all_lines(matrix, p):
    """Literal line check: the image of every nonzero vector over F_p lies
    on the line spanned by the vector."""
    n = len(matrix)
    for v in itertools.product(range(p), repeat=n):
        if not any(v):
            continue
        img = [sum(matrix[i][j] * v[j] for j in range(n)) % p for i in range(n)]
        if not any(
            all((img[i] - lam * v[i]) % p == 0 for i in range(n)) for lam in range(p)
        ):
            return False
    return True


def crt_idempotent(d, p):
    """Search the residues mod d for eps = 1 mod p^e, 0 mod d/p^e, where
    p^e is the exact p-power in d.  Returns (eps, p^e)."""
    e = 0
    m = d
    while m % p == 0:
        m //= p
        e += 1
    pe = p**e
    for eps in range(d):
        if eps % pe == 1 % pe and eps % m == 0:
            return eps, pe
    raise AssertionError(f"no CRT idempotent mod {d} for p = {p}")


def all_groups(max_order, max_rank=None):
    """All invariant factor chains (d_1 | d_2 | ...) with product <= max_order,
    including the empty chain."""
    results = []

    def rec(chain, product):
        results.append(chain)
        if max_rank is not None and len(chain) >= max_rank:
            return
        if chain:
            step = chain[-1]
            d = step
        else:
            step = 1
            d = 2
        while product * d <= max_order:
            rec(chain + (d,), product * d)
            d += step

    rec((), 1)
    return results


def all_subgroups(factors):
    """Every subgroup as a frozenset of coordinate tuples, found by closing
    each known subgroup with each outside element until stable."""
    elements = all_coord_tuples(factors)
    zero = (0,) * len(factors)
    trivial = frozenset({zero})
    gens_of = {trivial: ()}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for x in elements:
            if x in H:
                continue
            gens = gens_of[H] + (x,)
            closure = frozenset(closure_bruteforce(factors, gens))
            if closure not in gens_of:
                gens_of[closure] = gens
                queue.append(closure)
    return set(gens_of)


def random_invertible_matrix(rng, r, p):
    """Uniform-ish random invertible r x r matrix over F_p by rejection."""
    while True:
        M = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        if det(M) % p:
            return M


def sum_tuples(tuples, factors):
    """The coordinate sum of a collection of tuples, reduced mod each d_i."""
    total = (0,) * len(factors)
    for x in tuples:
        total = add_tuples(total, x, factors)
    return total


def primary_restriction(coords, factors, p):
    """The image of a character under restriction to the p-primary part:
    eps * a mod p^e at each coordinate whose invariant factor p divides,
    with eps the CRT idempotent of ``crt_idempotent``."""
    out = []
    for a, d in zip(coords, factors):
        if d % p == 0:
            eps, pe = crt_idempotent(d, p)
            out.append(eps * a % pe)
    return tuple(out)


def preserving_matrices(factors, mult):
    """The bijective endomorphism matrices, as tuples of row tuples in
    lexicographic order, that map each character of the support of ``mult``
    (coordinate tuple -> multiplicity) to one of the same multiplicity."""
    coords = all_coord_tuples(factors)
    out = []
    for M in valid_endomorphism_matrices(factors):
        if len({apply_matrix(M, c, factors) for c in coords}) != len(coords):
            continue
        if all(mult.get(apply_matrix(M, c, factors)) == m for c, m in mult.items()):
            out.append(tuple(map(tuple, M)))
    return sorted(out)


def greedy_generators(matrices, factors):
    """Each matrix, in the given order, whose permutation lies outside the
    group generated by the permutations of those picked before it."""
    n = len(all_coord_tuples(factors))
    picked, covered = [], perm_closure([], n)
    for M in matrices:
        perm = perm_of(M, factors)
        if perm not in covered:
            picked.append(M)
            covered = perm_closure([perm_of(P, factors) for P in picked], n)
    return picked
