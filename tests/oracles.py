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
