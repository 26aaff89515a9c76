"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``neutralrep``.  Groups are tuples of invariant
factors, characters are coordinate tuples, and every question is answered
from first principles on bare integers: unit searches for cyclic groups,
exhaustive endomorphism matrices for small non-cyclic groups, breadth-first
closures for generation, and the closed form of Hillar and Rhea for
|Aut(G)|.  These functions are never timed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod

EASY_CYCLIC = "EasyCyclic"
LARGE_PRIME = "LargePrime"
CYCLIC_GENERAL = "CyclicGeneral"
LINES_AND_GENERATORS = "LinesAndGenerators"

# Exhausting endomorphism matrices beyond this many candidates is too slow
# for a check that runs after every round.
MAX_ENDOMORPHISMS = 20_000


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def group_primes(factors) -> list[int]:
    return sorted(prime_factors(prod(factors))) if factors else []


def aut_order(factors) -> int:
    """|Aut(G)| for G = Z/d_1 + ... + Z/d_k, by the closed form of C. J.
    Hillar and D. L. Rhea, "Automorphisms of finite abelian groups",
    Amer. Math. Monthly 114 (2007), applied to each primary part."""
    total = 1
    for p in group_primes(factors):
        e = []
        for d in factors:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            if k:
                e.append(k)
        e.sort()
        n = len(e)
        # 1-based: d_k = max{l : e_l = e_k}, c_k = min{l : e_l = e_k}
        dd = [max(l + 1 for l in range(n) if e[l] == e[k]) for k in range(n)]
        cc = [min(l + 1 for l in range(n) if e[l] == e[k]) for k in range(n)]
        part = 1
        for k in range(n):
            part *= p ** dd[k] - p**k
        for j in range(n):
            part *= p ** (e[j] * (n - dd[j]))
        for i in range(n):
            part *= p ** ((e[i] - 1) * (n - cc[i] + 1))
        total *= part
    return total


# ---------------------------------------------------------------------------
# Cyclic groups, on bare integers
# ---------------------------------------------------------------------------


def preserving_units(n: int, mult: dict[int, int]) -> list[int]:
    """Units u of Z/n with mult(u*a) == mult(a) for every residue a."""
    return [
        u
        for u in range(1, n + 1)
        if gcd(u, n) == 1 and all(mult.get(u * a % n, 0) == m for a, m in mult.items())
    ]


def unit_orbits(n: int, mult: dict[int, int]) -> list[list[int]]:
    """Orbits of all residues 0..n-1 under the preserving units, each
    sorted, ordered by least member."""
    units = preserving_units(n, mult)
    seen = set()
    out = []
    for a in range(n):
        if a not in seen:
            orbit = sorted({u * a % n for u in units})
            seen.update(orbit)
            out.append(orbit)
    return out


def cyclic_verdict(n: int, mult: dict[int, int], p: int) -> str | None:
    """The first criterion that certifies p for Z/n, or None.

    mult maps residues to positive multiplicities.  The criteria, in the
    order the checker tries them: the dimension drop to the characters
    trivial on mu_p (the multiples of p) is prime to p; p exceeds the
    dimension and some support residue is prime to p; some support residue
    of multiplicity prime to p has a unit orbit of size prime to p while
    being prime to p itself, or an orbit sum prime to p.
    """
    dim = sum(mult.values())
    if sum(m for a, m in mult.items() if a % p) % p:
        return EASY_CYCLIC
    if p > dim and any(a % p for a in mult):
        return LARGE_PRIME
    units = preserving_units(n, mult)
    for a in sorted(mult):
        if mult[a] % p == 0:
            continue
        orbit = {u * a % n for u in units}
        if (len(orbit) % p and a % p) or sum(orbit) % p:
            return CYCLIC_GENERAL
    return None


# ---------------------------------------------------------------------------
# Small groups of any rank, by exhaustion
# ---------------------------------------------------------------------------


def elements(factors) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in factors)))


def add(x, y, factors):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def scale(c, x, factors):
    return tuple(c * a % d for a, d in zip(x, factors))


def closure(factors, gens) -> set[tuple[int, ...]]:
    zero = (0,) * len(factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = add(x, g, factors)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def endomorphism_count(factors) -> int:
    return prod(gcd(a, b) for a in factors for b in factors)


@lru_cache(maxsize=None)
def automorphisms(factors) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of the group, as a permutation of the element
    list, found by exhausting the matrices whose entry (i, j) is a multiple
    of d_i / gcd(d_i, d_j) and keeping the bijective ones."""
    k = len(factors)
    elems = elements(factors)
    index = {x: i for i, x in enumerate(elems)}
    choices = []
    for i in range(k):
        for j in range(k):
            step = factors[i] // gcd(factors[i], factors[j])
            choices.append(range(0, factors[i], step))
    out = []
    for entries in itertools.product(*choices):
        perm = [
            index[
                tuple(
                    sum(entries[i * k + j] * x[j] for j in range(k)) % factors[i]
                    for i in range(k)
                )
            ]
            for x in elems
        ]
        if len(set(perm)) == len(perm):
            out.append(tuple(perm))
    return tuple(out)


class SmallGroupRep:
    """A multiplicity map on a group small enough to exhaust, with its
    multiplicity-preserving automorphisms and their orbits."""

    def __init__(self, factors, mult: dict[tuple[int, ...], int]):
        self.factors = tuple(factors)
        self.mult = dict(mult)
        self.dim = sum(mult.values())
        self.elems = elements(self.factors)
        self.index = {x: i for i, x in enumerate(self.elems)}
        by_index = [0] * len(self.elems)
        for x, m in mult.items():
            by_index[self.index[x]] = m
        self.aut_v = [
            q
            for q in automorphisms(self.factors)
            if all(by_index[q[i]] == by_index[i] for i in range(len(self.elems)))
        ]

    def orbit(self, x) -> list[tuple[int, ...]]:
        i = self.index[x]
        return sorted({self.elems[q[i]] for q in self.aut_v})

    def orbits(self) -> list[list[tuple[int, ...]]]:
        seen = set()
        out = []
        for x in self.elems:
            if x not in seen:
                orb = self.orbit(x)
                seen.update(orb)
                out.append(orb)
        return out

    def verdict(self, p: int) -> str | None:
        """The first criterion that certifies p, or None.

        The p-primary part P is realised inside G as the elements of p-power
        order, reached through the CRT idempotent of each coordinate; lines
        of P/pP are tested vector by vector over every preserving
        automorphism, and generation by explicit closure.
        """
        f = self.factors
        pe = []
        for d in f:
            q = 1
            while d % (q * p) == 0:
                q *= p
            pe.append(q)
        # eps_i = 1 mod pe_i, 0 mod d_i / pe_i
        eps = []
        for d, q in zip(f, pe):
            r = d // q
            eps.append(next(e for e in range(0, d, r) if e % q == 1 % q) if q > 1 else 0)

        def p_part(x):
            return tuple(e * a % d for e, a, d in zip(eps, x, f))

        order_p = prod(pe)
        P = closure(f, [p_part(x) for x in self.elems])
        assert len(P) == order_p
        pP = {scale(p, x, f) for x in P}
        p_rank = sum(1 for q in pe if q > 1)

        def generates(chars):
            return len(closure(f, [p_part(x) for x in chars])) == order_p

        if len(f) == 1 and self._easy_cyclic(p):
            return EASY_CYCLIC
        if p > self.dim and generates(list(self.mult)):
            return LARGE_PRIME
        for q in self.aut_v:
            for x in P:
                if x in pP:
                    continue
                y = self.elems[q[self.index[x]]]
                if not any(
                    add(y, scale(-lam, x, f), f) in pP for lam in range(1, p)
                ):
                    return None
        qualifying = []
        for x in sorted(self.mult):
            if self.mult[x] % p == 0:
                continue
            orb = self.orbit(x)
            total = (0,) * len(f)
            for y in orb:
                total = add(total, y, f)
            if p_part(total) not in pP or len(orb) % p:
                qualifying.append(x)
        if generates(qualifying):
            return CYCLIC_GENERAL if p_rank == 1 else LINES_AND_GENERATORS
        return None

    def _easy_cyclic(self, p: int) -> bool:
        return sum(m for (a,), m in self.mult.items() if a % p) % p != 0


def small_enough(factors) -> bool:
    return endomorphism_count(tuple(factors)) <= MAX_ENDOMORPHISMS


# ---------------------------------------------------------------------------
# Self-test on hand-worked values
# ---------------------------------------------------------------------------


def selftest() -> list[str]:
    """Check the oracles against values worked out by hand; returns the
    list of mismatches (empty when every oracle is right)."""
    errors = []

    def expect(label, got, want):
        if got != want:
            errors.append(f"oracle self-test {label}: got {got!r}, want {want!r}")

    # chi + chi^2 on Z/4: dim 2, fixed dim 1, the drop 1 is odd
    expect("Z/4 {1:1, 2:1} at 2", cyclic_verdict(4, {1: 1, 2: 1}, 2), EASY_CYCLIC)
    expect(
        "Z/4 {1:1, 2:1} at 2 by exhaustion",
        SmallGroupRep((4,), {(1,): 1, (2,): 1}).verdict(2),
        EASY_CYCLIC,
    )
    # rho + rho on Z/2: the drop 2 is even, p = 2 = dim, orbit {1} has
    # multiplicity 2
    expect("Z/2 {1:2} at 2", cyclic_verdict(2, {1: 2}, 2), None)
    expect(
        "Z/2 {1:2} at 2 by exhaustion",
        SmallGroupRep((2,), {(1,): 2}).verdict(2),
        None,
    )
    expect("|Aut((Z/3)^3)|", aut_order((3, 3, 3)), 11_232)
    expect("|Aut((Z/2)^4)|", aut_order((2, 2, 2, 2)), 20_160)
    expect("|Aut(Z/2 x Z/4)|", aut_order((2, 4)), 8)
    expect("|Aut(Z/2 x Z/4)| by exhaustion", len(automorphisms((2, 4))), 8)
    expect("|Aut(Z/12)|", aut_order((12,)), 4)
    expect("units of Z/12 preserving {1:1, 5:1}", preserving_units(12, {1: 1, 5: 1}), [1, 5])
    # e1 + 2 e2 + 4 (e1 + e2) on Z/3 x Z/3: only the identity and -1 keep
    # the multiplicities, both scalars, and the images span F_3^2
    expect(
        "(Z/3)^2 {e1:1, e2:2, e1+e2:4} at 3",
        SmallGroupRep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4}).verdict(3),
        LINES_AND_GENERATORS,
    )
    return errors
