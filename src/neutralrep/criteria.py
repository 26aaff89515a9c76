"""Per-prime neutrality checkers, certificates, and reports.

A verdict is either Certified -- the hypotheses of one sufficient criterion
verify exactly, with enough witness data to re-verify independently -- or
Unknown, never "not neutral": the criteria are one-sided, so an Unknown
carries the reasons each attempted strategy declined and nothing more.

Strategies, tried cheapest first:

* ``EasyCyclic``   (cyclic groups) the dimension drop to the mu_p-fixed
  subspace is prime to p.
* ``LargePrime``   p exceeds the total dimension and the support restricts
  onto a generating set of the p-primary character group.
* ``CyclicGeneral``  (cyclic p-primary part) some eigenspace of dimension
  prime to p restricts faithfully, via an orbit of size prime to p or via a
  faithful orbit-sum restriction.
* ``LinesAndGenerators``  the multiplicity-preserving automorphisms fix
  every line of the mod-p character quotient, and the qualifying characters
  restrict onto a generating set.

``verify_certificate`` replays a certificate from scratch: closures are
recomputed without caches, generation is re-decided by explicit closure
enumeration instead of the mod-p rank shortcut, and line fixing is rechecked
vector by vector.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .abelian import (
    DEFAULT_CAP,
    Character,
    FiniteAbelianGroup,
    Subgroup,
    is_prime,
    mod_p_image,
    primary_projection,
    rank_mod_p,
)
from .autgroup import (
    Automorphism,
    _close_columns,
    acts_trivially_on_lines,
    aut_generators,
    check_aut_order,
    induced_mod_p_matrix,
)
from .errors import (
    CapExceededError,
    InputError,
    MalformedCertificateError,
    NonCyclicPrimaryPartError,
    NotCyclicError,
)
from .rep import (
    Representation,
    fixed_dim,
    is_faithful,
    is_int_list,
    pseudoreflections,
    rep_from_input,
    symmetry_of,
)

STRATEGY_EASY_CYCLIC = "EasyCyclic"
STRATEGY_LARGE_PRIME = "LargePrime"
STRATEGY_CYCLIC_GENERAL = "CyclicGeneral"
STRATEGY_LINES_AND_GENERATORS = "LinesAndGenerators"

OVERALL_NEUTRAL = "neutral"
OVERALL_UNKNOWN = "unknown"

STATUS_CERTIFIED = "R-singularity certified"
STATUS_INAPPLICABLE = "bridge inapplicable"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    """A replayable witness: strategy name plus the data its hypotheses need.

    A certificate re-verifies from (group, representation, certificate)
    alone; stored values are claims to be rechecked, never trusted.
    """

    prime: int
    strategy: str
    witness: dict


@dataclass(frozen=True)
class PrimeVerdict:
    """Outcome for one prime: a certificate, or the reasons (one per
    strategy attempted) why no strategy certified."""

    prime: int
    certificate: Certificate | None
    reasons: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class NeutralityReport:
    """Per-prime verdicts for every prime dividing the group order, plus
    representation-level flags.  ``overall`` is "neutral" exactly when every
    prime certified (vacuously for the trivial group)."""

    representation: Representation
    verdicts: tuple[PrimeVerdict, ...]
    overall: str
    faithful: bool
    pseudoreflections: tuple[tuple[int, ...], ...]
    factorial_shortcut: bool
    notes: tuple[str, ...]


def _require_prime_divisor(group: FiniteAbelianGroup, p: int) -> None:
    # divisibility before primality: trial division costs sqrt(p), and a
    # divisor of the order is at most the order
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if group.order % p:
        raise ValueError(f"{p} does not divide the group order {group.order}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Individual strategies
# ---------------------------------------------------------------------------


def check_easy_cyclic(V: Representation, p: int) -> PrimeVerdict:
    """Cyclic groups: certified iff p does not divide
    dim V - dim V^(mu_p), the drop to the subspace fixed by the unique
    subgroup of order p."""
    group = V.group
    if group.rank > 1:
        raise NotCyclicError(
            f"group has {group.rank} invariant factors; EasyCyclic needs a cyclic group"
        )
    _require_prime_divisor(group, p)
    fixed = fixed_dim(V, _mu_p_vanishing_set(group, p))
    diff = V.dim - fixed
    if diff % p:
        witness = {"dim": V.dim, "fixed_dim": fixed}
        return PrimeVerdict(p, Certificate(p, STRATEGY_EASY_CYCLIC, witness))
    return PrimeVerdict(
        p,
        None,
        (
            f"EasyCyclic: dimension difference {V.dim} - {fixed} = {diff} "
            f"is divisible by p = {p}",
        ),
    )


@lru_cache(maxsize=64)
def _mu_p_vanishing_set(group: FiniteAbelianGroup, p: int) -> Subgroup:
    """The characters of a cyclic group trivial on mu_p: the multiples of p."""
    return group.subgroup([group.character((p,))])


def check_large_prime(V: Representation, p: int) -> PrimeVerdict:
    """Certified iff p > dim V and the support characters restrict onto a
    generating set of the p-primary character group (i.e. the action of the
    p-Sylow subgroup is faithful).  As in ``check_lines_generators``,
    generation is decided by the rank of the mod-p images."""
    group = V.group
    _require_prime_divisor(group, p)
    if p <= V.dim:
        return PrimeVerdict(p, None, (f"LargePrime: p = {p} <= dim V = {V.dim}",))
    if rank_mod_p([mod_p_image(chi, p) for chi in V.support], p) == group.p_rank(p):
        witness = {
            "dim": V.dim,
            "support": [list(chi.coords) for chi in V.support],
            "restrictions": [list(primary_projection(chi, p)) for chi in V.support],
        }
        return PrimeVerdict(p, Certificate(p, STRATEGY_LARGE_PRIME, witness))
    return PrimeVerdict(
        p,
        None,
        (
            f"LargePrime: the support restrictions do not generate "
            f"the {p}-primary character group",
        ),
    )


def check_cyclic_general(
    V: Representation, p: int, cap: int = DEFAULT_CAP
) -> PrimeVerdict:
    """Cyclic p-primary part: certified iff some character chi with
    multiplicity prime to p qualifies, either

    (b) its orbit under the multiplicity-preserving automorphisms has size
        prime to p and its own restriction to the p-Sylow subgroup is
        faithful, or
    (a) the restriction of the sum over its orbit is faithful.

    The witness is the lexicographically least qualifying character; branch
    (b) is preferred when both apply.
    """
    found, _ = _cyclic_general(V, p, cap)
    if found is None:
        reason = (
            f"CyclicGeneral: no support character of multiplicity prime to "
            f"{p} has a qualifying orbit (size prime to {p} with faithful "
            f"restriction, or faithful orbit-sum restriction)"
        )
        return PrimeVerdict(p, None, (reason,))
    chi, m, orbit_size, branch, restriction, orbit_sum_restriction = found
    witness = {
        "character": list(chi.coords),
        "multiplicity": m,
        "orbit_size": orbit_size,
        "branch": branch,
        "restriction": [restriction],
        "orbit_sum_restriction": [orbit_sum_restriction],
    }
    return PrimeVerdict(p, Certificate(p, STRATEGY_CYCLIC_GENERAL, witness))


@lru_cache(maxsize=1)
def _cyclic_general(V: Representation, p: int, cap: int) -> tuple[tuple | None, bool]:
    """The least qualifying character with its witness data, or None, and
    whether some qualifying character is faithful on the whole group, not only
    on the p-primary part (the stricter reading of the witness condition).
    Immutable, so the latest one is kept for the notes of the same report."""
    group = V.group
    _require_prime_divisor(group, p)
    if group.p_rank(p) > 1:
        raise NonCyclicPrimaryPartError(
            f"{p}-primary part has rank {group.p_rank(p)}; use the "
            f"lines-and-generators criterion instead"
        )
    _, orbits = symmetry_of(V, cap)
    pp = group.primary_part(p)  # cyclic: one coordinate i, of order q = p^e
    (i,), (q,) = pp.indices, pp.group.invariant_factors
    found = None
    for chi, m in V.entries:
        if m % p == 0:
            continue
        orbit = orbits[chi.coords]
        restriction = chi.coords[i] % q
        orbit_sum_restriction = orbit.sum_coords[i] % q
        if orbit.size % p != 0 and restriction % p:
            branch = "b"
        elif orbit_sum_restriction % p:
            branch = "a"
        else:
            continue
        if found is None:
            found = (chi, m, orbit.size, branch, restriction, orbit_sum_restriction)
        if chi.order == group.order:
            return found, True
    return found, False


def check_lines_generators(
    V: Representation, p: int, cap: int = DEFAULT_CAP
) -> PrimeVerdict:
    """The two-condition criterion: (1) the multiplicity-preserving
    automorphisms act trivially on the lines of the mod-p character
    quotient, and (2) the characters of multiplicity prime to p that qualify
    -- (a) primitive orbit-sum restriction, or (b) orbit size prime to p --
    restrict onto a generating set of the p-primary character group.

    Generation is decided on the mod-p images (minimal generating sets of a
    p-group are bases of its Frattini quotient).
    """
    group = V.group
    _require_prime_divisor(group, p)
    symmetries, orbits = symmetry_of(V, cap)
    if not acts_trivially_on_lines(symmetries, p):
        return PrimeVerdict(
            p,
            None,
            (
                f"LinesAndGenerators: a multiplicity-preserving automorphism "
                f"moves a line of the mod-{p} character quotient",
            ),
        )
    qualifying = []
    vectors = []
    for chi, m in V.entries:
        if m % p == 0:
            continue
        orbit = orbits[chi.coords]
        if any(orbit.sum_coords[i] % p for i in group.primary_part(p).indices):
            tag = "a"
        elif orbit.size % p != 0:
            tag = "b"
        else:
            continue
        image = mod_p_image(chi, p)
        qualifying.append(
            {"character": list(chi.coords), "tag": tag, "mod_p_image": list(image)}
        )
        vectors.append(image)
    rank = rank_mod_p(vectors, p)
    if rank == group.p_rank(p):
        witness = {
            "qualifying": qualifying,
            "generator_scalars": _generator_scalars(symmetries, p),
        }
        return PrimeVerdict(p, Certificate(p, STRATEGY_LINES_AND_GENERATORS, witness))
    return PrimeVerdict(
        p,
        None,
        (
            f"LinesAndGenerators: qualifying mod-{p} images span {rank} of "
            f"{group.p_rank(p)} dimensions",
        ),
    )


def _generator_scalars(symmetries, p: int) -> list[dict]:
    out = []
    for a in symmetries.generator_subset:
        induced = induced_mod_p_matrix(a, p)
        out.append(
            {
                "induced_matrix": induced,
                "scalar": induced[0][0] % p if induced else 1,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def check_prime(V: Representation, p: int, cap: int = DEFAULT_CAP) -> PrimeVerdict:
    """Try the strategies cheapest first and return the first certificate.

    With a cyclic p-primary part, ``CyclicGeneral`` is the exact
    specialization of ``LinesAndGenerators`` (one line makes the line
    condition automatic), so only one of the two runs.  A cap overflow
    propagates only when no cheaper strategy already certified.
    """
    group = V.group
    _require_prime_divisor(group, p)
    reasons: list[str] = []
    if group.is_cyclic:
        verdict = check_easy_cyclic(V, p)
        if verdict.certified:
            return verdict
        reasons.extend(verdict.reasons)
    verdict = check_large_prime(V, p)
    if verdict.certified:
        return verdict
    reasons.extend(verdict.reasons)
    if group.p_rank(p) == 1:
        verdict = check_cyclic_general(V, p, cap)
    else:
        verdict = check_lines_generators(V, p, cap)
    if verdict.certified:
        return verdict
    reasons.extend(verdict.reasons)
    return PrimeVerdict(p, None, tuple(reasons))


def neutrality_report(V: Representation, cap: int = DEFAULT_CAP) -> NeutralityReport:
    """Run every prime dividing the group order through ``check_prime``.

    Flags: faithfulness of the representation, its pseudoreflections, and
    whether the coprimality shortcut applies (faithful and every prime
    divisor of the order exceeds dim V, which makes every prime certify via
    LargePrime on its own).  Diagnostic notes record when the cheap cyclic
    criterion certified without an orbit-based confirmation, and when the
    two readings of the cyclic witness condition disagree.
    """
    group = V.group
    primes = group.prime_divisors()
    verdicts = []
    notes: list[str] = []
    for p in primes:
        verdict = check_prime(V, p, cap)
        verdicts.append(verdict)
        if group.p_rank(p) != 1:
            continue
        # EasyCyclic certifies only cyclic groups, whose p-rank is 1
        easy = verdict.certified and verdict.certificate.strategy == STRATEGY_EASY_CYCLIC
        try:
            found, faithful_witness = _cyclic_general(V, p, cap)
        except CapExceededError:
            if easy:
                notes.append(
                    f"p = {p}: orbit-based cross-check skipped (closure cap exceeded)"
                )
            continue
        if easy and found is None:
            notes.append(
                f"p = {p}: certified by EasyCyclic but by no orbit-based "
                f"strategy (diagnostic only, not an error)"
            )
        if found is not None and not faithful_witness:
            notes.append(
                f"p = {p}: CyclicGeneral certifies through a witness whose "
                f"restriction to the {p}-primary part is faithful, but no "
                f"witness is faithful on the whole group (the two readings "
                f"of the witness condition differ here)"
            )
    faithful = is_faithful(V)
    overall = (
        OVERALL_NEUTRAL if all(v.certified for v in verdicts) else OVERALL_UNKNOWN
    )
    factorial_shortcut = faithful and all(p > V.dim for p in primes)
    return NeutralityReport(
        representation=V,
        verdicts=tuple(verdicts),
        overall=overall,
        faithful=faithful,
        pseudoreflections=tuple(pseudoreflections(V)),
        factorial_shortcut=factorial_shortcut,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Independent re-verification
# ---------------------------------------------------------------------------


def verify_certificate(V: Representation, cert: Certificate) -> bool:
    """Recompute every hypothesis of the certificate's strategy from scratch
    and confirm the stored witness data; False on any mismatch.

    The code paths are deliberately different from the checkers': the fixed
    dimension is recounted by direct enumeration, generation is re-decided
    by explicit closure enumeration, line fixing is rechecked vector by
    vector over every recomputed automorphism, and the automorphism closure
    is rebuilt without the per-group cache.

    Raises :class:`MalformedCertificateError` when the certificate is
    structurally unusable (unknown strategy, prime not dividing the order,
    missing or ill-shaped witness fields).
    """
    if not isinstance(cert, Certificate):
        raise MalformedCertificateError("expected a Certificate")
    group = V.group
    p = cert.prime
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise MalformedCertificateError(f"certificate prime {p!r} is not a prime")
    if group.order % p:
        raise MalformedCertificateError(
            f"prime {p} does not divide the group order {group.order}"
        )
    if not is_prime(p):
        raise MalformedCertificateError(f"certificate prime {p!r} is not a prime")
    witness = cert.witness
    if not isinstance(witness, dict):
        raise MalformedCertificateError("certificate witness must be an object")
    if cert.strategy == STRATEGY_EASY_CYCLIC:
        return _verify_easy_cyclic(V, p, witness)
    if cert.strategy == STRATEGY_LARGE_PRIME:
        return _verify_large_prime(V, p, witness)
    if cert.strategy == STRATEGY_CYCLIC_GENERAL:
        return _verify_cyclic_general(V, p, witness)
    if cert.strategy == STRATEGY_LINES_AND_GENERATORS:
        return _verify_lines_generators(V, p, witness)
    raise MalformedCertificateError(f"unknown strategy {cert.strategy!r}")


def _need_keys(witness: dict, keys: set[str]) -> None:
    if set(witness) != keys:
        raise MalformedCertificateError(
            f"witness keys {sorted(witness)} do not match expected {sorted(keys)}"
        )


def _verify_easy_cyclic(V: Representation, p: int, witness: dict) -> bool:
    group = V.group
    if group.rank != 1:
        raise MalformedCertificateError("EasyCyclic certificate for a non-cyclic group")
    _need_keys(witness, {"dim", "fixed_dim"})
    dim = sum(m for _, m in V.entries)
    # direct count over all characters, independent of the SNF membership test
    fixed = sum(m for chi, m in V.entries if chi.coords[0] % p == 0)
    if witness["dim"] != dim or witness["fixed_dim"] != fixed:
        return False
    return (dim - fixed) % p != 0


def _closure_generates(group: FiniteAbelianGroup, gens: Sequence[tuple[int, ...]]) -> bool:
    """Explicit breadth-first closure of coordinate tuples, bounded by the
    group order."""
    d = group.invariant_factors
    zero = (0,) * len(d)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % di for a, b, di in zip(x, g, d))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen) == group.order


def _verify_large_prime(V: Representation, p: int, witness: dict) -> bool:
    group = V.group
    _need_keys(witness, {"dim", "support", "restrictions"})
    dim = sum(m for _, m in V.entries)
    if witness["dim"] != dim or p <= dim:
        return False
    if witness["support"] != [list(chi.coords) for chi in V.support]:
        return False
    projections = [primary_projection(chi, p) for chi in V.support]
    if witness["restrictions"] != list(map(list, projections)):
        return False
    return _closure_generates(group.primary_part(p).group, projections)


def _recomputed_preserving_elements(V: Representation) -> list[Automorphism]:
    """The multiplicity-preserving automorphisms, rebuilt without caches.
    A group whose |Aut(G)| exceeds the cap is refused before any work.  The
    closure is filtered in column form, and only the survivors become
    :class:`Automorphism` objects."""
    group = V.group
    check_aut_order(group, DEFAULT_CAP)
    k = group.rank
    mult = {chi.coords: m for chi, m in V.entries}
    wanted = tuple(mult.values())
    elements = []
    gens = [a.matrix for a in aut_generators(group)]
    closure, _ = _close_columns(group, gens, DEFAULT_CAP, tuple(mult))
    for images in closure:
        if tuple(map(mult.get, images[k:])) == wanted:
            elements.append(Automorphism(group, tuple(zip(*images[:k]))))
    elements.sort(key=lambda a: a.matrix)
    return elements


def _orbit(elements: Sequence[Automorphism], chi: Character) -> tuple[set, Character]:
    """The orbit of ``chi`` under ``elements``, which form a group, as the
    set of its images' coordinates, one matrix-vector product per element;
    and the orbit sum, from the coordinate column sums."""
    orbit = {a.apply_coords(chi.coords) for a in elements}
    return orbit, chi.group.character([sum(column) for column in zip(*orbit)])


def _verify_cyclic_general(V: Representation, p: int, witness: dict) -> bool:
    group = V.group
    if group.p_rank(p) != 1:
        raise MalformedCertificateError(
            "CyclicGeneral certificate for a non-cyclic primary part"
        )
    _need_keys(
        witness,
        {
            "character",
            "multiplicity",
            "orbit_size",
            "branch",
            "restriction",
            "orbit_sum_restriction",
        },
    )
    coords = witness["character"]
    if (
        not isinstance(coords, list)
        or len(coords) != group.rank
        or not all(isinstance(a, int) and not isinstance(a, bool) for a in coords)
    ):
        raise MalformedCertificateError("witness character has the wrong shape")
    if witness["branch"] not in ("a", "b"):
        raise MalformedCertificateError(f"unknown branch {witness['branch']!r}")
    chi = group.character(coords)
    m = V.multiplicity(chi)
    if witness["multiplicity"] != m or m == 0 or m % p == 0:
        return False
    orbit, orbit_sum = _orbit(_recomputed_preserving_elements(V), chi)
    if witness["orbit_size"] != len(orbit):
        return False
    proj = primary_projection(chi, p)
    if witness["restriction"] != list(proj):
        return False
    orbit_sum_proj = primary_projection(orbit_sum, p)
    if witness["orbit_sum_restriction"] != list(orbit_sum_proj):
        return False
    pp_group = group.primary_part(p).group
    if witness["branch"] == "b":
        return len(orbit) % p != 0 and _closure_generates(pp_group, [proj])
    return _closure_generates(pp_group, [orbit_sum_proj])


def _fixes_every_line(matrix: Sequence[Sequence[int]], p: int) -> bool:
    """Literal check: the image of every nonzero vector stays on its line."""
    n = len(matrix)
    if n == 0:
        return True
    for v in itertools.product(range(p), repeat=n):
        if not any(v):
            continue
        image = [sum(matrix[i][j] * v[j] for j in range(n)) % p for i in range(n)]
        lead = next(i for i, x in enumerate(v) if x)
        lam = image[lead] * pow(v[lead], -1, p) % p
        if any((image[i] - lam * v[i]) % p for i in range(n)):
            return False
    return True


def _verify_lines_generators(V: Representation, p: int, witness: dict) -> bool:
    group = V.group
    _need_keys(witness, {"qualifying", "generator_scalars"})
    if not isinstance(witness["qualifying"], list) or not isinstance(
        witness["generator_scalars"], list
    ):
        raise MalformedCertificateError("witness lists have the wrong shape")
    pp = group.primary_part(p)
    elements = _recomputed_preserving_elements(V)
    for a in elements:
        if not _fixes_every_line(induced_mod_p_matrix(a, p), p):
            return False
    _, subset = _close_columns(group, [a.matrix for a in elements], DEFAULT_CAP)
    recomputed_scalars = []
    for rows in subset:
        induced = induced_mod_p_matrix(Automorphism(group, rows), p)
        recomputed_scalars.append(
            {"induced_matrix": induced, "scalar": induced[0][0] % p if induced else 1}
        )
    if witness["generator_scalars"] != recomputed_scalars:
        return False
    qualifying = []
    projections = []
    images = []
    for chi, m in V.entries:
        if m % p == 0:
            continue
        orbit, orbit_sum = _orbit(elements, chi)
        if any(mod_p_image(orbit_sum, p)):
            tag = "a"
        elif len(orbit) % p != 0:
            tag = "b"
        else:
            continue
        image = mod_p_image(chi, p)
        qualifying.append(
            {"character": list(chi.coords), "tag": tag, "mod_p_image": list(image)}
        )
        projections.append(primary_projection(chi, p))
        images.append(image)
    if witness["qualifying"] != qualifying:
        return False
    if rank_mod_p(images, p) != group.p_rank(p):
        return False
    return _closure_generates(pp.group, projections)


# ---------------------------------------------------------------------------
# The quotient-singularity bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RSingularityReport:
    """Outcome of the neutrality-to-R-singularity bridge for a faithful
    diagonal action without pseudoreflections (tame case asserted by the
    caller)."""

    status: str
    reasons: tuple[str, ...]
    faithful: bool
    pseudoreflections: tuple[tuple[int, ...], ...]
    neutrality: NeutralityReport
    notes: tuple[str, ...]


def r_singularity_report(
    V: Representation, cap: int = DEFAULT_CAP
) -> RSingularityReport:
    """Certify that the quotient singularity at the origin is an
    R-singularity: faithful, no pseudoreflections, and neutral.

    With pseudoreflections present the bridge is inapplicable (the quotient
    can be smooth or match a different, non-liftable singularity, as the
    order-4 cyclic action on chi + chi^2 shows); an Unknown neutrality
    verdict leaves the question inconclusive.  The converse direction
    (R-singularity implies neutral) consumes resolution data this tool does
    not compute and is out of scope.
    """
    report = neutrality_report(V, cap)
    refs = report.pseudoreflections
    notes = (
        "pseudoreflection = non-identity element whose fixed subspace has "
        "codimension 1 (it moves exactly one eigen-line); this standard "
        "reading is the implementer's choice",
        "only the direction 'neutral => R-singularity' is decided here; the "
        "converse consumes resolution data this tool does not compute",
        "caller asserts the tame case: the group order is invertible in the "
        "base field",
    )
    if not report.faithful:
        status = STATUS_INAPPLICABLE
        reasons = ("the representation is not faithful",)
    elif refs:
        listed = ", ".join(str(list(g)) for g in refs)
        status = STATUS_INAPPLICABLE
        reasons = (
            f"the group contains pseudoreflections at {listed}; the "
            f"no-pseudoreflection hypothesis is necessary (the neutral "
            f"order-4 cyclic action on chi + chi^2 has a quotient matching "
            f"the non-liftable (rho + rho)/C_2 singularity)",
        )
    elif report.overall == OVERALL_NEUTRAL:
        status = STATUS_CERTIFIED
        reasons = ()
    else:
        status = STATUS_INCONCLUSIVE
        reasons = ("the neutrality criteria did not certify every prime",)
    return RSingularityReport(
        status=status,
        reasons=reasons,
        faithful=report.faithful,
        pseudoreflections=refs,
        neutrality=report,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Serialization (fixed key order; compact, byte-reproducible)
# ---------------------------------------------------------------------------


def verdict_to_dict(verdict: PrimeVerdict) -> dict:
    if verdict.certified:
        cert = verdict.certificate
        return {
            "prime": verdict.prime,
            "strategy": cert.strategy,
            "witness": cert.witness,
            "verdict": "certified",
        }
    return {
        "prime": verdict.prime,
        "strategy": None,
        "witness": None,
        "verdict": "unknown",
        "reasons": list(verdict.reasons),
    }


def _is_str_list(values) -> bool:
    return isinstance(values, list) and all(isinstance(x, str) for x in values)


def verdict_from_dict(doc) -> PrimeVerdict:
    if not isinstance(doc, dict) or "prime" not in doc or "verdict" not in doc:
        raise InputError("per-prime entry must carry 'prime' and 'verdict'")
    prime = doc["prime"]
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise InputError(f"per-prime entry has a non-integer prime {prime!r}")
    if doc["verdict"] == "certified":
        return PrimeVerdict(prime, certificate_from_dict(doc))
    if doc["verdict"] == "unknown":
        reasons = doc.get("reasons", [])
        if not _is_str_list(reasons):
            raise InputError('"reasons" must be a list of strings')
        return PrimeVerdict(prime, None, tuple(reasons))
    raise InputError(f"unknown verdict value {doc['verdict']!r}")


def certificate_from_dict(doc) -> Certificate:
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate must be an object")
    for key in ("prime", "strategy", "witness"):
        if key not in doc:
            raise MalformedCertificateError(f"certificate is missing {key!r}")
    if not isinstance(doc["witness"], dict):
        raise MalformedCertificateError("certificate witness must be an object")
    return Certificate(doc["prime"], doc["strategy"], doc["witness"])


def report_to_dict(report: NeutralityReport) -> dict:
    rep = report.representation
    return {
        "group": {"invariant_factors": list(rep.group.invariant_factors)},
        "representation": [
            {"character": list(chi.coords), "multiplicity": m}
            for chi, m in rep.entries
        ],
        "dim": rep.dim,
        "overall": report.overall,
        "faithful": report.faithful,
        "pseudoreflections": [list(g) for g in report.pseudoreflections],
        "factorial_shortcut": report.factorial_shortcut,
        "primes": [verdict_to_dict(v) for v in report.verdicts],
        "notes": list(report.notes),
    }


def report_from_dict(doc) -> NeutralityReport:
    if not isinstance(doc, dict):
        raise InputError("report must be a JSON object")
    required = {
        "group",
        "representation",
        "dim",
        "overall",
        "faithful",
        "pseudoreflections",
        "factorial_shortcut",
        "primes",
        "notes",
    }
    if set(doc) != required:
        raise InputError(f"report keys {sorted(doc)} do not match {sorted(required)}")
    rep = rep_from_input({"group": doc["group"], "representation": doc["representation"]})
    if doc["dim"] != rep.dim:
        raise InputError(f"stored dim {doc['dim']} contradicts the entries ({rep.dim})")
    verdicts = tuple(verdict_from_dict(v) for v in doc["primes"])
    derived = OVERALL_NEUTRAL if all(v.certified for v in verdicts) else OVERALL_UNKNOWN
    if doc["overall"] != derived:
        raise InputError(
            f"stored overall {doc['overall']!r} contradicts the per-prime verdicts"
        )
    refs = doc["pseudoreflections"]
    d = rep.group.invariant_factors
    if not isinstance(refs, list) or not all(is_int_list(g) and len(g) == len(d) for g in refs):
        raise InputError('"pseudoreflections" must be a list of coordinate lists')
    for key in ("faithful", "factorial_shortcut"):
        if not isinstance(doc[key], bool):
            raise InputError(f'"{key}" must be true or false')
    if not _is_str_list(doc["notes"]):
        raise InputError('"notes" must be a list of strings')
    return NeutralityReport(
        representation=rep,
        verdicts=verdicts,
        overall=doc["overall"],
        faithful=doc["faithful"],
        pseudoreflections=tuple(tuple(a % di for a, di in zip(g, d)) for g in refs),
        factorial_shortcut=doc["factorial_shortcut"],
        notes=tuple(doc["notes"]),
    )


def report_to_json(report: NeutralityReport) -> str:
    return json.dumps(report_to_dict(report), separators=(",", ":"))


def report_from_json(text: str) -> NeutralityReport:
    return report_from_dict(json.loads(text))
