"""Command-line surface.

Exit codes: 0 for any completed computation (an Unknown verdict is a result,
not an error), 2 for schema or input problems, 3 when |Aut(G)| exceeds the
element cap.
All I/O is UTF-8 JSON or plain text.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys

from .abelian import DEFAULT_CAP, FiniteAbelianGroup, is_prime_divisor
from .criteria import (
    OVERALL_NEUTRAL,
    certificate_from_dict,
    check_prime,
    compact_json,
    neutrality_report,
    report_to_json,
    verdict_to_dict,
    verify_certificate,
)
from .errors import CapExceededError, InputError, MalformedCertificateError
from .geometry import (
    CurveInstance,
    MarkedInstance,
    curve_check,
    curve_to_representation_note,
    marked_check,
)
from .rep import Representation, blended_decomposition, is_faithful, rep_from_input, rep_to_dict


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="neutralrep",
        description=(
            "Decide, with replayable certificates, whether a diagonal "
            "representation of a finite abelian group scheme satisfies the "
            "sufficient criteria for neutrality, and run the derived "
            "field-of-moduli checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the per-prime neutrality criteria on an input file")
    p.add_argument("file", help="JSON document with 'group' and 'representation'")
    p.add_argument("--prime", type=int, default=None, help="check a single prime only")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="closure element cap")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("blend", help="print the orbit decomposition of the eigenspaces")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("curve", help="field-of-moduli check for a curve with cyclic automorphisms")
    p.add_argument("--n", type=int, required=True, help="order of the cyclic automorphism group")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--quotient-genus",
        default="",
        help="per-prime quotient genera, e.g. 2=1,3=2",
    )
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("marked", help="field-of-moduli check for a pointed variety")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fixed-dim", default="", help="per-prime fixed dimensions, e.g. 2=0")
    p.set_defaults(func=cmd_marked)

    p = sub.add_parser("verify", help="replay certificates against the input they claim to certify")
    p.add_argument("file")
    p.add_argument("certfile", help="a report from 'check --json', or a certificate object")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="sweep multiplicity maps on a cyclic group")
    p.add_argument("--cyclic", type=int, required=True, help="group order n (>= 2)")
    p.add_argument("--max-dim", type=int, required=True, help="total dimension bound")
    p.add_argument("--faithful", action="store_true", help="faithful representations only")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _checked_cap(cap: int) -> int:
    if cap < 1:
        raise InputError(f"--cap {cap} must be at least 1")
    return cap


def _load_json(path):
    """The parsed document, or an :class:`InputError` for a file that is not
    UTF-8, nests too deep or holds an integer too long to convert."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise InputError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError as exc:
        raise InputError(f"{path}: {exc}") from None
    except ValueError:  # json's one other ValueError: an integer past the digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"{path}: an integer in the file has more than {limit} digits") from None


def _load_representation(path) -> Representation:
    return rep_from_input(_load_json(path))


def _format_multiplicities(V: Representation) -> str:
    if not V.entries:
        return "{}"
    if V.group.rank == 1:
        items = (f"{chi.coords[0]}: {m}" for chi, m in V.entries)
    else:
        items = (f"{list(chi.coords)}: {m}" for chi, m in V.entries)
    return "{" + ", ".join(items) + "}"


def _print_header(V: Representation) -> None:
    group = V.group
    print(
        f"group: {group} (invariant factors {list(group.invariant_factors)}, "
        f"order {group.order})"
    )
    print(f"representation: dim {V.dim}, multiplicities {_format_multiplicities(V)}")


def _print_verdict(verdict) -> None:
    if verdict.certified:
        cert = verdict.certificate
        print(f"p = {verdict.prime}: CERTIFIED via {cert.strategy}")
        print(f"  witness: {compact_json(cert.witness)}")
    else:
        print(f"p = {verdict.prime}: UNKNOWN")
        for reason in verdict.reasons:
            print(f"  - {reason}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    cap = _checked_cap(args.cap)
    V = _load_representation(args.file)
    if args.prime is not None:
        p = args.prime
        if not is_prime_divisor(p, V.group.order):
            raise InputError(
                f"--prime {p} must be a prime dividing the group order {V.group.order}"
            )
        verdict = check_prime(V, p, cap)
        if args.json:
            print(compact_json(verdict_to_dict(verdict)))
        else:
            _print_header(V)
            _print_verdict(verdict)
        return 0
    report = neutrality_report(V, cap)
    if args.json:
        print(report_to_json(report))
        return 0
    _print_header(V)
    print(f"faithful: {'yes' if report.faithful else 'no'}")
    if report.pseudoreflections:
        listed = ", ".join(str(list(g)) for g in report.pseudoreflections)
        print(f"pseudoreflections: {listed}")
    if report.factorial_shortcut:
        print(
            "note: the group order is prime to (dim V)! and the action is "
            "faithful, so every prime certifies by LargePrime alone"
        )
    for verdict in report.verdicts:
        _print_verdict(verdict)
    for note in report.notes:
        print(f"note: {note}")
    if report.overall == OVERALL_NEUTRAL:
        print("overall: NEUTRAL")
    else:
        print("overall: UNKNOWN (criteria inconclusive; NOT a proof of non-neutrality)")
    return 0


def cmd_blend(args) -> int:
    cap = _checked_cap(args.cap)
    V = _load_representation(args.file)
    decomposition = blended_decomposition(V, cap)
    if args.json:
        print(
            compact_json(
                {
                    **rep_to_dict(V),
                    "symmetry_order": decomposition.symmetries.order,
                    "orbits": [
                        {
                            "characters": [list(c) for c in comp.members],
                            "size": comp.size,
                            "multiplicity": comp.multiplicity,
                            "det_character": list(comp.det_character.coords),
                        }
                        for comp in decomposition.components
                    ],
                }
            )
        )
        return 0
    _print_header(V)
    n_gens = len(decomposition.symmetries.generator_subset)
    print(
        f"multiplicity-preserving automorphisms: order "
        f"{decomposition.symmetries.order} "
        f"({n_gens} generator{'s' if n_gens != 1 else ''})"
    )
    for i, comp in enumerate(decomposition.components):
        chars = ", ".join(str(list(c)) for c in comp.members)
        print(
            f"orbit {i}: size {comp.size}, multiplicity {comp.multiplicity}, "
            f"characters [{chars}], det character {list(comp.det_character.coords)}"
        )
    print(f"orbits: {len(decomposition.components)}")
    return 0


def _parse_assignments(text: str, flag: str) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise InputError(f"{flag}: entry {part!r} is not of the form p=value")
        try:
            p, v = int(key), int(value)
        except ValueError:
            raise InputError(f"{flag}: entry {part!r} must be integer=integer") from None
        if p in out:
            raise InputError(f"{flag}: duplicate entry for prime {p}")
        out[p] = v
    return out


def cmd_curve(args) -> int:
    instance = CurveInstance(
        n=args.n,
        genus=args.genus,
        quotient_genus=_parse_assignments(args.quotient_genus, "--quotient-genus"),
    )
    report = curve_check(instance)
    note = curve_to_representation_note(instance)
    print(f"curve: n = {instance.n}, genus {instance.genus}")
    for assertion in report.assertions:
        print(f"  {assertion}")
    for check in report.checks:
        status = "passes" if check.passes else "silent"
        print(
            f"p = {check.prime}: genus difference {check.difference} -> {status}"
        )
    print(f"verdict: {report.verdict}")
    print(f"note: {note.summary}")
    for line in note.per_prime:
        print(f"note: {line}")
    return 0


def cmd_marked(args) -> int:
    instance = MarkedInstance(
        n=args.n,
        dim=args.dim,
        fixed_dim=_parse_assignments(args.fixed_dim, "--fixed-dim"),
    )
    report = marked_check(instance)
    print(f"pointed variety: n = {instance.n}, dim {instance.dim}")
    for assertion in report.assertions:
        print(f"  {assertion}")
    for check in report.checks:
        status = "passes" if check.passes else "silent"
        print(f"p = {check.prime}: dimension difference {check.difference} -> {status}")
    print(f"verdict: {report.verdict}")
    return 0


def _extract_certificates(doc):
    """The certificates of a report, of ``{"certificates": [...]}`` or of a
    single verdict or certificate object; unknown verdicts are skipped."""
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate document must be a JSON object")
    if "primes" in doc:
        entries = doc["primes"]
    elif "certificates" in doc:
        entries = doc["certificates"]
    else:
        entries = [doc]
    if not isinstance(entries, list):
        raise MalformedCertificateError("certificate entries must be a list")
    certs = []
    for entry in entries:
        if isinstance(entry, dict) and entry.get("verdict") == "unknown":
            continue
        certs.append(certificate_from_dict(entry))
    return certs


def cmd_verify(args) -> int:
    V = _load_representation(args.file)
    certificates = _extract_certificates(_load_json(args.certfile))
    if not certificates:
        print("no certified entries to verify")
        return 0
    all_ok = True
    for cert in certificates:
        ok = verify_certificate(V, cert)
        all_ok = all_ok and ok
        print(f"p = {cert.prime} {cert.strategy}: {'VERIFIED' if ok else 'INVALID'}")
    print("all certificates verified" if all_ok else "some certificates FAILED to verify")
    return 0


def _bounded_vectors(slots: int, total: int):
    """All nonnegative integer vectors of the given length with sum <= total,
    in lexicographic order.  A vector's running sums are a nondecreasing
    tuple with entries <= total, and lexicographic order on those is order
    on the vectors, so they are read off ``combinations_with_replacement``
    with no recursion."""
    for sums in itertools.combinations_with_replacement(range(total + 1), slots):
        yield tuple(map(operator.sub, sums, (0,) + sums))


def cmd_search(args) -> int:
    cap = _checked_cap(args.cap)
    n, max_dim = args.cyclic, args.max_dim
    if n < 2:
        raise InputError(f"--cyclic {n} must be at least 2")
    if max_dim < 0:
        raise InputError(f"--max-dim {max_dim} must be nonnegative")
    group = FiniteAbelianGroup((n,))
    counts = {"neutral": 0, "unknown": 0}
    exemplars = {"neutral": None, "unknown": None}
    rows = []  # printed lines or JSON instances, held so that a capped sweep prints nothing
    for vec in _bounded_vectors(n - 1, max_dim):
        mult = {(i + 1,): m for i, m in enumerate(vec) if m}
        V = Representation.from_multiplicities(group, mult)
        if args.faithful and not is_faithful(V):
            continue
        report = neutrality_report(V, cap)
        key = "neutral" if report.overall == OVERALL_NEUTRAL else "unknown"
        counts[key] += 1
        if exemplars[key] is None:
            exemplars[key] = _format_multiplicities(V)
        strategies = [
            (v.prime, v.certificate.strategy if v.certified else None) for v in report.verdicts
        ]
        if args.json:
            rows.append(
                {
                    "multiplicities": [[list(chi.coords), m] for chi, m in V.entries],
                    "dim": V.dim,
                    "overall": report.overall,
                    "primes": [{"prime": q, "strategy": s} for q, s in strategies],
                }
            )
        else:
            listed = ", ".join(f"p={q}: {s or 'unknown'}" for q, s in strategies)
            rows.append(
                f"  {_format_multiplicities(V)}  dim {V.dim}  {key.upper()}"
                + (f"  [{listed}]" if listed else "")
            )
    if args.json:
        print(
            compact_json(
                {
                    "n": n,
                    "max_dim": max_dim,
                    "faithful_only": bool(args.faithful),
                    "total": len(rows),
                    "counts": counts,
                    "instances": rows,
                }
            )
        )
        return 0
    scope = "faithful multiplicity maps" if args.faithful else "multiplicity maps"
    print(f"search: Z/{n}, {scope} supported on nonzero characters, total dim <= {max_dim}")
    for line in rows:
        print(line)
    print(
        f"counts: neutral {counts['neutral']}, unknown {counts['unknown']} "
        f"(total {len(rows)})"
    )
    for key in ("neutral", "unknown"):
        if exemplars[key] is not None:
            print(f"exemplar {key}: {exemplars[key]}")
    return 0
