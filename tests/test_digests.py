"""Report and blend bytes pinned across commits.

Criterion 8 compares a commit only with itself, so a refactor could change
the bytes and still pass it.  These digests were recorded from the code
before AutV was shared across the per-prime strategies; any change to the
reports or blends of the maps below shows up here.
"""

import contextlib
import hashlib
import io
import itertools
import json

from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.cli import _bounded_vectors, main
from neutralrep.criteria import neutrality_report, report_to_json
from neutralrep.rep import Representation

REPORTS_SHA256 = "e48749be910ca6f9e8b3213f09c50ad099988c394415db9102dddf5e0fe69ad1"
BLENDS_SHA256 = "acaddebbc52e76e4df216d2f8fff84dc3b821e2110a93444799176b8fce434fa"


def _maps():
    """The criterion-8 sweep, then every map with one or two characters and
    multiplicities in {1, 2} on (Z/2)^2, Z/2 x Z/4 and (Z/3)^2."""
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        for vec in _bounded_vectors(n, 3):
            yield (n,), {(i,): m for i, m in enumerate(vec) if m}
    for factors in ((2, 2), (2, 4), (3, 3)):
        tuples = list(itertools.product(*(range(d) for d in factors)))
        for size in (1, 2):
            for support in itertools.combinations(tuples, size):
                for mults in itertools.product((1, 2), repeat=size):
                    yield factors, dict(zip(support, mults))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_bytes_match_pinned_digest():
    chunks = [
        report_to_json(
            neutrality_report(
                Representation.from_multiplicities(FiniteAbelianGroup(factors), mult)
            )
        )
        for factors, mult in _maps()
    ]
    assert len(chunks) == 1367
    assert _sha256("\n".join(chunks)) == REPORTS_SHA256


def test_blend_json_bytes_match_pinned_digest(tmp_path):
    path = tmp_path / "doc.json"
    out = io.StringIO()
    for factors, mult in _maps():
        doc = {
            "group": {"invariant_factors": list(factors)},
            "representation": [
                {"character": list(c), "multiplicity": m} for c, m in mult.items()
            ],
        }
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out):
            assert main(["blend", str(path), "--json"]) == 0
    assert _sha256(out.getvalue()) == BLENDS_SHA256
