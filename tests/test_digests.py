"""Report and blend bytes pinned across commits.

Criterion 8 compares a commit only with itself, so a refactor could change
the bytes and still pass it.  These digests were recorded from the code
before AutV was shared across the per-prime strategies; any change to the
reports or blends of the maps below shows up here.  The blend text digest
and the rank-3 blend digest were recorded from the code before the blend's
orbits came from generator matrices applied to coordinates, when they still
came from index permutations.  The search digests were recorded from the
code before ``search`` stopped keeping every report until the sweep ended.
The ``close_group`` order digests were recorded from the code before the
Dimino closure memoised generator images and picked cosets by index.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.autgroup import aut_generators, close_group
from neutralrep.cli import _bounded_vectors, main
from neutralrep.criteria import neutrality_report, report_to_json
from neutralrep.rep import Representation

REPORTS_SHA256 = "e48749be910ca6f9e8b3213f09c50ad099988c394415db9102dddf5e0fe69ad1"
BLENDS_SHA256 = "acaddebbc52e76e4df216d2f8fff84dc3b821e2110a93444799176b8fce434fa"
BLEND_TEXT_SHA256 = "2704cd0611eda34bd2eb7e6285bab0ecab2584268ca80c971d6289616f8bff56"
RANK3_BLENDS_SHA256 = "a3b70e51b4b63893eb09f3ccf759babc3639ce41c4cbae90dcc69216c9547bd1"
# stdout of ``neutralrep search --cyclic N --max-dim D [--json]``
SEARCH_SHA256 = {
    ("12", "3", False): "f930048f13fbbefd8eddb354da91e4e55a44a11dca06fb640cf57a388c304b8a",
    ("12", "3", True): "922786c58be48ce9cdf15f50935479da2f208cdeca5b994a85c4019a2175d2ad",
    ("30", "2", False): "9204fed5b7305331cffa46116c33cd49a309b6a54e52c6cddecae9da10215798",
    ("30", "2", True): "10b398288de213b843015bef1ca9f444e62d0775181795adbcebf17a59347487",
    ("60", "2", False): "b8de020c4e208b4e925ea9bfed3f9110bf2c2682997ec56828c50255157d0100",
    ("60", "2", True): "9d7fc61785e35e0d9041b112f9e81536f0e20f15692157cf509edcf58bf9c988",
}
# the row matrices of the elements ``close_group(G, aut_generators(G))``
# lists in column form, in order, one JSON line each
CLOSE_GROUP_SHA256 = {
    (2, 2, 2, 2): "ba584f3c4d6c332938527f32a14217e588f8e494b92b19f6aaa5b524936e6d6f",
    (3, 3, 3): "26a4736d3f5a10ef8c4813014075ed2294e483ba231ca0429cd43d95d5258294",
    (2, 2, 4): "ea8cf9cf3356a053f278568a7b9d392b0f57937224b5c059df0c9992ab09490d",
    (97,): "e04c79f9a5de74ee8239603633b97f9719fb59331acc158a6f9b443d74f79237",
}


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


def _rank3_maps():
    """Every support of one character, and every support of two characters
    with multiplicities 1 and 2, on (Z/2)^3, (Z/2)^2 x Z/4 and (Z/3)^3."""
    for factors in ((2, 2, 2), (2, 2, 4), (3, 3, 3)):
        tuples = list(itertools.product(*(range(d) for d in factors)))
        for size in (1, 2):
            for support in itertools.combinations(tuples, size):
                yield factors, dict(zip(support, (1, 2)))


def _blend_output(tmp_path, maps, flags):
    """The concatenated stdout of ``neutralrep blend`` on each map, one
    ``main`` call per map."""
    path = tmp_path / "doc.json"
    out = io.StringIO()
    for factors, mult in maps:
        doc = {
            "group": {"invariant_factors": list(factors)},
            "representation": [
                {"character": list(c), "multiplicity": m} for c, m in mult.items()
            ],
        }
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out):
            assert main(["blend", str(path), *flags]) == 0
    return out.getvalue()


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
    assert _sha256(_blend_output(tmp_path, _maps(), ["--json"])) == BLENDS_SHA256


def test_blend_text_bytes_match_pinned_digest(tmp_path):
    assert _sha256(_blend_output(tmp_path, _maps(), [])) == BLEND_TEXT_SHA256


def test_rank3_blend_json_bytes_match_pinned_digest(tmp_path):
    maps = list(_rank3_maps())
    assert len(maps) == 550
    assert _sha256(_blend_output(tmp_path, maps, ["--json"])) == RANK3_BLENDS_SHA256


@pytest.mark.parametrize("n, max_dim, as_json", list(SEARCH_SHA256))
def test_search_bytes_match_pinned_digest(n, max_dim, as_json):
    flags = ["--json"] if as_json else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["search", "--cyclic", n, "--max-dim", max_dim, *flags]) == 0
    assert _sha256(out.getvalue()) == SEARCH_SHA256[n, max_dim, as_json]


@pytest.mark.parametrize("factors", list(CLOSE_GROUP_SHA256))
def test_close_group_order_matches_pinned_digest(factors):
    group = FiniteAbelianGroup(factors)
    closed = close_group(group, aut_generators(group))
    text = "\n".join(json.dumps(tuple(zip(*columns))) for columns in closed)
    assert _sha256(text) == CLOSE_GROUP_SHA256[factors]
