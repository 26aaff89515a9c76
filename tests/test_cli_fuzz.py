"""Fuzz of the documents that ``check``, ``blend`` and ``verify`` read.

Every document ends in exit 0, 2 or 3, with no uncaught exception, within
2 s per command.  The documents hold wrong types, bools where integers
belong, the character [10**12], deep nesting, ragged relation matrices
and supports of a few hundred characters.

Group presentations stay small: invariant factors and relation entries
of at most 12 (besides 10**12 as a cyclic order), rank at most 2, and
rank 3 only up to order 64.  Beyond that a group whose AutV is all of a
large Aut(G) takes seconds in the row backtrack: ``check`` with an empty
support took 4.6 s on Z/4 x Z/8 x Z/8 and 7.4 s on (Z/35)^2, a cost
ROADMAP item 2 tracks.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from neutralrep.cli import main

BOUND_S = 2.0

SMALL = st.integers(-3, 12)
#: what a field meant for an integer may hold instead
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)
LEAVES = st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False), st.text(max_size=3))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


def integers(huge=False):
    """An integer field: mostly small integers, sometimes junk."""
    choices = [SMALL, SMALL, SMALL, JUNK]
    return st.one_of(*choices, st.just(10**12)) if huge else st.one_of(*choices)


DIVISORS = range(2, 13)
#: every invariant-factor list of rank at most 2 from DIVISORS, and those
#: of rank 3 up to order 64
CHAINS = (
    [()]
    + [(a,) for a in DIVISORS]
    + [(a, b) for a in DIVISORS for b in DIVISORS if b % a == 0]
    + [
        (a, b, c)
        for a in DIVISORS
        for b in DIVISORS
        for c in DIVISORS
        if b % a == 0 and c % b == 0 and a * b * c <= 64
    ]
)

GROUPS = st.one_of(
    st.fixed_dictionaries({"invariant_factors": st.lists(integers(), max_size=2)}),
    st.fixed_dictionaries({"invariant_factors": st.just([10**12])}),
    # rows of any lengths up to 2, so some matrices are ragged
    st.fixed_dictionaries(
        {"relations": st.lists(st.lists(integers(), max_size=2), max_size=3)}
    ),
    st.fixed_dictionaries(
        {"invariant_factors": st.lists(SMALL, max_size=2), "relations": st.just([[4]])}
    ),
    JSON,
)
CHARACTERS = st.one_of(
    st.lists(integers(huge=True), max_size=3), st.just([10**12]), st.just([True]), JSON
)
ENTRIES = st.one_of(
    st.fixed_dictionaries({"character": CHARACTERS, "multiplicity": integers(huge=True)}),
    st.fixed_dictionaries({"character": CHARACTERS}),
    JSON,
)


@st.composite
def valid_documents(draw):
    """A group from CHAINS with a support of up to 5 characters: well typed,
    though two characters may be equal once reduced."""
    factors = draw(st.sampled_from(CHAINS))
    character = st.lists(st.integers(0, 11), min_size=len(factors), max_size=len(factors))
    entries = st.lists(
        st.fixed_dictionaries({"character": character, "multiplicity": st.integers(1, 3)}),
        max_size=5,
        unique_by=repr,
    )
    return {"group": {"invariant_factors": list(factors)}, "representation": draw(entries)}


@st.composite
def wide_supports(draw):
    """A cyclic group with a support of a few hundred characters, some of
    them repeated once reduced."""
    size = draw(st.integers(200, 400))
    step = draw(st.integers(1, 2))
    n = draw(st.integers(size - 10, 1000))
    cycle = draw(st.integers(1, 3))
    bad = draw(st.sampled_from([True, 0, None, None, None]))
    return {
        "group": {"invariant_factors": [n]},
        "representation": [
            {"character": [i * step], "multiplicity": 1 + i % cycle if bad is None else bad}
            for i in range(size)
        ],
    }


def nested(depth: int, inner: str = "[]") -> str:
    return "[" * depth + inner + "]" * depth


@st.composite
def deep_documents(draw):
    """A document with one field, or the whole, nested ``depth`` lists deep,
    past the parser's recursion limit for the larger depths."""
    depth = draw(st.integers(1, 3000))
    where = draw(st.sampled_from(["document", "group", "factors", "representation", "character",
                                  "multiplicity"]))
    deep = nested(depth, draw(st.sampled_from(["", "1", "{}"])))
    parts = {
        "group": '{"invariant_factors": [4]}',
        "factors": "[4]",
        "representation": '[{"character": CHARACTER, "multiplicity": MULTIPLICITY}]',
        "character": "[1]",
        "multiplicity": "1",
    }
    if where == "document":
        return deep
    parts[where] = deep
    entries = (
        parts["representation"]
        .replace("CHARACTER", parts["character"])
        .replace("MULTIPLICITY", parts["multiplicity"])
    )
    group = parts["group"].replace("[4]", parts["factors"])
    return f'{{"group": {group}, "representation": {entries}}}'


DOCUMENTS = st.one_of(
    valid_documents().map(json.dumps),
    valid_documents().map(json.dumps),
    st.fixed_dictionaries(
        {"group": GROUPS, "representation": st.one_of(st.lists(ENTRIES, max_size=4), JSON)}
    ).map(json.dumps),
    wide_supports().map(json.dumps),
    deep_documents(),
    JSON.map(json.dumps),
)

C4_DOC = {
    "group": {"invariant_factors": [4]},
    "representation": [
        {"character": [1], "multiplicity": 1},
        {"character": [2], "multiplicity": 1},
    ],
}
C4_REPORT = {
    **C4_DOC,
    "dim": 2,
    "overall": "neutral",
    "faithful": True,
    "pseudoreflections": [[2]],
    "factorial_shortcut": False,
    "primes": [
        {
            "prime": 2,
            "strategy": "EasyCyclic",
            "witness": {"dim": 2, "fixed_dim": 1},
            "verdict": "certified",
        }
    ],
    "notes": [],
}


@st.composite
def forged_reports(draw):
    """C4's report with one field, one entry or one witness value replaced
    by a drawn value, or a drawn document of no report shape, as text."""
    report = json.loads(json.dumps(C4_REPORT))
    value = draw(
        st.one_of(JSON, integers(huge=True), st.integers(1, 400).map(lambda d: json.loads(nested(d))))
    )
    where = draw(st.sampled_from(["top", "entry", "witness", "whole", "certificates", "deep"]))
    if where == "deep":
        return nested(draw(st.integers(1, 3000)))
    if where == "whole":
        return json.dumps(value)
    if where == "certificates":
        return json.dumps({"certificates": value})
    if where == "top":
        report[draw(st.sampled_from(sorted(report)))] = value
    elif where == "entry":
        entry = report["primes"][0]
        entry[draw(st.sampled_from(sorted(entry)))] = value
    else:
        report["primes"][0]["witness"][draw(st.sampled_from(["dim", "fixed_dim"]))] = value
    return json.dumps(report)


def run(argv):
    """Exit code and output of one in-process command; any uncaught
    exception fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert elapsed < BOUND_S, (argv, elapsed)
    return code, out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=DOCUMENTS)
def test_fuzzed_documents_end_in_an_exit_code(text, tmp_path_factory):
    work = tmp_path_factory.mktemp("doc")
    doc, report, c4 = work / "doc.json", work / "report.json", work / "c4.json"
    doc.write_text(text)
    report.write_text(json.dumps(C4_REPORT))
    c4.write_text(json.dumps(C4_DOC))
    code, out = run(["check", str(doc), "--json"])
    run(["blend", str(doc)])
    run(["verify", str(doc), str(report)])
    if code == 0:  # the document is valid, and verify replays its own report
        report.write_text(out)
        run(["verify", str(doc), str(report)])
        run(["verify", str(c4), str(report)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=forged_reports())
def test_fuzzed_reports_end_in_an_exit_code(text, tmp_path_factory):
    work = tmp_path_factory.mktemp("report")
    doc, report = work / "c4.json", work / "report.json"
    doc.write_text(json.dumps(C4_DOC))
    report.write_text(text)
    run(["verify", str(doc), str(report)])
