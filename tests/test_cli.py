"""Command-line surface: outputs, exit codes, JSON round trips."""

import argparse
import json
import subprocess
import sys
import time

import pytest

from neutralrep.cli import _bounded_vectors, build_parser, main
from neutralrep.criteria import neutrality_report, report_from_json, report_to_dict
from neutralrep.errors import InputError
from neutralrep.rep import rep_from_input

C4_DOC = {
    "group": {"invariant_factors": [4]},
    "representation": [
        {"character": [1], "multiplicity": 1},
        {"character": [2], "multiplicity": 1},
    ],
}
RHO2_DOC = {
    "group": {"invariant_factors": [2]},
    "representation": [{"character": [1], "multiplicity": 2}],
}


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(C4_DOC))
    return str(path)


@pytest.fixture
def rho2_file(tmp_path):
    path = tmp_path / "rho2.json"
    path.write_text(json.dumps(RHO2_DOC))
    return str(path)


def test_check_neutral(c4_file, capsys):
    assert main(["check", c4_file]) == 0
    out = capsys.readouterr().out
    assert "overall: NEUTRAL" in out
    assert "CERTIFIED via EasyCyclic" in out


def test_check_unknown_with_sentinel_note(rho2_file, capsys):
    assert main(["check", rho2_file]) == 0
    out = capsys.readouterr().out
    assert "overall: UNKNOWN" in out
    assert "criteria inconclusive" in out
    assert "NOT a proof of non-neutrality" in out


def test_generic_unknown_wording(tmp_path, capsys):
    doc = {
        "group": {"invariant_factors": [2]},
        "representation": [{"character": [0], "multiplicity": 2}],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NOT a proof of non-neutrality" in out
    assert "provably" not in out


def test_check_json_roundtrip(c4_file, capsys):
    assert main(["check", c4_file, "--json"]) == 0
    text = capsys.readouterr().out.strip()
    report = report_from_json(text)
    assert report == neutrality_report(rep_from_input(C4_DOC))


def test_check_single_prime(c4_file, capsys):
    assert main(["check", c4_file, "--prime", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prime"] == 2 and doc["verdict"] == "certified"
    assert main(["check", c4_file, "--prime", "3"]) == 2
    assert main(["check", c4_file, "--prime", "4"]) == 2
    # divisibility is tested before primality, so a huge --prime exits at once
    start = time.perf_counter()
    assert main(["check", c4_file, "--prime", "1000000000000000003"]) == 2
    assert time.perf_counter() - start < 1.0
    assert main(["check", c4_file, "--prime", "0"]) == 2
    assert main(["check", c4_file, "--prime", "-2"]) == 2


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "group": {"invariant_factors": [4]},
                "representation": [
                    {"character": [1], "multiplicity": 1},
                    {"character": [5], "multiplicity": 1},
                ],
            }
        )
    )
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "appears twice" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["check", str(notjson)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "group, field",
    [
        ({"relations": [[True, 0], [0, 4]]}, "relations"),
        ({"invariant_factors": [True, 4]}, "invariant_factors"),
    ],
)
def test_bools_in_group_documents_are_refused(tmp_path, capsys, group, field):
    # JSON's true is a Python bool, which is an int; a group built from it
    # would be read as one with a 1 in its place
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**C4_DOC, "group": group}))
    assert main(["check", str(doc)]) == 2
    assert f'"{field}" must be a list of integer' in capsys.readouterr().err


def test_bools_in_stored_pseudoreflections_are_refused(c4_file, capsys):
    assert main(["check", c4_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # a bool is not an integer, and a point of Z/4 has exactly one coordinate
    for refs in ([[True]], [[1, 2]], [[]]):
        doc["pseudoreflections"] = refs
        with pytest.raises(InputError, match='"pseudoreflections" must be a list'):
            report_from_json(json.dumps(doc))
    # stored coordinates are reduced
    doc["pseudoreflections"] = [[6]]
    assert report_from_json(json.dumps(doc)).pseudoreflections == ((2,),)


def test_loosely_typed_stored_reports_are_refused():
    doc = report_to_dict(neutrality_report(rep_from_input(RHO2_DOC)))
    report_from_json(json.dumps(doc))
    bad = {**doc, "faithful": "banana", "factorial_shortcut": [1], "notes": "xyz"}
    with pytest.raises(InputError):
        report_from_json(json.dumps(bad))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("faithful", "banana", '"faithful" must be true or false'),
        ("faithful", 1, '"faithful" must be true or false'),
        ("factorial_shortcut", [1], '"factorial_shortcut" must be true or false'),
        ("notes", "xyz", '"notes" must be a list of strings'),
        ("notes", [1], '"notes" must be a list of strings'),
        ("prime", "two", "non-integer prime 'two'"),
        ("prime", True, "non-integer prime True"),
        ("reasons", "xyz", '"reasons" must be a list of strings'),
    ],
)
def test_each_loosely_typed_report_field_is_refused(field, value, message):
    doc = report_to_dict(neutrality_report(rep_from_input(RHO2_DOC)))
    assert doc["primes"][0]["verdict"] == "unknown"
    if field in ("prime", "reasons"):
        doc["primes"][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(InputError, match=message):
        report_from_json(json.dumps(doc))


def test_repeated_main_calls_share_one_parser(c4_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    build_parser.cache_clear()
    assert main(["check", c4_file]) == 0
    assert len(built) == 7  # the parser and its six commands
    del built[:]

    # a --cap given once does not stay for the next call
    assert main(["blend", c4_file, "--cap", "1"]) == 3
    assert main(["blend", c4_file]) == 0
    # nor does a --prime
    capsys.readouterr()
    assert main(["check", c4_file, "--prime", "2", "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["prime"] == 2 and "primes" not in verdict
    assert main(["check", c4_file, "--json"]) == 0
    assert [v["prime"] for v in json.loads(capsys.readouterr().out)["primes"]] == [2]
    # a usage error leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    assert main(["check", c4_file]) == 0
    # help prints the same text each time
    for argv in (["--help"], ["check", "--help"]):
        texts = []
        for _ in range(2):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: neutralrep" in texts[0]
    assert built == []


UNREADABLE_DOCUMENTS = {
    "not-utf8": b'{"group": \xff}',
    "nested-too-deep": b"[" * 200_000 + b"]" * 200_000,
    "integer-too-long": b'{"group": {"invariant_factors": [' + b"1" * 5000 + b"]}}",
}


@pytest.mark.parametrize("content", UNREADABLE_DOCUMENTS.values(), ids=list(UNREADABLE_DOCUMENTS))
def test_unreadable_documents_exit_2(c4_file, tmp_path, capsys, content):
    # each is an input error in either file argument, not a crash
    bad = str(tmp_path / "bad.json")
    with open(bad, "wb") as handle:
        handle.write(content)
    for argv in (["check", bad], ["blend", bad], ["verify", bad, c4_file], ["verify", c4_file, bad]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: "), argv
        # the message is about the file, not the interpreter's settings
        assert "set_int_max_str_digits" not in err, argv


def test_ragged_relation_matrix_exits_2(c4_file, tmp_path, capsys):
    doc = tmp_path / "ragged.json"
    doc.write_text(json.dumps({**C4_DOC, "group": {"relations": [[2, 0], [0]]}}))
    for argv in (["check", str(doc)], ["blend", str(doc)], ["verify", str(doc), c4_file]):
        assert main(argv) == 2, argv
        assert "rows must all have the same length" in capsys.readouterr().err


def test_blend_output(tmp_path, capsys):
    doc = {
        "group": {"invariant_factors": [5]},
        "representation": [
            {"character": [1], "multiplicity": 1},
            {"character": [4], "multiplicity": 1},
        ],
    }
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(doc))
    assert main(["blend", str(path)]) == 0
    out = capsys.readouterr().out
    assert "orbits: 3" in out

    assert main(["blend", str(path), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert [o["characters"] for o in parsed["orbits"]] == [[[0]], [[1], [4]], [[2], [3]]]

    assert main(["blend", str(path), "--cap", "1"]) == 3
    assert main(["blend", str(path), "--cap", "0"]) == 2


def z5_cubed_doc(multiplicities):
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {
        "group": {"invariant_factors": [5, 5, 5]},
        "representation": [
            {"character": e, "multiplicity": m} for e, m in zip(basis, multiplicities)
        ],
    }


def test_cap_is_decided_before_the_work(tmp_path, capsys):
    # |Aut((Z/5)^3)| = |GL3(F5)| = 1,488,000 exceeds the default cap, which
    # the closed form for |Aut(G)| tells before any automorphism is listed
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(z5_cubed_doc([2, 2, 2])))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |Aut(G)| = 1488000 exceeds the element cap (1000000)\n"
    # with distinct multiplicities AutV is trivial, so a cap above |Aut(G)|
    # certifies without listing Aut(G)
    path.write_text(json.dumps(z5_cubed_doc([1, 2, 3])))
    start = time.perf_counter()
    assert main(["check", str(path), "--cap", "2000000", "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    report_text = capsys.readouterr().out
    report = json.loads(report_text)
    assert report["overall"] == "neutral"
    # verify closes Aut(G) at the default cap, so it refuses this
    # certificate at once instead of after 10^6 products
    certfile = tmp_path / "report.json"
    certfile.write_text(report_text)
    start = time.perf_counter()
    assert main(["verify", str(path), str(certfile)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "|Aut(G)| = 1488000 exceeds the element cap (1000000)" in capsys.readouterr().err


def test_blend_on_a_huge_cyclic_group_is_refused_by_the_cap(tmp_path, capsys):
    # |Aut(Z/10^12)| = 4 * 10^11 is compared with the cap before anything
    # sized |G| is allocated
    doc = {
        "group": {"invariant_factors": [10**12]},
        "representation": [{"character": [1], "multiplicity": 1}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["blend", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: |Aut(G)| = 400000000000 exceeds the element cap (1000000)\n"
    )


def test_blend_trivial_group(tmp_path, capsys):
    path = tmp_path / "triv.json"
    path.write_text(
        json.dumps({"group": {"invariant_factors": []},
                    "representation": [{"character": [], "multiplicity": 1}]})
    )
    assert main(["blend", str(path)]) == 0
    assert "orbits: 1" in capsys.readouterr().out


def test_verify_roundtrip(c4_file, tmp_path, capsys):
    assert main(["check", c4_file, "--json"]) == 0
    report_text = capsys.readouterr().out
    cert = tmp_path / "cert.json"
    cert.write_text(report_text)
    assert main(["verify", c4_file, str(cert)]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out and "all certificates verified" in out


def test_verify_tampered_and_malformed(c4_file, tmp_path, capsys):
    assert main(["check", c4_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["primes"][0]["witness"]["fixed_dim"] = 0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", c4_file, str(tampered)]) == 0
    assert "INVALID" in capsys.readouterr().out

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"prime": 3, "strategy": "EasyCyclic",
                                     "witness": {"dim": 2, "fixed_dim": 1}}))
    assert main(["verify", c4_file, str(malformed)]) == 2

    # entry lists that are not lists are malformed documents, not crashes
    for doc in ({"primes": 5}, {"certificates": None}):
        malformed.write_text(json.dumps(doc))
        assert main(["verify", c4_file, str(malformed)]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_verify_single_verdict_object(c4_file, tmp_path, capsys):
    assert main(["check", c4_file, "--prime", "2", "--json"]) == 0
    verdict_text = capsys.readouterr().out
    cert = tmp_path / "single.json"
    cert.write_text(verdict_text)
    assert main(["verify", c4_file, str(cert)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_nothing_to_verify(rho2_file, tmp_path, capsys):
    assert main(["check", rho2_file, "--json"]) == 0
    report_text = capsys.readouterr().out
    cert = tmp_path / "cert.json"
    cert.write_text(report_text)
    assert main(["verify", rho2_file, str(cert)]) == 0
    assert "no certified entries" in capsys.readouterr().out


def test_search_faithful_sweep(capsys):
    assert main(["search", "--cyclic", "2", "--max-dim", "2", "--faithful"]) == 0
    out = capsys.readouterr().out
    assert "{1: 1}  dim 1  NEUTRAL" in out
    assert "{1: 2}  dim 2  UNKNOWN" in out
    assert "counts: neutral 1, unknown 1 (total 2)" in out


def test_search_json_and_edge_cases(capsys):
    assert main(["search", "--cyclic", "3", "--max-dim", "1", "--faithful", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"neutral": 2, "unknown": 0}
    maps = [inst["multiplicities"] for inst in doc["instances"]]
    assert [[[1], 1]] in maps and [[[2], 1]] in maps

    assert main(["search", "--cyclic", "2", "--max-dim", "0", "--faithful"]) == 0
    assert "(total 0)" in capsys.readouterr().out

    assert main(["search", "--cyclic", "1", "--max-dim", "2"]) == 2

    # a long map vector is built without recursion
    assert main(["search", "--cyclic", "1200", "--max-dim", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 1


def test_bounded_vectors_match_the_recursive_definition():
    def recursive(slots, total):
        if slots == 0:
            yield ()
            return
        for first in range(total + 1):
            for rest in recursive(slots - 1, total - first):
                yield (first,) + rest

    for slots in range(17):
        for total in range(5):
            assert list(_bounded_vectors(slots, total)) == list(recursive(slots, total))


def test_curve_command(capsys):
    assert main(["curve", "--n", "6", "--genus", "4", "--quotient-genus", "2=1,3=2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: DefinedOverFieldOfModuli" in out
    assert "caller asserts" in out

    assert main(["curve", "--n", "7", "--genus", "10", "--quotient-genus", "7=3"]) == 0
    assert "verdict: Unknown" in capsys.readouterr().out

    assert main(["curve", "--n", "6", "--genus", "4", "--quotient-genus", "2=1"]) == 2
    assert main(["curve", "--n", "2", "--genus", "3", "--quotient-genus", "2=0,bogus"]) == 2


def test_curve_refuses_a_huge_non_divisor_at_once(capsys):
    # 10^18 + 3 does not divide 6; that is decided before any trial division
    start = time.perf_counter()
    argv = ["curve", "--n", "6", "--genus", "3", "--quotient-genus", "2=1,3=1,1000000000000000003=0"]
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "1000000000000000003" in capsys.readouterr().err


def test_marked_command(capsys):
    assert main(["marked", "--n", "2", "--dim", "1", "--fixed-dim", "2=0"]) == 0
    assert "verdict: DefinedOverFieldOfModuli" in capsys.readouterr().out
    assert main(["marked", "--n", "3", "--dim", "3", "--fixed-dim", "3=0"]) == 0
    assert "verdict: Unknown" in capsys.readouterr().out
    assert main(["marked", "--n", "2", "--dim", "0", "--fixed-dim", "2=0"]) == 2


def test_json_roundtrip_over_desk_sweep():
    # parse(serialize(report)) == report across a whole search sweep
    import itertools
    from neutralrep.abelian import FiniteAbelianGroup
    from neutralrep.criteria import report_to_json
    from neutralrep.rep import Representation

    for n in (2, 3, 4, 6, 9):
        group = FiniteAbelianGroup((n,))
        for dims in itertools.product(range(3), repeat=n):
            if sum(dims) > 3:
                continue
            V = Representation.from_multiplicities(
                group, {(i,): d for i, d in enumerate(dims) if d}
            )
            report = neutrality_report(V)
            assert report_from_json(report_to_json(report)) == report


def test_module_entrypoint_subprocess(c4_file):
    result = subprocess.run(
        [sys.executable, "-m", "neutralrep", "check", c4_file, "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["overall"] == "neutral"
