"""Command-line surface: outputs, exit codes, JSON round trips."""

import json
import subprocess
import sys
import time

import pytest

from neutralrep.cli import main
from neutralrep.criteria import neutrality_report, report_from_json
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


def test_curve_command(capsys):
    assert main(["curve", "--n", "6", "--genus", "4", "--quotient-genus", "2=1,3=2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: DefinedOverFieldOfModuli" in out
    assert "caller asserts" in out

    assert main(["curve", "--n", "7", "--genus", "10", "--quotient-genus", "7=3"]) == 0
    assert "verdict: Unknown" in capsys.readouterr().out

    assert main(["curve", "--n", "6", "--genus", "4", "--quotient-genus", "2=1"]) == 2
    assert main(["curve", "--n", "2", "--genus", "3", "--quotient-genus", "2=0,bogus"]) == 2


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
