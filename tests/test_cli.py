from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringinv import RingSpec, _scan, census, matrix, modular, parse_element, parse_ring
from ringinv.cli import main

from conftest import HIRANO_FAILURE, M8_Z47_ELEMENT, UNFACTORABLE_MODULUS

# `census --json` stdout and exit code per argv, recorded from the per-element
# count path that preceded the whole-ring masks.
CENSUS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "census_golden.json").read_text()
)
# `classify --json` stdout and exit code per argv, recorded from the power-orbit
# Drazin inverse that preceded the unit-exponent power.
CLASSIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "classify_golden.json").read_text()
)
# `verify --json` stdout and exit code per argv.  The law 3.6 battery was
# recorded from the per-element tripotent search that preceded the
# commuting-pair scan; every law on Z/27 and M2(Z/2) and every law sampled on
# M2(Z/7) were recorded from the laws that caught their own
# VerificationErrors, except 3.3 and 3.4 on M2(Z/2) and Z/12, recorded from
# the CRT split that replaced their refusal where 2 is not a unit.
VERIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "verify_golden.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_human_output_for_drazin_only_matrix(self, capsys):
        code, out, err = run(capsys, "classify", "M2(Z/2)", "[[0,1],[1,1]]")
        assert code == 0 and err == ""
        assert "element [[0,1],[1,1]] in M2(Z/2)" in out
        assert "hirano: none" in out
        assert "strongly drazin: none" in out
        assert "drazin: [[1,1],[1,0]] (index 1)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "Z/9", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "ring": "Z/9",
            "element": "2",
            "has_hirano": True,
            "has_strongly_drazin": False,
            "has_drazin": True,
            "hirano": "5",
            "strongly_drazin": None,
            "drazin": "5",
            "drazin_index": 1,
        }

    def test_json_element_literals_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "M2(Z/2)", "[[0,1],[1,1]]", "--json")
        assert code == 0
        payload = json.loads(out)
        ring = parse_ring(payload["ring"])
        assert ring == matrix(modular(2), 2)
        recovered = parse_element(ring, payload["drazin"])
        assert recovered == ring.element([[1, 1], [1, 0]])

    def test_undecided_drazin_over_integer_matrices(self, capsys):
        code, out, _ = run(capsys, "classify", "M2(Z)", "[[2,0],[0,0]]")
        assert code == 0
        assert "drazin: undecided" in out

    @pytest.mark.parametrize(
        "entry", CLASSIFY_GOLDEN, ids=lambda entry: " ".join(entry["argv"][1:3])
    )
    def test_json_matches_golden_output(self, capsys, entry):
        code, out, _ = run(capsys, *entry["argv"])
        assert (code, out) == (entry["exit_code"], entry["stdout"])

    def test_dimension_eight_matrix(self, capsys):
        code, out, _ = run(capsys, "classify", "M8(Z/47)", M8_Z47_ELEMENT, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["has_drazin"] is True
        assert payload["drazin_index"] == 2

    def test_large_prime_modulus(self, capsys):
        code, out, _ = run(capsys, "classify", "Z/10000000000000061", "3", "--json")
        assert code == 0
        assert json.loads(out)["has_hirano"] is False

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_unfactorable_modulus_fails(self, capsys):
        code, out, err = run(capsys, "classify", f"Z/{UNFACTORABLE_MODULUS}", "3", "--json")
        assert code == 1 and out == ""
        assert f"cannot factor the modulus {UNFACTORABLE_MODULUS}" in err


class TestDecompose:
    def test_mod9(self, capsys):
        code, out, _ = run(capsys, "decompose", "Z/9", "2")
        assert code == 0
        assert "tripotent p = 8" in out
        assert "nilpotent w = 3 (index 2)" in out
        assert "idempotent e = 0" in out
        assert "idempotent f = 1" in out

    def test_mod3_fixed_point(self, capsys):
        code, out, _ = run(capsys, "decompose", "Z/3", "2")
        assert code == 0
        assert "tripotent p = 2" in out
        assert "nilpotent w = 0 (index 1)" in out

    def test_even_modulus(self, capsys):
        code, out, _ = run(capsys, "decompose", "Z/4", "2")
        assert code == 0
        assert "tripotent p = 0" in out
        assert "nilpotent w = 2 (index 2)" in out
        assert "idempotent e = 0" in out
        assert "idempotent f = 0" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "decompose", "Z/9", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tripotent"] == "8"
        assert payload["nilpotent"] == "3"
        assert payload["nilpotent_index"] == 2
        ring = parse_ring(payload["ring"])
        total = parse_element(ring, payload["tripotent"]) + parse_element(
            ring, payload["nilpotent"]
        )
        assert total == parse_element(ring, payload["element"])


def classify_text(p: dict) -> str:
    """The human classify text that carries the --json payload p."""
    if p["drazin"] is not None:
        drazin = f"{p['drazin']} (index {p['drazin_index']})"
    else:
        drazin = "none" if p["has_drazin"] is False else "undecided"
    return (
        f"element {p['element']} in {p['ring']}\n"
        f"  hirano: {'none' if p['hirano'] is None else p['hirano']}\n"
        f"  strongly drazin: {'none' if p['strongly_drazin'] is None else p['strongly_drazin']}\n"
        f"  drazin: {drazin}\n"
    )


def decompose_text(p: dict) -> str:
    """The human decompose text that carries the --json payload p."""
    lines = [
        f"element {p['element']} in {p['ring']}",
        f"  tripotent p = {p['tripotent']}",
        f"    p as a polynomial in a: {p['tripotent_certificate']}",
        f"  nilpotent w = {p['nilpotent']} (index {p['nilpotent_index']})",
    ]
    if p["plus_idempotent"] is not None:
        lines.append(f"  idempotent e = {p['plus_idempotent']}")
        if p["plus_certificate"] is not None:
            lines.append(f"    e as a polynomial in a: {p['plus_certificate']}")
        lines.append(f"  idempotent f = {p['minus_idempotent']}")
        if p["minus_certificate"] is not None:
            lines.append(f"    f as a polynomial in a: {p['minus_certificate']}")
    return "".join(line + "\n" for line in lines)


class TestRenderingsAgree:
    """The human text says what --json says: the same inverses, index,
    certificates and none/undecided words, or the same refusal."""

    @pytest.mark.parametrize(
        "argv",
        [entry["argv"][:3] for entry in CLASSIFY_GOLDEN]
        + [["classify", "M2(Z)", "[[2,0],[0,0]]"], ["classify", "Z", "2"]],
        ids=" ".join,
    )
    def test_classify(self, capsys, argv):
        human = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--json")
        expected = classify_text(json.loads(out)) if code == 0 else ""
        assert human == (code, expected, err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("Z/9", "2"),
            ("Z/12", "5"),
            ("Z/4", "2"),
            ("Z/5", "3"),
            ("M2(Z/3)", "[[1,2],[0,1]]"),
            ("M2(Z/4)", "[[2,1],[0,3]]"),
            ("M2(Z/9)", "[[2,1],[0,2]]"),
            ("M2(Z)", "[[1,0],[0,-1]]"),
            ("M2(Z)", "[[0,1],[1,0]]"),
            ("M2(Z)", "[[2,0],[0,0]]"),
        ],
        ids=" ".join,
    )
    def test_decompose(self, capsys, argv):
        human = run(capsys, "decompose", *argv)
        code, out, err = run(capsys, "decompose", *argv, "--json")
        expected = decompose_text(json.loads(out)) if code == 0 else ""
        assert human == (code, expected, err)


class TestCensus:
    def test_json_counts(self, capsys):
        code, out, _ = run(capsys, "census", "Z/3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {
            "total": 3,
            "nilpotent": 1,
            "idempotent": 2,
            "tripotent": 3,
            "unit": 2,
            "drazin": 3,
            "strongly_drazin": 2,
            "hirano": 3,
        }
        assert payload["is_strongly_2_nil_clean"] is True

    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "census", "M2(Z/2)")
        assert code == 0
        assert "M2(Z/2)" in out
        assert "16" in out
        assert out.splitlines()[1:8] == [
            "  nilpotent: 4",
            "  idempotent: 8",
            "  tripotent: 11",
            "  unit: 6",
            "  drazin: 16",
            "  strongly drazin: 14",
            "  hirano: 14",
        ]

    def test_infinite_ring_fails(self, capsys):
        code, _, err = run(capsys, "census", "Z")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "entry", CENSUS_GOLDEN, ids=lambda entry: " ".join(entry["argv"][1:])
    )
    def test_json_matches_golden_output(self, capsys, entry):
        code, out, _ = run(capsys, *entry["argv"])
        assert (code, out) == (entry["exit_code"], entry["stdout"])

    def test_negative_samples_fail(self, capsys):
        code, out, err = run(capsys, "census", "Z/20000", "--samples", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "samples" in err

    def test_zero_samples_fail(self, capsys):
        code, out, err = run(capsys, "census", "Z/20000", "--samples", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "samples" in err

    def test_oversized_sample_count_fails_before_any_scan(self, capsys, monkeypatch):
        monkeypatch.setattr(census, "RingScan", None)
        code, out, err = run(capsys, "census", "Z/20000", "--samples", "10001")
        assert (code, out) == (1, "")
        assert err == "error: samples must be at most 10000, got 10001\n"

    def test_ring_size_cap_cannot_be_lifted(self, capsys):
        code, out, err = run(capsys, "census", "Z/9", "--max-ring-size", "100")
        assert (code, out) == (1, "")
        assert err == "error: unrecognized arguments: --max-ring-size 100\n"

    def test_scan_over_budget_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(_scan, "SCAN_MEMORY_BUDGET", 64)
        code, out, err = run(capsys, "census", "Z/9", "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "budget" in err


class TestVerify:
    def test_law_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "5.1", "M2(Z/2)")
        assert code == 0
        assert "4096 instances" in out
        assert "0 violations" in out

    def test_human_line_has_no_timing(self, capsys):
        code, out, _ = run(capsys, "verify", "3.3", "Z/9")
        assert (code, out) == (0, "law 3.3 on Z/9: exhaustive, 9 instances, 9 checked, 0 violations\n")

    @pytest.mark.parametrize(
        "argv",
        [("verify", "5.1", "M2(Z/2)"), ("verify", "4.1", "M2(Z/7)", "--samples", "200", "--seed", "3")],
        ids=["exhaustive", "sampled"],
    )
    def test_identical_runs_print_identical_stdout(self, capsys, argv):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "3.3", "Z/9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem"] == "3.3"
        assert payload["instances"] == 9
        assert payload["violations"] == []

    @pytest.mark.parametrize(
        "entry", VERIFY_GOLDEN, ids=lambda entry: " ".join(entry["argv"][1:])
    )
    def test_json_matches_golden_output(self, capsys, entry):
        code, out, _ = run(capsys, *entry["argv"])
        assert (code, out) == (entry["exit_code"], entry["stdout"])

    def test_failed_construction_exits_2_with_its_inputs(self, capsys, hirano_fails_at_two):
        code, out, err = run(capsys, "verify", "2.1", "Z/9")
        assert (code, err) == (2, "")
        assert "1 violations" in out
        assert f"  violation at (2): {HIRANO_FAILURE}\n" in out

    def test_zero_samples_fail(self, capsys):
        code, out, err = run(capsys, "verify", "4.1", "M2(Z/7)", "--samples", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "samples" in err

    def test_oversized_sample_count_fails_before_any_draw(self, capsys, monkeypatch):
        monkeypatch.setattr(census, "_LawContext", None)
        monkeypatch.setattr(RingSpec, "element_at", None)
        code, out, err = run(capsys, "verify", "4.1", "M2(Z/7)", "--samples", "100000000")
        assert (code, out) == (1, "")
        assert err == "error: samples must be at most 2000000, got 100000000\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            ((law, "M3(Z/4)"), "M3(Z/4) is too large for the whole-ring law (cap 65536)")
            for law in ("3.6", "2.2", "3.1")
        ],
        ids=["3.6-oversized", "2.2-oversized", "3.1-oversized"],
    )
    def test_refused_request_exits_1_with_its_reason(self, capsys, argv, err):
        assert run(capsys, "verify", *argv) == (1, "", f"error: {err}\n")

    def test_unknown_law_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "9.9", "Z/9")
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize("argv", [("3.3", "M2(Z/2)"), ("3.4", "Z/12")], ids=" ".join)
    def test_split_law_passes_where_2_is_not_a_unit(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        assert out.endswith(" checked, 0 violations\n")


class TestParsing:
    def test_unknown_ring_literal(self, capsys):
        code, _, err = run(capsys, "classify", "Q", "1")
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_element(self, capsys):
        code, _, err = run(capsys, "classify", "M2(Z/3)", "[[1,2],[3]]")
        assert code == 1
        assert err.startswith("error:")

    def test_dimension_cap(self, capsys):
        code, _, err = run(capsys, "census", "M9(Z/2)")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("Z/" + "1" + "0" * 6020, "3"), "number has 6021 digits, above the limit of 4300"),
            (("Z/9", "1" + "0" * 6020), "number has 6021 digits, above the limit of 4300"),
            (("Z/9", "\u00b2"), "expected an ASCII digit (at position 0 in '\u00b2')"),
        ],
        ids=["long modulus", "long element", "superscript"],
    )
    def test_unparsable_number_is_an_error_line(self, capsys, argv, message):
        # 6 021 digits, as in 2**20000: above Python's default int-string limit
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        # a long literal is quoted by its length and a window, not in full
        assert len(err) < 200

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err != ""


class TestParserReuse:
    """main builds its argument parser once per process: back-to-back calls
    answer exactly as each call does alone in a fresh interpreter."""

    SEQUENCE = [
        ("verify", "5.4", "M2(Z/7)", "--samples", "7"),
        ("verify", "5.4", "M2(Z/7)"),
        ("census", "Z/9"),
        ("verify", "9.9", "Z/9"),
        ("census",),
        ("--help",),
        ("verify", "--help"),
    ]

    def test_back_to_back_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to it
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as done:
                code = done.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "ringinv", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
