"""Command-line behavior: verdicts, reports, exit codes, file handling.

Every test drives main() in-process, so exit codes and printed output
are checked without spawning an interpreter.  Bundled corpus files are
addressed by bare name throughout; inputs written on the fly go through
tmp_path.
"""

import builtins
import copy
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import re
import runpy
import shutil
import sys
import time

import pytest

from innerscope import cli, corpus, exactmath, freeprod, rewrite, tensoralg
from innerscope.cli import main
from innerscope.errors import TheoremViolation, ValidationFailure
from innerscope.exactmath import GF, QQ
from innerscope.rewrite import RewriteSystem
from innerscope.tensoralg import StructAlgebra, truncated_polynomial_algebra

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def write_tour_files(same_results, directory):
    """The candidate files of the README tour, as the README gives them."""
    for name, payload in same_results.candidate_files(README.read_text()).items():
        write_json(directory / name, payload)


def test_group_classify_conjugation(capsys):
    code, out, _ = run(["group", "classify", "--group", "s3.json",
                        "--word", "(12) x (12)"], capsys)
    assert code == 0
    assert "Conjugation((12))" in out
    assert out.strip().endswith("PASS")


def test_python_dash_m_runs_the_command(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["innerscope", "group", "classify", "--group", "s3.json",
                                      "--word", "(12) x (12)"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("innerscope", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_group_classify_rejected_word_fails(capsys):
    code, out, _ = run(["group", "classify", "--group", "s3.json",
                        "--word", "x^2"], capsys)
    assert code == 1
    assert "NotInner" in out
    assert out.strip().endswith("FAIL")


def test_group_classify_identity_word_is_trivial(capsys):
    code, out, _ = run(["group", "classify", "--group", "s3.json", "--word", "e"], capsys)
    assert code == 0
    assert "Trivial" in out


def test_group_check_word(capsys):
    code, out, _ = run(["group", "check", "--group", "s3.json",
                        "--word", "(123) x (132)"], capsys)
    assert code == 0
    assert "multiplicative:" in out
    assert "routes_agree:" in out


def test_group_monoid(capsys):
    code, out, _ = run(["group", "monoid", "--group", "s3.json"], capsys)
    assert code == 0
    assert "size:" in out and "7" in out
    assert "group_with_absorbing_element:" in out


def test_algebra_classify_unit_candidate(tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json",
                      {"kind": "unit", "u": ["1", "1", "0", "1"]})
    code, out, _ = run(["algebra", "classify", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "conjugation" in out


def test_algebra_check_endo_tensor_candidate(tmp_path, capsys):
    # 1 (x) 1 over M2(F2), spelled as an explicit coordinate matrix
    rows = [["1", "0", "0", "1"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["1", "0", "0", "1"]]
    cand = write_json(tmp_path / "cand.json", {"kind": "tensor", "coords": rows})
    code, out, _ = run(["algebra", "check-endo", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "passes:" in out


def test_algebra_check_and_extract_derivation(tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json",
                      {"kind": "inner", "b": ["0", "1", "0", "0"]})
    code, out, _ = run(["algebra", "check-deriv", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "generic_leibniz:" in out
    code, out, _ = run(["algebra", "extract-deriv", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "splitting_normalized:" in out


@pytest.mark.parametrize("a, b, code", [
    # b (x) 1 + 1 (x) b with b = e12: x |-> b x + x b = [b, x] over GF(2)
    ([["0", "1", "0", "0"], ["1", "0", "0", "1"]], [["1", "0", "0", "1"], ["0", "1", "0", "0"]], 0),
    # 1 (x) 1, the identity map, sends 1 to 1
    ([["1", "0", "0", "1"]], [["1", "0", "0", "1"]], 1),
], ids=["inner", "identity"])
def test_algebra_check_deriv_pairs_candidate(a, b, code, tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json", {"kind": "pairs", "a": a, "b": b})
    got, out, _ = run(["algebra", "check-deriv", "--algebra", "m2f2.json",
                       "--candidate", cand], capsys)
    assert got == code
    assert "generic_leibniz:                 %s" % (code == 0) in out


def test_algebra_enumerate_derivs_small(tmp_path, capsys):
    alg = write_json(tmp_path / "tp3.json", truncated_polynomial_algebra(GF(3)).to_json())
    code, out, _ = run(["algebra", "enumerate-derivs", "--algebra", alg], capsys)
    assert code == 0
    assert "count:" in out and "routes_agree:" in out


def test_algebra_enumerate_over_gf3_counts_units_per_scalar(tmp_path, capsys):
    # GF(3)[z]/(z^2) has 6 units and 6 / |GF(3)*| = 3 passing tensors
    alg = write_json(tmp_path / "tp3.json", truncated_polynomial_algebra(GF(3)).to_json())
    code, out, _ = run(["algebra", "enumerate", "--algebra", alg], capsys)
    assert code == 0
    assert re.search(r"^\s*count:\s+3\s+\[ok\]$", out, re.M)
    assert re.search(r"^\s*unit_route_count:\s+6\s+\[ok\]$", out, re.M)
    assert out.strip().endswith("PASS")


def test_algebra_enumerate_needs_finite_field(tmp_path, capsys):
    alg = write_json(tmp_path / "tpq.json", truncated_polynomial_algebra(QQ).to_json())
    code, out, _ = run(["algebra", "enumerate", "--algebra", alg], capsys)
    assert code == 1
    assert "completed:" in out
    assert "finite field" in out
    assert "budget" in out


@pytest.mark.parametrize("argv, candidate, message", [
    (["rewrite", "nf", "--system", "leavitt2.json", "--word", "1e10000000*x1"], None,
     "unknown generator '1e10000000'"),
    (["algebra", "check-endo", "--algebra", "tpq.json", "--candidate", "cand.json"],
     {"kind": "unit", "u": ["1e10000000", "0"]}, "/u: cannot read scalar '1e10000000'"),
], ids=["nf-word", "qq-unit"])
def test_exponent_notation_exits_2_at_once(argv, candidate, message, tmp_path, monkeypatch,
                                           capsys):
    # Fraction("1e10000000") alone takes seconds; the README reads n, n/d and k mod p only
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "tpq.json", truncated_polynomial_algebra(QQ).to_json())
    if candidate is not None:
        write_json(tmp_path / "cand.json", candidate)
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_rewrite_nf(capsys):
    code, out, _ = run(["rewrite", "nf", "--system", "leavitt2.json",
                        "--word", "y1 * x1 + y2 * x1"], capsys)
    assert code == 0
    assert "normal_form:" in out


def test_rewrite_nf_to_zero_is_frozen(tmp_path, capsys):
    code, out, _ = run(["rewrite", "nf", "--system", "leavitt2.json", "--word", "y1 * x2",
                        "--json", str(tmp_path / "report.json")], capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    verdicts = [(v["name"], v["value"], v["pass"]) for v in report["verdicts"]]
    assert code == 0
    assert verdicts == [("normal_form", "0", True), ("is_zero", True, True)]
    assert report["determinism_hash"] == (
        "e2f0c97e2b7bcf0b6802d3566d99201314d1f8c8dbb685e3b8ba1df38bd91e0f")
    assert "  determinism: e2f0c97e2b7bcf0b" in out


def test_rewrite_nf_deep_reduction_chain(capsys):
    # y1^k x1^k -> y1^(k-1) x1^(k-1) -> ... -> 1: a chain 1000 words deep
    code, out, err = run(["rewrite", "nf", "--system", "leavitt2.json",
                          "--word", "y1^1000 * x1^1000"], capsys)
    assert code == 0
    assert re.search(r"^\s*normal_form:\s+1\s", out, re.M)
    assert "internal error" not in err and "RecursionError" not in out + err


def test_rewrite_nf_word_budget_exits_1(tmp_path, capsys):
    # straightening f^20 e^20 over sl2 visits far more words than the cap
    system = str(tmp_path / "sl2q-pbw.json")
    assert run(["rewrite", "pbw", "--lie", "sl2q.json", "--out", system], capsys)[0] == 0
    started = time.perf_counter()
    code, out, err = run(["rewrite", "nf", "--system", system, "--word", "f^20 * e^20"], capsys)
    assert time.perf_counter() - started < 5.0
    assert code == 1 and err == ""
    assert "completed:" in out and "budget" in out
    assert "more than %d reducible words" % rewrite.MAX_NF_WORDS in out


def test_a_scalar_too_long_to_write_exits_1(tmp_path, capsys):
    # 99999999^1000 has 8,000 digits, more than Python writes out; mod 7 it is 1
    for char in (0, 7):
        write_json(tmp_path / ("k%d.json" % char),
                   {"generators": ["x"], "field": {"char": char}, "rules": []})
    word = ["--word", "99999999^1000*x"]
    code, out, err = run(["rewrite", "nf", "--system", str(tmp_path / "k0.json"), *word], capsys)
    assert code == 1 and err == ""
    assert re.search(r"^  completed: +False  \[FAIL\]$", out, re.M)
    assert ("a scalar has more than %d digits, the limit for writing one"
            % sys.get_int_max_str_digits()) in out
    code, out, err = run(["rewrite", "nf", "--system", str(tmp_path / "k7.json"), *word], capsys)
    assert code == 0 and err == ""
    assert re.search(r"^  normal_form: +x  \[ok\]$", out, re.M)


def test_unit_search_stops_listing_past_the_budget(capsys):
    # leavitt2 has 1,638,400 irreducible words of degree <= 16; the listing
    # stops at the eleventh, since 3^11 candidates exceed the default budget
    started = time.perf_counter()
    code, out, err = run(["rewrite", "unit-search", "--system", "leavitt2.json",
                          "--degree-cap", "16"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and err == ""
    reasons = [line for line in out.splitlines() if "budget" in line and "reason:" in line]
    assert len(reasons) == 1 and "more than 10 irreducible monomials" in reasons[0]


def test_rewrite_nf_signed_exponent_exits_2(capsys):
    code, _, err = run(["rewrite", "nf", "--system", "leavitt2.json",
                        "--word", "x1^-1"], capsys)
    _assert_input_error(code, err)
    assert "signed exponent in 'x1^-1'" in err


@pytest.mark.parametrize("word", ["--x1", " -+x1"])
def test_rewrite_nf_doubled_leading_sign_exits_2(word, capsys):
    code, out, err = run(["rewrite", "nf", "--system", "leavitt2.json", "--word=" + word], capsys)
    _assert_input_error(code, err)
    assert out == "" and "dangling sign in %r" % word in err


@pytest.mark.parametrize("word, message", [
    ("(12)^ x^ (12)", "exponents on group letters are not supported: '(12)^'"),
    ("(12) x^ (12)", "bad exponent in token 'x^'"),
])
def test_group_caret_without_exponent_exits_2(word, message, capsys):
    code, out, err = run(["group", "classify", "--group", "s3.json", "--word", word], capsys)
    _assert_input_error(code, err)
    assert out == "" and message in err


def test_group_check_unknown_token_exits_2(capsys):
    code, out, err = run(["group", "check", "--group", "s3.json", "--word", "(12345) x"], capsys)
    _assert_input_error(code, err)
    assert out == ""
    assert err == "error: token '(12345)' is neither a variable nor an element name\n"


def test_rewrite_nf_factor_with_denominator_zero_mod_p_exits_2(tmp_path, capsys):
    system = write_json(tmp_path / "l5.json", rewrite.leavitt_system(2, GF(5)).to_json())
    code, out, err = run(["rewrite", "nf", "--system", system, "--word", "1/5 * x1"], capsys)
    _assert_input_error(code, err)
    assert "cannot invert zero in GF(5)" in err
    assert "PASS" not in out


def test_boolean_characteristic_exits_2(tmp_path, capsys):
    # False == 0, but a boolean is no characteristic: it must not read as QQ
    with open(corpus.data_path("sl2q")) as fh:
        data = json.load(fh)
    data["field"] = {"char": False}
    code, out, err = run(["rewrite", "pbw", "--lie", write_json(tmp_path / "bad.json", data)],
                         capsys)
    _assert_input_error(code, err)
    assert err.startswith("error: /field: ")
    assert "PASS" not in out


def test_rewrite_confluence(capsys):
    code, out, _ = run(["rewrite", "confluence", "--system", "leavitt2.json"], capsys)
    assert code == 0
    assert "confluent:" in out


def test_rewrite_confluence_reports_identical_left_sides(tmp_path, capsys):
    system = {"generators": ["a", "b", "c", "d"], "field": {"char": 3},
              "rules": [{"lhs": ["a", "b"], "rhs": [{"word": ["c"], "coeff": "1"}]},
                        {"lhs": ["a", "b"], "rhs": [{"word": ["d"], "coeff": "1"}]}]}
    path = write_json(tmp_path / "sys.json", system)
    code, out, _ = run(["rewrite", "confluence", "--system", path, "--json",
                        str(tmp_path / "report.json")], capsys)
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [(v["name"], v["value"], v["pass"]) for v in report["verdicts"]] == [
        ("confluent", False, False), ("unresolved_ambiguities", 1, False),
        ("first_failure_word", ["a", "b"], False)]


@pytest.mark.parametrize("field, code", [
    ("GF(5)", 0), ("gf(5)", 0), ("F5", 0), ("5", 0), ("Q", 0),
    ("GF(4)", 2), ("xyz", 2), ("F", 2),
])
def test_rewrite_leavitt_field_names(field, code, capsys):
    got, _, err = run(["rewrite", "leavitt", "--n", "2", "--field", field], capsys)
    if code == 2:
        _assert_input_error(got, err)
    assert got == code


def test_rewrite_leavitt_writes_system(tmp_path, capsys):
    out_path = tmp_path / "sys.json"
    code, out, _ = run(["rewrite", "leavitt", "--n", "2", "--field", "QQ",
                        "--out", str(out_path)], capsys)
    assert code == 0
    rs = RewriteSystem.from_json(json.loads(out_path.read_text()))
    assert len(rs.rules) == 5
    assert rs.is_confluent()


def test_rewrite_pbw(capsys):
    code, out, _ = run(["rewrite", "pbw", "--lie", "sl2q.json"], capsys)
    assert code == 0
    assert "jacobi:" in out
    assert "jacobi_iff_confluent:" in out


def test_rewrite_check_endo_with_witnesses(tmp_path, capsys):
    cand = write_json(tmp_path / "pair.json",
                      {"a": ["x1", "x2"], "b": ["y1", "y2"]})
    code, out, _ = run(["rewrite", "check-endo", "--system", "leavitt2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "injectivity_witness:" in out
    assert "centralizing_units:" in out
    assert "independent_units:" in out


def test_rewrite_check_endo_over_no_generators(tmp_path, capsys):
    # the witness samples are built from the generators there are: here only 1
    system = write_json(tmp_path / "empty.json",
                        {"generators": [], "field": {"char": 0}, "rules": []})
    cand = write_json(tmp_path / "one.json", {"a": ["1"], "b": ["1"]})
    code, out, err = run(["rewrite", "check-endo", "--system", system,
                          "--candidate", cand], capsys)
    assert code == 0 and err == ""
    rows = re.findall(r"^  (\w+): +(\S+)  \[(ok|FAIL)\]$", out, re.M)
    assert rows == [("passes", "True", "ok"), ("samples", "1", "ok"),
                    ("injectivity_witness", "True", "ok"), ("centralizing_units", "True", "ok"),
                    ("independent_units", "True", "ok")]


def test_rewrite_ad_power_single_pair(capsys):
    code, out, _ = run(["rewrite", "ad-power", "--lie", "sl2f3.json",
                        "--word", "e,f"], capsys)
    assert code == 0
    assert "pairs_checked:" in out
    assert "ad_power_equals_commutator:" in out


def test_rewrite_ad_power_full_sweep(capsys):
    code, out, _ = run(["rewrite", "ad-power", "--lie", "sl2f3.json"], capsys)
    assert code == 0
    assert "9" in out


def test_rewrite_ad_power_rejects_char_zero(capsys):
    code, _, err = run(["rewrite", "ad-power", "--lie", "sl2q.json",
                        "--word", "e,f"], capsys)
    assert code == 2
    assert "error:" in err


def test_rewrite_unit_search(capsys):
    code, out, _ = run(["rewrite", "unit-search", "--system", "leavitt2.json",
                        "--degree-cap", "1"], capsys)
    assert code == 0
    assert "searched:" in out
    assert "solutions:" in out


def test_rewrite_unit_search_budget_exit(capsys):
    code, out, _ = run(["rewrite", "unit-search", "--system", "leavitt2.json",
                        "--degree-cap", "2", "--budget", "100"], capsys)
    assert code == 1
    assert "completed:" in out
    assert "budget" in out


def test_gset_orbits(capsys):
    code, out, _ = run(["gset", "orbits", "--gset", "s3-natural-gset.json"], capsys)
    assert code == 0
    assert "orbits:" in out
    assert "stabilizer_sizes:" in out


def test_gset_group_falls_back_to_the_corpus(tmp_path, capsys):
    # the G-set file alone, without the s3.json its "group" names
    alone = shutil.copy(corpus.data_path("s3-natural-gset"), tmp_path)
    code, out, _ = run(["gset", "orbits", "--gset", alone], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_gset_coinner_with_oracle(capsys):
    code, out, _ = run(["gset", "coinner", "--gset", "s3-natural-gset.json",
                        "--oracle"], capsys)
    assert code == 0
    assert "order:" in out
    assert "oracle_count:" in out
    assert "oracle_match:" in out


def test_gset_coinner_budget_exits_1(tmp_path, capsys):
    # the trivial Z4-set on 5 points has 4^5 co-inner families
    z4 = freeprod.cyclic_group(4)
    write_json(tmp_path / "z4.json", z4.to_json())
    path = write_json(tmp_path / "z4-trivial.json",
                      {"group": "z4.json", "points": 5, "action": [[p] * 4 for p in range(5)]})
    code, out, err = run(["gset", "coinner", "--gset", path], capsys)
    assert code == 1 and err == ""
    assert re.search(r"^\s*completed:\s+False\s", out, re.M)
    reasons = [line for line in out.splitlines() if "reason:" in line]
    assert len(reasons) == 1 and "order 1024 on 5 points exceeds the budget" in reasons[0]


def test_a_budget_stop_keeps_its_inputs(tmp_path, capsys):
    # a copy of m2f2 that differs only in its basis names is other input content
    original = corpus.data_path("m2f2")
    data = json.loads(pathlib.Path(original).read_text())
    data["names"] = ["a", "b", "c", "d"]
    renamed = write_json(tmp_path / "m2f2-renamed.json", data)
    hashes = []
    for path in (original, renamed):
        report_path = tmp_path / "report.json"
        code, out, err = run(["algebra", "enumerate", "--algebra", path, "--budget", "4",
                              "--json", str(report_path)], capsys)
        assert code == 1 and err == ""
        report = json.loads(report_path.read_text())
        digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
        assert report["inputs"] == [digest] and report["paths"] == [path]
        assert [v["name"] for v in report["verdicts"]] == ["completed", "reason"]
        assert report["citations"] == ["budget"]
        assert "input: %s (sha256 %s)" % (path, digest[:16]) in out
        hashes.append(report["determinism_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("p, code", [(83, 0), (89, 1)])
def test_rewrite_ad_power_budget_edge(p, code, tmp_path, capsys):
    # on sl2 over GF(p) the normal form of [h^p, e] fits MAX_NF_WORDS up to p = 83
    lie = write_json(tmp_path / "sl2.json", rewrite.sl2(GF(p)).to_json())
    started = time.perf_counter()
    got, out, err = run(["rewrite", "ad-power", "--lie", lie, "--word", "h,e"], capsys)
    assert time.perf_counter() - started < 5.0
    assert (got, err) == (code, "")
    if code == 0:
        assert re.search(r"^\s*ad_power_equals_commutator:\s+True\s+\[ok\]$", out, re.M)
    else:
        assert re.search(r"^\s*completed:\s+False\s", out, re.M)
        assert "more than %d reducible words" % rewrite.MAX_NF_WORDS in out


@pytest.mark.parametrize("p, code", [(11, 0), (1009, 1)])
def test_rewrite_ad_power_sweeps_up_to_the_exponent_bound(p, code, tmp_path, capsys):
    # exactmath.MAX_EXPONENT is the one bound on p: every pair of sl2 over
    # GF(11) passes, and GF(1009), the first prime over the bound, stops
    # before any bracket is taken
    lie = write_json(tmp_path / "sl2.json", rewrite.sl2(GF(p)).to_json())
    started = time.perf_counter()
    got, out, err = run(["rewrite", "ad-power", "--lie", lie], capsys)
    assert time.perf_counter() - started < 1.0
    assert (got, err) == (code, "")
    if code == 0:
        assert re.search(r"^\s*pairs_checked:\s+9\s", out, re.M)
    else:
        assert re.search(r"^\s*completed:\s+False\s", out, re.M)
        assert "p = 1009 exceeds %d" % exactmath.MAX_EXPONENT in out


def test_rewrite_ad_power_takes_no_degree_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rewrite", "ad-power", "--lie", "sl2f3.json", "--degree-cap", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-cap 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["group", "classify", "--group", "s3.json", "--word", "x^1001"],
     "exponent in token 'x^1001' exceeds 1000 in absolute value"),
    (["rewrite", "nf", "--system", "leavitt2.json", "--word", "x1^1001"],
     "exponent in 'x1^1001' exceeds 1000"),
])
def test_word_and_polynomial_powers_share_one_bound(argv, message, capsys):
    assert exactmath.MAX_EXPONENT == 1000
    code, out, err = run(argv, capsys)
    _assert_input_error(code, err)
    assert err == "error: %s\n" % message and out == ""


def test_rewrite_check_endo_decides_its_pair_once(monkeypatch, tmp_path, capsys):
    # calls through cli's imported name and through rewrite's own both count
    real, calls = rewrite.check_endo_fp, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rewrite, "check_endo_fp", counted)
    monkeypatch.setattr(cli, "check_endo_fp", counted)
    cand = write_json(tmp_path / "pair.json", {"a": ["x1", "x2"], "b": ["y1", "y2"]})
    code, out, _ = run(["rewrite", "check-endo", "--system", "leavitt2.json",
                        "--candidate", cand], capsys)
    assert code == 0 and "independent_units:" in out
    assert len(calls) == 1


def test_rewrite_ad_power_refuses_a_table_that_fails_jacobi(tmp_path, capsys):
    # the fifth table acceptance.check_pbw_jacobi draws: every Leibniz sample
    # fails on it, though every iterated bracket matches its commutator
    brackets = [[[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                [[0, 4, 0], [0, 0, 0], [3, 1, 4]],
                [[0, 0, 0], [2, 4, 1], [0, 0, 0]]]
    lie = write_json(tmp_path / "lie.json", {"dim": 3, "field": {"char": 5}, "brackets": brackets})
    code, out, err = run(["rewrite", "ad-power", "--lie", lie], capsys)
    _assert_input_error(code, err)
    assert err == "error: the bracket table fails the Jacobi identity\n" and out == ""


def test_a_failed_leibniz_sample_exits_3(monkeypatch, capsys):
    # sl2/GF(3) straightened by rules whose [h, e] is e, not 2e: the Jacobi
    # table is fine, the presentation route is wrong
    perturbed = rewrite.LieData(GF(3), [[(0, 0, 0), (0, 0, 1), (-1, 0, 0)],
                                        [(0, 0, -1), (0, 0, 0), (0, 2, 0)],
                                        [(1, 0, 0), (0, -2, 0), (0, 0, 0)]], ["e", "f", "h"])
    pbw_system = rewrite.pbw_system
    monkeypatch.setattr(rewrite, "pbw_system", lambda lie: pbw_system(perturbed))
    lie = rewrite.sl2(GF(3))
    with pytest.raises(TheoremViolation,
                       match=r"^Leibniz fails for \[a\^p, \.\] on the basis pair \(e, f\)$"):
        rewrite.ad_power_check(lie, (0, 0, 1), (1, 0, 0))
    code, out, err = run(["rewrite", "ad-power", "--lie", "sl2f3.json"], capsys)
    assert (code, out) == (3, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: TheoremViolation: Leibniz fails for [a^p, .]")


def test_gset_oracle(capsys):
    code, out, _ = run(["gset", "oracle", "--gset", "s3-natural-gset.json"], capsys)
    assert code == 0
    assert "matches_centralizers:" in out


def test_embed_build_writes_algebra(tmp_path, capsys):
    out_path = tmp_path / "big.json"
    code, out, _ = run(["embed", "build", "--algebra", "m2f2.json",
                        "--out", str(out_path)], capsys)
    assert code == 0
    assert "total_dim:" in out and "36" in out
    big = StructAlgebra.from_json(json.loads(out_path.read_text()))
    assert big.dim == 36
    assert big.validate() is None


def test_embed_verify_unit_candidate(tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json",
                      {"kind": "unit", "u": ["0", "1", "1", "0"]})
    code, out, _ = run(["embed", "verify", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 0
    assert "kernel_rank:" in out
    assert "fixes_centralizer:" in out


def test_json_report_shape_and_determinism(tmp_path, capsys):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    for path in (first, second):
        code, _, _ = run(["group", "monoid", "--group", "s3.json",
                          "--json", str(path)], capsys)
        assert code == 0
    r1 = json.loads(first.read_text())
    r2 = json.loads(second.read_text())
    assert set(r1) == {"command", "inputs", "paths", "verdicts", "citations",
                       "timing", "determinism_hash"}
    assert r1["command"] == "group monoid"
    assert isinstance(r1["timing"], int)
    assert all(set(v) == {"name", "value", "pass"} for v in r1["verdicts"])
    # the hash covers everything except the input paths and timing, so reruns agree
    assert r1["determinism_hash"] == r2["determinism_hash"]
    core = {k: v for k, v in r1.items() if k not in ("paths", "timing", "determinism_hash")}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == r1["determinism_hash"]


def test_missing_input_exits_2(capsys):
    code, _, err = run(["group", "monoid", "--group", "no-such-file.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_unreadable_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(["gset", "orbits", "--gset", str(bad)], capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("raw", [
    b'{"kind": "unit", "u": ["1", "1", "0", "\xff"]}\n',
    b"[" * 200_000 + b"]" * 200_000,
    b'\xef\xbb\xbf{"kind": "unit", "u": ["1", "1", "0", "1"]}\n',
    b'{"kind": "unit", "u": [' + b"1" * 5000 + b', 1, 0, 1]}\n',
], ids=["not-utf8", "nested-200000-deep", "utf8-bom", "number-over-the-digit-limit"])
def test_input_that_does_not_decode_exits_2(raw, tmp_path, capsys):
    bad = tmp_path / "cand.json"
    bad.write_bytes(raw)
    code, out, err = run(["algebra", "check-endo", "--algebra", "m2f2.json",
                          "--candidate", str(bad)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: /: not valid JSON: ")


def test_each_input_file_is_read_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cand.json", {"kind": "unit", "u": ["1", "1", "0", "1"]})
    write_json(tmp_path / "pair.json", {"a": ["x1", "x2"], "b": ["y1", "y2"]})
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    for argv, files in [
        (["group", "monoid", "--group", "s3.json"], ["s3.json"]),
        (["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", "cand.json"],
         ["m2f2.json", "cand.json"]),
        (["rewrite", "check-endo", "--system", "leavitt2.json", "--candidate", "pair.json"],
         ["leavitt2.json", "pair.json"]),
        (["rewrite", "pbw", "--lie", "sl2f3.json"], ["sl2f3.json"]),
        # the G-set file, and the group file it names
        (["gset", "orbits", "--gset", "s3-natural-gset.json"], ["s3-natural-gset.json", "s3.json"]),
    ]:
        opened.clear()
        assert run(argv, capsys)[0] == 0
        assert sorted(opened) == sorted(os.path.realpath(corpus.resolve(f)) for f in files)


def test_out_onto_its_own_input_reports_the_input_read(tmp_path, monkeypatch, capsys):
    # the digest is of the bytes the run decoded, not of the file it leaves
    monkeypatch.chdir(tmp_path)
    shutil.copy(corpus.data_path("m2f2"), tmp_path / "a.json")
    before = hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest()
    code, out, _ = run(["embed", "build", "--algebra", "a.json", "--out", "a.json",
                        "--json", "report.json"], capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == 0 and report["inputs"] == [before]
    assert "input: a.json (sha256 %s)" % before[:16] in out
    assert report["determinism_hash"].startswith("a6ce2c13cef81a71")
    assert json.loads((tmp_path / "a.json").read_text())["dim"] == 36


def test_malformed_word_exits_2(capsys):
    code, _, err = run(["group", "classify", "--group", "s3.json",
                        "--word", "(12"], capsys)
    assert code == 2
    assert "error:" in err


def test_wrong_candidate_kind_exits_2(tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json",
                      {"kind": "inner", "b": ["1", "0", "0", "1"]})
    code, _, err = run(["algebra", "check-endo", "--algebra", "m2f2.json",
                        "--candidate", cand], capsys)
    assert code == 2
    assert "error:" in err


I2, E12, ZERO4 = ["1", "0", "0", "1"], ["0", "1", "0", "0"], ["0", "0", "0", "0"]

# One candidate file format for both kinds of verb: each kind on an
# endomorphism verb and on a derivation verb, with the exit code, stderr and
# printed verdict rows (blanks collapsed) of each run over m2f2.json.  A
# unit or inner vector is read before its kind is refused for the verb.
CANDIDATES = [
    ("check-endo", {"kind": "unit", "u": ["1", "1", "0", "1"]}, 0, "",
     ["passes: True [ok]", "rank: 1 [ok]"]),
    ("check-deriv", {"kind": "unit", "u": ["1", "1", "0", "1"]}, 2,
     "error: /kind: a derivation candidate cannot be 'unit'\n", []),
    ("check-deriv", {"kind": "unit", "u": ["1", "1", "0"]}, 2,
     "error: /u: expected 4 coordinates\n", []),
    ("check-endo", {"kind": "pairs", "a": [I2], "b": [I2]}, 0, "",
     ["passes: True [ok]", "rank: 1 [ok]"]),
    ("check-deriv", {"kind": "pairs", "a": [I2], "b": [I2]}, 1, "",
     ["generic_leibniz: False [FAIL]", "induced_map_is_derivation: False [ok]"]),
    ("check-endo", {"kind": "tensor", "coords": [["1", "0", "0", "0"], ZERO4, ZERO4, ZERO4]}, 1,
     "", ["passes: False [FAIL]", "rank: 1 [ok]", "reason: unit-sum [FAIL]"]),
    ("check-deriv", {"kind": "tensor", "coords": [ZERO4] * 4}, 0, "",
     ["generic_leibniz: True [ok]", "induced_map_is_derivation: True [ok]"]),
    ("check-deriv", {"kind": "inner", "b": E12}, 0, "",
     ["generic_leibniz: True [ok]", "induced_map_is_derivation: True [ok]"]),
    ("check-endo", {"kind": "inner", "b": E12}, 2,
     "error: /kind: an endomorphism candidate cannot be 'inner'\n", []),
    ("check-endo", {"kind": "inner", "b": E12 + ["0"]}, 2,
     "error: /b: expected 4 coordinates\n", []),
    ("check-endo", {"kind": "matrix", "coords": []}, 2,
     "error: /kind: 'matrix' is not one of unit|pairs|tensor|inner\n", []),
    ("check-deriv", {"u": I2}, 2, "error: /kind: missing\n", []),
    ("check-endo", ["unit", I2], 2, "error: /kind: missing\n", []),
    ("check-endo", {"kind": "pairs", "a": [I2, ["1", "0", "0", "0"]], "b": [I2]}, 2,
     "error: /a, /b: expected lists of equal length\n", []),
]


@pytest.mark.parametrize("verb, candidate, code, err, rows", CANDIDATES, ids=[
    "unit-endo", "unit-deriv", "short-unit-deriv", "pairs-endo", "pairs-deriv", "tensor-endo",
    "tensor-deriv", "inner-deriv", "inner-endo", "long-inner-endo", "unknown-kind",
    "missing-kind", "not-an-object", "unequal-pairs"])
def test_candidate_file_outcomes_are_frozen(verb, candidate, code, err, rows, tmp_path, capsys):
    cand = write_json(tmp_path / "cand.json", candidate)
    got_code, out, got_err = run(["algebra", verb, "--algebra", "m2f2.json",
                                  "--candidate", cand], capsys)
    got_rows = [" ".join(line.split()) for line in out.splitlines()
                if line.endswith("[ok]") or line.endswith("[FAIL]")]
    assert (got_code, got_err, got_rows) == (code, err, rows)


def _assert_input_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _set(path, value):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _drop_rhs(data):
    del data["rules"][0]["rhs"]


def _boolean_z2(data):
    # JSON booleans compare equal to 0 and 1 but are no indices
    data.update(order=2, table=[[False, True], [True, False]], names=["e", "a"])


def _boolean_action(data):
    data.update(points=2, action=[[False] * 6, [True] * 6])


@pytest.mark.parametrize("name, mutate, argv", [
    ("s3", _set(["table", 1, 2], "x"), ["group", "monoid", "--group"]),
    ("m2f2", _set(["field"], "QQ"), ["algebra", "enumerate", "--algebra"]),
    ("leavitt2", _drop_rhs, ["rewrite", "confluence", "--system"]),
    ("sl2q", _set(["brackets", 0, 1, 2], "1/0"), ["rewrite", "pbw", "--lie"]),
    ("m2f2", _set(["names"], ["e11"]), ["embed", "build", "--algebra"]),
    ("leavitt2", _set(["rules", 0, "rhs", 0, "coeff"], 1.0), ["rewrite", "confluence", "--system"]),
    ("s3", _boolean_z2, ["group", "monoid", "--group"]),
    ("s3-natural-gset", _boolean_action, ["gset", "coinner", "--oracle", "--gset"]),
], ids=["string-in-group-table", "field-as-string", "rule-without-rhs", "one-over-zero",
        "too-few-names", "float-coefficient", "boolean-group-table", "boolean-action"])
def test_malformed_input_exits_2(name, mutate, argv, tmp_path, capsys):
    with open(corpus.data_path(name)) as fh:
        data = json.load(fh)
    mutate(data)
    code, _, err = run(argv + [write_json(tmp_path / "bad.json", data)], capsys)
    _assert_input_error(code, err)


@pytest.mark.parametrize("verb, candidate", [
    ("check-endo", {"kind": "unit", "u": [0.5, 0, 0, 2]}),
    ("check-endo", {"kind": "pairs", "a": [[1, 0, 0, 1]], "b": [[1.0, 0, 0, 1]]}),
    ("check-endo", {"kind": "tensor", "coords": [[1, 0, 0, 1], [0, 0, 0, 0],
                                                 [0, 0, 0, 0], [1, 0, 0, 1.0]]}),
    ("check-deriv", {"kind": "inner", "b": [0, 0.5, 0, 0]}),
], ids=["unit", "pairs", "tensor", "inner"])
def test_float_candidate_scalar_exits_2(verb, candidate, tmp_path, capsys):
    # scalars are exact: a JSON float is no scalar, over QQ too
    alg = write_json(tmp_path / "m2q.json", tensoralg.matrix_algebra(2, QQ).to_json())
    cand = write_json(tmp_path / "cand.json", candidate)
    code, _, err = run(["algebra", verb, "--algebra", alg, "--candidate", cand], capsys)
    _assert_input_error(code, err)
    assert "cannot coerce" in err


def test_list_structure_entry_exits_2(tmp_path, capsys):
    # the constructor coerces each distinct scalar string once and passes
    # every other entry, a list too, to Field.coerce, which names it
    alg = write_json(tmp_path / "bad.json", {"dim": 1, "field": {"char": 0},
                                             "structure": [[[[1]]]], "unit": ["1"]})
    code, out, err = run(["embed", "build", "--algebra", alg], capsys)
    _assert_input_error(code, err)
    assert err == "error: cannot coerce [1] into QQ\n" and out == ""


@pytest.mark.parametrize("mutate", [
    _set(["one_complement", 0], ["1", "0", "0", "0", "0"]),
    _set(["one_complement", 0], ["1", "0", "0"]),
    lambda data: data["one_complement"].pop(),
], ids=["extra-coordinate", "missing-coordinate", "missing-vector"])
def test_one_complement_of_the_wrong_shape_exits_2(mutate, tmp_path, capsys):
    with open(corpus.data_path("m2f2")) as fh:
        data = json.load(fh)
    mutate(data)
    with pytest.raises(ValidationFailure, match="expected 3 vectors of 4 coordinates"):
        StructAlgebra.from_json(data)
    code, out, err = run(["algebra", "enumerate", "--algebra",
                          write_json(tmp_path / "bad.json", data)], capsys)
    _assert_input_error(code, err)
    assert "expected 3 vectors of 4 coordinates" in err
    assert "PASS" not in out


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_a_complement_that_contains_the_unit_exits_2(field, tmp_path, capsys):
    data = tensoralg.matrix_algebra(2, field).to_json()
    data["one_complement"][0] = data["unit"]
    message = "complement does not complete span(1) to the whole algebra"
    with pytest.raises(ValidationFailure, match="^%s$" % re.escape(message)):
        StructAlgebra.from_json(data)
    code, out, err = run(["algebra", "enumerate", "--algebra",
                          write_json(tmp_path / "bad.json", data)], capsys)
    _assert_input_error(code, err)
    assert err == "error: %s\n" % message and out == ""


@pytest.mark.parametrize("argv", [
    ["rewrite", "unit-search", "--system", "leavitt2.json", "--degree-cap", "-1"],
    ["rewrite", "unit-search", "--system", "leavitt2.json", "--budget", "-1"],
    ["algebra", "enumerate", "--algebra", "m2f2.json", "--budget", "-5"],
    ["algebra", "enumerate-derivs", "--algebra", "m2f2.json", "--budget", "many"],
], ids=["argv0", "argv1", "argv3", "argv4"])  # ids stay fixed when a case goes
def test_negative_counts_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_leavitt_n_names_no_library_function(capsys):
    # argparse builds "invalid <type> value" from the type's __name__
    with pytest.raises(SystemExit) as exc:
        main(["rewrite", "leavitt", "--n", "1_0"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        "innerscope rewrite leavitt: error: argument --n: expected an integer, got '1_0'"]
    assert "read_integer" not in err and "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["group", "classify", "--group", "s3.json",
     "--word", "x^%d" % (exactmath.MAX_EXPONENT + 1)],
    ["rewrite", "nf", "--system", "leavitt2.json",
     "--word", "x1^%d" % (exactmath.MAX_EXPONENT + 1)],
    ["rewrite", "nf", "--system", "leavitt2.json",
     "--word", "2^%d * x1" % (exactmath.MAX_EXPONENT + 1)],
    ["rewrite", "leavitt", "--n", str(rewrite.MAX_LEAVITT_N + 1)],
    ["algebra", "enumerate", "--algebra", "m2f2.json",
     "--budget", str(tensoralg.MAX_SCAN_BUDGET + 1)],
    ["algebra", "enumerate-derivs", "--algebra", "m2f2.json", "--budget", str(10 ** 30)],
    ["rewrite", "unit-search", "--system", "leavitt2.json",
     "--budget", str(rewrite.MAX_UNIT_SEARCH_BUDGET + 1)],
], ids=["word-exponent", "generator-exponent", "scalar-exponent", "leavitt-n",
        "enumerate-budget", "enumerate-derivs-budget", "unit-search-budget"])
def test_typed_numbers_are_bounded(argv, capsys):
    started = time.perf_counter()
    code, _, err = run(argv, capsys)
    _assert_input_error(code, err)
    assert time.perf_counter() - started < 1.0


def test_the_readme_names_every_flag_and_cap():
    # every option a verb declares, every cap the README cites, and every cap
    # the package assigns: a rename or a new knob must reach the README too
    readme = README.read_text()
    flags = {"--json"} | {"--" + name for _, verbs in cli.VERBS.values()
                          for *_, inputs, options in verbs
                          for name in inputs + [flag[2:] for flag, _ in options]}
    assert [f for f in sorted(flags) if not re.search(re.escape(f) + r"(?![\w-])", readme)] == []
    cited = set(re.findall(r"`(\w+)\.(MAX_[A-Z_]+)`", readme))
    assert [c for c in sorted(cited)
            if not hasattr(importlib.import_module("innerscope." + c[0]), c[1])] == []
    package = pathlib.Path(cli.__file__).parent
    assigned = {(path.stem, name) for path in package.glob("*.py")
                for name in re.findall(r"^(MAX_[A-Z_]+) = ", path.read_text(), re.M)}
    assert assigned - cited == set()


def test_group_order_is_bounded(tmp_path, capsys):
    n = freeprod.MAX_GROUP_ORDER + 1
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    path = write_json(tmp_path / "big.json",
                      {"order": n, "table": table, "names": [str(i) for i in range(n)]})
    started = time.perf_counter()
    code, _, err = run(["group", "monoid", "--group", path], capsys)
    _assert_input_error(code, err)
    assert "exceeds the cap" in err
    assert time.perf_counter() - started < 1.0


def test_gset_orbits_at_the_group_cap(tmp_path, capsys):
    # each stabilizer is all of Z_256; its centralizer is taken of a
    # generating set of it, not of its 256 elements
    n = freeprod.MAX_GROUP_ORDER
    write_json(tmp_path / "big.json", {"order": n, "names": [str(i) for i in range(n)],
                                       "table": [[(i + j) % n for j in range(n)] for i in range(n)]})
    path = write_json(tmp_path / "trivial.json",
                      {"group": "big.json", "points": 200, "action": [[p] * n for p in range(200)]})
    started = time.perf_counter()
    code, _, _ = run(["gset", "orbits", "--gset", path, "--json", str(tmp_path / "r.json")], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    verdicts = {v["name"]: v["value"] for v in json.loads((tmp_path / "r.json").read_text())["verdicts"]}
    assert verdicts["centralizer_sizes"] == [n] * 200


def test_unwritable_json_report_exits_2(tmp_path, capsys):
    code, out, err = run(["group", "monoid", "--group", "s3.json",
                          "--json", str(tmp_path / "no-such-dir" / "r.json")], capsys)
    _assert_input_error(code, err)
    assert "PASS" not in out


def test_route_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tensoralg, "_unit_sum_ok", lambda alg, a_list, b_list, mul: False)
    alg = write_json(tmp_path / "tp3.json", truncated_polynomial_algebra(GF(3)).to_json())
    code, _, err = run(["algebra", "enumerate", "--algebra", alg], capsys)
    assert code == 3
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error:")
    assert "InconsistentRoutes" in lines[0]


def test_derivation_oracle_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # check_derivation_generic's implication: a generic pass the oracle rejects
    monkeypatch.setattr(tensoralg, "_dual_number_ok", lambda alg, dual, w: False)
    cand = write_json(tmp_path / "cand.json", {"kind": "inner", "b": ["0", "1", "0", "0"]})
    code, out, err = run(["algebra", "check-deriv", "--algebra", "m2f2.json",
                          "--candidate", cand], capsys)
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: InconsistentRoutes")
    assert "generic Leibniz identity passed but the dual-number oracle rejected" in lines[0]


def test_qq_induced_map_failure_exits_3(tmp_path, monkeypatch, capsys):
    build = tensoralg._induced_columns
    monkeypatch.setattr(tensoralg, "_induced_columns",
                        lambda target, fa, fb: [col[:1] + (col[1] + 1,) + col[2:]
                                                for col in build(target, fa, fb)])
    alg = write_json(tmp_path / "m2q.json", tensoralg.matrix_algebra(2, QQ).to_json())
    cand = write_json(tmp_path / "cand.json", {"kind": "unit", "u": ["2", "1", "1", "3"]})
    code, out, err = run(["embed", "verify", "--algebra", alg, "--candidate", cand], capsys)
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: TheoremViolation")
    assert "induced map is not an algebra endomorphism" in lines[0]


@pytest.mark.parametrize("action", ["check", "classify"])
def test_word_route_disagreement_exits_3(action, monkeypatch, capsys):
    # the shape route calls the conjugation word "(12) x (12)" not inner
    monkeypatch.setattr(cli, "classify_inner_endo_group",
                        lambda word: freeprod.GroupInnerClass.not_inner())
    code, out, err = run(["group", action, "--group", "s3.json", "--word", "(12) x (12)"], capsys)
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: InconsistentRoutes")
    assert "generic equation and word shape disagree on '(12) x (12)'" in lines[0]


def test_monoid_closure_failure_exits_3(monkeypatch, capsys):
    # every composition substitutes to x^2, which realizes no extended inner endo
    monkeypatch.setattr(freeprod, "_substituted", lambda *args: [('x', 'x', 2)])
    code, out, err = run(["group", "monoid", "--group", "s3.json"], capsys)
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: InternalError")
    assert "composition left the candidate set" in lines[0]


def test_unit_search_bad_inverse_exits_3(monkeypatch, capsys):
    # the product table read the wrong way round: the solver finds right inverses
    monkeypatch.setattr(rewrite.NcPolynomial, "monomial", classmethod(
        lambda cls, field, word, coeff=1: cls(field, {tuple(reversed(word)): coeff})))
    code, out, err = run(["rewrite", "unit-search", "--system", "leavitt2.json",
                          "--degree-cap", "1"], capsys)
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: InternalError")
    assert "solver produced a bad inverse" in lines[0]


def test_too_many_generators_for_the_letter_code_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(rewrite, "MAX_GENERATORS", 3)
    code, out, err = run(["rewrite", "nf", "--system", "leavitt2.json", "--word", "x1"], capsys)
    _assert_input_error(code, err)
    assert "4 generators exceed the 3 a letter code can hold" in err
    assert "PASS" not in out


def test_plain_value_error_is_a_fault_not_bad_input(monkeypatch, capsys):
    def broken(group):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "inner_endo_monoid", broken)
    code, _, err = run(["group", "monoid", "--group", "s3.json"], capsys)
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ValueError")


# Every README tour command with its exit code, its (name, value, pass)
# verdicts and the determinism hash of its report.  The hash covers input
# contents, not paths, so it is the same in every checkout and directory.
TOUR = [
    (["group", "classify", "--group", "s3.json", "--word", "(12) x (12)"], 0,
     [("classification", "Conjugation((12))", True), ("routes_agree", True, True)],
     "42ff5802bdf6873945182671da7e32b2088c398dbda0c5d5d7804b239dd9f4aa"),
    (["group", "check", "--group", "z6.json", "--word", "x^2"], 1,
     [("multiplicative", False, False), ("routes_agree", True, True)],
     "5f8ffcc781fb0bef6faf25a568fd2b3ca4bf2f2629403be53ac288d4ca66c07a"),
    (["group", "monoid", "--group", "s3.json"], 0,
     [("size", 7, True), ("group_with_absorbing_element", True, True)],
     "751dc61094973aaefd4dec678df773d18a2782687f27f6ef221a5dbfba8ec9af"),
    (["algebra", "enumerate", "--algebra", "m2f2.json"], 0,
     [("count", 6, True), ("unit_route_count", 6, True), ("brute_forced", True, True),
      ("routes_agree", True, True)],
     "bdeec98ace94dc1fb0e41162ebcec40743902c7757b527a55cc3c45d91796e48"),
    (["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", "cand.json"], 0,
     [("passes", True, True), ("rank", 1, True)],
     "56b35fdbd1391ca5ce261ce4b247be07ddbec8050cffa214c95a993cffc85fc0"),
    (["algebra", "classify", "--algebra", "m2f2.json", "--candidate", "cand.json"], 0,
     [("classification", "conjugation", True),
      ("unit", ["1 mod 2", "1 mod 2", "0 mod 2", "1 mod 2"], True)],
     "08bc6a73be62e139eda159613612a19d22884e819c5f39df53ab048d97b104f4"),
    (["algebra", "enumerate-derivs", "--algebra", "m2f2.json"], 0,
     [("count", 8, True), ("routes_agree", True, True), ("oracle_count", 8, True),
      ("oracle_exact", True, True)],
     "e951f290d347af483d578a58bc813af96a35c57a769a9a57b0d8b7a75571bf75"),
    (["algebra", "check-deriv", "--algebra", "m2f2.json", "--candidate", "deriv.json"], 0,
     [("generic_leibniz", True, True), ("induced_map_is_derivation", True, True)],
     "89e8d4080f21727ff1f614f92feab6711086d2862a918d00bceb571989489f73"),
    (["algebra", "extract-deriv", "--algebra", "m2f2.json", "--candidate", "deriv.json"], 0,
     [("element", ["0 mod 2", "1 mod 2", "0 mod 2", "0 mod 2"], True),
      ("splitting_normalized", True, True)],
     "99e39dd0dc8559d90ee0e94595dc4448556fcfb80d01fb17af7b9309c32af0c3"),
    (["rewrite", "confluence", "--system", "leavitt2.json"], 0,
     [("confluent", True, True), ("unresolved_ambiguities", 0, True)],
     "f5de830734b926be170c3a9c0991029b6a43dc9893c39f39c1668a1455cb5269"),
    (["rewrite", "nf", "--system", "leavitt2.json", "--word", "y1 * x1 + y2 * x1"], 0,
     [("normal_form", "1", True), ("is_zero", False, True)],
     "5e490093e936db619f23bd7495203d9ddb02000473990877f4e3340a2407af6e"),
    (["rewrite", "pbw", "--lie", "sl2f3.json"], 0,
     [("jacobi", True, True), ("confluent", True, True), ("jacobi_iff_confluent", True, True)],
     "2f9703ab7e186f9f21a2dcb81c44422abe97cb07ccb3b2aa70b7bb3a4e4b82a8"),
    (["rewrite", "ad-power", "--lie", "sl2f3.json"], 0,
     [("pairs_checked", 9, True), ("ad_power_equals_commutator", True, True),
      ("values_in_lie_algebra", True, True)],
     "71c409024c7eb4e0125d9e7bc766386a75c3ef70cece67f2e09d27ea1bbe4c5e"),
    (["rewrite", "check-endo", "--system", "leavitt2.json", "--candidate", "pair.json"], 0,
     [("passes", True, True), ("samples", 7, True), ("injectivity_witness", True, True),
      ("centralizing_units", True, True), ("independent_units", True, True)],
     "ae4659da60bdc868fc7e5136aa864c4f98389e6e7dca1b0347add1e46603fac0"),
    (["rewrite", "unit-search", "--system", "leavitt2.json", "--degree-cap", "1"], 0,
     [("searched", 121, True), ("solutions", 5, True), ("all_scalar", False, True)],
     "6ae5a75425866628be36799f3006d753c935516f5664a1dbdc40ab69ca86133b"),
    (["gset", "orbits", "--gset", "s3-natural-gset.json"], 0,
     [("orbits", 1, True), ("reps", [0], True), ("stabilizer_sizes", [2], True),
      ("centralizer_sizes", [2], True)],
     "d8b3356e80660434b34d21fe026cfb999bd81a3c954d39eab6fe4177b442c6f9"),
    (["gset", "coinner", "--gset", "s3-natural-gset.json", "--oracle"], 0,
     [("order", 2, True), ("direct_product_of_centralizers", True, True),
      ("oracle_count", 2, True), ("oracle_match", True, True)],
     "e44f7e6b31325f667d598c13408b87d1ee11be4ed2253bd9977ae68fbcb4853e"),
    (["gset", "oracle", "--gset", "s3-natural-gset.json"], 0,
     [("oracle_count", 2, True), ("matches_centralizers", True, True)],
     "1f591f5526912ecbc06e46a4e58bb23818eea8d9424d94c13c73217a85eb7e08"),
    (["embed", "build", "--algebra", "m2f2.json", "--out", "big.json"], 0,
     [("total_dim", 36, True), ("associative", True, True), ("embedding_rank", 4, True),
      ("central_witnesses", True, True)],
     "a6ce2c13cef81a71671f74f73cf2cb91aaab0bbbcef9f81fdf8b988b19ab6d47"),
    (["embed", "verify", "--algebra", "m2f2.json", "--candidate", "cand.json"], 0,
     [("fixes_centralizer", True, True), ("centralizer_dim", 9, True), ("kernel_rank", 0, True),
      ("restriction_matches", True, True)],
     "043e6ea790cdbc3cceba4be53ccb56ac67524f8d05adc4f1f5c90ceac4bbd0d7"),
    (["selftest"], 0,
     [("word-survey", "accepted sizes 7/9/7 over S3/D4/Z6, no disagreements", True),
      ("endo-monoid", "7 elements, table matches S3 exactly, constant map absorbing", True),
      ("unit-tensor-scan", "6 of 65536 tensors pass, all conjugations by GL2(F2)", True),
      ("derivation-scan",
       "8 passing tensors, oracle exact on all 65536, extraction round-trips", True),
      ("leavitt-pair",
       "confluent, pair passes, witnesses hold on 7 samples, units rank 4", True),
      ("pbw-jacobi", "20 random GF(5) tables agree (10 Jacobi, 10 not);"
       " sl2 confluent over QQ, GF(3), GF(5)", True),
      ("char-p-powers", "18 basis pairs match, every commutator stays degree one", True),
      ("coinner-orders", "orders 2/4/6/36 equal centralizer products and oracle counts", True),
      ("embedding-suite", "dimensions 3/36/10 associative, 6 induced maps kernel-free", True),
      ("square-commutation", "50 squares commute: 17 group, 17 algebra, 16 G-set", True)],
     "a1ee0f021396f3b38a5dda65f56cb677f9bb9c550ffd7fbdfb4acffcca24dae7"),
]


@pytest.mark.parametrize("argv, code, verdicts, digest", TOUR,
                         ids=[" ".join(t[0][:2]) for t in TOUR])
def test_tour_verdicts_are_frozen(argv, code, verdicts, digest, same_results, tmp_path,
                                  monkeypatch, capsys, request):
    if argv == ["selftest"]:
        got_code, out, report = request.getfixturevalue("selftest_run")
    else:
        monkeypatch.chdir(tmp_path)
        write_tour_files(same_results, tmp_path)
        got_code, out, _ = run(argv + ["--json", "report.json"], capsys)
        report = json.loads((tmp_path / "report.json").read_text())
    got = [(v["name"], v["value"], v["pass"]) for v in report["verdicts"]]
    assert (got_code, got) == (code, verdicts)
    assert report["determinism_hash"] == digest
    for name, _, _ in verdicts:
        assert "  %s:" % name in out
    assert out.strip().splitlines()[-1] == ("PASS" if code == 0 else "FAIL")


E11, E22 = ["1", "0", "0", "0"], ["0", "0", "0", "1"]

# Failing runs, whose verdicts end in a reason line, with their exit code,
# (name, value, pass) verdicts and determinism hash, frozen like the tour;
# the candidate, when there is one, is written to cand.json.
FAILING = [
    (["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", "cand.json"],
     {"kind": "pairs", "a": [E11], "b": [E11]},
     [("passes", False, False), ("rank", 1, True), ("reason", "unit-sum", False)],
     "8c43100f239c01047edab4ac3d61396717857be6771dcb57b98e8c22dc3d7339"),
    (["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", "cand.json"],
     {"kind": "pairs", "a": [E11, E22], "b": [E11, E22]},
     [("passes", False, False), ("rank", 2, True), ("reason", "biorthogonality", False)],
     "4bd35400af25952b528b48bb40772bfd8718b71a86d328ebaf9c123db5c56329"),
    (["rewrite", "check-endo", "--system", "leavitt2.json", "--candidate", "cand.json"],
     {"a": ["x1"], "b": ["y2"]},
     [("passes", False, False), ("reason", "unit-sum", False)],
     "a803c5fbf4705d3b08dfde65d2850f0ba6cf5eee8a30ba05f2c24941803125c3"),
    (["algebra", "enumerate", "--algebra", "m2f2.json", "--budget", "4"], None,
     [("completed", False, False),
      ("reason", "unit enumeration would need 16 vectors", False)],
     "6fc33bb2739365da0572bd6a98044a91d4bc17d458d44b81529a07263a8ed0fc"),
]


@pytest.mark.parametrize("argv, candidate, verdicts, digest", FAILING,
                         ids=["unit-sum", "biorthogonality", "rewrite-unit-sum", "budget"])
def test_failing_verdicts_are_frozen(argv, candidate, verdicts, digest, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    if candidate is not None:
        write_json(tmp_path / "cand.json", candidate)
    code, out, _ = run(argv + ["--json", "report.json"], capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    got = [(v["name"], v["value"], v["pass"]) for v in report["verdicts"]]
    assert (code, got) == (1, verdicts)
    assert report["determinism_hash"] == digest
    assert out.strip().splitlines()[-1] == "FAIL"


def test_every_report_line_is_a_line(same_results, tmp_path, monkeypatch, capsys):
    # selftest runs on a stub battery: its real lines are frozen in TOUR
    from innerscope import acceptance
    from innerscope.errors import Verdict

    monkeypatch.setattr(acceptance, "CHECKS", [
        ("stub", lambda: Verdict(True, "fine", {"measured": 1}), None)])
    emitted = []
    emit = cli._emit

    def spy(command, inputs, digests, verdicts, *rest):
        emitted.append((command, verdicts))
        return emit(command, inputs, digests, verdicts, *rest)

    monkeypatch.setattr(cli, "_emit", spy)
    monkeypatch.chdir(tmp_path)
    write_tour_files(same_results, tmp_path)
    runs = [(argv, code, None) for argv, code, _, _ in TOUR]
    runs += [(argv, 1, candidate) for argv, candidate, _, _ in FAILING]
    for argv, code, candidate in runs:
        if candidate is not None:
            write_json(tmp_path / "cand.json", candidate)
        assert run(argv, capsys)[0] == code, argv
    assert len(emitted) == len(runs)
    for command, verdicts in emitted:
        assert verdicts and all(type(line) is cli.Line for line in verdicts), command


def test_readme_tour_is_the_frozen_tour(same_results):
    # the commands same_results.py reads from the README, in any order
    assert sorted(same_results.tour_commands(README.read_text())) == sorted(
        argv for argv, _, _, _ in TOUR)


def test_parser_is_built_once_on_the_first_call(capsys):
    spec = importlib.util.find_spec("innerscope.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh._build_parser.cache_info().currsize == 0  # importing builds nothing
    for _ in range(2):
        assert fresh.main(["group", "monoid", "--group", "s3.json"]) == 0
    info = fresh._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# One bundled file per input option, and the candidates and --word that fit
# a verb's first input.  The sweep below reads every verb from the table, so a
# new verb is covered as long as its inputs and required options are here.
SWEEP_FILES = {"group": "s3", "algebra": "m2f2", "system": "leavitt2", "lie": "sl2f3",
               "gset": "s3-natural-gset"}
SWEEP_CANDIDATES = {"algebra": [{"kind": "unit", "u": ["1", "1", "0", "1"]},
                                {"kind": "inner", "b": ["0", "1", "0", "0"]}],
                    "system": [{"a": ["x1", "x2"], "b": ["y1", "y2"]}]}
SWEEP_WORDS = {"group": "(12) x (12)", "system": "y1 * x1 + y2 * x1"}
SWEEP_VALUES = [None, True, -1, 0, 1, 2, 3, 7, 10 ** 6, 2 ** 64, 1.5, "", "x", "e", "x1",
                "0", "-1", "1/0", [], [1], [[]], {}, {"0": 1}]
SWEEP_VERBS = [(noun, action, inputs, options)
               for noun, (_, verbs) in cli.VERBS.items()
               for action, _, _, inputs, options in verbs if inputs]


def _mutate(rng, data):
    """Replace or delete one randomly chosen node of decoded JSON."""
    nodes = []

    def walk(node):
        children = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            nodes.append((node, key))
            walk(child)

    walk(data)
    parent, key = rng.choice(nodes)
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = rng.choice(SWEEP_VALUES)


@pytest.mark.parametrize("noun, action, inputs, options", SWEEP_VERBS,
                         ids=[" ".join(v[:2]) for v in SWEEP_VERBS])
def test_malformed_input_sweep(noun, action, inputs, options, tmp_path, capsys):
    rng = random.Random("%s %s" % (noun, action))
    for trial in range(12):
        argv = [noun, action]
        target = rng.choice(inputs)
        for name in inputs:
            if name == "candidate":
                data = copy.deepcopy(rng.choice(SWEEP_CANDIDATES[inputs[0]]))
            else:
                with open(corpus.data_path(SWEEP_FILES[name])) as fh:
                    data = json.load(fh)
            text = json.dumps(data)
            if name == target and trial % 6 == 5:
                text = text[:rng.randrange(len(text))]
            elif name == target:
                _mutate(rng, data)
                text = json.dumps(data)
            path = tmp_path / ("%d-%s.json" % (trial, name))
            path.write_text(text)
            argv += ["--" + name, str(path)]
        for flag, kwargs in options:
            if kwargs.get("required"):
                argv += [flag, SWEEP_WORDS[inputs[0]]]
            elif flag == "--budget":
                argv += [flag, "300"]  # a scan of a bundled input stops at once
        code, _, err = run(argv, capsys)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 1, (argv, err)


# Every count option in the verb table, with the verb's bundled inputs.
COUNT_OPTIONS = [(noun, action, inputs, flag)
                 for noun, (_, verbs) in cli.VERBS.items()
                 for action, _, _, inputs, options in verbs
                 for flag, kwargs in options if kwargs.get("type") is cli._nonnegative]


@pytest.mark.parametrize("noun, action, inputs, flag", COUNT_OPTIONS,
                         ids=[" ".join((n, a, f)) for n, a, _, f in COUNT_OPTIONS])
def test_huge_counts_end_quickly(noun, action, inputs, flag, capsys):
    # a legal huge value runs or stops on its budget; an illegal one is bad input
    for value in (10 ** 6, 10 ** 30):
        argv = [noun, action, flag, str(value)]
        for name in inputs:
            argv += ["--" + name, SWEEP_FILES[name] + ".json"]
        started = time.perf_counter()
        code, _, err = run(argv, capsys)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 1, (argv, err)
        assert time.perf_counter() - started < 5.0, argv
