"""Command-line behavior: verdicts, reports, exit codes, file handling.

Every test drives main() in-process, so exit codes and printed output
are checked without spawning an interpreter.  Bundled corpus files are
addressed by bare name throughout; inputs written on the fly go through
tmp_path.
"""

import hashlib
import json
import runpy
import sys

import pytest

from innerscope import corpus, tensoralg
from innerscope.cli import main
from innerscope.exactmath import GF, QQ
from innerscope.rewrite import RewriteSystem
from innerscope.tensoralg import StructAlgebra, truncated_polynomial_algebra


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


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


def test_algebra_enumerate_derivs_small(tmp_path, capsys):
    alg = write_json(tmp_path / "tp3.json", truncated_polynomial_algebra(GF(3)).to_json())
    code, out, _ = run(["algebra", "enumerate-derivs", "--algebra", alg], capsys)
    assert code == 0
    assert "count:" in out and "routes_agree:" in out


def test_algebra_enumerate_needs_finite_field(tmp_path, capsys):
    alg = write_json(tmp_path / "tpq.json", truncated_polynomial_algebra(QQ).to_json())
    code, out, _ = run(["algebra", "enumerate", "--algebra", alg], capsys)
    assert code == 1
    assert "completed:" in out
    assert "finite field" in out
    assert "budget" in out


def test_rewrite_nf(capsys):
    code, out, _ = run(["rewrite", "nf", "--system", "leavitt2.json",
                        "--word", "y1 * x1 + y2 * x1"], capsys)
    assert code == 0
    assert "normal_form:" in out


def test_rewrite_confluence(capsys):
    code, out, _ = run(["rewrite", "confluence", "--system", "leavitt2.json"], capsys)
    assert code == 0
    assert "confluent:" in out


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


def test_gset_coinner_with_oracle(capsys):
    code, out, _ = run(["gset", "coinner", "--gset", "s3-natural-gset.json",
                        "--oracle"], capsys)
    assert code == 0
    assert "order:" in out
    assert "oracle_count:" in out
    assert "oracle_match:" in out


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
    big = StructAlgebra.load(str(out_path))
    assert big.dim == 36
    assert big.validate() == []


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
    assert set(r1) == {"command", "inputs", "verdicts", "citations",
                       "timing", "determinism_hash"}
    assert r1["command"] == "group monoid"
    assert isinstance(r1["timing"], int)
    assert all(set(v) == {"name", "value", "pass"} for v in r1["verdicts"])
    # the hash covers everything except timing, so reruns agree
    assert r1["determinism_hash"] == r2["determinism_hash"]
    core = {k: r1[k] for k in ("command", "inputs", "verdicts", "citations")}
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


@pytest.mark.parametrize("name, mutate, argv", [
    ("s3", _set(["table", 1, 2], "x"), ["group", "monoid", "--group"]),
    ("m2f2", _set(["field"], "QQ"), ["algebra", "enumerate", "--algebra"]),
    ("leavitt2", _drop_rhs, ["rewrite", "confluence", "--system"]),
    ("sl2q", _set(["brackets", 0, 1, 2], "1/0"), ["rewrite", "pbw", "--lie"]),
], ids=["string-in-group-table", "field-as-string", "rule-without-rhs", "one-over-zero"])
def test_malformed_input_exits_2(name, mutate, argv, tmp_path, capsys):
    with open(corpus.data_path(name)) as fh:
        data = json.load(fh)
    mutate(data)
    code, _, err = run(argv + [write_json(tmp_path / "bad.json", data)], capsys)
    _assert_input_error(code, err)


@pytest.mark.parametrize("argv", [
    ["rewrite", "unit-search", "--system", "leavitt2.json", "--degree-cap", "-1"],
    ["rewrite", "unit-search", "--system", "leavitt2.json", "--budget", "-1"],
    ["rewrite", "ad-power", "--lie", "sl2f3.json", "--degree-cap", "-3"],
    ["algebra", "enumerate", "--algebra", "m2f2.json", "--budget", "-5"],
    ["algebra", "enumerate-derivs", "--algebra", "m2f2.json", "--budget", "many"],
])
def test_negative_counts_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_unwritable_json_report_exits_2(tmp_path, capsys):
    code, out, err = run(["group", "monoid", "--group", "s3.json",
                          "--json", str(tmp_path / "no-such-dir" / "r.json")], capsys)
    _assert_input_error(code, err)
    assert "PASS" not in out


def test_route_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tensoralg, "_unit_sum_ok", lambda alg, a_list, b_list: False)
    alg = write_json(tmp_path / "tp3.json", truncated_polynomial_algebra(GF(3)).to_json())
    code, _, err = run(["algebra", "enumerate", "--algebra", alg], capsys)
    assert code == 3
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error:")
    assert "InconsistentRoutes" in lines[0]


def test_selftest_runs_every_check(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    for name in ("word-survey", "endo-monoid", "unit-tensor-scan",
                 "derivation-scan", "leavitt-pair", "pbw-jacobi",
                 "char-p-powers", "coinner-orders", "embedding-suite",
                 "square-commutation"):
        assert name + ":" in out
    assert out.strip().endswith("PASS")


# Every README tour command with its exit code and its (name, value, pass)
# verdicts, frozen from a run before the error-hierarchy refactor.  Selftest
# values carry timings, so only its names and pass flags are frozen.
TOUR = [
    (["group", "classify", "--group", "s3.json", "--word", "(12) x (12)"], 0,
     [("classification", "Conjugation((12))", True), ("routes_agree", True, True)]),
    (["group", "check", "--group", "z6.json", "--word", "x^2"], 1,
     [("multiplicative", False, False), ("routes_agree", True, True)]),
    (["group", "monoid", "--group", "s3.json"], 0,
     [("size", 7, True), ("group_with_absorbing_element", True, True)]),
    (["algebra", "enumerate", "--algebra", "m2f2.json"], 0,
     [("count", 6, True), ("unit_route_count", 6, True), ("brute_forced", True, True),
      ("routes_agree", True, True)]),
    (["algebra", "classify", "--algebra", "m2f2.json", "--candidate", "cand.json"], 0,
     [("classification", "conjugation", True),
      ("unit", ["1 mod 2", "1 mod 2", "0 mod 2", "1 mod 2"], True)]),
    (["algebra", "enumerate-derivs", "--algebra", "m2f2.json"], 0,
     [("count", 8, True), ("routes_agree", True, True), ("oracle_count", 8, True),
      ("oracle_exact", True, True)]),
    (["rewrite", "confluence", "--system", "leavitt2.json"], 0,
     [("confluent", True, True), ("unresolved_ambiguities", 0, True)]),
    (["rewrite", "nf", "--system", "leavitt2.json", "--word", "y1 * x1 + y2 * x1"], 0,
     [("normal_form", "1", True), ("is_zero", False, True)]),
    (["rewrite", "pbw", "--lie", "sl2f3.json"], 0,
     [("jacobi", True, True), ("confluent", True, True), ("jacobi_iff_confluent", True, True)]),
    (["rewrite", "ad-power", "--lie", "sl2f3.json"], 0,
     [("pairs_checked", 9, True), ("ad_power_equals_commutator", True, True),
      ("values_in_lie_algebra", True, True)]),
    (["rewrite", "check-endo", "--system", "leavitt2.json", "--candidate", "pair.json"], 0,
     [("passes", True, True), ("samples", 7, True), ("injectivity_witness", True, True),
      ("centralizing_units", True, True), ("independent_units", True, True)]),
    (["rewrite", "unit-search", "--system", "leavitt2.json", "--degree-cap", "1"], 0,
     [("searched", 121, True), ("solutions", 5, True), ("all_scalar", False, True)]),
    (["gset", "orbits", "--gset", "s3-natural-gset.json"], 0,
     [("orbits", 1, True), ("reps", [0], True), ("stabilizer_sizes", [2], True),
      ("centralizer_sizes", [2], True)]),
    (["gset", "coinner", "--gset", "s3-natural-gset.json", "--oracle"], 0,
     [("order", 2, True), ("direct_product_of_centralizers", True, True),
      ("oracle_count", 2, True), ("oracle_match", True, True)]),
    (["embed", "build", "--algebra", "m2f2.json", "--out", "big.json"], 0,
     [("total_dim", 36, True), ("associative", True, True), ("embedding_rank", 4, True),
      ("central_witnesses", True, True)]),
    (["embed", "verify", "--algebra", "m2f2.json", "--candidate", "cand.json"], 0,
     [("fixes_centralizer", True, True), ("centralizer_dim", 9, True), ("kernel_rank", 0, True),
      ("restriction_matches", True, True)]),
    (["selftest"], 0,
     [("word-survey", True), ("endo-monoid", True), ("unit-tensor-scan", True),
      ("derivation-scan", True), ("leavitt-pair", True), ("pbw-jacobi", True),
      ("char-p-powers", True), ("coinner-orders", True), ("embedding-suite", True),
      ("square-commutation", True)]),
]


@pytest.mark.parametrize("argv, code, verdicts", TOUR, ids=[" ".join(t[0][:2]) for t in TOUR])
def test_tour_verdicts_are_frozen(argv, code, verdicts, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cand.json", {"kind": "unit", "u": ["1", "1", "0", "1"]})
    write_json(tmp_path / "pair.json", {"a": ["x1", "x2"], "b": ["y1", "y2"]})
    got_code, _, _ = run(argv + ["--json", "report.json"], capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    got = [(v["name"], v["value"], v["pass"]) for v in report["verdicts"]]
    if argv[0] == "selftest":
        got = [(name, ok) for name, _, ok in got]
    assert (got_code, got) == (code, verdicts)
