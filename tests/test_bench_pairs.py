"""tools/bench_pairs.py, with every benchmark run stubbed out."""

import json

import pytest


def test_a_failed_group_keeps_the_groups_before_it(load_tool, tmp_path, monkeypatch):
    bench = load_tool("bench_pairs")
    names = ["setup_s", "requests_per_s"]
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": n, "better": "higher"} for n in names]}))
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        if trace:  # the last group
            raise SystemExit("bench_pairs: run failed")
        calls.append((checkout, workload, seed))
        result = {"machine": {"cpu": "stub", "seed": seed}, "failed": 0,
                  "metrics": {n: {"value": float(len(calls))} for n in names}}
        return 3, result

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "OTHER_PAIRS", 2)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit):
        bench.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                    "--out", str(out), "--workload", "verb-mix"])
    kept = json.loads(out.read_text())
    # both seeds of verb-mix and the three other workloads, 2 pairs each
    assert list(kept["summary"]) == ["424242", "31337", "tensor-scan_424242",
                                     "word-stream_424242", "nf-stream_424242"]
    assert len(kept["runs"]) == len(calls) == 5 * 2 * 2
    assert kept["summary"]["424242"]["pairs"] == 2
    assert kept["machine"] == {"cpu": "stub"}
    assert not (tmp_path / "BENCH.json.tmp").exists()


def test_traced_pairs_give_each_layer_a_median_and_spread(load_tool, tmp_path, monkeypatch):
    bench = load_tool("bench_pairs")
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "requests_per_s", "better": "higher"}]}))
    # per traced run: (side, pair) -> (calls, busy_s) of layer "a"; layer "b"
    # is called by the parent's first run only
    layer_a = {("parent", 0): (10, 0.020), ("change", 0): (10, 0.010),
               ("change", 1): (20, 0.060), ("parent", 1): (20, 0.040),
               ("parent", 2): (10, 0.030), ("change", 2): (10, 0.020)}
    pairs = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace):
        if not trace:
            return 3, {"machine": {}, "failed": 0, "metrics": {"requests_per_s": {"value": 1.0}}}
        side = "parent" if checkout.endswith("parent") else "change"
        calls, busy = layer_a[side, pairs[side]]
        metrics = {"a.calls": calls, "a.busy_s": busy, "bench.self_s": 0}
        if (side, pairs[side]) == ("parent", 0):
            metrics.update({"b.calls": 1, "b.busy_s": 0.5})
        pairs[side] += 1
        return 1, {"machine": {}, "failed": 0, "attempted": 2,
                   "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "OTHER_PAIRS", 2)
    monkeypatch.setattr(bench, "TRACE_PAIRS", 3)
    out = tmp_path / "BENCH.json"
    bench.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                "--out", str(out), "--workload", "word-stream"])
    kept = json.loads(out.read_text())
    traced = kept["summary"]["trace_424242_seconds5"]
    assert len([r for r in kept["runs"] if r["trace"]]) == 6
    assert traced["pairs"] == 3 and traced["rounds"] == {"parent": [1, 1, 1], "change": [1, 1, 1]}
    # parent ms per call 2, 2, 3; change 1, 3, 2: the change is lower in pairs 0 and 2
    assert traced["a.ms_per_call"] == {"parent": {"median": 2.0, "q1": 2.0, "q3": 2.5},
                                       "change": {"median": 2.0, "q1": 1.5, "q3": 2.5},
                                       "change_wins": 2}
    assert traced["a.calls"] == {"parent": 10, "change": 10}
    assert traced["b.calls"] == {"parent": 0, "change": 0}
    assert "b.ms_per_call" not in traced and "bench.self_s" not in traced
    assert "3 traced word-stream pairs" in kept["method"]
