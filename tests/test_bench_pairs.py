"""tools/bench_pairs.py, with every benchmark run stubbed out."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_group_keeps_the_groups_before_it(tmp_path, monkeypatch):
    bench = _load_tool()
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
