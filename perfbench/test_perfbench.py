"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import common  # noqa: E402
import run  # noqa: E402
import tensor_scan  # noqa: E402
import word_stream  # noqa: E402

# Names a later clean-up may delete (ROADMAP item 5); the benchmark must not
# depend on them.
DELETION_CANDIDATES = {
    "upper_triangular_algebra", "abelian_lie", "trivial_gset", "hunt_square_extendible",
    "pairs_equivalent", "centralizer_of_image", "Scalar", "word_multiply", "vec_add",
    "vec_sub", "vec_scale", "vec_is_zero", "zero_vec", "block0_index",
    "is_irreducible_word", "word_less", "subgroup_generated", "lie_inner_derivation_check",
}


def _sources():
    return sorted(os.path.join(HERE, n) for n in os.listdir(HERE) if n.endswith(".py"))


def test_benchmark_uses_only_public_lasting_api():
    problems = []
    for path in _sources():
        tree = ast.parse(open(path).read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("innerscope"):
                names = node.module.split(".") + [alias.name for alias in node.names]
                problems += ["%s:%d imports %s" % (path, node.lineno, n) for n in names if n.startswith("_")]
            elif isinstance(node, ast.Import):
                names = [p for alias in node.names if alias.name.startswith("innerscope")
                         for p in alias.name.split(".")]
                problems += ["%s:%d imports %s" % (path, node.lineno, n) for n in names if n.startswith("_")]
            elif isinstance(node, ast.Attribute):
                if node.attr.startswith("_") and not node.attr.startswith("__"):
                    problems.append("%s:%d uses private name %s" % (path, node.lineno, node.attr))
                if node.attr in DELETION_CANDIDATES:
                    problems.append("%s:%d uses %s" % (path, node.lineno, node.attr))
            elif isinstance(node, ast.alias) and node.name in DELETION_CANDIDATES:
                problems.append("%s imports %s" % (path, node.name))
            elif isinstance(node, ast.Name) and node.id in DELETION_CANDIDATES:
                problems.append("%s:%d uses %s" % (path, node.lineno, node.id))
    assert not problems, "\n".join(problems)


def test_same_seed_gives_byte_identical_inputs():
    for workload in run.WORKLOADS.values():
        for k in (0, 1):
            first = json.dumps(workload.generate(7, k), sort_keys=True).encode()
            again = json.dumps(workload.generate(7, k), sort_keys=True).encode()
            other = json.dumps(workload.generate(8, k), sort_keys=True).encode()
            assert first == again, workload.NAME
            assert first != other, workload.NAME


def _fail_frac(workload, data, tamper=None):
    """Share of failed requests in one round; tamper, if given, corrupts the first result."""
    state = workload.setup({})
    items = workload.prepare(state, data)
    tampered = []

    def execute(st, item, tr):
        result = workload.execute(st, item, tr)
        if tamper and not tampered:
            tampered.append(item)
            result = tamper(result)
        return result

    proxy = types.SimpleNamespace(execute=execute, check=workload.check, label=workload.label,
                                  probe=workload.probe)
    phase = run.run_phase(proxy, state, 0, common.NullTracer(), rounds=1, first=items)
    return run.failed_requests(phase) / len(phase.latencies)


def test_tampered_word_result_is_counted_as_failure():
    requests = [r for r in word_stream.generate(3, 0) if not r.get("monoid")][:30]
    assert _fail_frac(word_stream, requests) == 0.0

    def flip(result):
        word, shape, generic = result
        return word, shape, not generic

    assert _fail_frac(word_stream, requests, flip) > 0.0


def test_tampered_scan_result_is_counted_as_failure():
    alg = common.upper_triangular_2(2)
    alg["copy_of"] = None
    data = {"algebras": [alg], "requests": [{"algebra": 0, "op": "endo"}, {"algebra": 0, "op": "deriv"}]}
    assert _fail_frac(tensor_scan, data) == 0.0

    def drop_one(result):
        result.passing = result.passing[1:]
        result.count -= 1
        return result

    assert _fail_frac(tensor_scan, data, drop_one) > 0.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == common.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_speed_gauge_rescales_each_segment_by_the_readings_around_it(monkeypatch):
    readings = iter([0.002, 0.002, 0.0005])
    monkeypatch.setattr(common, "reference_time", lambda: next(readings))
    gauge = common.SpeedGauge()
    gauge.INTERVAL = float("inf")  # readings only on explicit flushes
    gauge.add()
    gauge.flush()
    gauge.add()
    gauge.flush()
    gauge.WINDOW = 0.0
    # the first segment ran at half the reference speed; the second between
    # readings of 2 ms and 0.5 ms, a mean of 1.25 ms
    assert list(gauge.rescaled([1.0, 1.0])) == pytest.approx([0.5, 0.8])
    gauge.WINDOW = 60.0
    # a wide window judges both by all three readings, a mean of 1.5 ms
    assert list(gauge.rescaled([1.0, 1.0])) == pytest.approx([2 / 3, 2 / 3])
