"""innerscope benchmark: one command, four seeded workloads, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tensor-scan --seed 1 --seconds 20 --trace 0

Load model: one process, one thread, one closed-loop client that sends the
next request only when the last one has returned.  Nothing waits in a queue,
so every layer's waiting time is zero by construction.

A workload is a sequence of rounds.  Round k is generated from (seed, k),
prepared, then its requests run back to back; the timed phase is the sum of
those request loops.  Every output is checked against the benchmark's own
route after its round, outside the timed phase.  Rounds continue while the
next one is predicted to end within --seconds (at least one round runs).

Times are rescaled to a reference speed, because the machines this runs on
change speed by up to 2x within minutes: a fixed piece of pure-Python work
is timed between requests, and every time is reported as it would read on
a machine where that work takes 1 ms (common.SpeedGauge).  The raw
wall-clock figures are printed on a '# raw wall clock' line beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same rounds
untraced and then traced, and prints the per-layer metrics from the traced
pass; spans are written to perfbench/out/ when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 when every check
passed, 1 when a check failed and 2 when the program could not be loaded.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

import common  # noqa: E402
import nf_stream  # noqa: E402
import tensor_scan  # noqa: E402
import verb_mix  # noqa: E402
import word_stream  # noqa: E402

WORKLOADS = {m.NAME: m for m in (tensor_scan, word_stream, nf_stream, verb_mix)}

# A phase starts no new round after this many requests, so that the memory
# the harness keeps per request stays a small, bounded part of peak_rss_mb.
MAX_REQUESTS = 120_000

# Set-up is repeated this many times per untraced run and its median reported.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def purge_innerscope():
    """Drop innerscope from the module cache so the next import runs it again."""
    for name in [n for n in sys.modules if n == "innerscope" or n.startswith("innerscope.")]:
        del sys.modules[name]


def setup(workload, seed, ctx):
    """Import the program, build the shared state and prepare round 0."""
    state = workload.setup(ctx)
    prepared = workload.prepare(state, workload.generate(seed, 0))
    return state, prepared


class Phase:
    """Outcome of running some rounds with one tracer."""

    def __init__(self):
        self.latencies = array("d")  # raw wall-clock seconds
        self.gauge = common.SpeedGauge()
        self.scaled = array("d")     # the latencies rescaled to the reference speed
        self.wall = 0.0
        self.rounds = 0
        self.failures = []   # (round, index, request label, route, message)
        self.slowest = []    # heap of (latency, request label), the ten slowest

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def scale(self):
        """Factor from raw seconds to reference seconds over this phase."""
        return sum(self.scaled) / self.busy


def run_phase(workload, state, seed, tracer, seconds=None, rounds=None, first=None):
    phase = Phase()
    start = time.perf_counter()
    last_round = 0.0
    k = 0
    while True:
        if rounds is not None and k >= rounds:
            break
        if rounds is None and k > 0 and ((time.perf_counter() - start) + last_round > seconds
                                         or len(phase.latencies) >= MAX_REQUESTS):
            break
        round_start = time.perf_counter()
        items = first if (k == 0 and first is not None) else workload.prepare(
            state, workload.generate(seed, k))
        outcomes = []
        for i, item in enumerate(items):
            tracer.rid = (k, i)
            t0 = time.perf_counter()
            try:
                result = tracer.call("bench.request", workload.execute, state, item, tracer)
                error = None
            except Exception:  # a request that raises is a failure, not a crash
                result = None
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            latency = time.perf_counter() - t0
            phase.latencies.append(latency)
            phase.gauge.add()
            if len(phase.slowest) < 10 or latency > phase.slowest[0][0]:
                entry = (latency, workload.label(item))
                (heapq.heappush if len(phase.slowest) < 10 else heapq.heapreplace)(phase.slowest, entry)
            outcomes.append((item, result, error))
        phase.gauge.flush()
        for i, (item, result, error) in enumerate(outcomes):
            problems = [("raised", error)] if error else workload.check(state, item, result, tracer)
            for route, message in problems:
                phase.failures.append((k, i, workload.label(item), route, message))
        if tracer.enabled:
            rng = random.Random("probe:%d:%d" % (seed, k))
            for i, route, message in workload.probe(state, outcomes, tracer, rng):
                phase.failures.append((k, i, workload.label(outcomes[i][0]), route, message))
        k += 1
        last_round = time.perf_counter() - round_start
    phase.rounds = k
    phase.wall = time.perf_counter() - start
    phase.scaled = phase.gauge.rescaled(phase.latencies)
    return phase


def failed_requests(phase):
    return len({(k, i) for k, i, *_ in phase.failures})


def end_to_end(phase, setup_times):
    """The bounded metrics; times are in reference seconds (see common.SpeedGauge)."""
    lat = sorted(phase.scaled)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": common.percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def raw_summary(phase, setup_raw):
    lat = sorted(phase.latencies)
    readings = [r for _, r in phase.gauge.readings]
    return ("# raw wall clock: setup_s %.6g, requests_per_s %.6g, latency_p50_ms %.6g, "
            "latency_p90_ms %.6g; reference work median %.4f ms over %d readings"
            % (statistics.median(setup_raw), len(lat) / sum(lat), statistics.median(lat) * 1e3,
               common.percentile(lat, 0.9) * 1e3, statistics.median(readings) * 1e3, len(readings)))


def per_layer(workload, state, untraced, traced, tracer):
    self_times = tracer.self_times()
    values = {name: 0 if unit == "count" else 0.0 for name, unit in common.PER_LAYER}
    for name in values:
        base, _, kind = name.rpartition(".")
        calls, busy = self_times.get(base, (0, 0.0))
        if kind == "calls":
            values[name] = calls
        elif kind == "busy_s":
            values[name] = busy * traced.scale
    values["tensoralg.scan.tensors"] = tracer.counts["scan.tensors"]
    for name, (num, den) in common.RATIOS.items():
        values[name] = common.ratio(tracer.counts[num], tracer.counts[den])
    layer_busy = sum(busy for name, (_, busy) in self_times.items() if not name.startswith("bench."))
    values["bench.self_s"] = (traced.wall - layer_busy) * traced.scale
    untraced_rps = len(untraced.scaled) / sum(untraced.scaled)
    traced_rps = len(traced.scaled) / sum(traced.scaled)
    values["bench.tracing_overhead_frac"] = 1.0 - traced_rps / untraced_rps
    values.update(workload.layer_metrics(state, traced, tracer))
    return values


def write_out(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "innerscope", "__init__.py")):
        print("error: no innerscope sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    facts = common.machine_facts(args.seed)
    ctx = {"work": os.path.join(OUT_DIR, "work-%d" % os.getpid())}
    try:
        try:
            setup_raw, setup_times = [], []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                purge_innerscope()
                before = common.reference_time()
                t0 = time.perf_counter()
                state, first = setup(workload, args.seed, ctx)
                setup_raw.append(time.perf_counter() - t0)
                after = common.reference_time()
                setup_times.append(setup_raw[-1] * 2 * common.REFERENCE_NOMINAL_S / (before + after))
        except ImportError as exc:
            print("error: cannot import innerscope: %s" % exc, file=sys.stderr)
            return 2
        if not os.path.dirname(sys.modules["innerscope"].__file__).startswith(src):
            print("error: innerscope was not loaded from %s" % src, file=sys.stderr)
            return 2

        print("# machine %s" % json.dumps(facts, sort_keys=True))
        print("# load model: 1 process, 1 thread, 1 closed-loop client; queue wait is 0 by construction")
        untraced = run_phase(workload, state, args.seed, common.NullTracer(),
                             seconds=args.seconds / (2 if args.trace else 1), first=first)
        phases = [untraced]
        if args.trace:
            tracer = common.Tracer()
            traced = run_phase(workload, state, args.seed, tracer, rounds=untraced.rounds)
            phases.append(traced)
            values = per_layer(workload, state, untraced, traced, tracer)
            units = dict(common.PER_LAYER)
            spans_path = write_out("spans-%s-seed%d.json" % (args.workload, args.seed), {
                "machine": facts, "fields": ["name", "start", "end", "parent", "request"],
                "spans": tracer.spans})
            print("# spans: %d written to %s" % (len(tracer.spans), os.path.relpath(spans_path, ROOT)))
        else:
            values = end_to_end(untraced, setup_times)
            units = END_TO_END_UNITS
            n = len(untraced.latencies)
            print("# samples: %d requests in %d rounds, %d beyond p90, timed phase %.3f s"
                  % (n, untraced.rounds, n - math.ceil(0.9 * n), untraced.busy))
            print(raw_summary(untraced, setup_raw))
            for name, value, unit in workload.extra_metrics(state, untraced):
                print("%s: %.6g %s  (reported, not bounded)" % (name, value, unit))
        attempted = sum(len(p.latencies) for p in phases)
        failed = sum(failed_requests(p) for p in phases)
        print("fail_frac: %.6g ratio  (%d of %d requests)" % (failed / attempted, failed, attempted))
        for k, i, label, route, message in [f for p in phases for f in p.failures][:50]:
            print("FAIL round %d request %d [%s] rejected by %s: %s" % (k, i, label, route, message))
        for name in values:
            print("%s: %.6g %s" % (name, values[name], units[name]))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
        write_out("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), {
            "machine": facts, "workload": args.workload, "seconds": args.seconds,
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": [f for p in phases for f in p.failures],
            "slowest": sorted(untraced.slowest, reverse=True)})
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        workload.teardown(ctx)


if __name__ == "__main__":
    sys.exit(main())
