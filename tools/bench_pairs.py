"""Run the benchmark in alternating parent/change pairs and write one BENCH_<n>.json.

Usage, from the root of a source checkout (stdlib only):

    git archive <parent-rev> | tar -x -C /path/to/parent
    git archive <change-rev> | tar -x -C /path/to/change
    python3 tools/bench_pairs.py --parent /path/to/parent --change /path/to/change \\
        --workload verb-mix --out BENCH_<n>.json

Every run is `python3 perfbench/run.py --workload W --seed N --seconds S
--trace T` in one checkout, in a fresh process.  --workload names the
workload whose gain is claimed (default tensor-scan).  The runs are:

* the claimed workload: PAIRS pairs at each seed of SEEDS, at SECONDS;
* each of the other three: OTHER_PAIRS pairs at the first seed, at
  SECONDS;
* the claimed workload traced (--trace 1): TRACE_PAIRS pairs at the first
  seed, at TRACE_SECONDS.

Within a group, pair i runs the parent first when i is even and the change
first when i is odd.  After each run its perfbench/out/result-*.json is read
back and kept, in run order, with the number of rounds the run fitted.  The
summary gives, for each untraced group and end-to-end metric, the median and
inclusive quartiles of each side and the number of pairs the change won; a
win is decided by the metric's "better" direction in the change's
BENCHMARK.json.  For the traced pairs it gives the median of each side for
every per-layer value that is nonzero in some run.  For each layer called
in every traced run it gives ms_per_call = busy_s / calls, which, unlike
the totals, does not scale with the number of rounds: the median and
quartiles of each side and the number of pairs in which the change's is
lower.  One traced pair is too
noisy to show a 10% change in a layer; the quartiles show how wide the
noise is.  The BENCH file is rewritten after each finished group with the
runs and summaries so far, so a run that fails keeps every group finished
before it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SAMPLES = re.compile(r"^# samples: \d+ requests in (\d+) rounds", re.M)
WORKLOADS = ("tensor-scan", "word-stream", "nf-stream", "verb-mix")
SEEDS = (424242, 31337)
PAIRS = 10
OTHER_PAIRS = 4
SECONDS = 20
TRACE_SECONDS = 5
TRACE_PAIRS = 5


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in checkout; returns (rounds, result JSON)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.exit("bench_pairs: %s failed in %s (exit %d):\n%s"
                 % (" ".join(argv[1:]), checkout, proc.returncode, proc.stderr))
    path = os.path.join(checkout, "perfbench", "out",
                        "result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as fh:
        result = json.load(fh)
    if trace:
        rounds = result["attempted"] // (2 * round_size(checkout, workload, seed))
    else:
        rounds = int(SAMPLES.search(proc.stdout).group(1))
    return rounds, result


def round_size(checkout, workload, seed):
    """Requests in round 0 of workload, read from the checkout's own perfbench.
    A workload's generate returns its requests, or a dict holding them."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "g = run.WORKLOADS[%r].generate(%d, 0); "
            "print(len(g['requests'] if isinstance(g, dict) else g))" % (workload, seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True, text=True,
                         check=True)
    return int(out.stdout)


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values):
    """{"median", "q1", "q3"} of values, rounded."""
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def by_side(runs):
    """{"parent": runs, "change": runs}, each in pair order."""
    return {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
            for side in ("parent", "change")}


def summarize_untraced(runs, better):
    sides = by_side(runs)
    out = {"pairs": len(sides["change"])}
    for name, direction in better.items():
        entry = {}
        values = {}
        for side, rs in sides.items():
            values[side] = [r["result"]["metrics"][name]["value"] for r in rs]
            entry[side] = spread(values[side])
        sign = 1 if direction == "higher" else -1
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = entry
    out["failed"] = {side: sum(r["result"]["failed"] for r in rs) for side, rs in sides.items()}
    out["rounds"] = {side: [r["rounds"] for r in rs] for side, rs in sides.items()}
    return out


def summarize_traced(runs):
    sides = by_side(runs)
    metrics = {side: [{k: v["value"] for k, v in r["result"]["metrics"].items()} for r in rs]
               for side, rs in sides.items()}
    names = sorted({name for ms in metrics.values() for m in ms for name in m})
    out = {"pairs": len(sides["change"])}
    for name in names:
        values = {side: [m.get(name, 0) for m in ms] for side, ms in metrics.items()}
        if any(any(v) for v in values.values()):
            out[name] = {side: round(statistics.median(v), 4) for side, v in values.items()}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind != "calls" or base + ".busy_s" not in names:
            continue
        if not all(m.get(name) for ms in metrics.values() for m in ms):
            continue  # a layer not called in every run has no per-call figure to compare
        per_call = {side: [1e3 * m.get(base + ".busy_s", 0) / m[name] for m in ms]
                    for side, ms in metrics.items()}
        entry = {side: spread(values) for side, values in per_call.items()}
        entry["change_wins"] = sum(c < p for p, c in zip(per_call["parent"], per_call["change"]))
        out[base + ".ms_per_call"] = entry
    out["rounds"] = {side: [r["rounds"] for r in rs] for side, rs in sides.items()}
    return out


def write_bench(path, payload):
    """Write payload to path whole: to a temporary file first, then renamed over it."""
    with open(path + ".tmp", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    os.replace(path + ".tmp", path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workload", default="tensor-scan", choices=WORKLOADS,
                        help="the workload whose gain is claimed (default: tensor-scan)")
    args = parser.parse_args(argv)
    main_workload = args.workload
    others = [w for w in WORKLOADS if w != main_workload]

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    first = SEEDS[0]
    groups = [(str(seed), main_workload, seed, SECONDS, 0, PAIRS) for seed in SEEDS]
    groups += [("%s_%d" % (w, first), w, first, SECONDS, 0, OTHER_PAIRS) for w in others]
    groups.append(("trace_%d_seconds%d" % (first, TRACE_SECONDS), main_workload, first,
                   TRACE_SECONDS, 1, TRACE_PAIRS))

    method = (
        "python3 perfbench/run.py --workload W --seed N --seconds S --trace T, run by "
        "tools/bench_pairs.py on the committed trees of the parent and of the change, each in "
        "its own directory. %s: %d pairs at each of seeds %s with S = %d, T = 0; %d pairs "
        "each of %s at seed %d, S = %d; %d traced %s pairs at seed %d with T = 1, S = %d. Pairs "
        "alternate which side runs first. Every result-*.json is read from perfbench/out/ after "
        "its run, in run order, with the number of rounds the run fitted (from its '# samples' "
        "line; for --trace 1, attempted / (2 x the requests of round 0)). Quartiles are "
        "statistics.quantiles(n=4, method='inclusive'). Times are rescaled to the reference "
        "speed by the benchmark (common.SpeedGauge). ms_per_call is busy_s / calls of one run; "
        "the traced summary gives its median and quartiles on each side."
        % (main_workload, PAIRS, " and ".join(map(str, SEEDS)), SECONDS, OTHER_PAIRS,
           ", ".join(others), first, SECONDS, TRACE_PAIRS, main_workload, first, TRACE_SECONDS))

    runs, summary, machine = [], {}, None
    for key, workload, seed, secs, trace, pairs in groups:
        group = []
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rounds, result = run_once(checkouts[side], workload, seed, secs, trace)
                machine = machine or {k: v for k, v in result["machine"].items() if k != "seed"}
                group.append({"side": side, "workload": workload, "seed": seed, "seconds": secs,
                              "trace": trace, "pair": pair, "rounds": rounds, "result": result})
                print("%s pair %d %s: %d rounds, failed %d" % (key, pair, side, rounds,
                                                               result["failed"]), file=sys.stderr)
        runs.extend(group)
        summary[key] = summarize_traced(group) if trace else summarize_untraced(group, better)
        write_bench(args.out, {"workload": main_workload, "method": method, "machine": machine,
                               "summary": summary, "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
