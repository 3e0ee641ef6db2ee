"""Run the benchmark in alternating parent/change pairs and write one BENCH_<n>.json.

Usage, from the root of a source checkout (stdlib only):

    git archive <parent-rev> | tar -x -C /path/to/parent
    git archive <change-rev> | tar -x -C /path/to/change
    python3 tools/bench_pairs.py --parent /path/to/parent --change /path/to/change \\
        --out BENCH_<n>.json

Every run is `python3 perfbench/run.py --workload W --seed N --seconds S
--trace T` in one checkout, in a fresh process.  The runs are:

* tensor-scan: PAIRS pairs at each seed of SEEDS, at SECONDS;
* word-stream, nf-stream and verb-mix: OTHER_PAIRS pairs each at the first
  seed, at SECONDS;
* tensor-scan traced (--trace 1): one pair at the first seed, at
  TRACE_SECONDS.

Within a group, pair i runs the parent first when i is even and the change
first when i is odd.  After each run its perfbench/out/result-*.json is read
back and kept, in run order, with the number of rounds the run fitted.  The
summary gives, for each untraced group and end-to-end metric, the median and
inclusive quartiles of each side and the number of pairs the change won; a
win is decided by the metric's "better" direction in the change's
BENCHMARK.json.  For the traced pair it gives every per-layer value that is
nonzero on either side, and ms_per_call = busy_s / calls for each layer that
was called, which does not grow with the number of rounds.
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
MAIN = "tensor-scan"
OTHERS = ("word-stream", "nf-stream", "verb-mix")
SEEDS = (424242, 31337)
PAIRS = 10
OTHER_PAIRS = 4
SECONDS = 20
TRACE_SECONDS = 5


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
    """Requests in round 0 of workload, read from the checkout's own perfbench."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(len(run.WORKLOADS[%r].generate(%d, 0)['requests']))" % (workload, seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True, text=True,
                         check=True)
    return int(out.stdout)


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize_untraced(runs, better):
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    for side in sides.values():
        side.sort(key=lambda r: r["pair"])
    out = {"pairs": len(sides["change"])}
    for name, direction in better.items():
        entry = {}
        values = {}
        for side, rs in sides.items():
            values[side] = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        sign = 1 if direction == "higher" else -1
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = entry
    out["failed"] = {side: sum(r["result"]["failed"] for r in rs) for side, rs in sides.items()}
    out["rounds"] = {side: [r["rounds"] for r in rs] for side, rs in sides.items()}
    return out


def summarize_traced(runs):
    by_side = {r["side"]: r for r in runs}
    metrics = {side: {k: v["value"] for k, v in r["result"]["metrics"].items()}
               for side, r in by_side.items()}
    out = {}
    for name in metrics["change"]:
        pair = {side: round(metrics[side].get(name, 0), 4) for side in ("parent", "change")}
        if any(pair.values()):
            out[name] = pair
    for name in metrics["change"]:
        base, _, kind = name.rpartition(".")
        busy = base + ".busy_s"
        if kind != "calls" or busy not in metrics["change"]:
            continue
        per_call = {side: round(1e3 * metrics[side][busy] / metrics[side][name], 4)
                    for side in ("parent", "change") if metrics[side].get(name)}
        if per_call:
            out[base + ".ms_per_call"] = per_call
    out["rounds"] = {side: by_side[side]["rounds"] for side in ("parent", "change")}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    first = SEEDS[0]
    groups = [(str(seed), MAIN, seed, SECONDS, 0, PAIRS) for seed in SEEDS]
    groups += [("%s_%d" % (w, first), w, first, SECONDS, 0, OTHER_PAIRS) for w in OTHERS]
    groups.append(("trace_%d_seconds%d" % (first, TRACE_SECONDS), MAIN, first, TRACE_SECONDS, 1, 1))

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

    method = (
        "python3 perfbench/run.py --workload W --seed N --seconds S --trace T, run by "
        "tools/bench_pairs.py on the committed trees of the parent and of the change, each in "
        "its own directory. %s: %d pairs at each of seeds %s with S = %d, T = 0; %d pairs "
        "each of %s at seed %d, S = %d; one traced %s pair at seed %d with T = 1, S = %d. Pairs "
        "alternate which side runs first. Every result-*.json is read from perfbench/out/ after "
        "its run, in run order, with the number of rounds the run fitted (from its '# samples' "
        "line; for --trace 1, attempted / (2 x the requests of round 0)). Quartiles are "
        "statistics.quantiles(n=4, method='inclusive'). Times are rescaled to the reference "
        "speed by the benchmark (common.SpeedGauge). ms_per_call is busy_s / calls."
        % (MAIN, PAIRS, " and ".join(map(str, SEEDS)), SECONDS, OTHER_PAIRS, ", ".join(OTHERS),
           first, SECONDS, MAIN, first, TRACE_SECONDS))
    payload = {"workload": MAIN, "method": method, "machine": machine,
               "summary": summary, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
