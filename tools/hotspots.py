"""Profile benchmark rounds in process and print the top innerscope functions.

Usage, from the root of a source checkout (stdlib only):

    python3 tools/hotspots.py --workload verb-mix --rounds 10 --seed 424242
    python3 tools/hotspots.py --selftest --rounds 3

The rounds run through perfbench/run.py's own `run_phase`, so round k is
generated from (seed, k) and prepared just before it runs (`prepare`
clears the work directory that the requests routed through the CLI read),
a request that raises counts as a failure, and each round's outputs are
checked by the workload's own `check`.  `setup` gets a temporary work
directory, removed at the end.  Only the requests run under cProfile.
Nothing is written under perfbench/.

The report lists the top 25 innerscope functions twice, by self time and
by cumulative time, with their call counts.  cProfile adds a cost to every
Python call, so the shares are for finding candidates; a speed-up is shown
only by the benchmark itself.

--selftest times each acceptance check of `innerscope selftest` instead,
without cProfile: each check runs --rounds times in this process, and its
best and worst wall time (perf_counter) and whether every run passed are
printed, one line per check, in the selftest's order.  The selftest's own
wall-clock budgets are not applied.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

TOP = 25  # rows in each of the two sections


def profile_rounds(run, workload, rounds, seed, ctx):
    """(cProfile.Profile over every request, number of failed requests)."""
    import common

    profile = cProfile.Profile()

    class ProfilingTracer(common.NullTracer):
        def call(self, name, fn, *args, **kwargs):
            if name == "bench.request":
                return profile.runcall(fn, *args, **kwargs)
            return fn(*args, **kwargs)

    state = workload.setup(ctx)
    phase = run.run_phase(workload, state, seed, ProfilingTracer(), rounds=rounds)
    return profile, run.failed_requests(phase)


def innerscope_rows(profile):
    """(name, calls, self_s, cum_s) for each function defined in innerscope."""
    rows = []
    marker = os.sep + "innerscope" + os.sep
    for (path, line, func), (_, calls, self_s, cum_s, _) in pstats.Stats(profile).stats.items():
        if marker in path:
            module = os.path.splitext(os.path.basename(path))[0]
            rows.append(("%s.%s:%d" % (module, func, line), calls, self_s, cum_s))
    return rows


def report(rows, total):
    lines = []
    for title, key in (("self", 2), ("cumulative", 3)):
        lines.append("# top %d innerscope functions by %s time" % (TOP, title))
        lines.append("%10s %9s %9s %6s  %s" % ("calls", "self_s", "cum_s", "cum%", "function"))
        for name, calls, self_s, cum_s in sorted(rows, key=lambda r: -r[key])[:TOP]:
            lines.append("%10d %9.4f %9.4f %5.1f%%  %s"
                         % (calls, self_s, cum_s, 100 * cum_s / total if total else 0, name))
    return lines


def check_times(rounds):
    """(name, best_s, worst_s, passed) for each acceptance check run rounds times."""
    from innerscope import acceptance

    rows = []
    for name, fn, _ in acceptance.CHECKS:
        times, passed = [], True
        for _ in range(rounds):
            started = time.perf_counter()
            passed = fn().passed and passed
            times.append(time.perf_counter() - started)
        rows.append((name, min(times), max(times), passed))
    return rows


def selftest_report(rows, rounds):
    lines = ["# selftest: each acceptance check run %d time(s), best and worst wall time" % rounds,
             "%10s %10s %4s  %s" % ("best_ms", "worst_ms", "ok", "check")]
    for name, best, worst, passed in rows:
        lines.append("%10.1f %10.1f %4s  %s"
                     % (1e3 * best, 1e3 * worst, "yes" if passed else "NO", name))
    return lines


def main(argv=None):
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(run.WORKLOADS))
    target.add_argument("--selftest", action="store_true",
                        help="time each acceptance check instead, best of --rounds runs")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.selftest:
        rows = check_times(args.rounds)
        print("\n".join(selftest_report(rows, args.rounds)))
        return 0 if all(row[3] for row in rows) else 1
    if args.seed is None:
        parser.error("--seed is required with --workload")
    workload = run.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        ctx = {"work": os.path.join(tmp, "work")}
        try:
            profile, failed = profile_rounds(run, workload, args.rounds, args.seed, ctx)
        finally:
            workload.teardown(ctx)
    total = sum(stat[2] for stat in pstats.Stats(profile).stats.values())
    print("# %s: %d round(s) at seed %d, %.3f s in requests under cProfile, %d failed request(s)"
          % (args.workload, args.rounds, args.seed, total, failed))
    print("\n".join(report(innerscope_rows(profile), total)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave perfbench/ and src/ as they are
    sys.exit(main())
