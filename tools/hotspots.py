"""Profile benchmark rounds in process and print the top innerscope functions.

Usage, from the root of a source checkout (stdlib only):

    python3 tools/hotspots.py --workload verb-mix --rounds 10 --seed 424242

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
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile

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


def main(argv=None):
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
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
