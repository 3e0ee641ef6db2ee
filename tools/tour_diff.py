"""Compare the README tour's verdicts and determinism hashes between two checkouts.

Usage, from anywhere (stdlib only):

    git archive <old-rev> | tar -x -C /path/to/old
    python3 tools/tour_diff.py --old /path/to/old --new /path/to/new

The tour is every line of the new checkout's README that starts with
"innerscope " inside an ```sh block (in a block that shows a "$ " prompt,
only the prompted lines), listed once each.  Each command runs in each
checkout as `python -m innerscope <args> --json report.json`, with
PYTHONPATH set to the checkout's src/, in a fresh directory per checkout
that holds the candidate files the README names (cand.json, deriv.json,
pair.json).  Per command one line is printed: "equal" or "DIFFER" for the
exit code and verdicts (name, value, pass) of the two reports, then the
old and new determinism hash (first 16 hex digits, "-" when no report was
written), then the command.  No file in either checkout is written.  The
exit status is 0 when every command's verdicts are equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

CANDIDATE = re.compile(r"`([\w-]+\.json)` is\s+`(\{[^`]*\})`")


def tour_commands(readme: str) -> list[list[str]]:
    """The README's innerscope commands, without "innerscope" and any --json
    option, in order of first appearance."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        if any(line.startswith("$ ") for line in lines):
            lines = [line[2:] for line in lines if line.startswith("$ ")]
        for line in lines:
            if not line.startswith("innerscope "):
                continue
            argv, rest = [], iter(shlex.split(line, comments=True)[1:])
            for arg in rest:
                if arg == "--json":
                    next(rest)
                else:
                    argv.append(arg)
            if argv not in commands:
                commands.append(argv)
    return commands


def candidate_files(readme: str) -> dict:
    """{file name: JSON payload} for each "`name.json` is `{...}`" the README gives."""
    return {name: json.loads(payload) for name, payload in CANDIDATE.findall(readme)}


def run_tour(checkout: str, commands, files) -> list[tuple]:
    """(exit code, verdicts, hash) of each command, run in checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory(prefix="tour-") as work:
        for name, payload in files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(json.dumps(payload) + "\n")
        report = os.path.join(work, "report.json")
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "innerscope", *argv, "--json", report],
                                  cwd=work, env=env, capture_output=True, text=True)
            verdicts = digest = None
            if os.path.exists(report):
                with open(report) as fh:
                    data = json.load(fh)
                os.remove(report)
                verdicts = [(v["name"], v["value"], v["pass"]) for v in data["verdicts"]]
                digest = data["determinism_hash"]
            results.append((proc.returncode, verdicts, digest))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", required=True, help="checkout of the old tree")
    parser.add_argument("--new", required=True, help="checkout of the new tree")
    args = parser.parse_args(argv)
    old, new = os.path.abspath(args.old), os.path.abspath(args.new)
    with open(os.path.join(new, "README.md")) as fh:
        readme = fh.read()
    commands = tour_commands(readme)
    files = candidate_files(readme)
    equal = same_hash = 0
    for argv, before, after in zip(commands, run_tour(old, commands, files),
                                   run_tour(new, commands, files)):
        same = before[:2] == after[:2]
        equal += same
        same_hash += before[2] == after[2]
        print("%-6s  %-16s  %-16s  %s" % ("equal" if same else "DIFFER", (before[2] or "-")[:16],
                                          (after[2] or "-")[:16], shlex.join(argv)))
    print("%d commands: %d with equal verdicts, %d with equal hashes"
          % (len(commands), equal, same_hash))
    return 0 if equal == len(commands) else 1


if __name__ == "__main__":
    sys.exit(main())
