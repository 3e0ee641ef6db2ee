"""Digest one tree's results, or show that two trees give the same ones.

    python3 tools/same_results.py TREE      # "<sha256>  <corpus>" per corpus, then "all N"
    python3 tools/same_results.py OLD NEW   # "equal" or "DIFFER" per corpus; exit 1 on a DIFFER
    python3 tools/same_results.py OLD NEW --only 'UT2(GF(3))'   # only the records so labelled

A tree is a source checkout (`git archive <rev> | tar -x -C DIR`).  Each runs in its own child
process that imports innerscope from the tree's src/ and takes every input from NEW.  Corpora of
[label, ...] records: tour (argv, exit code and verdicts of each README tour command, through
cli.main), tour-hashes (argv and determinism hash), scans (both scans of each SCANNED algebra),
and per perfbench workload every request's execute result in rounds 0-2 at SEEDS.  A digest is
the sha256 of one JSON text per record.  Stdlib only; no file in a tree is written.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

SEEDS = (424242, 31337)
ROUNDS = 3
WORKLOADS = ("tensor_scan", "word_stream", "nf_stream", "verb_mix")
# (label, tensoralg builder, its arguments before the field, primes)
SCANNED = (("M2(%r)", "matrix_algebra", (2,), (2, 3, 5, 7)),
           ("UT2(%r)", "upper_triangular_algebra", (2,), (2, 3, 5, 7)),
           ("%r[z]/(z^2)", "truncated_polynomial_algebra", (), (2, 3, 5, 7, 11)),
           ("UT3(%r)", "upper_triangular_algebra", (3,), (2, 3, 5)))
# where a CLI run found its files and how long it took: no result of the tree
PLACE_AND_TIME = re.compile(r"^ *(input|timing): .*\n", re.M)
# argv: this directory, the tree's src/, NEW, the --only texts
CHILD = ("import sys; sys.path[:0] = [sys.argv[2], sys.argv[1]]; "
         "import same_results; same_results.child(*sys.argv[2:4], sys.argv[4:])")


def tour_commands(readme: str) -> list[list[str]]:
    """The README's innerscope commands, without "innerscope" and any --json
    option, once each; in a block with "$ " prompts, the prompted ones."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in re.findall(r"^\$ (innerscope .*)", block, re.M) or re.findall(
                r"^innerscope .*", block, re.M):
            argv = shlex.split(re.sub(r"\s--json\s+\S+", "", line), comments=True)[1:]
            if argv not in commands:
                commands.append(argv)
    return commands


def candidate_files(readme: str) -> dict:
    """{file name: JSON payload} for each "`name.json` is `{...}`" the README gives."""
    return {name: json.loads(payload)
            for name, payload in re.findall(r"`([\w-]+\.json)` is\s+`(\{[^`]*\})`", readme)}


def _text(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canon(x):
    """x as JSON data: dataclass fields, to_json() or display() where present,
    public attributes otherwise; sets and dict items sorted, Fractions as
    strings, exceptions as [class, message], the input: and timing: lines of
    captured CLI output dropped."""
    if x is None or isinstance(x, (bool, int, float)):
        return x
    if isinstance(x, str):
        return PLACE_AND_TIME.sub("", x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, BaseException):
        return [type(x).__name__, str(x)]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=_text)
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=_text)
    if dataclasses.is_dataclass(x):
        return canon({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    method = getattr(x, "to_json", None) or getattr(x, "display", None)
    if method is not None and method.__code__.co_argcount == 1:
        return canon(method())
    names = vars(x) if hasattr(x, "__dict__") else x.__slots__
    return canon({name: getattr(x, name) for name in names if not name.startswith("_")})


def _outcome(fn, *args):
    """canon of fn(*args), or of the exception it raised."""
    try:
        return canon(fn(*args))
    except (Exception, SystemExit) as exc:  # a raise, or a CLI exit, is a result to compare
        return canon(exc)


def _tour(new, cli, keep):
    """(tour records, tour-hashes records), run in the current directory."""
    readme = pathlib.Path(new, "README.md").read_text()
    for name, payload in candidate_files(readme).items():
        pathlib.Path(name).write_text(json.dumps(payload) + "\n")
    verdicts, hashes = [], []
    for n, argv in enumerate(tour_commands(readme)):
        label, path = shlex.join(argv), pathlib.Path("report-%d.json" % n)
        if not keep(label):
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = _outcome(cli.main, argv + ["--json", str(path)])
        report = json.loads(path.read_text()) if path.exists() else {}
        verdicts.append([label, code, report.get("verdicts")])
        hashes.append([label, report.get("determinism_hash")])
    return verdicts, hashes


def _scans(tensoralg, GF, keep):
    records = []
    for name, builder, args, primes in SCANNED:
        for p in primes:
            if keep(name % GF(p)):
                alg = getattr(tensoralg, builder)(*args, GF(p))
                records.append([name % GF(p), _outcome(tensoralg.enumerate_inner_endos, alg),
                                _outcome(tensoralg.enumerate_inner_derivations, alg)])
    return records


def _workload(module, tracer, keep):
    """[label, result] of every request in rounds 0-2 at each seed; the
    workload's files stay in the current directory."""
    state, records = module.setup({"work": "work"}), []
    for seed in SEEDS:
        for k in range(ROUNDS):
            for i, item in enumerate(module.prepare(state, module.generate(seed, k))):
                label = "%d:%d #%d %s" % (seed, k, i, module.label(item))
                if keep(label):
                    records.append([label, _outcome(module.execute, state, item, tracer)])
    return records


def keeper(only):
    """label -> whether it contains a text in only; every label if only is empty."""
    return re.compile("|".join(map(re.escape, only))).search


def child(src, new, only):
    """Print {corpus: [record text]} as JSON, with innerscope from src."""
    from innerscope import cli, exactmath, tensoralg

    if not cli.__file__.startswith(src):
        sys.exit("innerscope was not loaded from %s" % src)
    sys.path.insert(1, os.path.join(new, "perfbench"))
    import common

    keep = keeper(only)
    with tempfile.TemporaryDirectory(prefix="same-results-") as work:
        os.chdir(work)  # relative paths keep work's name out of the results
        corpora = dict(zip(("tour", "tour-hashes"), _tour(new, cli, keep)))
        corpora["scans"] = _scans(tensoralg, exactmath.GF, keep)
        for module in map(__import__, WORKLOADS):
            corpora[module.NAME] = _workload(module, common.NullTracer(), keep)
    json.dump({name: [_text(r) for r in records] for name, records in corpora.items() if records},
              sys.stdout)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _first_difference(a, b) -> int:
    """The first index at which a and b differ, or the shorter one's length."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def digest_lines(corpora: dict) -> list[str]:
    """"<sha256>  <corpus>" per corpus, then "<sha256>  all N" over those lines."""
    lines = ["%s  %s" % (_digest(records), name) for name, records in corpora.items()]
    return lines + ["%s  all %d" % (_digest(lines), len(lines))]


def compare(old: dict, new: dict) -> list[str]:
    """"equal   <sha256>  <corpus>" per equal corpus; per other one "DIFFER"
    and the first differing record of each side ("-" if it has none), a long
    one cut to its start and the text from just before its first difference."""
    lines = []
    for name in dict.fromkeys([*new, *old]):
        a, b = old.get(name, []), new.get(name, [])
        if a == b:
            lines.append("equal   %s  %s" % (_digest(b), name))
            continue
        i = _first_difference(a, b)
        sides = [a[i] if i < len(a) else "-", b[i] if i < len(b) else "-"]
        at = max(_first_difference(*sides) - 100, 200)
        lines.append("DIFFER  %s  record %d" % (name, i))
        lines += ["  %s: %s" % (side, text if len(text) <= 600 else
                                "%s ... %s" % (text[:200], text[at:at + 400]))
                  for side, text in zip(("old", "new"), sides)]
    return lines


def run(trees, only) -> list[dict] | None:
    """Each tree's {corpus: [record text]} over the records labelled with a
    text in only (all records if only is empty), each from its own child
    process with every input taken from the last tree; None if a child failed."""
    procs = [subprocess.Popen([sys.executable, "-B", "-c", CHILD, os.path.dirname(__file__),
                               os.path.join(tree, "src"), trees[-1], *only],
                              stdout=subprocess.PIPE, text=True) for tree in trees]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        return None
    return [json.loads(out) for out in outs]


def report(runs: list[dict]) -> tuple[int, list[str]]:
    """(exit code, printed lines): the digest lines of one run, or the
    comparison of two, with exit code 1 on a DIFFER."""
    lines = digest_lines(runs[0]) if len(runs) == 1 else compare(*runs)
    return (1 if any(line.startswith("DIFFER") for line in lines) else 0), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="the tree to digest, or OLD")
    parser.add_argument("new", nargs="?", help="NEW, to compare with OLD")
    parser.add_argument("--only", action="append", default=[],
                        help="keep only the records whose label contains this text")
    args = parser.parse_args(argv)
    runs = run([os.path.abspath(tree) for tree in (args.tree, args.new) if tree], args.only)
    if runs is None:
        parser.exit(2, "error: a child process failed\n")
    code, lines = report(runs)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
