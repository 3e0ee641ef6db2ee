"""Print one sha256 per algebra over the results of both exhaustive scans.

Usage, from the root of a source checkout (stdlib only):

    python3 tools/scan_digest.py                      # this checkout
    python3 tools/scan_digest.py --checkout /path/to/other/tree
    python3 tools/scan_digest.py --only 'UT2' --only 'GF(3)'

Two trees whose outputs are equal give the same scan results on every
algebra listed.  Each line is `<sha256>  <label>`, the digest taken over
the JSON of both scans' results: passing, count, unit_count, brute_forced,
agreement, oracle_count and oracle_exact of `enumerate_inner_endos` and of
`enumerate_inner_derivations`, each at its default budget; a scan that
stops on its budget or caps (BudgetExceeded, ValidationFailure) is
recorded by its exception class and message instead.  Any other exception
ends the run.  The last
line is the digest of all the lines before it.  --only, which may be
repeated, keeps the algebras whose label contains one of its texts.

The algebras are M2 and UT2 over GF(2), GF(3), GF(5) and GF(7), GF(p)[z]/(z^2)
for p = 2, 3, 5, 7, 11, UT3 over GF(2), GF(3) and GF(5), and every algebra of
tensor-scan rounds 0-2 at seeds 424242 and 31337, generated by importing
the checkout's perfbench/tensor_scan.py read-only, with the scans each
round's requests ask for.  src/ and perfbench/ of the checkout are put
first on sys.path; no bytecode is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (424242, 31337)
ROUNDS = 3
FIELDS = ("passing", "count", "unit_count", "brute_forced", "agreement",
          "oracle_count", "oracle_exact")


def cases(tensoralg, GF, tensor_scan):
    """(label, build, scans) for every algebra, in a fixed order; build()
    makes its StructAlgebra."""
    both = ("endo", "deriv")
    for p in (2, 3, 5, 7):
        yield "M2(GF(%d))" % p, partial(tensoralg.matrix_algebra, 2, GF(p)), both
        yield "UT2(GF(%d))" % p, partial(tensoralg.upper_triangular_algebra, 2, GF(p)), both
    for p in (2, 3, 5, 7, 11):
        yield "GF(%d)[z]/(z^2)" % p, partial(tensoralg.truncated_polynomial_algebra, GF(p)), both
    for p in (2, 3, 5):
        yield "UT3(GF(%d))" % p, partial(tensoralg.upper_triangular_algebra, 3, GF(p)), both
    for seed in SEEDS:
        for k in range(ROUNDS):
            data = tensor_scan.generate(seed, k)
            ops = [set() for _ in data["algebras"]]
            for request in data["requests"]:
                ops[request["algebra"]].add(request["op"])
            for n, (alg, scans) in enumerate(zip(data["algebras"], ops)):
                label = "tensor-scan %d:%d #%d %s/GF(%d)" % (seed, k, n, alg["label"], alg["p"])
                build = partial(tensoralg.StructAlgebra, GF(alg["p"]), alg["structure"], alg["unit"])
                yield label, build, tuple(op for op in both if op in scans)


def scan_record(scan, alg, stops):
    """The result's fields, or the stop (one of the classes stops) that the
    scan raised, as JSON data."""
    try:
        result = scan(alg)
    except stops as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {name: getattr(result, name) for name in FIELDS}


def digest_lines(checkout, only=()):
    for path in (os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")):
        sys.path.insert(0, path)
    from innerscope import tensoralg
    from innerscope.errors import BudgetExceeded, ValidationFailure
    from innerscope.exactmath import GF
    import tensor_scan

    scans = {"endo": tensoralg.enumerate_inner_endos,
             "deriv": tensoralg.enumerate_inner_derivations}
    lines = []
    for label, build, ops in cases(tensoralg, GF, tensor_scan):
        if only and not any(text in label for text in only):
            continue
        alg = build()
        record = {op: scan_record(scans[op], alg, (BudgetExceeded, ValidationFailure))
                  for op in ops}
        payload = json.dumps(record, sort_keys=True).encode()
        lines.append("%s  %s" % (hashlib.sha256(payload).hexdigest(), label))
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + ["%s  all %d" % (total, len(lines))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="source checkout whose src/ and perfbench/ are digested")
    parser.add_argument("--only", action="append", default=[],
                        help="digest only the algebras whose label contains this text")
    args = parser.parse_args(argv)
    print("\n".join(digest_lines(os.path.abspath(args.checkout), args.only)))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave perfbench/ and src/ as they are
    sys.exit(main())
