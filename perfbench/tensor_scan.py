"""tensor-scan: whole-algebra scans, the bulk path of the program.

Each request is one enumerate_inner_endos or enumerate_inner_derivations
call.  A round holds a fixed mix of algebras of dimension 2 to 4 over
GF(2), GF(3), GF(5) and GF(7), built from structure constants here, each
original next to seeded copies under a random change of basis, whose
structure constants are denser and whose unit is no longer a coordinate
vector.  The change of basis is a fixed dense matrix per dimension and
prime with a seeded permutation and scaling of its columns, so the cost of
a copy does not swing with the seed.  M2(GF(2)) is in every round; its two
scans and its copy's endomorphism scan take most of the time, as they do in
the selftest.

Checks, against the benchmark's own arithmetic: the endomorphism passing
set is {u (x) u^-1} and its size is (unit count) / (p - 1); the derivation
passing set is {1 (x) b - b (x) 1}, of size p^(d-1); a copy returns the
same counts as its original; and the M2(GF(2)) endomorphisms are the
tensors built by hand from GL2(GF(2)).
"""

from __future__ import annotations

import itertools
import random

import common

NAME = "tensor-scan"
BUDGET = 1 << 20

# (construction, primes, ops on the original, number of copies, ops on each copy,
# times per round).  The light entries come twice a round, so the p50 and
# p90 latencies are order statistics of many similar requests rather than of
# one or two.
MIX = [
    (lambda p: common.matrix_units(2, p), (2,), ("endo", "deriv"), 1, ("endo",), 1),
    (common.upper_triangular_2, (3,), ("endo", "deriv"), 1, ("deriv",), 1),
    (lambda p: common.truncated_poly(2, p), (2, 3, 5, 7), ("endo", "deriv"), 2, ("endo", "deriv"), 2),
    (lambda p: common.diagonal(2, p), (2, 3, 5, 7), ("endo", "deriv"), 2, ("endo", "deriv"), 2),
    (common.quadratic_extension, (2, 3, 5, 7), ("endo", "deriv"), 2, ("endo", "deriv"), 2),
    (common.upper_triangular_2, (2,), ("endo", "deriv"), 1, ("endo", "deriv"), 2),
    (lambda p: common.truncated_poly(3, p), (2,), ("endo", "deriv"), 1, ("endo", "deriv"), 2),
    (lambda p: common.diagonal(3, p), (2,), ("endo", "deriv"), 1, ("endo", "deriv"), 2),
    (common.upper_triangular_2, (5, 7), ("endo",), 1, ("endo",), 2),
    (lambda p: common.truncated_poly(3, p), (5, 7), ("endo",), 1, ("endo",), 2),
    (lambda p: common.matrix_units(2, p), (3, 5, 7), ("endo",), 1, ("endo",), 2),
]


def generate(seed, k):
    """Round k as plain data: algebras (structure constants) and requests."""
    rng = random.Random("%s:%d:%d" % (NAME, seed, k))
    algebras, requests = [], []
    for build, primes, ops, copies, copy_ops, times in MIX:
        for p in primes:
            for _ in range(times):
                original = build(p)
                original["copy_of"] = None
                algebras.append(original)
                base = len(algebras) - 1
                requests.extend({"algebra": base, "op": op} for op in ops)
                for _ in range(copies):
                    P, Q = common.dense_basis(rng, p, len(original["unit"]))
                    copy = common.change_basis(original, P, Q)
                    copy["copy_of"] = base
                    algebras.append(copy)
                    requests.extend({"algebra": len(algebras) - 1, "op": op} for op in copy_ops)
    rng.shuffle(requests)
    return {"algebras": algebras, "requests": requests}


class State:
    def __init__(self, exactmath, tensoralg):
        self.em = exactmath
        self.ta = tensoralg
        self.tensors = 0


def setup(ctx):
    from innerscope import exactmath, tensoralg
    return State(exactmath, tensoralg)


def prepare(state, data):
    records = []
    for alg in data["algebras"]:
        field = state.em.GF(alg["p"])
        records.append({
            "data": alg,
            "alg": state.ta.StructAlgebra(field, alg["structure"], alg["unit"]),
            "own": common.Algebra(alg),
            "results": {},
            "expected": {},
        })
    for rec in records:
        rec["original"] = records[rec["data"]["copy_of"]] if rec["data"]["copy_of"] is not None else None
    return [{"rec": records[r["algebra"]], "op": r["op"]} for r in data["requests"]]


def label(item):
    data = item["rec"]["data"]
    return "%s %s/GF(%d)" % (item["op"], data["label"], data["p"])


def execute(state, item, tr):
    rec = item["rec"]
    if item["op"] == "endo":
        result = tr.call("tensoralg.enumerate_inner_endos", state.ta.enumerate_inner_endos, rec["alg"])
    else:
        result = tr.call("tensoralg.enumerate_inner_derivations",
                         state.ta.enumerate_inner_derivations, rec["alg"])
    rec["results"][item["op"]] = result
    return result


def expected(rec, op):
    """The passing set by the benchmark's own route, computed once per algebra."""
    if op not in rec["expected"]:
        own = rec["own"]
        if op == "endo":
            rec["expected"][op] = own.conjugation_tensors()
        else:
            rec["expected"][op] = (own.commutator_tensors(), None)
    return rec["expected"][op]


def gl2_tensors(p):
    """u (x) u^-1 for every invertible 2x2 matrix u, in matrix-unit coordinates."""
    out = set()
    for a, b, c, d in itertools.product(range(p), repeat=4):
        det = (a * d - b * c) % p
        if not det:
            continue
        di = pow(det, -1, p)
        u = (a, b, c, d)
        v = (d * di % p, -b * di % p, -c * di % p, a * di % p)
        out.add(tuple(x * y % p for x in u for y in v))
    return out


def check(state, item, result, tr):
    rec, op = item["rec"], item["op"]
    data, own = rec["data"], rec["own"]
    p, d = data["p"], own.dim
    problems = []
    passing = {tuple(c) for c in result.passing}
    full = p ** (d * d)
    scanned = full <= BUDGET
    want, units = expected(rec, op)
    if passing != want:
        problems.append(("own-route-set", "%d passing tensors, own route has %d" % (len(passing), len(want))))
    if result.count != len(result.passing):
        problems.append(("count", "count %d for %d tensors" % (result.count, len(result.passing))))
    if op == "endo":
        if result.unit_count != units or result.count * (p - 1) != units:
            problems.append(("unit-quotient", "count %d, program units %d, own units %d"
                             % (result.count, result.unit_count, units)))
        if result.brute_forced != scanned:
            problems.append(("brute-force", "brute_forced=%r for %d tensors" % (result.brute_forced, full)))
        if data["label"] == "M2" and p == 2 and rec["original"] is None and passing != gl2_tensors(2):
            problems.append(("gl2-hand-built", "passing set differs from the GL2(GF(2)) tensors"))
    else:
        if result.count != p ** (d - 1):
            problems.append(("p^(d-1)", "count %d, expected %d" % (result.count, p ** (d - 1))))
        if result.oracle_count is None or result.oracle_count < result.count:
            problems.append(("oracle", "oracle accepted %r of %d" % (result.oracle_count, result.count)))
    original = rec["original"]
    if original is not None:
        base = original["results"].get(op)
        if base is None or base.count != result.count:
            problems.append(("basis-change", "copy count %d, original %r"
                             % (result.count, None if base is None else base.count)))
    if scanned:
        state.tensors += full
        tr.count("scan.tensors", full)
        tr.count("scan.passing", result.count)
        if op == "deriv":
            tr.count("scan.deriv_tensors", full)
            tr.count("scan.oracle_accepts", result.oracle_count or 0)
    return problems


def probe(state, outcomes, tr, rng):
    """Decide a seeded sample of scanned tensors one at a time, with spans."""
    ta, em = state.ta, state.em
    problems = []
    seen = set()
    for index, (item, result, error) in enumerate(outcomes):
        rec = item["rec"]
        p, d = rec["data"]["p"], rec["own"].dim
        if error or id(rec) in seen or p ** (d * d) > BUDGET:
            continue
        seen.add(id(rec))
        field = rec["alg"].field
        endo_set = expected(rec, "endo")[0]
        deriv_set = expected(rec, "deriv")[0]
        count = 48 if d == 4 else 8
        sample = [tuple(rng.randrange(p) for _ in range(d * d)) for _ in range(count - count // 4)]
        sample += rng.sample(sorted(endo_set), min(count // 4, len(endo_set)))
        for coords in sample:
            rows = [list(coords[i * d:(i + 1) * d]) for i in range(d)]
            w = tr.call("tensoralg.TensorElement.from_matrix", ta.TensorElement.from_matrix, field, rows)
            cand = tr.call("tensoralg.EndoCandidate", ta.EndoCandidate, rec["alg"], w)
            verdict = tr.call("tensoralg.check_endo_conditions", ta.check_endo_conditions, cand)
            tr.count("endo.checked")
            if verdict.reason == "unit-sum":
                tr.count("endo.unit_sum_rejects")
            dcand = ta.DerivationCandidate(rec["alg"], w)
            dverdict = tr.call("tensoralg.check_derivation_generic", ta.check_derivation_generic, dcand)
            tr.call("exactmath.rref_raw", em.rref_raw, field, [list(r) for r in rows])
            if verdict.passed != (coords in endo_set):
                problems.append((index, "probe-endo", "tensor %r: passed=%r" % (coords, verdict.passed)))
            if dverdict.passed != (coords in deriv_set):
                problems.append((index, "probe-deriv", "tensor %r: passed=%r" % (coords, dverdict.passed)))
    return problems


def layer_metrics(state, phase, tracer):
    busy = sum(b for name, (_, b) in tracer.self_times().items()
               if name in ("tensoralg.enumerate_inner_endos", "tensoralg.enumerate_inner_derivations"))
    return {"tensoralg.scan.tensors_per_s": common.ratio(tracer.counts["scan.tensors"], busy * phase.scale)}


def extra_metrics(state, phase):
    return [("tensors_per_s", state.tensors / sum(phase.scaled), "1/s")]


def teardown(ctx):
    pass
