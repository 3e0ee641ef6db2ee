"""nf-stream: normal forms in presented algebras, the rewrite layer.

Each request is a seeded polynomial of 1 to 6 terms, parsed with
NcPolynomial.parse, and normalized twice: leftmost-first and with a seeded
random-redex generator.  The systems are Leavitt presentations, where
reduction makes terms collapse, and PBW straightening systems, where terms
grow, over QQ and GF(p).  Leavitt and Heisenberg words have length 2 to 10;
sl2 words stop at 8, because one sl2 word of length 10 costs up to half a
second to straighten and a handful of them per run made throughput swing
by more than the bound.  About a tenth of requests instead build the PBW
system of a fresh seeded GF(5) bracket table and run confluence_check, so
per-system set-up is paid per request there.

Checks: the two strategies give equal normal forms; no rule's left side
occurs in any term of a normal form; a fresh table's system is confluent
exactly when both the program's jacobi_ok and the benchmark's own Jacobi
test hold.
"""

from __future__ import annotations

import random
from fractions import Fraction

import common

NAME = "nf-stream"
# A round: for each system one request of each term count 1..6, plus
# FRESH_TABLES confluence requests.
TERM_COUNTS = range(1, 7)
FRESH_TABLES = 4

LEAVITT2 = ["x1", "x2", "y1", "y2"]
LEAVITT3 = ["x1", "x2", "x3", "y1", "y2", "y3"]
SL2 = ["e", "f", "h"]
HEIS = ["x", "y", "z"]


def _leavitt_lhs(n):
    xs = ["x%d" % (i + 1) for i in range(n)]
    ys = ["y%d" % (i + 1) for i in range(n)]
    return [(y, x) for y in ys for x in xs] + [(xs[-1], ys[-1])]


def _pbw_lhs(names):
    return [(names[j], names[i]) for j in range(len(names)) for i in range(j)]


# (label, characteristic, generators, rule left sides, word lengths per round)
LONG = list(range(2, 11)) * 2 + [4, 6, 8]
SHORT = list(range(2, 9)) * 3
SYSTEMS = [
    ("leavitt2/QQ", 0, LEAVITT2, _leavitt_lhs(2), LONG),
    ("leavitt3/GF(5)", 5, LEAVITT3, _leavitt_lhs(3), LONG),
    ("pbw-sl2/QQ", 0, SL2, _pbw_lhs(SL2), SHORT),
    ("pbw-sl2/GF(3)", 3, SL2, _pbw_lhs(SL2), SHORT),
    ("pbw-sl2/GF(5)", 5, SL2, _pbw_lhs(SL2), SHORT),
    ("pbw-heisenberg/GF(2)", 2, HEIS, _pbw_lhs(HEIS), LONG),
]
QQ_COEFFS = [Fraction(n) for n in (1, 2, 3, 5)] + [Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]


def _coefficient(rng, p):
    if p == 0:
        return rng.choice(QQ_COEFFS)
    return rng.randrange(1, p)


def _polynomial_text(rng, p, gens, lengths):
    text = ""
    for n, length in enumerate(lengths):
        c = _coefficient(rng, p)
        sign = rng.choice("+-")
        word = "*".join(rng.choice(gens) for _ in range(length))
        text += ("-" if sign == "-" and n == 0 else "" if n == 0 else " %s " % sign)
        text += "%s*%s" % (c, word)
    return text


def _bracket_table(rng):
    brackets = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            vec = [0, 0, 0] if rng.randrange(2) == 0 else [rng.randrange(5) for _ in range(3)]
            brackets[i][j] = vec
            brackets[j][i] = [(-c) % 5 for c in vec]
    return brackets


def generate(seed, k):
    rng = random.Random("%s:%d:%d" % (NAME, seed, k))
    requests = []
    for s, (_, p, gens, _, lengths) in enumerate(SYSTEMS):
        pool = list(lengths)
        rng.shuffle(pool)
        for count in TERM_COUNTS:
            terms, pool = pool[:count], pool[count:]
            requests.append({"system": s, "text": _polynomial_text(rng, p, gens, terms),
                             "rng": rng.randrange(1 << 30)})
    for _ in range(FRESH_TABLES):
        requests.append({"table": _bracket_table(rng)})
    rng.shuffle(requests)
    return requests


class State:
    def __init__(self, exactmath, rewrite):
        self.rw = rewrite
        self.gf5 = exactmath.GF(5)
        QQ, GF = exactmath.QQ, exactmath.GF
        self.systems = [
            rewrite.leavitt_system(2, QQ),
            rewrite.leavitt_system(3, GF(5)),
            rewrite.pbw_system(rewrite.sl2(QQ)),
            rewrite.pbw_system(rewrite.sl2(GF(3))),
            rewrite.pbw_system(rewrite.sl2(GF(5))),
            rewrite.pbw_system(rewrite.heisenberg(GF(2))),
        ]


def setup(ctx):
    from innerscope import exactmath, rewrite
    return State(exactmath, rewrite)


def prepare(state, requests):
    return requests


def label(item):
    if "table" in item:
        return "confluence %r" % (item["table"],)
    return "%s %s" % (SYSTEMS[item["system"]][0], item["text"])


def execute(state, item, tr):
    rw = state.rw
    if "table" in item:
        lie = tr.call("rewrite.LieData", rw.LieData, state.gf5, item["table"])
        rs = tr.call("rewrite.pbw_system", rw.pbw_system, lie)
        failures = tr.call("rewrite.confluence_check", rs.confluence_check)
        jacobi = tr.call("rewrite.LieData.jacobi_ok", lie.jacobi_ok)
        return failures, jacobi
    rs = state.systems[item["system"]]
    gens = SYSTEMS[item["system"]][2]
    poly = tr.call("rewrite.NcPolynomial.parse", rw.NcPolynomial.parse, rs.field, item["text"], gens)
    nf = tr.call("rewrite.normal_form", rs.normal_form, poly)
    nf_random = tr.call("rewrite.normal_form_random", rs.normal_form, poly,
                        rng=random.Random(item["rng"]))
    return poly, nf, nf_random


def own_jacobi(brackets):
    """[[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 over GF(5)."""
    def bracket(u, v):
        out = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                if u[i] and v[j]:
                    for t in range(3):
                        out[t] += u[i] * v[j] * brackets[i][j][t]
        return [x % 5 for x in out]

    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    total = [0, 0, 0]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = bracket(bracket(basis[a], basis[b]), basis[c])
        total = [(x + y) % 5 for x, y in zip(total, term)]
    return total == [0, 0, 0]


def check(state, item, result, tr):
    if "table" in item:
        failures, jacobi = result
        own = own_jacobi(item["table"])
        if (not failures) != jacobi or jacobi != own:
            return [("jacobi-iff-confluent", "confluent=%r, jacobi_ok=%r, own Jacobi=%r"
                     % (not failures, jacobi, own))]
        return []
    poly, nf, nf_random = result
    tr.count("nf.in_terms", len(poly.terms))
    tr.count("nf.out_terms", len(nf.terms))
    problems = []
    if nf != nf_random:
        problems.append(("random-redex", "leftmost and random-redex normal forms differ"))
    lhs_list = SYSTEMS[item["system"]][3]
    for word in nf.terms:
        for lhs in lhs_list:
            n = len(lhs)
            if any(tuple(word[i:i + n]) == lhs for i in range(len(word) - n + 1)):
                problems.append(("irreducible", "rule %s occurs in %s" % ("*".join(lhs), "*".join(word))))
                return problems
    return problems


def probe(state, outcomes, tr, rng):
    return []


def layer_metrics(state, phase, tracer):
    return {}


def extra_metrics(state, phase):
    return []


def teardown(ctx):
    pass
