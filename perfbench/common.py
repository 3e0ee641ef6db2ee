"""Shared pieces of the benchmark: tracing, statistics and the second routes.

Nothing here imports innerscope.  The exact arithmetic, the algebra and
group constructions and the small linear algebra below are the benchmark's own
route: every verdict the program returns is compared against them, so they
must not share code with the package they check.
"""

from __future__ import annotations

import math
import os
import platform
import random
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import permutations

# Per-layer metrics every traced run prints, in this order.  Layers are the
# innerscope modules; `bench` is the harness itself.  BENCHMARK.json lists
# the same names (a test keeps the two in step).
PER_LAYER = [
    ("tensoralg.enumerate_inner_endos.calls", "count"),
    ("tensoralg.enumerate_inner_endos.busy_s", "s"),
    ("tensoralg.enumerate_inner_derivations.calls", "count"),
    ("tensoralg.enumerate_inner_derivations.busy_s", "s"),
    ("tensoralg.scan.tensors", "count"),
    ("tensoralg.scan.tensors_per_s", "1/s"),
    ("tensoralg.scan.pass_ratio", "ratio"),
    ("tensoralg.scan.oracle_ratio", "ratio"),
    ("tensoralg.EndoCandidate.calls", "count"),
    ("tensoralg.EndoCandidate.busy_s", "s"),
    ("tensoralg.check_endo_conditions.calls", "count"),
    ("tensoralg.check_endo_conditions.busy_s", "s"),
    ("tensoralg.check_endo_conditions.unit_sum_reject_ratio", "ratio"),
    ("tensoralg.check_derivation_generic.calls", "count"),
    ("tensoralg.check_derivation_generic.busy_s", "s"),
    ("tensoralg.StructAlgebra.from_json.busy_s", "s"),
    ("tensoralg.classify_inner_endo_algebra.busy_s", "s"),
    ("tensoralg.induced_endomorphism.busy_s", "s"),
    ("tensoralg.extract_derivation_element.busy_s", "s"),
    ("exactmath.rref_raw.calls", "count"),
    ("exactmath.rref_raw.busy_s", "s"),
    ("freeprod.ReducedWord.parse.calls", "count"),
    ("freeprod.ReducedWord.parse.busy_s", "s"),
    ("freeprod.check_generic_multiplicative.calls", "count"),
    ("freeprod.check_generic_multiplicative.busy_s", "s"),
    ("freeprod.classify_inner_endo_group.calls", "count"),
    ("freeprod.classify_inner_endo_group.busy_s", "s"),
    ("freeprod.GroupHom.identity.busy_s", "s"),
    ("freeprod.word_substitute.busy_s", "s"),
    ("freeprod.inner_endo_monoid.calls", "count"),
    ("freeprod.inner_endo_monoid.busy_s", "s"),
    ("freeprod.accept_ratio", "ratio"),
    ("rewrite.NcPolynomial.parse.busy_s", "s"),
    ("rewrite.normal_form.calls", "count"),
    ("rewrite.normal_form.busy_s", "s"),
    ("rewrite.normal_form_random.calls", "count"),
    ("rewrite.normal_form_random.busy_s", "s"),
    ("rewrite.nf.terms_ratio", "ratio"),
    ("rewrite.pbw_system.busy_s", "s"),
    ("rewrite.confluence_check.calls", "count"),
    ("rewrite.confluence_check.busy_s", "s"),
    ("rewrite.check_endo_fp.busy_s", "s"),
    ("rewrite.ad_power_check.busy_s", "s"),
    ("gset.coinner_group.calls", "count"),
    ("gset.coinner_group.busy_s", "s"),
    ("gset.naturality_oracle.calls", "count"),
    ("gset.naturality_oracle.busy_s", "s"),
    ("gset.oracle.survivor_ratio", "ratio"),
    ("embed.build_embedding.calls", "count"),
    ("embed.build_embedding.busy_s", "s"),
    ("embed.verify_injectivity_via_embedding.calls", "count"),
    ("embed.verify_injectivity_via_embedding.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.overhead_ms", "ms"),
    ("cli.exit_mismatch", "count"),
    ("bench.self_s", "s"),
    ("bench.tracing_overhead_frac", "ratio"),
]

# Ratio metrics: name -> (numerator counter, denominator counter).
RATIOS = {
    "tensoralg.scan.pass_ratio": ("scan.passing", "scan.tensors"),
    "tensoralg.scan.oracle_ratio": ("scan.oracle_accepts", "scan.deriv_tensors"),
    "tensoralg.check_endo_conditions.unit_sum_reject_ratio": ("endo.unit_sum_rejects", "endo.checked"),
    "freeprod.accept_ratio": ("words.accepted", "words.tried"),
    "rewrite.nf.terms_ratio": ("nf.out_terms", "nf.in_terms"),
    "gset.oracle.survivor_ratio": ("oracle.survivors", "oracle.seeds"),
}


# -- tracing ------------------------------------------------------------------


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    enabled = False
    rid = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans kept in memory as (name, start, end, parent, request id).

    A span is opened around each call the benchmark makes into a layer.
    Nested calls record the enclosing span as parent, so a layer's self
    time is its span minus the time its child spans cover.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.rid = None

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.rid)

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + (end - start) - child_time[index])
        return out


# -- statistics ---------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def ratio(num, den):
    return num / den if den else 0.0


# -- reference speed ------------------------------------------------------------
# The machines this runs on change speed by up to 2x within minutes (other
# tenants, clock changes).  Every timing metric is therefore rescaled to a
# reference speed: a fixed piece of pure-Python work is timed between
# requests, and a time t measured while that work took r seconds is
# reported as t * REFERENCE_NOMINAL_S / r, the time it would have taken on
# a machine where the reference work takes REFERENCE_NOMINAL_S.  The raw
# wall-clock figures are printed and stored beside the rescaled ones.

REFERENCE_NOMINAL_S = 0.001


def _reference_work():
    table = {}
    acc = 0
    for i in range(2500):
        key = (i & 63, i % 13)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + len(key)) % 1000003
    return acc


def reference_time():
    """Median of three timings of the reference work, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class SpeedGauge:
    """Rescales request latencies to the reference speed, segment by segment.

    The reference work is timed between requests, at most every INTERVAL
    seconds.  The requests between two readings form a segment; it is scaled
    by the mean of the readings taken from WINDOW seconds before it starts
    to WINDOW seconds after it ends, so that a long request, during which no
    reading can be taken, is judged by the machine's speed around it rather
    than by two instants.
    """

    INTERVAL = 0.1
    WINDOW = 2.0

    def __init__(self):
        self.readings = [(time.perf_counter(), reference_time())]
        self.segments = []   # (start, end, number of requests)
        self.pending = 0

    def add(self):
        """Count one more request; read the reference speed if one is due."""
        self.pending += 1
        if time.perf_counter() - self.readings[-1][0] >= self.INTERVAL:
            self.flush()

    def flush(self):
        start = self.readings[-1][0]
        self.readings.append((time.perf_counter(), reference_time()))
        self.segments.append((start, self.readings[-1][0], self.pending))
        self.pending = 0

    def rescaled(self, latencies):
        """The latencies counted so far, in order, in reference seconds."""
        out = array("d")
        lo = done = 0
        for start, end, count in self.segments:
            while self.readings[lo][0] < start - self.WINDOW:
                lo += 1
            near = []
            for at, reading in self.readings[lo:]:
                if at > end + self.WINDOW:
                    break
                near.append(reading)
            factor = REFERENCE_NOMINAL_S * len(near) / sum(near)
            out.extend(x * factor for x in latencies[done:done + count])
            done += count
        return out


# -- machine facts ------------------------------------------------------------


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_model": cpu,
        "seed": seed,
    }


# -- exact arithmetic (the benchmark's own route) -------------------------------
# A field is its characteristic p: 0 for the rationals, else a prime.
# Values are ints reduced mod p, or Fractions.


def norm(p, x):
    if p == 0:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, p) % p
    return x % p


def parse_scalar(p, text):
    """Read a scalar written as the program's JSON inputs write it."""
    return norm(p, Fraction(str(text)))


def fmt_scalar(p, x):
    """JSON form of a scalar: an int mod p, or an 'n/d' string over QQ."""
    return str(Fraction(x)) if p == 0 else int(x) % p


def inv(p, x):
    return 1 / Fraction(x) if p == 0 else pow(x, -1, p)


def rref(p, rows):
    """Reduced row echelon form of a copy of rows; returns (rows, pivots)."""
    rows = [[norm(p, x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(p, rows[r][c])
        rows[r] = [norm(p, x * scale) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(p, a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(p, rows):
    return len(rref(p, rows)[1]) if rows else 0


def solve(p, matrix, rhs):
    """One solution x of matrix x = rhs, or None."""
    n = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(p, aug)
    if n in pivots:
        return None
    x = [norm(p, 0)] * n
    for row, c in zip(reduced, pivots):
        x[c] = row[n]
    return x


def mat_inverse(p, m):
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = rref(p, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def random_invertible(rng, p, n):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        q = mat_inverse(p, m)
        if q is not None:
            return m, q


def dense_basis(rng, p, n):
    """P = D S: a fixed dense invertible D, fed a seeded column permutation and scaling S.

    D depends only on (p, n), so every copy of one algebra has the same
    density of structure constants up to relabeling and rescaling of the
    new basis; a scan's cost then depends on the algebra, not on the seed.
    """
    fixed = random.Random("dense:%d:%d" % (p, n))
    d, _ = random_invertible(fixed, p, n)
    while sum(1 for row in d for x in row if x) <= n * n // 2:
        d, _ = random_invertible(fixed, p, n)
    order = list(range(n))
    rng.shuffle(order)
    scale = [rng.randrange(1, p) for _ in range(n)]
    m = [[d[i][order[j]] * scale[j] % p for j in range(n)] for i in range(n)]
    return m, mat_inverse(p, m)


# -- algebras given by dense structure constants ---------------------------------
# An algebra is {"p", "structure", "unit"}: structure[i][j] is the coordinate
# vector of e_i e_j.  This is also the JSON shape innerscope reads.


def algebra(label, p, structure, unit):
    return {"label": label, "p": p,
            "structure": [[[fmt_scalar(p, c) for c in vec] for vec in row] for row in structure],
            "unit": [fmt_scalar(p, c) for c in unit]}


def _zero_table(d):
    return [[[0] * d for _ in range(d)] for _ in range(d)]


def matrix_units(n, p):
    """Mn(K) on the matrix units e_ij, row-major."""
    d = n * n
    st = _zero_table(d)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                st[i * n + j][j * n + l][i * n + l] = 1
    unit = [1 if i // n == i % n else 0 for i in range(d)]
    return algebra("M%d" % n, p, st, unit)


def upper_triangular_2(p):
    """UT2(K) on e11, e12, e22."""
    st = _zero_table(3)
    st[0][0][0] = 1
    st[0][1][1] = 1
    st[1][2][1] = 1
    st[2][2][2] = 1
    return algebra("UT2", p, st, [1, 0, 1])


def truncated_poly(k, p):
    """K[z]/(z^k) on 1, z, ..., z^(k-1)."""
    st = _zero_table(k)
    for i in range(k):
        for j in range(k):
            if i + j < k:
                st[i][j][i + j] = 1
    return algebra("K[z]/z^%d" % k, p, st, [1] + [0] * (k - 1))


def diagonal(k, p):
    """K^k on its primitive idempotents."""
    st = _zero_table(k)
    for i in range(k):
        st[i][i][i] = 1
    return algebra("K^%d" % k, p, st, [1] * k)


def quadratic_extension(p):
    """GF(p^2) as K[z]/(z^2 - c z - r) with an irreducible quadratic."""
    if p == 2:
        c, r = 1, 1
    else:
        squares = {x * x % p for x in range(p)}
        c, r = 0, next(a for a in range(1, p) if a not in squares)
    st = _zero_table(2)
    st[0][0] = [1, 0]
    st[0][1] = [0, 1]
    st[1][0] = [0, 1]
    st[1][1] = [r, c]
    return algebra("GF(%d^2)" % p, p, st, [1, 0])


def change_basis(alg, P, Q):
    """The same algebra on the basis f_a = sum_i P[i][a] e_i (Q = P^-1)."""
    p = alg["p"]
    st = [[[parse_scalar(p, c) for c in vec] for vec in row] for row in alg["structure"]]
    unit = [parse_scalar(p, c) for c in alg["unit"]]
    d = len(st)
    new = _zero_table(d)
    for a in range(d):
        for b in range(d):
            acc = [0] * d
            for i in range(d):
                if not P[i][a]:
                    continue
                for j in range(d):
                    if not P[j][b]:
                        continue
                    f = P[i][a] * P[j][b]
                    for k, c in enumerate(st[i][j]):
                        if c:
                            acc[k] += f * c
            new[a][b] = [norm(p, sum(Q[c][k] * acc[k] for k in range(d))) for c in range(d)]
    new_unit = [norm(p, sum(Q[c][k] * unit[k] for k in range(d))) for c in range(d)]
    return algebra(alg["label"] + "'", p, new, new_unit)


class Algebra:
    """Multiplication from structure constants, written independently of innerscope."""

    def __init__(self, data):
        p = self.p = data["p"]
        self.st = [[[parse_scalar(p, c) for c in vec] for vec in row] for row in data["structure"]]
        self.unit = [parse_scalar(p, c) for c in data["unit"]]
        self.dim = len(self.st)

    def mul(self, u, v):
        p = self.p
        out = [0] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                for k, s in enumerate(self.st[i][j]):
                    if s:
                        out[k] += c * s
        return [norm(p, x) for x in out]

    def inverse(self, u):
        """Two-sided inverse of u, or None: solve (left multiplication by u) x = 1."""
        d = self.dim
        left = [[0] * d for _ in range(d)]
        for j in range(d):
            col = self.mul(u, [1 if t == j else 0 for t in range(d)])
            for k in range(d):
                left[k][j] = col[k]
        x = solve(self.p, left, self.unit)
        if x is None or self.mul(x, u) != self.unit or self.mul(u, x) != self.unit:
            return None
        return x

    def vectors(self):
        """Every coordinate vector; finite fields only."""
        d, p = self.dim, self.p
        for n in range(p ** d):
            vec = []
            for _ in range(d):
                n, r = divmod(n, p)
                vec.append(r)
            yield vec

    def conjugation_tensors(self):
        """{u (x) u^-1}: the endomorphism passing set, and the unit count."""
        tensors = set()
        units = 0
        for u in self.vectors():
            v = self.inverse(u)
            if v is None:
                continue
            units += 1
            tensors.add(tuple(norm(self.p, a * b) for a in u for b in v))
        return tensors, units

    def commutator_tensors(self):
        """{1 (x) b - b (x) 1}: the derivation passing set."""
        return {self.commutator_tensor(b) for b in self.vectors()}

    def commutator_tensor(self, b):
        one = self.unit
        return tuple(norm(self.p, one[i] * b[j] - b[i] * one[j])
                     for i in range(self.dim) for j in range(self.dim))

    def is_conjugation_tensor(self, coords):
        """Does w = a (x) b with a b = b a = 1?  (The passing endomorphisms.)"""
        d, p = self.dim, self.p
        rows = [list(coords[i * d:(i + 1) * d]) for i in range(d)]
        if rank(p, rows) != 1:
            return False
        i = next(i for i, row in enumerate(rows) if any(row))
        b = rows[i]
        j = next(j for j, x in enumerate(b) if x)
        a = [norm(p, rows[k][j] * inv(p, b[j])) for k in range(d)]
        return self.mul(a, b) == self.unit and self.mul(b, a) == self.unit

    def is_commutator_tensor(self, coords):
        """Is w = 1 (x) b - b (x) 1 for some b?  (The passing derivations.)"""
        d, p = self.dim, self.p
        one = self.unit
        matrix, rhs = [], []
        for i in range(d):
            for j in range(d):
                row = [0] * d
                row[j] += one[i]
                row[i] -= one[j]
                matrix.append(row)
                rhs.append(coords[i * d + j])
        return solve(p, matrix, rhs) is not None


def vec(p, values):
    return [norm(p, x) for x in values]


# -- groups given by Cayley tables -----------------------------------------------


def _cycle_name(perm):
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        parts.append("(" + "".join(cycle) + ")")
    return "".join(parts) or "e"


def permutation_group(label, perms):
    """Cayley table of a permutation group; (p*q)(i) = p(q(i))."""
    perms = sorted(perms, key=lambda q: (q != tuple(range(len(q))), q))
    index = {q: i for i, q in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(len(a)))] for b in perms] for a in perms]
    return {"label": label, "order": len(perms), "table": table,
            "names": [_cycle_name(q) for q in perms]}


def symmetric(n):
    return permutation_group("S%d" % n, list(permutations(range(n))))


def dihedral4():
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    elems = {tuple(range(4))}
    frontier = list(elems)
    while frontier:
        a = frontier.pop()
        for g in (r, s):
            b = tuple(a[g[i]] for i in range(4))
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return permutation_group("D4", list(elems))


def cyclic(n):
    return {"label": "Z%d" % n, "order": n,
            "table": [[(i + j) % n for j in range(n)] for i in range(n)],
            "names": ["g%d" % i for i in range(n)]}


def group_inverse(group, g):
    return group["table"][g].index(0)


def gset_centralizer_product(group, action):
    """Product over orbits of |C_G(Stab(rep))|: the co-inner group order."""
    table, order = group["table"], group["order"]
    seen, product, sizes = set(), 1, []
    for rep in range(len(action)):
        if rep in seen:
            continue
        seen.update(action[rep])
        stab = [g for g in range(order) if action[rep][g] == rep]
        cent = [c for c in range(order) if all(table[c][s] == table[s][c] for s in stab)]
        sizes.append(len(cent))
        product *= len(cent)
    return product, sizes


def regular_action(group):
    return [list(row) for row in group["table"]]


def coset_action(group, subgroup):
    """Right action of G on the right cosets H g (points are cosets)."""
    table, order = group["table"], group["order"]
    cosets, index = [], {}
    for g in range(order):
        coset = frozenset(table[h][g] for h in subgroup)
        if coset not in index:
            index[coset] = len(cosets)
            cosets.append(coset)
    return [[index[frozenset(table[x][g] for x in coset)] for g in range(order)]
            for coset in cosets]


def disjoint_union(*actions):
    out, offset = [], 0
    for action in actions:
        out.extend([q + offset for q in row] for row in action)
        offset += len(action)
    return out


def word_is_inner(group, syllables):
    """Shape test on a reduced word: empty, x, or s x s^-1."""
    if not syllables:
        return True
    if len(syllables) == 1:
        return syllables[0] == ("x", 1)
    if len(syllables) == 3:
        (k0, s), (k1, e), (k2, t) = syllables
        return k0 == "g" and k1 == "x" and e == 1 and k2 == "g" and t == group_inverse(group, s)
    return False


def random_word(rng, group, conjugation):
    """Alternating, hence reduced, syllables: ('g', element) or ('x', exponent)."""
    order = group["order"]
    if conjugation:
        s = rng.randrange(1, order)
        return [("g", s), ("x", 1), ("g", group_inverse(group, s))]
    syllables = []
    kind = rng.choice("gx")
    for _ in range(rng.randint(0, 11)):
        if kind == "g":
            syllables.append(("g", rng.randrange(1, order)))
        else:
            syllables.append(("x", rng.choice((1, -1, 2, -2, 3, -3))))
        kind = "x" if kind == "g" else "g"
    return syllables


def word_text(group, syllables):
    names = group["names"]
    return " ".join(names[v] if k == "g" else ("x" if v == 1 else "x^%d" % v)
                    for k, v in syllables)


def subgroup(group, gens):
    """Closure of gens under the group product."""
    table = group["table"]
    elems = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = table[a][g]
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return sorted(elems)


def element(group, name):
    return group["names"].index(name)
