"""Slow, obvious oracles for the group and G-set validators and the
degree-3 identity of an endomorphism tensor.

Each validator is held to a brute-force check written out here, on seeded
random tables that land on both sides of its verdict:

* FiniteGroup against an n^3 associativity, identity and inverse check,
  over group tables, their isotopes, loops and Latin squares of order 4-8;
* GroupHom against f(ab) = f(a) f(b) on every pair, over every map between
  small groups and conjugations of larger ones, some with an image changed;
* GSetObj against p e = p and (p g) h = p (g h) on every triple, over
  corrupted action tables.  GSetObj checks the action axiom on a generating
  set only, so this is what holds it to the full axiom.

The endomorphism check reads the degree-3 identity
sum_t a_t (x) 1 (x) b_t = sum_jk a_j (x) (b_j a_k) (x) b_k one coefficient
at a time off the coordinates of w, and decides biorthogonality on w's
minimal pair.  Both are held to the identity built whole in R^(x)3 from
dense structure constants, on every tensor the M2(GF(2)) endomorphism
screen keeps, every tensor over UT2(GF(2)) on a seeded basis, and seeded
M2(QQ) tensors.

The tables and structure constants are built here from integers,
permutations and matrices; no helper of the library is used to build or
judge them.
"""

import itertools
import random
from fractions import Fraction

from innerscope import tensoralg
from innerscope.errors import ValidationFailure
from innerscope.exactmath import GF, QQ
from innerscope.freeprod import FiniteGroup, GroupHom
from innerscope.gset import GSetObj
from innerscope.tensoralg import StructAlgebra, enumerate_inner_endos


def _cyclic_product(*mods):
    """The Cayley table of Z_m1 x ... x Z_mk, identity at index 0."""
    elements = list(itertools.product(*(range(m) for m in mods)))
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple((a + b) % m for a, b, m in zip(x, y, mods))] for y in elements]
            for x in elements]


def _permutation_group(*gens):
    """The Cayley table of the permutations gens generate, identity at index 0.

    table[i][j] is "apply j first, then i".
    """
    elements = [tuple(range(len(gens[0])))]
    seen = set(elements)
    for x in elements:  # grows while it is walked: a breadth-first closure
        for g in gens:
            y = tuple(x[g[k]] for k in range(len(g)))
            if y not in seen:
                seen.add(y)
                elements.append(y)
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple(a[b[k]] for k in range(len(b)))] for b in elements] for a in elements]


TABLES = {
    "Z2": _cyclic_product(2),
    "Z3": _cyclic_product(3),
    "Z4": _cyclic_product(4),
    "Z2xZ2": _cyclic_product(2, 2),
    "Z5": _cyclic_product(5),
    "Z6": _cyclic_product(6),
    "S3": _permutation_group((1, 0, 2), (1, 2, 0)),
    "Z7": _cyclic_product(7),
    "Z8": _cyclic_product(8),
    "Z2xZ4": _cyclic_product(2, 4),
    "Z2^3": _cyclic_product(2, 2, 2),
    "D4": _permutation_group((1, 2, 3, 0), (0, 3, 2, 1)),
}


def _identity_of(table):
    n = len(table)
    return next((e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))),
                None)


def _is_group(table):
    n = range(len(table))
    e = _identity_of(table)
    return (e is not None
            and all(any(table[x][y] == e == table[y][x] for y in n) for x in n)
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in n for b in n for c in n))


def _accepts(build, *args):
    try:
        build(*args)
    except ValidationFailure:
        return False
    return True


def _isotope(rng, table):
    """Rows, columns and symbols permuted independently: a Latin square."""
    n = len(table)
    rows, cols, symbols = (rng.sample(range(n), n) for _ in range(3))
    return [[symbols[table[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]


def _swap_intercalate(rng, square):
    """Swap a random 2 x 2 Latin subsquare's two symbols, if it has one."""
    n = len(square)
    found = [(i, j, k, l) for i, j in itertools.combinations(range(n), 2)
             for k, l in itertools.combinations(range(n), 2)
             if square[i][k] == square[j][l] and square[i][l] == square[j][k]]
    if found:
        i, j, k, l = rng.choice(found)
        square[i][k], square[i][l] = square[i][l], square[i][k]
        square[j][k], square[j][l] = square[j][l], square[j][k]
    return square


def _loop_of(square):
    """The principal loop isotope: x o y = L[row of x in column 0][column of y in row 0]."""
    n = len(square)
    row_of = {square[i][0]: i for i in range(n)}
    col_of = {square[0][j]: j for j in range(n)}
    return [[square[row_of[x]][col_of[y]] for y in range(n)] for x in range(n)]


def test_finite_group_accepts_exactly_the_groups():
    rng = random.Random(4101)
    sources = [t for t in TABLES.values() if 4 <= len(t) <= 8]
    verdicts = []
    for _ in range(300):
        square = _isotope(rng, rng.choice(sources))
        if rng.randrange(2):
            square = _swap_intercalate(rng, square)
        if rng.randrange(2):
            square = _loop_of(square)
        want = _is_group(square)
        assert _accepts(FiniteGroup, square) == want, square
        verdicts.append((want, _identity_of(square) is not None))
    # both sides are well sampled, and among the rejects are loops: Latin
    # squares with an identity, which associativity alone rules out
    assert verdicts.count((True, True)) >= 50 and verdicts.count((False, True)) >= 20


def _respects_products(src, dst, mapping):
    n = range(len(src))
    return all(mapping[src[a][b]] == dst[mapping[a]][mapping[b]] for a in n for b in n)


def test_group_hom_accepts_exactly_the_homomorphisms():
    groups = {name: FiniteGroup(table) for name, table in TABLES.items()}
    verdicts = []
    # every index map between the small pairs
    for s, t in [("Z2", "S3"), ("Z3", "S3"), ("Z4", "Z2xZ2"), ("Z2xZ2", "Z4"),
                 ("Z4", "Z4"), ("S3", "Z2"), ("Z6", "Z3"), ("Z2", "D4")]:
        src, dst = TABLES[s], TABLES[t]
        for mapping in itertools.product(range(len(dst)), repeat=len(src)):
            want = _respects_products(src, dst, mapping)
            assert _accepts(GroupHom, groups[s], groups[t], mapping) == want, (s, t, mapping)
            verdicts.append(want)
    # conjugations of the larger groups, and the same with one image changed
    rng = random.Random(4102)
    for name in ("S3", "D4", "Z2xZ4"):
        table = TABLES[name]
        n = len(table)
        inverse = [row.index(0) for row in table]
        for _ in range(40):
            s = rng.randrange(n)
            mapping = [table[table[s][x]][inverse[s]] for x in range(n)]
            if rng.randrange(2):
                mapping[rng.randrange(n)] = rng.randrange(n)
            want = _respects_products(table, table, mapping)
            assert _accepts(GroupHom, groups[name], groups[name], mapping) == want, mapping
            verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def _coset_action(table, h):
    """G acting on the right cosets of the cyclic subgroup generated by h."""
    n = len(table)
    sub, x = {0}, h
    while x not in sub:
        sub.add(x)
        x = table[x][h]
    cosets = []
    for g in range(n):
        coset = frozenset(table[y][g] for y in sub)
        if coset not in cosets:
            cosets.append(coset)
    return [[cosets.index(frozenset(table[y][g] for y in coset)) for g in range(n)]
            for coset in cosets]


def _is_right_action(table, action):
    points, n = range(len(action)), range(len(table))
    e = _identity_of(table)
    return (all(action[p][e] == p for p in points)
            and all(action[action[p][g]][h] == action[p][table[g][h]]
                    for p in points for g in n for h in n))


def _corrupt(rng, table, action):
    points, n = len(action), len(table)
    action = [list(row) for row in action]
    kind = rng.randrange(4)
    if kind == 0:  # one entry moved to another point
        action[rng.randrange(points)][rng.randrange(n)] = rng.randrange(points)
    elif kind == 1:  # the points relabelled: always an action
        relabel = rng.sample(range(points), points)
        moved = [None] * points
        for p in range(points):
            moved[relabel[p]] = [relabel[q] for q in action[p]]
        action = moved
    elif kind == 2:  # the group elements permuted, identity fixed
        twist = [0] + rng.sample(range(1, n), n - 1)
        action = [[row[twist[g]] for g in range(n)] for row in action]
    else:  # two images in one row exchanged
        row = action[rng.randrange(points)]
        g, h = rng.sample(range(n), 2)
        row[g], row[h] = row[h], row[g]
    return action


def test_gset_accepts_exactly_the_right_actions():
    rng = random.Random(4103)
    verdicts = []
    for name in ("Z4", "Z2xZ2", "S3", "Z6", "D4", "Z2^3"):
        table = TABLES[name]
        group = FiniteGroup(table)
        n = len(table)
        bases = [table, [[p] * n for p in range(3)]]  # regular and trivial
        bases += [_coset_action(table, h) for h in range(1, n)]
        bases.append(bases[0] + [[q + n for q in row] for row in bases[2]])  # a union
        for _ in range(40):
            action = _corrupt(rng, table, rng.choice(bases))
            want = _is_right_action(table, action)
            assert _accepts(GSetObj, group, action) == want, (name, action)
            verdicts.append((want, all(row[0] == p for p, row in enumerate(action))))
    # among the rejects are tables the identity fixes, which the axiom alone rules out
    assert verdicts.count((True, True)) >= 50 and verdicts.count((False, True)) >= 20


def _matrix_units(n):
    """Dense structure constants and unit of M_n on e_ij, index i*n + j:
    e_ij e_kl = [j = k] e_il."""
    d = n * n
    structure = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, l in itertools.product(range(n), repeat=3):
        structure[i * n + j][j * n + l][i * n + l] = 1
    return structure, [int(i == j) for i in range(n) for j in range(n)]


def _ut2_moved(rng):
    """Dense structure constants and unit of UT2(GF(2)) on a seeded random
    basis f_0, f_1, f_2 of combinations of e11, e12, e22 in which the unit
    is no basis vector; a product is read back by searching the 8
    combinations of the f's."""
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]

    def times(x, y):
        return ((x[0] * y[0]) % 2, (x[0] * y[1] + x[1] * y[3]) % 2, 0, (x[3] * y[3]) % 2)

    while True:
        basis = [tuple(sum(c * m[t] for c, m in zip(col, units)) % 2 for t in range(4))
                 for col in ([rng.randrange(2) for _ in range(3)] for _ in range(3))]
        coords = {tuple(sum(c * f[t] for c, f in zip(cs, basis)) % 2 for t in range(4)): list(cs)
                  for cs in itertools.product(range(2), repeat=3)}
        if len(coords) == 8 and coords[(1, 0, 0, 1)].count(1) > 1:
            return [[coords[times(f, g)] for g in basis] for f in basis], coords[(1, 0, 0, 1)]


def _degree3_holds(structure, unit, p, w):
    """sum_t a_t (x) 1 (x) b_t = sum_jk a_j (x) (b_j a_k) (x) b_k in R^(x)3,
    on the decomposition w = sum_t e_t (x) (row t of w).

    Both sides are built whole, slice i holding the coefficients of
    e_i (x) e_x (x) e_l at [x][l], and compared mod p (exactly when p = 0).
    """
    d = len(unit)
    a_list = [[int(s == t) for s in range(d)] for t in range(d)]
    b_list = [list(w[t * d:(t + 1) * d]) for t in range(d)]

    def build(terms):
        side = [[[0] * d for _ in range(d)] for _ in range(d)]
        for a, middle, b in terms:
            for i, x in itertools.product(range(d), repeat=2):
                c = a[i] * middle[x]
                if c:
                    for l in range(d):
                        side[i][x][l] += c * b[l]
        return side

    def product(u, v):
        return [sum(u[s] * v[t] * structure[s][t][x]
                    for s in range(d) if u[s] for t in range(d) if v[t]) for x in range(d)]

    lhs = build((a, unit, b) for a, b in zip(a_list, b_list))
    rhs = build((a_j, product(b_j, a_k), b_k)
                for a_j, b_j in zip(a_list, b_list) for a_k, b_k in zip(a_list, b_list))
    diffs = [u - v for ls, rs in zip(lhs, rhs) for lr, rr in zip(ls, rs) for u, v in zip(lr, rr)]
    return not any(v % p if p else v for v in diffs)


def _agree_with_the_degree3_oracle(alg, structure, unit, tensors):
    """The degree-3 route on w and biorthogonality of w's minimal pair each
    equal the oracle on every tensor; returns the oracle's verdicts."""
    d, p = alg.dim, alg.field.char
    verdicts = []
    for w in tensors:
        want = _degree3_holds(structure, unit, p, w)
        pair = tensoralg._minimal_pair_raw(alg.field, d, [w[i * d:(i + 1) * d] for i in range(d)])
        assert tensoralg._tensor_route_ok(alg, w) == want, w
        assert tensoralg._delta_ok(alg, *pair) == want, w
        verdicts.append(want)
    return verdicts


def test_degree3_route_and_biorthogonality_match_the_oracle(monkeypatch):
    # every tensor the M2(GF(2)) endomorphism screen keeps, as the scan hands it over
    structure, unit = _matrix_units(2)
    m2 = StructAlgebra(GF(2), structure, unit)
    kept = []
    decide = tensoralg._decide_pair
    monkeypatch.setattr(tensoralg, "_decide_pair",
                        lambda alg, w, *pair: kept.append(w) or decide(alg, w, *pair))
    enumerate_inner_endos(m2)
    assert len(kept) == 1024
    assert _agree_with_the_degree3_oracle(m2, structure, unit, kept).count(True) == 6  # |GL2(GF(2))|
    # every tensor over UT2(GF(2)) on a seeded basis, where the unit is no basis vector
    rng = random.Random(4104)
    structure, unit = _ut2_moved(rng)
    ut2 = StructAlgebra(GF(2), structure, unit)
    every = list(itertools.product(range(2), repeat=9))
    verdicts = _agree_with_the_degree3_oracle(ut2, structure, unit, every)
    # u (x) u^-1 for its two units, and w = 0, whose minimal pair is empty
    assert verdicts[0] and verdicts.count(True) == 3
    # M2(QQ): random tensors, u (x) u^-1 and the same with one coordinate moved
    structure, unit = _matrix_units(2)
    m2q = StructAlgebra(QQ, structure, unit)
    tensors = []
    while len(tensors) < 60:
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        det = u[0] * u[3] - u[1] * u[2]
        if not det:
            continue
        inv = [u[3] / det, -u[1] / det, -u[2] / det, u[0] / det]
        w = [x * y for x in u for y in inv]
        if len(tensors) % 3 == 1:
            w[rng.randrange(16)] += rng.choice((-1, 1))
        elif len(tensors) % 3 == 2:
            w = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(16)]
        tensors.append(tuple(w))
    assert _agree_with_the_degree3_oracle(m2q, structure, unit, tensors).count(True) == 20
