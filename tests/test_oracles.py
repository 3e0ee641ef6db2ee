"""Slow, obvious oracles for the group and G-set validators.

Each validator is held to a brute-force check written out here, on seeded
random tables that land on both sides of its verdict:

* FiniteGroup against an n^3 associativity, identity and inverse check,
  over group tables, their isotopes, loops and Latin squares of order 4-8;
* GroupHom against f(ab) = f(a) f(b) on every pair, over every map between
  small groups and conjugations of larger ones, some with an image changed;
* GSetObj against p e = p and (p g) h = p (g h) on every triple, over
  corrupted action tables.  GSetObj checks the action axiom on a generating
  set only, so this is what holds it to the full axiom.

The tables are built here from integers and permutations; no helper of
the library is used to build or judge them.
"""

import itertools
import random

from innerscope.errors import ValidationFailure
from innerscope.freeprod import FiniteGroup, GroupHom
from innerscope.gset import GSetObj


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
