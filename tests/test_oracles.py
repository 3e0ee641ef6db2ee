"""Slow, obvious oracles for the group and G-set validators, word
substitution, the algebra validator, the degree-3 identity of an
endomorphism tensor and noncommutative normal forms.

FiniteGroup, GroupHom, GSetObj, EquivariantMap and orbit_data's
centralizers each check their axiom on a generating set of the group only.
Each is held here to a brute-force check over every element, on seeded
random tables that land on both sides of its verdict:

* FiniteGroup against an n^3 associativity, identity and inverse check,
  over group tables, their isotopes, loops and Latin squares of order 4-8;
* GroupHom against f(ab) = f(a) f(b) on every pair, over every map between
  small groups and conjugations of larger ones, some with an image changed;
* GSetObj against p e = p and (p g) h = p (g h) on every triple, over
  corrupted action tables;
* EquivariantMap against f(q g) = f(q) g on every (point, element) pair,
  over maps between regular, trivial, natural and coset actions, some
  with an image changed;
* orbit_data's centralizers against the centralizer of the whole
  stabilizer, on seeded disjoint unions of regular, trivial, natural and
  coset actions;
* the order-1 group, whose generating set is empty: all_homs and GroupHom
  then rest on f(e) = e alone.

word_substitute forms a substitution whole and reduces it once.  It is held
to substitution piece by piece, with the partial word reduced after every
piece by a left-to-right merge loop written here, on seeded words over S3,
D4 and Z6 with exponents +-1..+-3.  The images are multi-syllable words,
the empty word, single letters, the inverse of the other variable's image,
and words opening with the inverse of the letter before the variable; the
maps are the identities, every hom Z6 -> S3 and S3 -> Z6, and every inner
automorphism of D4.  check_generic_multiplicative is held to
w(x0 x1) == w(x0) w(x1) formed the same slow way.  The reduction itself
merges each incoming syllable with the top of a reduced stack at most once;
it is held to the same merge loop on seeded raw words over S3, D4, Z6 and
S4 in two variables, with identity letters, zero powers and nested
cascades, where each cancelling pair exposes the next.  A reduction that
does not compare the syllable after a cancellation with the top it
exposed fails it.

The endomorphism check reads the degree-3 identity
sum_t a_t (x) 1 (x) b_t = sum_jk a_j (x) (b_j a_k) (x) b_k one coefficient
at a time off the coordinates of w, and decides biorthogonality on w's
minimal pair.  Both are held to the identity built whole in R^(x)3 from
dense structure constants, on every tensor the M2(GF(2)) endomorphism
screen keeps, every tensor over UT2(GF(2)) on a seeded basis, and seeded
M2(QQ) tensors.

The two exhaustive scans read only the tensors their screens keep: the
half-image m(w) screen of the endomorphism scan, and the Leibniz and
dual-number row screens of the derivation scan.  Their passing sets, the
oracle count and oracle_exact are held to every tensor judged alone here,
with no screen: m(w) = 1 and the degree-3 identity above, the generic
Leibniz identity built whole in R^(x)3, and the dual-number conditions
m(w) = 0 and D(e_a e_b) = D(e_a) e_b + e_a D(e_b) from dense structure
constants.  The algebras are GF(2)^2, UT2(GF(2)), GF(2)[z]/(z^2) and
GF(3)[z]/(z^2), each on a seeded basis.

The unit route eliminates once per K*-class and certifies a non-unit by a
nonzero right annihilator.  Its unit count, its passing set and the
certificate of every vector are held to the product of every pair of
vectors from dense structure constants: the units are the u with some x
such that u x = 1 = x u, the passing set is {u (x) u^-1}, an inverse must
be that x, and a witness must be a nonzero z with u z = 0.  The algebras
are M2(GF(3)), the same on a seeded basis, GF(5)^2, UT2(GF(5)) and
GF(3)[z]/(z^2).

Both routes of the endomorphism scan multiply through one straight-line
function that _product_kernel compiles from the structure constants.  It
is held to mul_vec's loop on every pair of basis vectors and on 50 seeded
random pairs, over M2, UT2, K[z]/(z^3), K^3 and GF(p^2) for p = 2, 3, 5
and 7, each also on a seeded dense basis.

StructAlgebra sums (e_i e_j) e_k - e_i (e_j e_k) for every k of a pair
(i, j) into one dict over the nonzero structure constants and reports the
smallest failing k.  Its accept/reject and exact message are held to the
first defect found the slow way: the unit against every e_j on both sides,
then (e_i e_j) e_k = e_i (e_j e_k) on all d^3 triples in (i, j, k) order.
The tables are seeded random sparse and dense ones over GF(2), GF(3) and
QQ with some e_u the unit, M2 and UT2 on seeded random bases (dense, and
associative), and a copy of each with one coefficient changed.  On sparse
tables the same message is held to a loop over the triples one at a time,
on dicts: M2 and M3 over GF(2), GF(3) and QQ, UT3(GF(5)), and the twisted
extension S over M2(GF(3)) (36-dimensional) and QQ[z]/(z^2), with copies
where one or two structure constants are moved, mostly in products off
the unit's support, so that associativity is reached.  The map check on S,
which walks only the nonzero coordinates of the columns, is held to
f(e_i) f(e_j) = f(e_i e_j) compared on every pair as dense lists, for the
identity and conjugations by f(g) and by 1 + n, n a t-block basis vector,
each also with one coordinate moved.  A validate that reports the largest
failing k, or a map check that walks only the first nonzero coordinate of
a column, fails it.

The dual-number oracle tests r |-> r + eps D(r) inside R[eps], whose
product rows are made from R's own and not validated again.  They are held
to adjoin_square_zero, R[eps] built here as a StructAlgebra from R's
structure constants and validated whole: its products on seeded vector
pairs, the oracle's verdict against the map check into it, and
action_columns against D(e_k) = sum_ij w_ij e_i e_k e_j from mul_vec.  The
algebras are M2(GF(2)), UT2(GF(3)), M3(GF(2)), M2(QQ) and M2(GF(3)) on a
seeded basis; a third of their 300 seeded tensors each are commutator
tensors 1 (x) b - b (x) 1, which the oracle accepts.

Over QQ, rref_raw, the algebra-map check behind AlgebraHom,
induced_endomorphism's columns and centralizer_basis clear denominators
once per call and run on integers.  rref_raw is held to Gauss-Jordan on
Fractions written here, on seeded matrices with denominators: square, wide
and tall, of rank at most 2, of integers, and with a repeated row, a
multiple of a row and a zero row.  AlgebraHom's accept/reject and message
are held to the first defect found on Fractions from dense structure
constants, on M2(QQ) and QQ[z]/(z^2), each on its own basis and on two
seeded ones whose structure constants are not integral; the maps are basis
changes composed with an automorphism, the transpose of M2, seeded dense
maps, and a copy of each with one coordinate moved.  induced_endomorphism
on M2(QQ) on such a basis is held to u e_k u^-1 from the dense constants,
and centralizer_basis to the kernel of the stacked maps s |-> s v - v s on
seeded vectors with denominators.  On S over M2(QQ), the centralizer of
f(R) and the whole verify_injectivity_via_embedding report are held to
the same computed with S's mul_vec and the Gauss-Jordan above, for two
units whose inverses have denominators.

RewriteSystem.normal_form reduces encoded words, finds the sweep's redex
with one compiled pattern, sums GF(p) coefficients unreduced and, over QQ,
runs on the input scaled by the lcm of its denominators, on integers
except where a rule coefficient is a fraction.  It is held to reduction on name tuples written here, one
monomial at a time: every(word) takes each redex first and reduces each
term of the result by every order of its own; leftmost(word) follows the
first redex alone.  On leavitt2/QQ, sl2 over QQ and GF(3),
heisenberg/GF(2) and sl2 on e/2 (a bracket h/2, so QQ on fractions), every
word up to length 4 and every overlap word reaches one normal form by
every order, and both strategies give it, on monomials whose coefficients
have denominators and on seeded sums of them.  On a system with
overlapping prefixes, which is not confluent, the sweep gives the leftmost
order's answer, one of several.  A word has several normal forms exactly
when confluence_check fails, and each failure it names on a broken-Jacobi
table over GF(5) has two different irreducible branches, each reached from
a one-step reduction of the overlap word by its rule.

scalar_unit_search solves each candidate a by one fraction-free echelon on
integer word positions, over QQ scaled by one common denominator.  It is
held to a dense search written here: the irreducible words listed and the
columns nf(m_k a) reduced by the leftmost reduction above, and b read off
the Gauss-Jordan form of [columns | 1] over Fractions or GF(p), on the
first independent columns.  Every candidate the augmentation pruning skips
is solved too and must have no b.  The systems are leavitt2 over QQ and
GF(3) and sl2 over QQ at degree cap 1, and two with denominators:
y x -> 1/2 at cap 1, whose b = 2y needs the denominator carried into b, and
y x -> 2/3 - x/5 at cap 2.

The tables and structure constants are built here from integers,
permutations and matrices; no helper of the library is used to build or
judge them, apart from the validated StructAlgebra and its mul_vec.  The
substitution oracle builds and reduces its words here too; only its maps
come from GroupHom and all_homs, which the group oracles above check.  The
rewriting oracle reads the rules of systems the library builds, and its
inputs are NcPolynomials; it reduces and adds coefficients itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from innerscope import tensoralg
from innerscope.embed import build_embedding, verify_injectivity_via_embedding
from innerscope.errors import ValidationFailure
from innerscope.exactmath import GF, QQ, rref_raw
from innerscope.freeprod import (
    FiniteGroup,
    GroupHom,
    ReducedWord,
    _reduce_syllables,
    all_homs,
    check_generic_multiplicative,
    word_substitute,
)
from innerscope.gset import EquivariantMap, GSetObj, orbit_data
from innerscope.rewrite import (
    LieData,
    NcPolynomial,
    RewriteSystem,
    heisenberg,
    leavitt_system,
    pbw_system,
    scalar_unit_search,
    sl2,
)
from innerscope.tensoralg import (
    StructAlgebra,
    action_columns,
    centralizer_basis,
    enumerate_inner_derivations,
    enumerate_inner_endos,
)


def _cyclic_product(*mods):
    """The Cayley table of Z_m1 x ... x Z_mk, identity at index 0."""
    elements = list(itertools.product(*(range(m) for m in mods)))
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple((a + b) % m for a, b, m in zip(x, y, mods))] for y in elements]
            for x in elements]


def _permutations(*gens):
    """The permutations gens generate, the identity first, in breadth-first order."""
    elements = [tuple(range(len(gens[0])))]
    seen = set(elements)
    for x in elements:  # grows while it is walked: a breadth-first closure
        for g in gens:
            y = tuple(x[g[k]] for k in range(len(g)))
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def _permutation_table(elements):
    """The Cayley table of a list of permutations: table[i][j] is "apply j
    first, then i"."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple(a[b[k]] for k in range(len(b)))] for b in elements] for a in elements]


def _natural_action(elements):
    """The right action p g = g^-1(p) of a permutation group on its points."""
    return [[g.index(p) for g in elements] for p in range(len(elements[0]))]


PERMS = {
    "S3": _permutations((1, 0, 2), (1, 2, 0)),
    "D4": _permutations((1, 2, 3, 0), (0, 3, 2, 1)),
    "S4": _permutations((1, 0, 2, 3), (1, 2, 3, 0)),
}

TABLES = {
    "Z2": _cyclic_product(2),
    "Z3": _cyclic_product(3),
    "Z4": _cyclic_product(4),
    "Z2xZ2": _cyclic_product(2, 2),
    "Z5": _cyclic_product(5),
    "Z6": _cyclic_product(6),
    "S3": _permutation_table(PERMS["S3"]),
    "Z7": _cyclic_product(7),
    "Z8": _cyclic_product(8),
    "Z2xZ4": _cyclic_product(2, 4),
    "Z2^3": _cyclic_product(2, 2, 2),
    "D4": _permutation_table(PERMS["D4"]),
    "S4": _permutation_table(PERMS["S4"]),
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


def _actions_of(rng, name):
    """Regular, two-point trivial, natural (for a permutation group) and
    two seeded coset actions of the group TABLES[name]."""
    table = TABLES[name]
    n = len(table)
    actions = [table, [[p] * n for p in range(2)]]
    if name in PERMS:
        actions.append(_natural_action(PERMS[name]))
    actions += [_coset_action(table, h) for h in rng.sample(range(1, n), 2)]
    return actions


def test_orbit_data_centralizes_the_whole_stabilizer():
    rng = random.Random(4105)
    whole = []
    for name in ("Z4", "Z2xZ2", "S3", "Z6", "D4", "Z2^3", "S4"):
        table = TABLES[name]
        n = len(table)
        group = FiniteGroup(table)
        actions = _actions_of(rng, name)
        for _ in range(6):
            union = []
            for action in rng.sample(actions, rng.randint(1, 3)):
                offset = len(union)
                union += [[q + offset for q in row] for row in action]
            data = orbit_data(GSetObj(group, union))
            for rep, stab, cent in zip(data.reps, data.stabilizers, data.centralizers):
                want = [g for g in range(n) if union[rep][g] == rep]
                assert stab == want
                assert cent == [g for g in range(n)
                                if all(table[g][h] == table[h][g] for h in want)], (name, union)
                whole.append(len(cent) == n)
    # abelian stabilizers centralize all of G; others, as in S3 and S4, do not
    assert whole.count(True) >= 50 and whole.count(False) >= 20


def _is_equivariant(source, target, mapping):
    return all(mapping[source[q][g]] == target[mapping[q]][g]
               for q in range(len(source)) for g in range(len(source[q])))


def _orbitwise_map(rng, source, target):
    """Each orbit's least point r goes to a random target point t and r g
    to t g, where r g is first reached: equivariant exactly when t's
    stabilizer contains r's."""
    mapping = [None] * len(source)
    for r in range(len(source)):
        if mapping[r] is None:
            t = rng.randrange(len(target))
            for g, q in enumerate(source[r]):
                if mapping[q] is None:
                    mapping[q] = target[t][g]
    return mapping


def test_equivariant_map_accepts_exactly_the_equivariant_maps():
    rng = random.Random(4106)
    verdicts = []
    for name in ("Z4", "Z2xZ2", "S3", "Z6", "D4", "Z2^3", "S4"):
        group = FiniteGroup(TABLES[name])
        actions = _actions_of(rng, name)
        gsets = [GSetObj(group, action) for action in actions]
        for _ in range(30):
            i, j = rng.randrange(len(actions)), rng.randrange(len(actions))
            mapping = _orbitwise_map(rng, actions[i], actions[j])
            if rng.randrange(2):
                mapping[rng.randrange(len(mapping))] = rng.randrange(len(actions[j]))
            want = _is_equivariant(actions[i], actions[j], mapping)
            assert _accepts(EquivariantMap, gsets[i], gsets[j], mapping) == want, (name, i, j)
            verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_the_order_one_group_rests_on_the_identity_alone():
    z1, z2 = FiniteGroup([[0]]), FiniteGroup(TABLES["Z2"])
    assert z1.gens == []
    assert [f.mapping for f in all_homs(z1, z2)] == [[0]]
    assert not _accepts(GroupHom, z1, z2, [1])


def _unit_span(pairs):
    """Dense structure constants and unit of the span of the matrix units
    e_ij, (i, j) in pairs, in that order: e_ij e_kl = [j = k] e_il."""
    index = {q: t for t, q in enumerate(pairs)}
    d = len(pairs)
    structure = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        if j == k:
            structure[index[i, j]][index[k, l]][index[i, l]] = 1
    return structure, [int(i == j) for i, j in pairs]


M2 = [(0, 0), (0, 1), (1, 0), (1, 1)]
UT2 = [(0, 0), (0, 1), (1, 1)]


def _times(structure, p, u, v):
    """u v from dense structure constants, reduced mod p (exact when p = 0)."""
    out = [0] * len(u)
    for s, us in enumerate(u):
        for t, vt in enumerate(v):
            if us and vt:
                for x, c in enumerate(structure[s][t]):
                    out[x] += us * vt * c
    return [x % p for x in out] if p else out


def _scalar(rng, p):
    return rng.randrange(p) if p else Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def _inverse(matrix, p):
    """The inverse of a square matrix mod p (over QQ when p = 0), or None,
    by Gauss-Jordan elimination on [matrix | I]."""
    n = len(matrix)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (rows[r][col] % p if p else rows[r][col])), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], -1, p) if p else 1 / Fraction(rows[col][col])
        rows[col] = [x * scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        rows = [[x % p for x in r] for r in rows] if p else rows
    return [r[n:] for r in rows]


def _random_basis(rng, d, p):
    """A seeded random invertible d x d matrix P, and P^-1."""
    while True:
        matrix = [[_scalar(rng, p) for _ in range(d)] for _ in range(d)]
        back = _inverse(matrix, p)
        if back is not None:
            return matrix, back


def _moved(rng, structure, unit, p, basis=None):
    """The same algebra on a seeded random basis f_a = sum_t P[t][a] e_t
    (or on basis = (P, P^-1)): f_a f_b is computed on the e's and read back
    through P^-1."""
    d = len(unit)
    matrix, back = basis or _random_basis(rng, d, p)
    f = [[matrix[t][a] for t in range(d)] for a in range(d)]

    def coords(v):
        out = [sum(q * x for q, x in zip(row, v)) for row in back]
        return [x % p for x in out] if p else out

    return [[coords(_times(structure, p, fa, fb)) for fb in f] for fa in f], coords(unit)


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
    equal the oracle on every tensor, on the product the scan uses (its
    kernel over GF(p), mul_vec over QQ); returns the oracle's verdicts."""
    d, p = alg.dim, alg.field.char
    mul = tensoralg._product_kernel(alg) if p else alg.mul_vec
    verdicts = []
    for w in tensors:
        want = _degree3_holds(structure, unit, p, w)
        pair = tensoralg._minimal_pair_raw(alg.field, d, [w[i * d:(i + 1) * d] for i in range(d)])
        assert tensoralg._tensor_route_ok(alg, w, mul) == want, w
        assert tensoralg._delta_ok(alg, *pair, mul) == want, w
        verdicts.append(want)
    return verdicts


def test_degree3_route_and_biorthogonality_match_the_oracle(monkeypatch):
    # every tensor the M2(GF(2)) endomorphism screen keeps, as the scan hands it over
    structure, unit = _unit_span(M2)
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
    structure, unit = _moved(rng, *_unit_span(UT2), 2)
    while unit.count(1) < 2:
        structure, unit = _moved(rng, *_unit_span(UT2), 2)
    ut2 = StructAlgebra(GF(2), structure, unit)
    every = list(itertools.product(range(2), repeat=9))
    verdicts = _agree_with_the_degree3_oracle(ut2, structure, unit, every)
    # u (x) u^-1 for its two units, and w = 0, whose minimal pair is empty
    assert verdicts[0] and verdicts.count(True) == 3
    # M2(QQ): random tensors, u (x) u^-1 and the same with one coordinate moved
    structure, unit = _unit_span(M2)
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


def _leibniz_holds(unit, p, w):
    """sum_t e_t (x) 1 (x) w_t = sum_t e_t (x) w_t (x) 1 + 1 (x) e_t (x) w_t
    in R^(x)3, w_t being row t of w, both sides built whole."""
    d = len(unit)
    lhs = [[[0] * d for _ in range(d)] for _ in range(d)]
    rhs = [[[0] * d for _ in range(d)] for _ in range(d)]
    for t in range(d):
        row = w[t * d:(t + 1) * d]
        e_t = [int(s == t) for s in range(d)]
        for side, a, b, c in ((lhs, e_t, unit, row), (rhs, e_t, row, unit), (rhs, unit, e_t, row)):
            for i, x, l in itertools.product(range(d), repeat=3):
                side[i][x][l] += a[i] * b[x] * c[l]
    return all((u - v) % p == 0 for ls, rs in zip(lhs, rhs) for lr, rr in zip(ls, rs)
               for u, v in zip(lr, rr))


def _scans_by_definition(structure, unit, p):
    """Every tensor over GF(p) judged one at a time: the endomorphism
    conditions (m(w) = 1 and the degree-3 identity), the generic Leibniz
    identity, and the dual-number conditions m(w) = 0 and
    D(e_a e_b) = D(e_a) e_b + e_a D(e_b), D(e_k) = sum_ij w_ij e_i e_k e_j."""
    d = len(unit)
    e = [[int(s == t) for s in range(d)] for t in range(d)]
    ikj = [[[_times(structure, p, _times(structure, p, e[i], e[k]), e[j]) for j in range(d)]
            for k in range(d)] for i in range(d)]
    endos, leibniz, dual = [], [], []
    for w in itertools.product(range(p), repeat=d * d):
        m = [sum(w[i * d + j] * structure[i][j][x] for i in range(d) for j in range(d)) % p
             for x in range(d)]
        if m == unit and _degree3_holds(structure, unit, p, w):
            endos.append(w)
        if _leibniz_holds(unit, p, w):
            leibniz.append(w)
        if any(m):
            continue
        images = [[sum(w[i * d + j] * ikj[i][k][j][x] for i in range(d) for j in range(d)) % p
                   for x in range(d)] for k in range(d)]

        def image(v):
            return [sum(c * y[x] for c, y in zip(v, images)) % p for x in range(d)]

        if all(image(structure[a][b]) == [(u + v) % p for u, v in
                                         zip(_times(structure, p, images[a], e[b]),
                                             _times(structure, p, e[a], images[b]))]
               for a in range(d) for b in range(d)):
            dual.append(w)
    return endos, leibniz, dual


TRUNCATED = ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])   # K[z]/(z^2) on 1, z


@pytest.mark.parametrize("table, p", [
    (_unit_span([(0, 0), (1, 1)]), 2), (_unit_span(UT2), 2), (TRUNCATED, 2), (TRUNCATED, 3),
], ids=["GF(2)^2", "UT2(GF(2))", "GF(2)[z]/(z^2)", "GF(3)[z]/(z^2)"])
def test_screened_scans_match_every_tensor_judged_alone(table, p):
    # the half-image m(w) screen and the Leibniz and oracle row screens,
    # against their conditions on every tensor, on a seeded basis
    structure, unit = _moved(random.Random(1600 + p), *table, p)
    alg = StructAlgebra(GF(p), structure, unit)
    endos, leibniz, dual = _scans_by_definition(structure, unit, p)
    assert 0 < len(endos) and 0 < len(leibniz) <= len(dual) < p ** (len(unit) ** 2)
    assert enumerate_inner_endos(alg).passing == endos
    derivations = enumerate_inner_derivations(alg)
    assert derivations.passing == leibniz
    assert (derivations.oracle_count, derivations.oracle_exact) == (len(dual), dual == leibniz)


def _unit_group_by_definition(structure, unit, p):
    """Every vector u of GF(p)^d with every x such that u x = 1 = x u, and
    with every nonzero z such that u z = 0, by the product of each pair
    formed from the dense structure constants."""
    d = len(unit)
    vectors = list(itertools.product(range(p), repeat=d))
    inverses, annihilators = {}, {}
    for u in vectors:
        # column t of L_u is u e_t, so u x is L_u x
        rows = [[sum(u[s] * structure[s][t][k] for s in range(d)) for t in range(d)]
                for k in range(d)]
        right = {x: [sum(c * y for c, y in zip(row, x)) % p for row in rows] for x in vectors}
        inverses[u] = [x for x in vectors if right[x] == unit and _times(structure, p, x, u) == unit]
        annihilators[u] = {z for z in vectors if any(z) and not any(right[z])}
    return inverses, annihilators


@pytest.mark.parametrize("table, p, seed", [
    (_unit_span(M2), 3, None), (_unit_span(M2), 3, 1700), (_unit_span([(0, 0), (1, 1)]), 5, None),
    (_unit_span(UT2), 5, None), (TRUNCATED, 3, None),
], ids=["M2(GF(3))", "M2(GF(3)) moved", "GF(5)^2", "UT2(GF(5))", "GF(3)[z]/(z^2)"])
def test_unit_route_matches_the_unit_group_by_definition(table, p, seed):
    # unit_count, the passing set {u (x) u^-1} and each certificate of the
    # elimination, against every product of every pair of vectors
    structure, unit = table if seed is None else _moved(random.Random(seed), *table, p)
    alg = StructAlgebra(GF(p), structure, unit)
    inverses, annihilators = _unit_group_by_definition(structure, unit, p)
    assert all(len(xs) <= 1 for xs in inverses.values())
    units = {u: xs[0] for u, xs in inverses.items() if xs}
    result = enumerate_inner_endos(alg)
    assert result.unit_count == len(units)
    d = len(unit)
    tensors = {tuple(u[i] * x[j] % p for i in range(d) for j in range(d)) for u, x in units.items()}
    assert result.passing == sorted(tensors)
    kernel = tensoralg._product_kernel(alg)
    for u in inverses:
        x, z = alg._unit_certificate(u, kernel)
        if u in units:
            assert (x, z) == (units[u], None) and not annihilators[u]
        else:
            assert x is None and z in annihilators[u]


def _cubic_truncated(p):
    """K[z]/(z^3) on 1, z, z^2."""
    return [[[int(i + j == k) for k in range(3)] for j in range(3)] for i in range(3)], [1, 0, 0]


def _quadratic_extension(p):
    """GF(p^2) = GF(p)[t]/(t^2 - b t - a) on 1, t, for the first (a, b)
    whose polynomial has no root mod p."""
    a, b = next((a, b) for a in range(p) for b in range(p)
                if all((x * x - b * x - a) % p for x in range(p)))
    return [[[1, 0], [0, 1]], [[0, 1], [a, b]]], [1, 0]


KERNEL_TABLES = {
    "M2": lambda p: _unit_span(M2),
    "UT2": lambda p: _unit_span(UT2),
    "K[z]/(z^3)": _cubic_truncated,
    "K^3": lambda p: _unit_span([(0, 0), (1, 1), (2, 2)]),
    "GF(p^2)": _quadratic_extension,
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_kernel_matches_mul_vec(p):
    # on every basis pair and 50 seeded pairs, each table on its own basis
    # and on a seeded dense one
    rng = random.Random(1800 + p)
    for name, table in KERNEL_TABLES.items():
        structure, unit = table(p)
        for moved in (False, True):
            alg = StructAlgebra(GF(p), *(_moved(rng, structure, unit, p) if moved
                                         else (structure, unit)))
            kernel = tensoralg._product_kernel(alg)
            assert kernel.__globals__["__builtins__"] == {}
            d = alg.dim
            basis = [alg.basis_vector(i) for i in range(d)]
            draws = [tuple(rng.randrange(p) for _ in range(2 * d)) for _ in range(50)]
            for u, v in [*itertools.product(basis, repeat=2), *((x[:d], x[d:]) for x in draws)]:
                assert kernel(u, v) == alg.mul_vec(u, v), (name, moved, u, v)


def _first_defect(structure, unit, p):
    """The first defect of a table, the slow way: the unit against each e_j
    on the left and then the right, then (e_i e_j) e_k = e_i (e_j e_k) on
    every one of the d^3 triples, in (i, j, k) order."""
    d = len(unit)
    e = [[int(s == t) for s in range(d)] for t in range(d)]
    if not any(x % p if p else x for x in unit):
        return "unit vector is zero"
    for j in range(d):
        if _times(structure, p, unit, e[j]) != e[j]:
            return "1 * e%d != e%d" % (j, j)
        if _times(structure, p, e[j], unit) != e[j]:
            return "e%d * 1 != e%d" % (j, j)
    for i, j, k in itertools.product(range(d), repeat=3):
        if (_times(structure, p, _times(structure, p, e[i], e[j]), e[k])
                != _times(structure, p, e[i], _times(structure, p, e[j], e[k]))):
            return "associativity fails at (e%d, e%d, e%d)" % (i, j, k)
    return None


def _random_table(rng, p, d, density):
    """Random products among d basis vectors, each coefficient nonzero with
    the given chance, with a random e_u made the two-sided unit."""
    structure = [[[_scalar(rng, p) if rng.random() < density else 0 for _ in range(d)]
                  for _ in range(d)] for _ in range(d)]
    u = rng.randrange(d)
    for j in range(d):
        structure[u][j] = [int(t == j) for t in range(d)]
        structure[j][u] = [int(t == j) for t in range(d)]
    return structure, [int(t == u) for t in range(d)]


def _verdict(p, structure, unit):
    try:
        StructAlgebra(GF(p) if p else QQ, structure, unit)
    except ValidationFailure as exc:
        return str(exc)
    return None


def test_struct_algebra_reports_the_oracles_first_defect():
    rng = random.Random(4107)
    tables = []
    for p in (2, 3, 0):
        for _ in range(90):
            d = rng.randint(2, 5)
            tables.append((p, *_random_table(rng, p, d, rng.choice((0.05, 0.15, 0.5)))))
        for pairs in (M2, UT2):
            for _ in range(8):
                tables.append((p, *_moved(rng, *_unit_span(pairs), p)))
        tables.append((p, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [0, 0]))
    # a copy of each table with one coefficient moved
    for p, structure, unit in list(tables):
        d = len(unit)
        i, j, x = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        changed = [[list(v) for v in row] for row in structure]
        changed[i][j][x] += rng.randrange(1, p) if p else rng.choice((-1, 1))
        tables.append((p, changed, unit))
    outcomes = {"accepted": 0, "unit": 0, "associativity": 0, "zero left": 0}
    for p, structure, unit in tables:
        want = _first_defect(structure, unit, p)
        assert _verdict(p, structure, unit) == want, (p, structure, unit)
        if want is None:
            outcomes["accepted"] += 1
        elif want.startswith("associativity"):
            outcomes["associativity"] += 1
            i, j, k = map(int, want[want.index("(") + 2:-1].split(", e"))
            # a failure where e_i e_j = 0 is found only through e_j e_k
            outcomes["zero left"] += not any(x % p if p else x for x in structure[i][j])
        else:
            outcomes["unit"] += 1
    assert outcomes["accepted"] >= 100 and outcomes["unit"] >= 100, outcomes
    assert outcomes["associativity"] >= 200 and outcomes["zero left"] >= 20, outcomes


def _sparse(structure, p):
    """Dense structure constants as {t: c} dicts, reduced mod p, zeros dropped."""
    return [[{t: x % p if p else x for t, x in enumerate(v) if (x % p if p else x)} for v in row]
            for row in structure]


def _reduced_sum(p, pairs):
    """sum_m c_m v_m over (c_m, v_m), each v_m a {t: c} dict, as a dict of the
    nonzero reduced coefficients."""
    out = {}
    for c, vec in pairs:
        for t, x in vec.items():
            out[t] = out.get(t, 0) + c * x
    return {t: r for t, x in out.items() if (r := x % p if p else x)}


def _associator_differs(table, p, i, j, k):
    """(e_i e_j) e_k != e_i (e_j e_k), each side summed as its own dict."""
    return (_reduced_sum(p, [(c, table[m][k]) for m, c in table[i][j].items()])
            != _reduced_sum(p, [(c, table[i][m]) for m, c in table[j][k].items()]))


def _first_sparse_defect(table, unit, p):
    """The first defect of a sparse table, one triple at a time: the unit
    against each e_j on the left and then the right, then (e_i e_j) e_k
    against e_i (e_j e_k) on every triple in (i, j, k) order.  A triple
    where e_i e_j and e_j e_k are both 0 has both sides 0 and is passed over."""
    d = len(unit)
    ones = [(m, c) for m, c in enumerate(unit) if c]
    if not ones:
        return "unit vector is zero"
    for j in range(d):
        if _reduced_sum(p, [(c, table[m][j]) for m, c in ones]) != {j: 1}:
            return "1 * e%d != e%d" % (j, j)
        if _reduced_sum(p, [(c, table[j][m]) for m, c in ones]) != {j: 1}:
            return "e%d * 1 != e%d" % (j, j)
    for i, j, k in itertools.product(range(d), repeat=3):
        if (table[i][j] or table[j][k]) and _associator_differs(table, p, i, j, k):
            return "associativity fails at (e%d, e%d, e%d)" % (i, j, k)
    return None


def _perturbed(rng, table, p, count, factors):
    """A copy of a sparse table with count seeded structure constants moved,
    each in a product e_i e_j with i and j drawn from factors."""
    d = len(table)
    out = [[dict(v) for v in row] for row in table]
    for _ in range(count):
        vec = out[rng.choice(factors)][rng.choice(factors)]
        t = rng.randrange(d)
        x = vec.get(t, 0) + (rng.randrange(1, p) if p else rng.choice((-1, 1, Fraction(1, 2))))
        vec[t] = x % p if p else x
        if not vec[t]:
            del vec[t]
    return out


def _sparse_times(table, p, u, v):
    """u v for dense vectors on a sparse table, as a dense reduced list."""
    out = [0] * len(u)
    v_terms = [(t, b) for t, b in enumerate(v) if b]
    for s, a in enumerate(u):
        if a:
            for t, b in v_terms:
                for x, c in table[s][t].items():
                    out[x] += a * b * c
    return [x % p if p else x for x in out]


def _first_map_defect(table, unit, p, cols):
    """The first defect of cols as a unital map of a sparse table's algebra
    into itself: f(1) = 1, then f(e_i) f(e_j) = f(e_i e_j) as dense lists on
    every pair in (i, j) order."""
    d = len(unit)

    def image(vec):
        out = [0] * d
        for k, c in vec.items():
            for t, x in enumerate(cols[k]):
                out[t] += c * x
        return [x % p if p else x for x in out]

    if image(dict(enumerate(unit))) != list(unit):
        return "unit is not preserved"
    for i, j in itertools.product(range(d), repeat=2):
        if _sparse_times(table, p, cols[i], cols[j]) != image(table[i][j]):
            return "multiplicativity fails at (e%d, e%d)" % (i, j)
    return None


def _kind(message):
    """accepted, associativity, multiplicativity, or unit for every defect of the unit."""
    if message is None:
        return "accepted"
    word = message.split()[0]
    return word if word in ("associativity", "multiplicativity") else "unit"


def test_sparse_associativity_and_map_checks_match_the_slow_loops():
    # validate sums every k of a pair (i, j) into one dict and reports the
    # smallest failing k; the map check walks only nonzero coordinates.  Both
    # are held to loops of one triple or one pair at a time, on M2 and M3
    # over GF(2), GF(3) and QQ, UT3(GF(5)), and S over M2(GF(3)) and
    # QQ[z]/(z^2), with copies where one or two structure constants are
    # moved; the maps on S are the identity and conjugations by 1 + n
    # (n = (e_a (x) e_b) t, so n^3 = 0 and (1 + n)^-1 = 1 - n + n^2) and by
    # f(g), each also with one coordinate moved
    rng = random.Random(4116)
    m3 = [(i, j) for i in range(3) for j in range(3)]
    ut3 = [(i, j) for i in range(3) for j in range(i, 3)]
    zz = ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    s_m2 = build_embedding(StructAlgebra(GF(3), *_unit_span(M2))).total
    s_zz = build_embedding(StructAlgebra(QQ, *zz)).total
    bases = [(p, _sparse(structure, p), unit, 8)
             for p in (2, 3, 0) for structure, unit in (_unit_span(M2), _unit_span(m3))]
    bases.append((5, _sparse(_unit_span(ut3)[0], 5), _unit_span(ut3)[1], 8))
    bases += [(3, s_m2.prod, list(s_m2.unit), 3), (0, s_zz.prod, list(s_zz.unit), 8)]
    outcomes = {"accepted": 0, "unit": 0, "associativity": 0, "several k": 0}
    for p, table, unit, copies in bases:
        # a product of two basis vectors off the unit's support leaves the
        # unit a unit, so associativity is compared too
        off_unit = [i for i, c in enumerate(unit) if not c]
        for moved in [table] + [_perturbed(rng, table, p, 1 + n % 2,
                                           off_unit if n % 3 else range(len(unit)))
                                for n in range(copies)]:
            want = _first_sparse_defect(moved, unit, p)
            assert _verdict(p, moved, unit) == want, (p, len(unit), want)
            outcomes[_kind(want)] += 1
            if _kind(want) == "associativity":
                i, j, k = map(int, want[want.index("(") + 2:-1].split(", e"))
                outcomes["several k"] += any(_associator_differs(moved, p, i, j, m)
                                             for m in range(k + 1, len(unit)))
    assert outcomes["accepted"] >= 9 and outcomes["unit"] >= 5, outcomes
    assert outcomes["associativity"] >= 40 and outcomes["several k"] >= 5, outcomes

    maps = {"accepted": 0, "unit": 0, "multiplicativity": 0}
    for p, big, r_dim, g, g_inv, pairs in ((3, s_m2, 4, [1, 1, 0, 1], [1, 2, 0, 1], [(1, 2)]),
                                           (0, s_zz, 2, [1, 1], [1, -1], [(0, 1), (1, 1)])):
        table, unit, d = big.prod, list(big.unit), big.dim
        e = [[int(t == k) for t in range(d)] for k in range(d)]
        units = [(g + [0] * (d - r_dim), g_inv + [0] * (d - r_dim))]
        for a, b in pairs:
            n = e[r_dim + a * r_dim + b]
            n2 = _sparse_times(table, p, n, n)
            units.append(([x + y for x, y in zip(unit, n)],
                          [x - y + z for x, y, z in zip(unit, n, n2)]))
        col_sets = [e]
        for u, u_inv in units:
            assert _sparse_times(table, p, u, u_inv) == unit
            col_sets.append([_sparse_times(table, p, _sparse_times(table, p, u, e_k), u_inv)
                             for e_k in e])
        for cols in col_sets:
            for n in range(4 if d < 20 else 2):
                moved = [list(col) for col in cols]
                if n:
                    k, t = rng.randrange(d), rng.randrange(d)
                    moved[k][t] = (moved[k][t] + rng.randrange(1, p)) % p if p else \
                        moved[k][t] + rng.choice((-1, Fraction(1, 2)))
                want = _first_map_defect(table, unit, p, moved)
                got = tensoralg._algebra_map_failure(big, big, [tuple(c) for c in moved])
                assert got == want, (p, d, n, want)
                maps[_kind(want)] += 1
    assert maps["accepted"] >= 5 and maps["unit"] >= 1 and maps["multiplicativity"] >= 5, maps


def adjoin_square_zero(alg):
    """R[eps]/(eps^2) on the basis {e_i} + {eps e_i}, a validated StructAlgebra
    of twice the dimension."""
    d = alg.dim
    structure = [[{} for _ in range(2 * d)] for _ in range(2 * d)]
    for i in range(d):
        for j in range(d):
            base = alg.prod[i][j]
            structure[i][j] = dict(base)
            structure[i][d + j] = {d + k: c for k, c in base.items()}
            structure[d + i][j] = {d + k: c for k, c in base.items()}
            # eps^2 block is zero
    unit = list(alg.unit) + [alg.field.zero] * d
    names = alg.names + ["eps*%s" % n for n in alg.names]
    return StructAlgebra(alg.field, structure, unit, names)


def test_adjoin_square_zero():
    tp = StructAlgebra(QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])  # QQ[z]/(z^2)
    double = adjoin_square_zero(tp)
    assert double.dim == 4
    eps = double.basis_vector(2)
    assert double.mul_vec(eps, eps) == (QQ.zero,) * 4
    assert double.mul_vec(double.unit, eps) == eps


def _dual_number_algebras():
    """(name, algebra, R[eps] validated whole) for each algebra the oracle is held to."""
    rng = random.Random(4108)
    m3 = [(i, j) for i in range(3) for j in range(3)]
    tables = [("M2(GF(2))", GF(2), _unit_span(M2)), ("UT2(GF(3))", GF(3), _unit_span(UT2)),
              ("M3(GF(2))", GF(2), _unit_span(m3)), ("M2(QQ)", QQ, _unit_span(M2)),
              ("M2(GF(3)) moved", GF(3), _moved(rng, *_unit_span(M2), 3))]
    out = []
    for name, field, (structure, unit) in tables:
        alg = StructAlgebra(field, structure, unit)
        out.append((name, alg, adjoin_square_zero(alg)))
    return out


def _oracle_tensors(rng, alg, count=300):
    """Seeded tensors over alg: every third a commutator tensor 1 (x) b - b (x) 1,
    the others random, sparse or dense, or a commutator with one coordinate moved."""
    d, p = alg.dim, alg.field.char
    unit = alg.unit
    tensors = []
    for n in range(count):
        b = [_scalar(rng, p) for _ in range(d)]
        w = [unit[i] * b[j] - b[i] * unit[j] for i in range(d) for j in range(d)]
        if n % 3 == 1:
            density = rng.choice((0.1, 0.5, 1.0))
            w = [_scalar(rng, p) if rng.random() < density else 0 for _ in range(d * d)]
        elif n % 3 == 2:
            w[rng.randrange(d * d)] += _scalar(rng, p) or 1
        tensors.append(tuple(x % p for x in w) if p else tuple(w))
    return tensors


def _triple_products(alg):
    """triples[k][i*d + j] = e_i e_k e_j, from mul_vec."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    return [[alg.mul_vec(alg.mul_vec(e_i, e_k), e_j) for e_i in e for e_j in e] for e_k in e]


def _triple_action(alg, triples, w):
    """D(e_k) = sum_ij w_ij e_i e_k e_j for each k, reduced mod p."""
    p = alg.field.char
    cols = []
    for row in triples:
        col = [0] * alg.dim
        for c, ikj in zip(w, row):
            if c:
                col = [x + c * y for x, y in zip(col, ikj)]
        cols.append(tuple(x % p for x in col) if p else tuple(col))
    return cols


def test_dual_numbers_multiply_as_the_validated_r_eps():
    rng = random.Random(4109)
    for name, alg, double in _dual_number_algebras():
        dual = tensoralg._DualNumbers(alg)
        assert (dual.dim, dual.unit) == (double.dim, double.unit), name
        p = alg.field.char
        for n in range(200):
            # sparse vectors reach a few rows, dense ones all; every basis pair follows
            density = (0.1, 0.3, 1.0)[n % 3]
            u, v = ([_scalar(rng, p) if rng.random() < density else 0 for _ in range(2 * alg.dim)]
                    for _ in range(2))
            assert dual.mul_vec(u, v) == double.mul_vec(u, v), (name, u, v)
        for i, j in itertools.product(range(2 * alg.dim), repeat=2):
            e_i, e_j = double.basis_vector(i), double.basis_vector(j)
            assert dual.mul_vec(e_i, e_j) == double.mul_vec(e_i, e_j), (name, i, j)


def test_dual_number_oracle_matches_the_map_check_into_r_eps():
    rng = random.Random(4110)
    past_the_unit = 0
    for name, alg, double in _dual_number_algebras():
        triples = _triple_products(alg)
        dual = tensoralg._DualNumbers(alg)
        verdicts = []
        for w in _oracle_tensors(rng, alg):
            psi_cols = [alg.basis_vector(k) + col
                        for k, col in enumerate(_triple_action(alg, triples, w))]
            failure = tensoralg._algebra_map_failure(alg, double, psi_cols)
            assert tensoralg._dual_number_ok(alg, dual, w) == (failure is None), (name, w)
            verdicts.append(failure.split()[0] if failure else "accepted")
        # the commutator tensors, and more on UT2(GF(3)), which is not central simple
        assert 100 <= verdicts.count("accepted") < 300, (name, verdicts.count("accepted"))
        past_the_unit += verdicts.count("multiplicativity")
    # rejects with psi(1) = 1 that only the products inside R[eps] decide
    assert past_the_unit >= 100, past_the_unit


def test_action_columns_match_the_triple_products():
    rng = random.Random(4111)
    for name, alg, _ in _dual_number_algebras():
        triples = _triple_products(alg)
        for w in _oracle_tensors(rng, alg):
            assert action_columns(alg, w) == _triple_action(alg, triples, w), (name, w)


def _gauss_jordan(rows, p=0):
    """The reduced row echelon form over QQ on Fractions (p = 0), or over
    GF(p) on ints mod p: each column's pivot is the first remaining row with
    a nonzero entry there, divided by that entry, and cleared from every
    other row.  Returns (rows, pivots)."""
    rows = [[x % p if p else Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p) if p else 1 / rows[r][col]
        rows[r] = [x * inv % p if p else x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = [(x - f * y) % p if p else (x - f * y if y else x)
                           for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, tuple(pivots)


def _kernel_of(rows, ncols):
    """One kernel vector per free column of the Fraction rref of rows."""
    reduced, pivots = _gauss_jordan(rows) if rows else ([], ())
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(int(c == free)) for c in range(ncols)]
            for row, c in zip(reduced, pivots):
                vec[c] = -row[free]
            basis.append(tuple(vec))
    return basis


def _rational_rows(rng, nrows, ncols, density):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def test_rref_over_qq_matches_gauss_jordan_on_fractions():
    rng = random.Random(4112)
    matrices = []
    for nrows, ncols in [(1, 1), (1, 4), (3, 3), (4, 5), (2, 7), (7, 2), (6, 6), (9, 4), (8, 9)]:
        for density in (0.2, 0.6, 1.0):
            rows = _rational_rows(rng, nrows, ncols, density)
            matrices.append(rows)
            # a repeated row, a multiple of one, a zero row, in a seeded order
            more = rows + [list(rows[0]), [Fraction(-3, 2) * x for x in rows[-1]], [0] * ncols]
            rng.shuffle(more)
            matrices.append(more)
        # rank at most 2, and integer entries
        left, right = _rational_rows(rng, nrows, 2, 1.0), _rational_rows(rng, 2, ncols, 1.0)
        matrices.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                         for row in left])
        matrices.append([[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)])
    deficient = 0
    for rows in matrices:
        want = _gauss_jordan(rows)
        given = [list(row) for row in rows]
        reduced, pivots = rref_raw(QQ, given)
        assert reduced is given
        assert (reduced, pivots) == want, rows
        assert all(type(x) is Fraction for row in reduced for x in row)
        deficient += len(pivots) < min(len(rows), len(rows[0]))
    assert 20 <= deficient < len(matrices), deficient


def _map_failure(source, target, cols):
    """The first defect of cols as a unital algebra map, the slow way:
    source and target are dense (structure, unit) over QQ, and f(e_i) f(e_j)
    is compared with f(e_i e_j) on every pair, in (i, j) order."""
    (s_table, s_unit), (t_table, t_unit) = source, target

    def image(v):
        return [sum(x * col[t] for x, col in zip(v, cols)) for t in range(len(t_unit))]

    if image(s_unit) != list(t_unit):
        return "unit is not preserved"
    for i, j in itertools.product(range(len(s_unit)), repeat=2):
        if _times(t_table, 0, cols[i], cols[j]) != image(s_table[i][j]):
            return "multiplicativity fails at (e%d, e%d)" % (i, j)
    return None


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_algebra_hom_over_qq_reports_the_slow_first_defect():
    # M2(QQ) and QQ[z]/(z^2), each on its own basis and two seeded ones whose
    # structure constants are not integral; the maps are the basis changes
    # composed with an automorphism (conjugation by a seeded g; z |-> c z),
    # the transpose on M2 (keeps the unit, reverses products), seeded dense
    # maps, and a copy of each with one coordinate moved
    rng = random.Random(4113)
    zz = ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    transpose = [[int(k == 2 * (i % 2) + i // 2) for i in range(4)] for k in range(4)]
    outcomes = {"accepted": 0, "unit": 0, "multiplicativity": 0}
    for table, d in ((_unit_span(M2), 4), (zz, 2)):
        one = [[int(i == j) for j in range(d)] for i in range(d)]
        bases = [(one, one)]
        algebras = [(table, StructAlgebra(QQ, *table))]
        while len(bases) < 3:
            basis = _random_basis(rng, d, 0)
            moved = _moved(rng, *table, 0, basis)
            if any(Fraction(x).denominator > 1 for row in moved[0] for v in row for x in v):
                bases.append(basis)
                algebras.append((moved, StructAlgebra(QQ, *moved)))
        maps = []
        for _ in range(12):
            if d == 4:
                g, g_inv = _random_basis(rng, 2, 0)
                auto = [[g[k][i] * g_inv[j][l] for i in range(2) for j in range(2)]
                        for k in range(2) for l in range(2)]
            else:
                auto = [[1, 0], [0, rng.choice((-2, Fraction(1, 3), Fraction(5, 2)))]]
            for inner in ([auto] + [transpose] * (d == 4 and rng.random() < 0.3)
                          + [_rational_rows(rng, d, d, 0.8)] * (rng.random() < 0.3)):
                src, dst = rng.randrange(3), rng.randrange(3)
                # f = P_dst^-1 inner P_src, its columns the images of the source basis
                matrix = _mat_mul(_mat_mul(bases[dst][1], inner), bases[src][0])
                cols = [[row[a] for row in matrix] for a in range(d)]
                maps.append((src, dst, cols))
                moved = [list(col) for col in cols]
                moved[rng.randrange(d)][rng.randrange(d)] += rng.choice(
                    (Fraction(1, 2), Fraction(-1, 3), 1))
                maps.append((src, dst, moved))
        for src, dst, cols in maps:
            (s_table, source), (t_table, target) = algebras[src], algebras[dst]
            want = _map_failure(s_table, t_table, cols)
            try:
                tensoralg.AlgebraHom(source, target, cols)
                got = None
            except ValidationFailure as exc:
                got = str(exc)
            assert got == want, (d, src, dst, cols)
            outcomes["accepted" if want is None else want.split()[0]] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_embedding_report_over_qq_matches_the_slow_one():
    # S over M2(QQ), 36-dimensional; two units whose inverses have denominators
    m2q = StructAlgebra(QQ, *_unit_span(M2))
    tt = build_embedding(m2q)
    big = tt.total
    n = big.dim
    e = [[int(i == k) for i in range(n)] for k in range(n)]

    def f(x):
        return list(x) + [0] * (n - 4)

    vectors = [f(e[i][:4]) for i in range(4)]
    rows = []
    for v in vectors:
        cols = [[x - y for x, y in zip(big.mul_vec(e_k, v), big.mul_vec(v, e_k))] for e_k in e]
        rows.extend([col[t] for col in cols] for t in range(n))
    cent = _kernel_of(rows, n)
    assert centralizer_basis(big, vectors) == cent
    for u in ([2, 1, 1, 3], [Fraction(1, 2), 1, -1, Fraction(2, 3)]):
        u_inv = [x for row in _inverse([u[:2], u[2:]], 0) for x in row]
        assert any(x.denominator > 1 for x in u_inv)
        cols = [big.mul_vec(big.mul_vec(f(u), e_k), f(u_inv)) for e_k in e]

        def image(v):
            out = [0] * n
            for x, col in zip(v, cols):
                for t, y in enumerate(col):
                    if x and y:
                        out[t] += x * y
            return out

        kernel_rank = n - len(_gauss_jordan(cols)[1])
        fixes = all(image(v) == list(v) for v in cent)
        restriction = all(image(f(e_k[:4])) == f(m2q.mul_vec(m2q.mul_vec(u, e_k[:4]), u_inv))
                          for e_k in e[:4])
        want = {"fixes_centralizer": fixes, "centralizer_dim": len(cent),
                "kernel_rank": kernel_rank, "injective": kernel_rank == 0,
                "restriction_matches": restriction,
                "passed": fixes and kernel_rank == 0 and restriction}
        assert verify_injectivity_via_embedding(tensoralg.EndoCandidate.from_unit(m2q, u), tt) == want
        assert want["passed"] and want["centralizer_dim"] == 9


def test_induced_map_over_qq_matches_the_slow_one():
    # conjugation by seeded units of M2(QQ) on a basis where its structure
    # constants are not integral, read off u e_k u^-1
    rng = random.Random(4115)
    structure, unit = _moved(rng, *_unit_span(M2), 0)
    alg = StructAlgebra(QQ, structure, unit)
    e = [[int(i == k) for i in range(4)] for k in range(4)]
    units = 0
    for _ in range(6):
        u = [_scalar(rng, 0) for _ in range(4)]
        # the rows u e_k are the matrix of s |-> u s transposed, so u x = 1
        # for x = left^T 1
        left = _inverse([_times(structure, 0, u, e_k) for e_k in e], 0)
        if left is None:
            continue
        u_inv = [sum(x * y for x, y in zip(col, unit)) for col in zip(*left)]
        want = tuple(tuple(_times(structure, 0, _times(structure, 0, u, e_k), u_inv)) for e_k in e)
        cand = tensoralg.EndoCandidate.from_unit(alg, u)
        induced = tensoralg.induced_endomorphism(cand, tensoralg.AlgebraHom.identity(alg))
        assert induced.cols == want and induced.kernel_rank == 0, u
        units += 1
    assert units >= 3


def test_centralizers_over_qq_match_the_slow_kernel():
    # seeded vectors with denominators, on M2(QQ) and on a basis where its
    # structure constants are not integral
    rng = random.Random(4114)
    for structure, unit in (_unit_span(M2), _moved(rng, *_unit_span(M2), 0)):
        alg = StructAlgebra(QQ, structure, unit)
        d = len(unit)
        e = [[int(i == k) for i in range(d)] for k in range(d)]
        sizes = set()
        for count in (0, 1, 1, 2, 2, 3):
            vectors = _rational_rows(rng, count, d, 0.7)
            rows = []
            for v in vectors:
                cols = [[x - y for x, y in zip(_times(structure, 0, e_k, v), _times(structure, 0, v, e_k))]
                        for e_k in e]
                rows.extend([col[t] for col in cols] for t in range(d))
            want = _kernel_of(rows, d)
            assert centralizer_basis(alg, vectors) == want, vectors
            sizes.add(len(want))
        assert {4, 1} <= sizes, sizes


def _inverse_in(table, identity, a):
    return next(b for b in range(len(table)) if table[a][b] == identity)


def _slow_inverse(table, identity, word):
    return [('g', _inverse_in(table, identity, p[1])) if p[0] == 'g' else ('x', p[1], -p[2])
            for p in reversed(word)]


def _slow_reduce(table, identity, word):
    """Drop identity letters and zero powers, merge equal-kind neighbours,
    scanning left to right and stepping back after each drop."""
    word = list(word)
    i = 0
    while i < len(word):
        syl = word[i]
        nxt = word[i + 1] if i + 1 < len(word) else None
        if syl == ('g', identity) or (syl[0] == 'x' and syl[2] == 0):
            del word[i]
            i = max(i - 1, 0)
        elif nxt is not None and syl[0] == nxt[0] == 'g':
            word[i:i + 2] = [('g', table[syl[1]][nxt[1]])]
        elif nxt is not None and syl[0] == nxt[0] == 'x' and syl[1] == nxt[1]:
            word[i:i + 2] = [('x', syl[1], syl[2] + nxt[2])]
        else:
            i += 1
    return tuple(word)


def _slow_substitute(table, mapping, syllables, images):
    """Substitute syllable by syllable, reducing the partial word after each piece."""
    identity = _identity_of(table)
    out = ()
    for syl in syllables:
        if syl[0] == 'g':
            pieces = [('g', mapping[syl[1]])]
        elif syl[2] > 0:
            pieces = list(images[syl[1]]) * syl[2]
        else:
            pieces = _slow_inverse(table, identity, images[syl[1]]) * -syl[2]
        for piece in pieces:
            out = _slow_reduce(table, identity, out + (piece,))
    return out


def _raw_word(rng, order, variables, length):
    """Random syllables, group letters (the identity included) and powers of
    variables with exponents +-1..+-3, in no particular order."""
    return [('g', rng.randrange(order)) if rng.random() < 0.5
            else ('x', rng.choice(variables), rng.choice((1, 2, 3, -1, -2, -3)))
            for _ in range(length)]


def _cascade(rng, table, e, depth, noise):
    """v^a s1 s2 ... s2^-1 s1^-1 v^b: depth nested pairs around noise identity
    letters and zero powers, the pairs alternately a letter other than e and
    its inverse, and a power and its negative.  The innermost pair cancels,
    each cancellation exposes the next pair, and v^a v^b is left to cancel
    or merge.  Returns (syllables, a + b)."""
    left, right = [], []
    for level in range(depth):
        if level % 2:
            v, a = rng.choice("xy"), rng.choice((1, 2, 3, -1, -2, -3))
            left.append(('x', v, a))
            right.append(('x', v, -a))
        else:
            s = rng.choice([g for g in range(len(table)) if g != e])
            left.append(('g', s))
            right.append(('g', _inverse_in(table, e, s)))
    a = rng.choice((1, 2, -1, -2))
    b = rng.choice((-a, 2 * a))
    v = rng.choice("xy")
    middle = [rng.choice((('g', e), ('x', rng.choice("xy"), 0))) for _ in range(noise)]
    return [('x', v, a)] + left + middle + right[::-1] + [('x', v, b)], a + b


def test_reduction_matches_the_slow_merge_loop():
    # _reduce_syllables merges each incoming syllable with the top of a
    # reduced stack at most once; the slow loop steps back after every drop
    rng = random.Random(3636)
    kinds = {"identity letter": 0, "zero power": 0, "two variables": 0,
             "cascade to empty": 0, "cascade to a power": 0}
    for name in ("S3", "D4", "Z6", "S4"):
        table, e = TABLES[name], _identity_of(TABLES[name])
        group = FiniteGroup(table)
        for k in range(60):
            raw = [('g', rng.randrange(len(table))) if rng.random() < 0.5
                   else ('x', rng.choice("xy"), rng.choice((0, 1, 2, -1, -2)))
                   for _ in range(rng.randrange(12))]
            if k % 2:
                core, total = _cascade(rng, table, e, rng.randrange(1, 5), rng.randrange(3))
                assert len(_slow_reduce(table, e, core)) == (total != 0)
                kinds["cascade to a power" if total else "cascade to empty"] += 1
                cut = rng.randrange(len(raw) + 1)
                raw[cut:cut] = core
            kinds["identity letter"] += ('g', e) in raw
            kinds["zero power"] += any(p[0] == 'x' and p[2] == 0 for p in raw)
            kinds["two variables"] += {p[1] for p in raw if p[0] == 'x'} == {"x", "y"}
            assert _reduce_syllables(group, raw) == _slow_reduce(table, e, raw), (name, raw)
    assert min(kinds.values()) >= 30, kinds


def _substitution_homs():
    """(source name, target name, hom): identities, every hom Z6 -> S3 and S3 -> Z6,
    and conjugation of D4 by each of its elements, built from the table."""
    groups = {name: FiniteGroup(TABLES[name]) for name in ("S3", "D4", "Z6")}
    homs = [(name, name, GroupHom.identity(g)) for name, g in groups.items()]
    homs += [("Z6", "S3", f) for f in all_homs(groups["Z6"], groups["S3"])]
    homs += [("S3", "Z6", f) for f in all_homs(groups["S3"], groups["Z6"])]
    d4, e = TABLES["D4"], _identity_of(TABLES["D4"])
    for g in range(len(d4)):
        g_inv = _inverse_in(d4, e, g)
        homs.append(("D4", "D4", GroupHom(groups["D4"], groups["D4"],
                                          [d4[d4[g][c]][g_inv] for c in range(len(d4))])))
    return homs


def test_word_substitute_matches_reducing_after_every_piece():
    rng = random.Random(27)
    kinds = {"random": 0, "empty": 0, "letter": 0, "inverse": 0, "cancel": 0}
    for source, target, f in _substitution_homs():
        table, e = TABLES[target], _identity_of(TABLES[target])
        source_table = TABLES[source]
        for _ in range(40):
            raw = _raw_word(rng, len(source_table), "xy", rng.randrange(1, 10))
            w = ReducedWord(f.source, _slow_reduce(source_table, _identity_of(source_table), raw))
            images = {}
            for v in "xy":
                # "inverse": y's image is x's inverse; "cancel": the image opens
                # with the inverse of the letter just before v's first positive power
                kind = rng.choice(sorted(kinds) if v == "y" else ["random", "empty", "letter", "cancel"])
                before = next((a for a, b in zip(w.syllables, w.syllables[1:])
                               if a[0] == 'g' and b[:2] == ('x', v) and b[2] > 0), None)
                if kind == "cancel" and before is None:
                    kind = "random"
                if kind == "empty":
                    img = []
                elif kind == "letter":
                    img = [('g', rng.randrange(len(table)))]
                elif kind == "inverse":
                    img = _slow_inverse(table, e, images["x"])
                else:
                    img = _raw_word(rng, len(table), "xyz", rng.randrange(1, 6))
                if kind == "cancel":
                    first = _inverse_in(table, e, f.apply(before[1]))
                    img = [('g', first), ('x', 'z', rng.choice((1, -1)))] + img
                kinds[kind] += 1
                images[v] = _slow_reduce(table, e, img)
            got = word_substitute(w, f, {v: ReducedWord(f.target, s) for v, s in images.items()})
            assert got.syllables == _slow_substitute(table, f.mapping, w.syllables, images), \
                (source, target, w.syllables, images)
    assert min(kinds.values()) >= 30, kinds


def test_generic_check_matches_the_slow_substitution():
    rng = random.Random(2727)
    x0, x1 = ('x', 'a', 1), ('x', 'b', 1)
    verdicts = []
    for name in ("S3", "D4", "Z6"):
        group, table = FiniteGroup(TABLES[name]), TABLES[name]
        e, ident = _identity_of(table), list(range(len(table)))
        for k in range(120):
            if k % 4 == 0:  # conjugation-shaped, or the empty word: the generic check accepts
                s = rng.randrange(len(table))
                raw = [('g', s), ('x', 'x', 1), ('g', _inverse_in(table, e, s))] if k % 8 else []
            else:
                raw = _raw_word(rng, len(table), "x", rng.randrange(1, 10))
            w = ReducedWord(group, _slow_reduce(table, e, raw))
            lhs = _slow_substitute(table, ident, w.syllables, {"x": (x0, x1)})
            rhs = _slow_reduce(table, e, _slow_substitute(table, ident, w.syllables, {"x": (x0,)})
                               + _slow_substitute(table, ident, w.syllables, {"x": (x1,)}))
            want = lhs == rhs
            assert check_generic_multiplicative(w) == want, (name, w.syllables)
            verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 200


def _field_value(c, p):
    """The rational c as a raw value of QQ (p = 0) or GF(p)."""
    return Fraction(c) if p == 0 else c.numerator * pow(c.denominator, -1, p) % p


def _plus(p, total, terms, factor):
    """total + factor * terms on {word: coefficient} dicts, zeros dropped."""
    out = dict(total)
    for w, c in terms.items():
        v = out.get(w, 0) + factor * c
        if p:
            v %= p
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def _redexes(rules, word):
    """Every (pos, rule index) at which a left side occurs in word."""
    return [(pos, ri) for pos in range(len(word)) for ri, (lhs, _) in enumerate(rules)
            if word[pos:pos + len(lhs)] == lhs]


def _step(rules, word, pos, ri):
    """The terms of word reduced once, by rule ri at pos."""
    lhs, rhs = rules[ri]
    return [(word[:pos] + w + word[pos + len(lhs):], c) for w, c in rhs]


class _Reducer:
    """Reduction on name tuples, one monomial at a time.

    every(word) is the set of normal forms reached by every reduction order:
    each redex taken first, then each term of the result reduced by every
    order of its own.  leftmost(word) follows the first redex alone, the
    linear map a leftmost strategy computes.  Both are memoised by word.
    """

    def __init__(self, rs):
        self.p = rs.field.char
        self.rules = [(lhs, list(rhs.terms.items())) for lhs, rhs in rs.rules]
        self._every, self._leftmost = {}, {}

    def _sum(self, terms, reduce_word):
        sums = [{}]
        for w, c in terms:
            sums = [_plus(self.p, acc, nf, c) for acc in sums for nf in reduce_word(w)]
        return sums

    def every(self, word):
        if word not in self._every:
            redexes = _redexes(self.rules, word)
            if not redexes:
                forms = {frozenset({(word, 1)})}
            else:
                forms = set()
                for pos, ri in redexes:
                    terms = _step(self.rules, word, pos, ri)
                    forms.update(frozenset(s.items()) for s in self._sum(terms, self._forms))
            self._every[word] = forms
        return self._every[word]

    def _forms(self, word):
        return [dict(nf) for nf in self.every(word)]

    def leftmost(self, word):
        if word not in self._leftmost:
            redexes = _redexes(self.rules, word)
            if not redexes:
                self._leftmost[word] = {word: 1}
            else:
                terms = _step(self.rules, word, *redexes[0])
                self._leftmost[word] = self._sum(terms, lambda w: [self.leftmost(w)])[0]
        return self._leftmost[word]

    def of(self, poly_terms):
        return self._sum(poly_terms, lambda w: [self.leftmost(w)])[0]


def _overlap_words(rules):
    """Every word covered by two overlapping left sides or one inside another."""
    words = set()
    for lhs_i, _ in rules:
        for lhs_j, _ in rules:
            for k in range(1, min(len(lhs_i), len(lhs_j))):
                if lhs_i[-k:] == lhs_j[:k]:
                    words.add(lhs_i + lhs_j[k:])
            if any(lhs_i[s:s + len(lhs_j)] == lhs_j for s in range(len(lhs_i))):
                words.add(lhs_i)
    return words


def _overlapping_prefixes():
    # c inside c*a inside c*a*b, and b*b inside b*b*a; not confluent
    def poly(terms):
        return NcPolynomial(QQ, {tuple(w.split()): c for w, c in terms})

    return RewriteSystem(QQ, ["a", "b", "c"], [
        (("c", "a", "b"), poly([("a", 1)])),
        (("b", "b"), poly([("a", 2)])),
        (("c",), poly([("b", 1), ("", 1)])),
        (("c", "a"), poly([("a b", -1)])),
        (("b", "b", "a"), poly([])),
    ])


def _sl2_half():
    """sl2 on e/2, f, h: [e', f] = h/2, a bracket with a denominator."""
    half = Fraction(1, 2)
    z = (0, 0, 0)
    return LieData(QQ, [[z, (0, 0, half), (-2, 0, 0)],
                        [(0, 0, -half), z, (0, 2, 0)],
                        [(2, 0, 0), (0, -2, 0), z]], ["e", "f", "h"])


# The coefficients of the inputs; those with a denominator p divides are
# left out over GF(p).
RATIONALS = [Fraction(n, d) for n, d in ((1, 1), (-1, 2), (2, 3), (5, 6), (3, 1), (-7, 4),
                                         (4, 5), (-3, 7))]


REDUCTION_SYSTEMS = {
    "leavitt2/QQ": (leavitt_system(2, QQ), True),
    "pbw-sl2/QQ": (pbw_system(sl2(QQ)), True),
    "pbw-sl2/GF(3)": (pbw_system(sl2(GF(3))), True),
    "pbw-heisenberg/GF(2)": (pbw_system(heisenberg(GF(2))), True),
    "pbw-sl2-half/QQ": (pbw_system(_sl2_half()), True),
    "overlapping-prefixes": (_overlapping_prefixes(), False),
}


@pytest.mark.parametrize("name", sorted(REDUCTION_SYSTEMS))
def test_normal_forms_match_every_reduction_order(name):
    rs, confluent = REDUCTION_SYSTEMS[name]
    oracle = _Reducer(rs)
    p = rs.field.char
    coeffs = [_field_value(c, p) for c in RATIONALS if p == 0 or c.denominator % p]
    words = [w for n in range(5) for w in itertools.product(rs.generators, repeat=n)]
    words += sorted(_overlap_words(oracle.rules))
    several = []
    for k, word in enumerate(words):
        forms = oracle.every(word)
        if len(forms) > 1:
            several.append(word)
        c = coeffs[k % len(coeffs)]
        assert frozenset(oracle.leftmost(word).items()) in forms
        want = _plus(p, {}, oracle.leftmost(word), c)
        poly = NcPolynomial(rs.field, {word: c})
        assert rs.normal_form(poly).terms == want, (name, word)
        if confluent:
            assert rs.normal_form(poly, rng=random.Random(k)).terms == want, (name, word)
    # several normal forms of one word exactly when confluence_check fails
    assert bool(several) == (not confluent) == bool(rs.confluence_check())
    # whole polynomials, their terms' denominators mixed
    rng = random.Random(28)
    for _ in range(40):
        terms = {rng.choice(words): rng.choice(coeffs) for _ in range(rng.randrange(1, 9))}
        poly = NcPolynomial(rs.field, terms)
        want = oracle.of(poly.terms.items())
        assert rs.normal_form(poly).terms == want, (name, terms)
        if confluent:
            assert rs.normal_form(poly, rng=rng).terms == want, (name, terms)


def test_confluence_failures_name_two_reachable_branches():
    # [e1, e2] = e3 over GF(5), with e3 acting as -1 on both e1 and e2
    broken = LieData(GF(5), [[(0, 0, 0), (0, 0, 1), (1, 0, 0)],
                             [(0, 0, 4), (0, 0, 0), (0, 1, 0)],
                             [(4, 0, 0), (0, 4, 0), (0, 0, 0)]])
    assert not broken.jacobi_ok()
    rs = pbw_system(broken)
    oracle = _Reducer(rs)
    failures = rs.confluence_check()
    assert failures
    for f in failures:
        assert f.branch_i != f.branch_j
        lhs_i, lhs_j = oracle.rules[f.rule_i][0], oracle.rules[f.rule_j][0]
        assert f.word[:len(lhs_i)] == lhs_i
        left = oracle.of(_step(oracle.rules, f.word, 0, f.rule_i))
        assert f.branch_i.terms == left
        assert frozenset(left.items()) in oracle.every(f.word)
        rights = [oracle.of(_step(oracle.rules, f.word, s, f.rule_j))
                  for s in range(len(f.word)) if (s, f.rule_j) != (0, f.rule_i)
                  and f.word[s:s + len(lhs_j)] == lhs_j]
        assert f.branch_j.terms in rights
        assert frozenset(f.branch_j.terms.items()) in oracle.every(f.word)
        for branch in (f.branch_i, f.branch_j):
            assert not any(_redexes(oracle.rules, w) for w in branch.terms)


def _unit_search_by_definition(rs, cap):
    """(searched, monomials, solutions) of scalar_unit_search found densely.

    a runs over the monic combinations of the irreducible words of length
    <= cap (coefficients 0, 1, -1 over QQ, all of GF(p) otherwise), in
    itertools.product order; b solves sum_k b_k nf(m_k a) = 1 on the first
    independent columns, read off the Gauss-Jordan form of [columns | 1].
    When no rule has a constant term, b a has none either, so an a without
    one is not searched; it is solved anyway, and must have no b.
    """
    p = rs.field.char
    oracle = _Reducer(rs)
    monomials = [w for n in range(cap + 1) for w in itertools.product(rs.generators, repeat=n)
                 if not _redexes(oracle.rules, w)]
    m = len(monomials)
    no_constants = all(w for _, rhs in oracle.rules for w, _ in rhs)
    searched, solutions = 0, []
    for pattern in itertools.product((0, 1, -1) if p == 0 else range(p), repeat=m):
        support = [j for j, c in enumerate(pattern) if c]
        if not support or pattern[support[-1]] != 1:
            continue
        cols = [oracle.of([(mk + monomials[j], pattern[j]) for j in support]) for mk in monomials]
        words = sorted({()}.union(*cols))
        rows, pivots = _gauss_jordan([[col.get(w, 0) for col in cols] + [int(w == ())]
                                      for w in words], p)
        solved = m not in pivots
        if no_constants and not pattern[0]:
            assert not solved, pattern
            continue
        searched += 1
        if solved:
            a = {monomials[j]: pattern[j] for j in support}
            b = {monomials[k]: row[m] for row, k in zip(rows, pivots) if row[m]}
            solutions.append((a, b))
    return searched, m, solutions


def _yx_system(rhs):
    """The one rule y x -> rhs over QQ."""
    return RewriteSystem(QQ, ["x", "y"], [(("y", "x"), NcPolynomial.parse(QQ, rhs, ["x", "y"]))])


UNIT_SEARCHES = {
    "leavitt2/QQ": (leavitt_system(2, QQ), 1),
    "leavitt2/GF(3)": (leavitt_system(2, GF(3)), 1),
    "pbw-sl2/QQ": (pbw_system(sl2(QQ)), 1),
    "yx=1/2": (_yx_system("1/2"), 1),
    "yx=2/3-x/5": (_yx_system("2/3 - 1/5*x"), 2),
}


@pytest.mark.parametrize("name", list(UNIT_SEARCHES))
def test_unit_search_matches_the_dense_fraction_search(name):
    rs, cap = UNIT_SEARCHES[name]
    got = scalar_unit_search(rs, degree_cap=cap)
    searched, m, solutions = _unit_search_by_definition(rs, cap)
    assert (got["searched"], got["monomials"]) == (searched, m)
    assert [(a.terms, b.terms) for a, b in got["solutions"]] == solutions
    assert got["all_scalar"] == all(set(a) | set(b) <= {()} for a, b in solutions)
    assert solutions
    if name == "yx=1/2":
        # b = 2y: a denominator the search must carry through to b
        assert solutions == [({("x",): 1}, {("y",): 2}), ({(): 1}, {(): 1})]
