"""Every small structure, not only the corpus: all unital associative
3-dimensional algebras over GF(2) with e_0 = 1.

With e_0 the unit, a table is fixed by the four products e_i e_j, i, j in
{1, 2}, each a vector of GF(2)^3: 4,096 candidates, of which 76 are
associative.  On each of the 76, both exhaustive scans are held to the
definitions, from products formed here out of the dense table:

* unit_count is the number of u with some x such that u x = 1 = x u;
* the endomorphism passing set is {u (x) u^-1} over those units;
* the derivation passing set is the distinct 1 (x) b - b (x) 1.

No helper of the library builds or judges a table; StructAlgebra, which
must accept exactly the 76, and the two scans are what is tested.  The
scan's product kernel with one structure constant's term dropped, or with
no reduction mod p, fails here.  One that multiplies v u in place of u v
survives it, as the scans give the same sets on all 76 with it; the
M2(GF(2)) frozen scan results kill that one.
"""

import itertools

from innerscope.errors import ValidationFailure
from innerscope.exactmath import GF
from innerscope.tensoralg import StructAlgebra, enumerate_inner_derivations, enumerate_inner_endos

VECTORS = list(itertools.product(range(2), repeat=3))
UNIT = (1, 0, 0)


def _table(products):
    """structure[i][j] = e_i e_j with e_0 = 1 and e_i e_j = products[(i, j)]."""
    basis = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    return [[basis[j] if i == 0 else basis[i] if j == 0 else products[i, j]
             for j in range(3)] for i in range(3)]


def _times(structure, u, v):
    out = [0, 0, 0]
    for i, j in itertools.product(range(3), repeat=2):
        if u[i] and v[j]:
            for k in range(3):
                out[k] += structure[i][j][k]
    return tuple(x % 2 for x in out)


def _associative(structure):
    """(a b) c = a (b c) on the basis triples without e_0, the unit: a
    triple with e_0 holds on every table built by _table."""
    basis = [(0, 1, 0), (0, 0, 1)]
    return all(_times(structure, _times(structure, a, b), c)
               == _times(structure, a, _times(structure, b, c))
               for a, b, c in itertools.product(basis, repeat=3))


def _every_table():
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for images in itertools.product(VECTORS, repeat=4):
        yield _table(dict(zip(pairs, images)))


def _accepted(structure):
    try:
        StructAlgebra(GF(2), structure, UNIT)
    except ValidationFailure:
        return False
    return True


def test_scans_match_the_definitions_on_every_3_dim_gf2_algebra():
    tables = []
    for structure in _every_table():
        associative = _associative(structure)
        assert _accepted(structure) == associative, structure
        if associative:
            tables.append(structure)
    assert len(tables) == 76
    commutative = 0
    for structure in tables:
        alg = StructAlgebra(GF(2), structure, UNIT)
        inverses = {u: x for u in VECTORS for x in VECTORS
                    if _times(structure, u, x) == UNIT == _times(structure, x, u)}
        endos = enumerate_inner_endos(alg)
        assert endos.unit_count == len(inverses)
        assert endos.passing == sorted({tuple(a * b for a in u for b in x)
                                        for u, x in inverses.items()})
        commutators = {tuple((one_i * b_j - b_i * one_j) % 2 for one_i, b_i in zip(UNIT, b)
                             for b_j, one_j in zip(b, UNIT))
                       for b in VECTORS}
        derivations = enumerate_inner_derivations(alg)
        assert derivations.passing == sorted(commutators)
        commutative += all(_times(structure, u, v) == _times(structure, v, u)
                           for u, v in itertools.product(VECTORS, repeat=2))
    # both sides of commutativity are covered
    assert 0 < commutative < len(tables)
