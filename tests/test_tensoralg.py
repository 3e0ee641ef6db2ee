import hashlib
import itertools
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from innerscope import tensoralg
from innerscope.embed import build_embedding
from innerscope.exactmath import GF, QQ, Field, apply_columns, kernel_raw, rank_raw, rref_raw
from innerscope.tensoralg import (
    AlgebraHom,
    BudgetExceeded,
    DerivationCandidate,
    EndoCandidate,
    InconsistentRoutes,
    StructAlgebra,
    TensorElement,
    TheoremViolation,
    ValidationFailure,
    action_columns,
    centralizer_basis,
    check_derivation_generic,
    check_endo_conditions,
    classify_inner_endo_algebra,
    enumerate_inner_derivations,
    enumerate_inner_endos,
    extract_derivation_element,
    field_algebra,
    induced_endomorphism,
    inner_derivation_of,
    matrix_algebra,
    minimal_pair,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from test_oracles import adjoin_square_zero

F2 = GF(2)
F3 = GF(3)


def _basis(alg, i):
    return alg.basis_vector(i)


def test_matrix_algebra_facts():
    m2 = matrix_algebra(2, F2)
    assert m2.dim == 4
    assert m2.names == ["e11", "e12", "e21", "e22"]
    assert m2.unit == (1, 0, 0, 1)
    e11, e12, e21, e22 = (_basis(m2, i) for i in range(4))
    assert m2.mul_vec(e12, e21) == e11
    assert m2.mul_vec(e21, e12) == e22
    assert m2.mul_vec(e12, e12) == (0, 0, 0, 0)
    assert centralizer_basis(m2, [_basis(m2, i) for i in range(4)]) == [(1, 0, 0, 1)]
    # the greedy complement keeps the first three coordinate vectors
    assert m2.one_complement == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]


def _greedy_complement(alg):
    """Each e_i kept when it lies outside the span of 1 and the e's kept so far."""
    kept = []
    for i in range(alg.dim):
        if rank_raw(alg.field, [alg.unit, *kept, _basis(alg, i)]) == len(kept) + 2:
            kept.append(_basis(alg, i))
    return kept


def test_phi_splits_the_unit(monkeypatch):
    m2 = matrix_algebra(2, F2)
    assert m2.phi(m2.unit) == 1
    assert m2.phi(_basis(m2, 0)) == 0     # e11 lies in the complement
    assert m2.phi(_basis(m2, 3)) == 1     # e22 = 1 - e11
    # M2(GF(3)) on f = (e11 + e21, e12, 2 e21 + e22, e21): 1 = f0 + f2, so the
    # unit's last nonzero coordinate is not the last one; so too in R[eps]
    m2_moved = _change_basis(matrix_algebra(2, F3), [(1, 0, 1, 0), (0, 1, 0, 0),
                                                     (0, 0, 2, 1), (0, 0, 1, 0)])
    assert m2_moved.unit == (1, 0, 1, 0)
    algebras = [m2, _moved_ut2(), m2_moved, adjoin_square_zero(m2),
                adjoin_square_zero(upper_triangular_algebra(2, QQ)),
                truncated_polynomial_algebra(QQ)]
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return rref_raw(field, rows)

    greedy = [_greedy_complement(alg) for alg in algebras]
    monkeypatch.setattr(tensoralg, "rref_raw", counted)
    for alg, kept in zip(algebras, greedy):
        calls.clear()
        again = StructAlgebra(alg.field, alg.prod, alg.unit)
        assert calls == [alg.dim]     # one row reduction builds the algebra
        assert again.one_complement == alg.one_complement == kept
        assert alg.phi(alg.unit) == 1
        for v in alg.one_complement:
            assert alg.phi(v) == 0
    # a supplied complement other than the default is kept and written back
    supplied = [_basis(m2, 1), _basis(m2, 2), _basis(m2, 3)]
    alg = StructAlgebra(F2, m2.prod, m2.unit, one_complement=supplied)
    calls.clear()
    again = StructAlgebra.from_json(alg.to_json())
    assert calls == [4]
    assert again.one_complement == supplied
    assert again.to_json() == alg.to_json()
    assert again.phi(_basis(m2, 0)) == 1  # e11 = 1 - e22 now
    assert again.phi(_basis(m2, 3)) == 0


def test_bad_structures_rejected():
    # e0 not a two-sided unit
    with pytest.raises(ValidationFailure, match=r"^1 \* e1 != e1$"):
        StructAlgebra(F2, [[{0: 1}, {}], [{}, {}]], [1, 0])
    # non-associative: x*x = y, x*y = x gives (xx)x = xy = x but x(xx) = xy = x;
    # use y*y = x with x*y = y*x = 0 instead: (yy)y = xy = 0, y(yy) = yx = 0 fine.
    # Break it with x*x = y, y*x = x, x*y = 0: (xx)x = yx = x, x(xx) = xy = 0.
    structure = [
        [{0: 1}, {1: 1}, {2: 1}],
        [{1: 1}, {2: 1}, {}],
        [{2: 1}, {1: 1}, {}],
    ]
    with pytest.raises(ValidationFailure, match=r"^associativity fails at \(e1, e1, e1\)$"):
        StructAlgebra(F2, structure, [1, 0, 0])
    # a dict entry's keys must be basis indices: 5 was a bare IndexError,
    # -1 read as the last coordinate and True as 1
    for key in (5, -1, True, "1", 1.0):
        with pytest.raises(ValidationFailure, match=r"structure\[1\]\[1\]: keys must be basis"):
            StructAlgebra(F2, [[{0: 1}, {1: 1}], [{1: 1}, {key: 1}]], [1, 0])


def test_associativity_compares_only_triples_with_a_nonzero_side():
    # S over M2(GF(2)) has 200 nonzero products among 1,296; of its 36^3 =
    # 46,656 basis triples, 12,464 have e_i e_j or e_j e_k nonzero
    big = build_embedding(matrix_algebra(2, F2)).total
    d, prod = big.dim, big.prod
    triples = [(i, j, k) for i, j, k in itertools.product(range(d), repeat=3)
               if prod[i][j] or prod[j][k]]
    assert len(triples) == 12464
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(1)
            return int(self) * int(other)

    big._int_prod = [[{t: Counted(c) for t, c in entry.items()} for entry in row] for row in prod]
    assert big.validate() is None
    # one product per term of (e_i e_j) e_k and of e_i (e_j e_k) on those
    # triples, and none elsewhere
    assert len(products) == sum(sum(len(prod[m][k]) for m in prod[i][j])
                                + sum(len(prod[i][m]) for m in prod[j][k]) for i, j, k in triples)


def test_unit_inverse_and_units():
    m2 = matrix_algebra(2, F2)
    e12 = _basis(m2, 1)
    swap = F2.reduce_vector([a + b for a, b in zip(e12, _basis(m2, 2))])  # e12 + e21
    assert m2.unit_inverse(swap) == swap
    assert m2.unit_inverse(e12) is None
    assert m2.is_unit(m2.unit)
    tp = truncated_polynomial_algebra(QQ)
    one_plus_z = (QQ.one, QQ.one)
    inv = tp.unit_inverse(one_plus_z)
    assert inv == (QQ.coerce(1), QQ.coerce(-1))
    assert tp.mul_vec(one_plus_z, inv) == tp.unit


def test_unit_inverse_rejects_a_wrong_length():
    m2 = matrix_algebra(2, F2)
    for u in ((1, 0, 0, 1, 1), (1, 0, 0)):
        with pytest.raises(ValidationFailure, match="has %d coordinates, expected 4" % len(u)):
            m2.unit_inverse(u)


def test_is_unit_rejects_a_wrong_length():
    # an extra coordinate used to be dropped, so (1, 0, 0, 1, 1) read as the unit
    m2 = matrix_algebra(2, F2)
    with pytest.raises(ValidationFailure, match="has 5 coordinates, expected 4"):
        m2.is_unit((1, 0, 0, 1, 1))


def test_tensor_element_ops():
    t = TensorElement.from_pairs(F3, 2, [(1, 2)], [(2, 1)])
    assert t.coords == (2, 1, 1, 2)
    assert t.as_rows()[0][1] == 1
    assert TensorElement.from_pairs(F3, 2, [(1, 2), (1, 2)], [(2, 1), (1, 2)]).coords == (0,) * 4
    assert TensorElement.from_pairs(F3, 2, [(1, 2), (1, 2)], [(2, 1), (2, 1)]).coords == \
        TensorElement.from_pairs(F3, 2, [(1, 2)], [(1, 2)]).coords
    m = TensorElement.from_matrix(F3, [[2, 1], [1, 2]])
    assert m.as_rows() == [[2, 1], [1, 2]]
    with pytest.raises(ValidationFailure, match=r"^coordinate count does not match dim\^2$"):
        TensorElement(F3, 2, [0] * 16)
    with pytest.raises(ValidationFailure, match="^a and b lists differ in length$"):
        TensorElement.from_pairs(F3, 2, [(1, 2)], [])
    with pytest.raises(ValidationFailure, match="^a vector does not have 2 coordinates$"):
        TensorElement.from_pairs(F3, 2, [(1, 2, 0)], [(1, 2)])


def test_tensor_from_matrix_rejects_ragged_rows():
    for rows in ([[1, 0, 1], [1]], [[1, 0], [1]], [[1, 0], [1, 1, 0]]):
        with pytest.raises(ValidationFailure, match="a row does not have 2 coordinates"):
            TensorElement.from_matrix(F2, rows)


def test_minimal_pair_frozen_example():
    m2 = matrix_algebra(2, F2)
    # w = e11 (x) e11 + e11 (x) e22 + e22 (x) e11 + e22 (x) e22 = (e11+e22) (x) (e11+e22)
    w = TensorElement.from_pairs(F2, 4, [(1, 0, 0, 1)], [(1, 0, 0, 1)])
    a_list, b_list = minimal_pair(m2, w)
    assert len(a_list) == 1
    assert b_list == [(1, 0, 0, 1)]
    assert a_list == [(1, 0, 0, 1)]


def test_minimal_pair_random_reassembly():
    rng = random.Random(7)
    for field, dim in ((F2, 4), (F3, 3), (QQ, 3)):
        for _ in range(30):
            if field is QQ:
                coords = [rng.randint(-3, 3) for _ in range(dim * dim)]
            else:
                coords = [rng.randrange(field.char) for _ in range(dim * dim)]
            w = TensorElement(field, dim, coords)
            rows = w.as_rows()
            from innerscope.tensoralg import _minimal_pair_raw

            a_list, b_list = _minimal_pair_raw(field, dim, rows)
            assert TensorElement.from_pairs(field, dim, a_list, b_list).coords == w.coords
            assert len(a_list) == rank_raw(field, rows)


def test_endo_conditions_unit_route():
    m2 = matrix_algebra(2, F2)
    for u in [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)]:
        cand = EndoCandidate.from_unit(m2, u)
        verdict = check_endo_conditions(cand)
        assert verdict.passed and cand.n == 1
        cls = classify_inner_endo_algebra(cand)
        assert cls.kind == "conjugation"
        assert cls.unit == u


def test_endo_conditions_failures():
    m2 = matrix_algebra(2, F2)
    e11 = _basis(m2, 0)
    e22 = _basis(m2, 3)
    # unit-sum holds but biorthogonality fails (e11 e11 = e11, not 0 off-diagonal)
    w = TensorElement.from_pairs(F2, 4, [e11, e22], [e11, e22])
    cand = EndoCandidate.from_tensor(m2, w)
    assert cand.n == 2
    verdict = check_endo_conditions(cand)
    assert not verdict.passed
    assert verdict.reason == "biorthogonality"
    assert classify_inner_endo_algebra(cand).kind == "not_inner"
    # unit-sum fails outright
    w2 = TensorElement.from_pairs(F2, 4, [e11], [e11])
    verdict2 = check_endo_conditions(EndoCandidate.from_tensor(m2, w2))
    assert not verdict2.passed
    assert verdict2.reason == "unit-sum"


def test_non_unit_rejected():
    m2 = matrix_algebra(2, F2)
    # e12 is no unit; a short or long vector is not an element of m2 at all
    for u, message in ((_basis(m2, 1), "^not a unit$"),
                       ((1, 1, 0), "^element has 3 coordinates, expected 4$"),
                       ((1, 1, 0, 1, 1), "^element has 5 coordinates, expected 4$")):
        for build in (EndoCandidate.from_unit, AlgebraHom.conjugation):
            with pytest.raises(ValidationFailure, match=message):
                build(m2, u)


def _idempotent_split(alg, e):
    """e (x) e + (1 - e) (x) (1 - e): its unit sum is 1, but it is no unit pair."""
    f = alg.field.reduce_vector([x - y for x, y in zip(alg.unit, e)])
    return EndoCandidate.from_pairs(alg, [e, f], [e, f])


def test_routes_agree_on_random_tensors():
    rng = random.Random(11)
    m2 = matrix_algebra(2, F2)
    tp3 = truncated_polynomial_algebra(F3)
    for alg in (m2, tp3):
        p = alg.field.char
        for _ in range(150):
            coords = [rng.randrange(p) for _ in range(alg.dim ** 2)]
            cand = EndoCandidate.from_tensor(
                alg, TensorElement(alg.field, alg.dim, coords))
            check_endo_conditions(cand)  # raises InconsistentRoutes on any split
    # the degree-3 route and biorthogonality on unit pairs, which pass, and
    # on random tensors and an idempotent split, which fail, over a dense
    # basis of M2(GF(5)) and over M2(QQ)
    rng = random.Random(12)
    moved = _change_basis(matrix_algebra(2, GF(5)),
                          [(1, 2, 0, 3), (0, 1, 4, 1), (2, 0, 1, 1), (3, 1, 1, 0)])
    assert moved.unit.count(0) < 3
    idempotent = next(e for e in itertools.product(range(5), repeat=4)
                      if moved.mul_vec(e, e) == e and e not in ((0,) * 4, moved.unit))
    m2q = matrix_algebra(2, QQ)
    cases = ((moved, idempotent, lambda: rng.randrange(5)),
             (m2q, m2q.basis_vector(0), lambda: QQ.coerce(rng.randint(-3, 3)) / rng.randint(1, 3)))
    for alg, e, draw in cases:
        passing = []
        while len(passing) < 12:
            u = tuple(draw() for _ in range(alg.dim))
            if alg.is_unit(u):
                passing.append(EndoCandidate.from_unit(alg, u))
        failing = [EndoCandidate.from_tensor(alg, TensorElement(
            alg.field, alg.dim, [draw() for _ in range(alg.dim ** 2)])) for _ in range(40)]
        split = _idempotent_split(alg, e)
        assert split.n == 2 and check_endo_conditions(split).reason == "biorthogonality"
        for cand, want in [(c, True) for c in passing] + [(c, False) for c in failing + [split]]:
            routes = (tensoralg._tensor_route_ok(alg, cand.w.coords),
                      tensoralg._delta_ok(alg, cand.a_list, cand.b_list))
            assert routes == (want, want), (alg, cand.w.coords)
            assert check_endo_conditions(cand).passed == want


def test_degree3_route_stops_at_the_first_differing_coefficient(monkeypatch):
    # e11 (x) e11: at e11 (x) . (x) e11 the right side is e11 e11 = e11, the left 1
    m2 = matrix_algebra(2, F2)
    products = []
    mul_vec = m2.mul_vec
    monkeypatch.setattr(m2, "mul_vec", lambda u, v: products.append((u, v)) or mul_vec(u, v))
    w = TensorElement.from_pairs(F2, 4, [_basis(m2, 0)], [_basis(m2, 0)])
    assert not tensoralg._tensor_route_ok(m2, w.coords)
    assert len(products) == 1


def test_algebra_hom_validation():
    m2 = matrix_algebra(2, F2)
    ident = AlgebraHom.identity(m2)
    assert ident.apply(_basis(m2, 1)) == _basis(m2, 1)
    swap = (0, 1, 1, 0)
    conj = AlgebraHom.conjugation(m2, swap)
    # conjugating e11 by the swap matrix gives e22
    assert conj.apply(_basis(m2, 0)) == _basis(m2, 3)
    assert conj.compose(conj).cols == ident.cols
    with pytest.raises(ValidationFailure, match="^unit is not preserved$"):
        AlgebraHom(m2, m2, [[0] * 4 for _ in range(4)])
    # linear but not multiplicative: exchange e12 and e21, fix the rest
    cols = [_basis(m2, 0), _basis(m2, 2), _basis(m2, 1), _basis(m2, 3)]
    with pytest.raises(ValidationFailure, match=r"^multiplicativity fails at \(e0, e1\)$"):
        AlgebraHom(m2, m2, cols)
    # maps between fields, a wrong column count, a column of the wrong length
    with pytest.raises(ValidationFailure, match="^source and target fields differ$"):
        AlgebraHom(m2, matrix_algebra(2, F3), ident.cols)
    with pytest.raises(ValidationFailure, match="^column shape does not match the algebras$"):
        AlgebraHom(m2, m2, ident.cols[:3])
    with pytest.raises(ValidationFailure, match="^column shape does not match the algebras$"):
        AlgebraHom(m2, m2, [col + (0,) for col in ident.cols])
    # a composition whose ends do not meet
    with pytest.raises(ValidationFailure, match="^composition mismatch$"):
        conj.compose(AlgebraHom.identity(field_algebra(F2)))


def test_induced_endomorphism_identity_candidate():
    m2 = matrix_algebra(2, F2)
    cand = EndoCandidate.from_unit(m2, m2.unit)
    ident = AlgebraHom.identity(m2)
    induced = induced_endomorphism(cand, ident)
    assert induced.cols == ident.cols
    assert induced.is_injective


def test_induced_endomorphism_matches_conjugation():
    m2 = matrix_algebra(2, F2)
    u = (1, 1, 0, 1)
    cand = EndoCandidate.from_unit(m2, u)
    induced = induced_endomorphism(cand, AlgebraHom.identity(m2))
    assert induced.cols == AlgebraHom.conjugation(m2, u).cols
    assert list(induced.cols) == action_columns(m2, cand.w.coords)
    assert induced.is_injective


def test_induced_endomorphism_requires_passing_candidate():
    m2 = matrix_algebra(2, F2)
    e11 = _basis(m2, 0)
    cand = EndoCandidate.from_tensor(m2, TensorElement.from_pairs(F2, 4, [e11], [e11]))
    with pytest.raises(ValidationFailure, match="^candidate fails the endomorphism conditions$"):
        induced_endomorphism(cand, AlgebraHom.identity(m2))


def test_derivation_check_and_extraction():
    m2 = matrix_algebra(2, F2)
    for i in range(4):
        b = _basis(m2, i)
        cand = inner_derivation_of(m2, b)
        assert check_derivation_generic(cand).passed
        extracted = extract_derivation_element(cand)
        phi_b = m2.phi(b)
        expected = F2.reduce_vector([x - phi_b * u for x, u in zip(b, m2.unit)])
        assert extracted == expected
        assert m2.phi(extracted) == 0


def test_derivation_action_example():
    m2 = matrix_algebra(2, F2)
    cand = inner_derivation_of(m2, _basis(m2, 1))   # b = e12
    cols = action_columns(m2, cand.w.coords)

    def act(vec):
        return apply_columns(F2, cols, vec)

    # D(r) = r b - b r: D(e22) = e12, D(e11) = -e12 = e12, D(e12) = 0
    assert act(_basis(m2, 3)) == _basis(m2, 1)
    assert act(_basis(m2, 0)) == _basis(m2, 1)
    assert act(_basis(m2, 1)) == (0, 0, 0, 0)
    # additivity of the induced map
    s = F2.reduce_vector([a + b for a, b in zip(_basis(m2, 0), _basis(m2, 3))])
    assert act(s) == F2.reduce_vector(
        [a + b for a, b in zip(act(_basis(m2, 0)), act(_basis(m2, 3)))])


def test_derivation_rejects_non_leibniz():
    m2 = matrix_algebra(2, F2)
    w = TensorElement.from_pairs(F2, 4, [_basis(m2, 0)], [_basis(m2, 0)])
    verdict = check_derivation_generic(DerivationCandidate(m2, w))
    assert not verdict.passed
    with pytest.raises(ValidationFailure, match="^candidate fails the generic Leibniz identity$"):
        extract_derivation_element(DerivationCandidate(m2, w))


def test_derivation_oracle_implication_at_random():
    rng = random.Random(23)
    m2 = matrix_algebra(2, F2)
    tp3 = truncated_polynomial_algebra(F3)
    for alg in (m2, tp3):
        p = alg.field.char
        for _ in range(200):
            coords = [rng.randrange(p) for _ in range(alg.dim ** 2)]
            cand = DerivationCandidate(
                alg, TensorElement(alg.field, alg.dim, coords))
            verdict = check_derivation_generic(cand)  # raises on a broken implication
            if verdict.passed:
                assert verdict.details["induced_map_is_derivation"]


def test_degenerate_tensor_passes_oracle_only():
    # z (x) z induces the zero map (a derivation) without having generic form
    tp3 = truncated_polynomial_algebra(F3)
    w = TensorElement.from_pairs(F3, 2, [(0, 1)], [(0, 1)])
    verdict = check_derivation_generic(DerivationCandidate(tp3, w))
    assert not verdict.passed
    assert verdict.details == {"induced_map_is_derivation": True}


def test_derivation_check_keeps_no_table_of_triple_products():
    # diagonal GF(2)^48: a table of the d^4 = 5.3 million triple products
    # e_i e_k e_j would take tens of MB; R[eps]'s rows hold only the 3d
    # nonzero products of its basis vectors
    d = 48
    alg = StructAlgebra(F2, [[{i: 1} if i == j else {} for j in range(d)] for i in range(d)],
                        [1] * d)
    cand = inner_derivation_of(alg, [i % 2 for i in range(d)])
    tracemalloc.start()
    try:
        verdict = check_derivation_generic(cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.details["induced_map_is_derivation"]
    assert peak < 8 << 20


def test_one_derivation_candidate_builds_r_eps_only():
    # check-deriv and extract-deriv read m(w) off the product rows; the d x d^2
    # table of e_i e_j (about 1.7 MB here) is left to the scans' screens
    d = 48
    alg = StructAlgebra(F2, [[{i: 1} if i == j else {} for j in range(d)] for i in range(d)],
                        [1] * d)
    cand = inner_derivation_of(alg, [i % 2 for i in range(d)])
    tracemalloc.start()
    try:
        verdict = check_derivation_generic(cand)
        b = extract_derivation_element(cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and len(b) == d
    assert alg._pair_cache is None and alg._dual_cache is not None
    # measured peak: 61 KB
    assert peak < 256 << 10


def test_extraction_checks_the_rebuilt_tensor(monkeypatch):
    m2 = matrix_algebra(2, F2)
    cand = inner_derivation_of(m2, _basis(m2, 1))
    monkeypatch.setattr(tensoralg, "_commutator_tensor", lambda alg, b: (0,) * 16)
    with pytest.raises(TheoremViolation, match="does not rebuild the tensor"):
        extract_derivation_element(cand)


def test_extraction_checks_the_normalization(monkeypatch):
    m2 = matrix_algebra(2, F2)
    cand = inner_derivation_of(m2, _basis(m2, 1))
    monkeypatch.setattr(m2, "phi", lambda vec: 1)
    with pytest.raises(TheoremViolation, match="is not phi-normalized"):
        extract_derivation_element(cand)


def test_induced_endomorphism_checks_the_induced_map(monkeypatch):
    # f read as the zero map for the pair gives the zero map, which is not unital
    m2 = matrix_algebra(2, F3)
    cand = EndoCandidate.from_unit(m2, (1, 1, 0, 1))
    f = AlgebraHom.identity(m2)
    monkeypatch.setattr(f, "apply", lambda vec: (0,) * 4)
    with pytest.raises(TheoremViolation, match="induced map is not an algebra endomorphism"):
        induced_endomorphism(cand, f)


def test_algebra_hom_over_qq_compares_past_the_unit():
    # f(e12) = 3/2 e12 keeps the unit e11 + e22 and e11 e12 = e12, but not
    # e12 e21 = e11
    m2q = matrix_algebra(2, QQ)
    cols = [list(_basis(m2q, k)) for k in range(4)]
    AlgebraHom(m2q, m2q, cols)
    cols[1][1] += Fraction(1, 2)
    with pytest.raises(ValidationFailure, match=r"^multiplicativity fails at \(e1, e2\)$"):
        AlgebraHom(m2q, m2q, cols)


def test_induced_endomorphism_checks_the_qq_columns(monkeypatch):
    # one entry off by 1/2 in a column the unit does not reach
    m2q = matrix_algebra(2, QQ)
    cand = EndoCandidate.from_unit(m2q, (2, 1, 1, 3))
    build = tensoralg._induced_columns

    def off_by_half(target, fa, fb):
        cols = build(target, fa, fb)
        cols[1] = (cols[1][0] + Fraction(1, 2),) + cols[1][1:]
        return cols

    induced_endomorphism(cand, AlgebraHom.identity(m2q))
    monkeypatch.setattr(tensoralg, "_induced_columns", off_by_half)
    with pytest.raises(TheoremViolation, match="induced map is not an algebra endomorphism"):
        induced_endomorphism(cand, AlgebraHom.identity(m2q))


def test_extraction_round_trip_over_qq():
    rng = random.Random(31)
    m2q = matrix_algebra(2, QQ)
    for _ in range(20):
        b = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(4))
        cand = inner_derivation_of(m2q, b)
        extracted = extract_derivation_element(cand)
        phi_b = m2q.phi(b)
        expected = QQ.reduce_vector([x - phi_b * u for x, u in zip(b, m2q.unit)])
        assert extracted == expected


def test_enumerate_frozen_counts():
    # M2(GF(2)) and GF(3)[z]/(z^2) are pinned field by field in FROZEN_SCANS
    ut = upper_triangular_algebra(2, F2)
    assert enumerate_inner_endos(ut).count == 2
    assert enumerate_inner_derivations(ut).count == 4

    assert enumerate_inner_endos(field_algebra(F2)).count == 1
    assert enumerate_inner_endos(field_algebra(F3)).count == 1


def test_enumerate_guards():
    with pytest.raises(BudgetExceeded):
        enumerate_inner_endos(matrix_algebra(2, F2), budget=10)
    with pytest.raises(BudgetExceeded):
        enumerate_inner_endos(matrix_algebra(2, QQ))
    with pytest.raises(ValidationFailure, match="^dim 9 exceeds the enumeration cap 8$"):
        enumerate_inner_endos(matrix_algebra(3, F2))
    with pytest.raises(BudgetExceeded):
        enumerate_inner_derivations(truncated_polynomial_algebra(GF(5)), budget=100)


def test_json_round_trip():
    for alg in (matrix_algebra(2, F2), truncated_polynomial_algebra(QQ)):
        data = alg.to_json()
        again = StructAlgebra.from_json(data)
        assert again == alg
        assert again.names == alg.names
        assert again.one_complement == alg.one_complement
    with pytest.raises(ValidationFailure, match="^algebra: missing key 'field'$"):
        StructAlgebra.from_json({"dim": 1})


def _gf4():
    """GF(4) over GF(2) on the basis {1, a} with a^2 = a + 1."""
    return StructAlgebra(F2, [[{0: 1}, {1: 1}], [{1: 1}, {0: 1, 1: 1}]], [1, 0], ["1", "a"])


def _gf2_cubed():
    """GF(2) x GF(2) x GF(2) on its three idempotents."""
    structure = [[{i: 1} if i == j else {} for j in range(3)] for i in range(3)]
    return StructAlgebra(F2, structure, [1, 1, 1])


def _digest(passing):
    return hashlib.sha256(json.dumps([list(c) for c in passing]).encode()).hexdigest()


def _change_basis(alg, cols):
    """alg on the basis f_i = cols[i], given in the coordinates of the old basis."""
    n = len(cols)
    aug = [[c[i] for c in cols] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    to_new = list(zip(*(row[n:] for row in rref_raw(alg.field, aug)[0])))

    def convert(vec):
        return list(apply_columns(alg.field, to_new, vec))

    structure = [[convert(alg.mul_vec(x, y)) for y in cols] for x in cols]
    return StructAlgebra(alg.field, structure, convert(alg.unit))


def _moved_ut2():
    """UT2(GF(3)) on a dense basis: its unit (2, 2, 1) is no coordinate
    vector and its structure constants include 2."""
    return _change_basis(upper_triangular_algebra(2, F3), [(1, 2, 1), (0, 1, 2), (2, 0, 1)])


# Every field of the EnumResult, frozen from the scans as they stood before
# they were moved onto raw values (the moved UT2 from the scans as they
# stood before the half-image screen): (count, brute_forced, unit_count,
# agreement, oracle_count, oracle_exact, sha256 of the passing list).
FROZEN_SCANS = {
    "M2(GF(2))": (lambda: matrix_algebra(2, F2), {
        "endo": (6, True, 6, True, None, None,
                 "12402244d83ee67c712e656b2a5e7c0fc31f92e2ca2f4973ac5d0b81cf3054af"),
        "deriv": (8, True, 8, True, 8, True,
                  "031e89263e1ab91e951c2e36f6d033c656ab6342e8e2e316f1d51d9907daf6d0"),
    }),
    "UT2(GF(3))": (lambda: upper_triangular_algebra(2, F3), {
        "endo": (6, True, 12, True, None, None,
                 "fbd4212b2d78d2c219bfba94307502581041dd0c3b9186de2c7430a7b76785d2"),
        "deriv": (9, True, 9, True, 729, False,
                  "8009b90ecc2272f89619fcb4d34fd4a008551a1abfca7db5d7f2d5a879f3bdb7"),
    }),
    "GF(4)": (_gf4, {
        "endo": (3, True, 3, True, None, None,
                 "dff7795db83157cb3b8f905366517f2de893efcf5ecb969521951da126bb1ab0"),
        "deriv": (2, True, 2, True, 4, False,
                  "3c729c74fb5f1b7b2e3da933bc2f4cc17108257cb16e0d4758073c83fb75c39c"),
    }),
    "UT2(GF(3)) moved": (_moved_ut2, {
        "endo": (6, True, 12, True, None, None,
                 "902395b86bbcc3f483980ce96179a40978881546404f4f06624909009e691f97"),
        "deriv": (9, True, 9, True, 729, False,
                  "dff9a8311c2e90cf2a78a651259d28c40d786b36c23abb5b56a47f6aaafefbcb"),
    }),
    "GF(3)[z]/(z^2)": (lambda: truncated_polynomial_algebra(F3), {
        "endo": (3, True, 6, True, None, None,
                 "8240537d86c9caa095153acc9cbb0b1e7d3b99e373f8caa5e8d2bb6cd937f8b6"),
        "deriv": (3, True, 3, True, 9, False,
                  "17f234bd1cd8ce165b7c53d2e196fa481ef2d2cdd7760944c7888daccb6637f7"),
    }),
    "GF(2)^3": (_gf2_cubed, {
        "endo": (1, True, 1, True, None, None,
                 "3dea5d89744e845d9843f0e584f3864863b9c2ffeace6057345039bb5f170789"),
        "deriv": (4, True, 4, True, 64, False,
                  "3596fafd57c5597ad40572590e134f80ff2b2c02c6f8a1808342ccb99203c42e"),
    }),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SCANS))
def test_scans_match_frozen_results(name):
    build, frozen = FROZEN_SCANS[name]
    alg = build()
    for kind, scan in (("endo", enumerate_inner_endos), ("deriv", enumerate_inner_derivations)):
        res = scan(alg)
        got = (res.count, res.brute_forced, res.unit_count, res.agreement,
               res.oracle_count, res.oracle_exact, _digest(res.passing))
        assert got == frozen[kind], (name, kind)


def test_scans_survive_a_change_of_basis():
    # dense structure constants other than 0 and 1, and a unit off the basis
    alg = upper_triangular_algebra(2, F3)
    moved = _moved_ut2()
    assert any(c == 2 for row in moved.prod for entry in row for c in entry.values())
    assert moved.unit.count(0) == 0
    for scan in (enumerate_inner_endos, enumerate_inner_derivations):
        a, b = scan(alg), scan(moved)
        assert (b.count, b.unit_count, b.oracle_count, b.oracle_exact) == (
            a.count, a.unit_count, a.oracle_count, a.oracle_exact)


def test_scan_cross_checks_unit_sum_against_minimal_pair(monkeypatch):
    # every tensor with m(w) = 1 must also pass the unit sum on its minimal pair
    monkeypatch.setattr(tensoralg, "_unit_sum_ok", lambda alg, a_list, b_list: False)
    with pytest.raises(InconsistentRoutes, match="minimal pair"):
        enumerate_inner_endos(truncated_polynomial_algebra(F3))


def _patch_solves(monkeypatch, alg, answers=None):
    """Route alg._unit_certificate through a recorder, answering u from
    answers if it is there; returns the list of vectors solved."""
    solve = alg._unit_certificate
    solved = []

    def recorded(u):
        solved.append(u)
        return answers[u] if answers and u in answers else solve(u)

    monkeypatch.setattr(alg, "_unit_certificate", recorded)
    return solved


def test_unit_route_solves_once_per_class(monkeypatch):
    alg = matrix_algebra(2, GF(7))
    truth = {u: alg.unit_inverse(u) for u in itertools.product(range(7), repeat=4)}
    solved = _patch_solves(monkeypatch, alg)
    products = set()
    annihilated = set()
    mul_vec = alg.mul_vec

    def recorded_product(u, v):
        out = mul_vec(u, v)
        if out == alg.unit:
            products.add((u, v))
        if not any(out) and any(v):
            annihilated.add(u)
        return out

    monkeypatch.setattr(alg, "mul_vec", recorded_product)
    res = enumerate_inner_endos(alg)
    assert (len(solved), res.unit_count, res.count) == (401, 2016, 336)
    assert len(set(solved)) == 401
    # a unit not solved (the elimination checks x u = 1) is confirmed by
    # both products; a non-unit not solved by a nonzero right annihilator
    units = {u for u, x in truth.items() if x is not None}
    assert units - set(solved) <= {u for u, v in products if (v, u) in products}
    assert len(set(truth) - units - set(solved)) == 320
    assert set(truth) - units - set(solved) <= annihilated
    assert {u for u in solved if truth[u] is None} <= annihilated


def test_unit_certificate_gives_an_inverse_or_an_annihilator():
    alg = truncated_polynomial_algebra(F3)
    for u in itertools.product(range(3), repeat=2):
        x, z = alg._unit_certificate(u)
        if u[0]:
            assert z is None and alg.mul_vec(u, x) == alg.unit == alg.mul_vec(x, u)
        else:
            assert x is None and any(z) and not any(alg.mul_vec(u, z))
    # over QQ: the matrix [[1, 2], [2, 4]] kills [[-2, 0], [1, 0]] on the right
    m2q = matrix_algebra(2, QQ)
    x, z = m2q._unit_certificate(tuple(map(QQ.coerce, (1, 2, 2, 4))))
    assert x is None and z == (-2, 0, 1, 0)


def test_unit_certificate_checks_the_inverse_on_both_sides(monkeypatch):
    # a product that never gives 1 rejects the solution of u x = 1
    alg = truncated_polynomial_algebra(F3)
    monkeypatch.setattr(alg, "mul_vec", lambda u, v: (0, 0))
    with pytest.raises(InconsistentRoutes,
                       match=r"^unit route: \(1, 0\) solves u x = 1 for u = \(1, 0\), "
                             r"but x u is not 1$"):
        alg.unit_inverse((1, 0))


def test_unit_route_builds_one_tensor_per_class(monkeypatch):
    # c u (x) c^-1 u^-1 is u (x) u^-1: one build per K*-class of units
    alg = matrix_algebra(2, GF(7))
    built = []
    build = tensoralg.tensor_of_pairs

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(tensoralg, "tensor_of_pairs", counted)
    res = enumerate_inner_endos(alg)
    assert (len(built), res.unit_count, res.count) == (336, 2016, 336)


def test_unit_route_counts_a_unit_zero(monkeypatch):
    # 0 taken for a unit: 7 units against |K*| = 2
    alg = truncated_polynomial_algebra(F3)
    _patch_solves(monkeypatch, alg, {(0, 0): ((1, 0), None)})
    with pytest.raises(TheoremViolation, match=r"^unit count not divisible by \|K\*\|$"):
        enumerate_inner_endos(alg)


def test_unit_route_checks_the_scalar_collapse(monkeypatch):
    # over GF(2), 0 taken for a unit with inverse 1 and 1 + z given the
    # inverse 0: 3 units, but 0 (x) 1 and (1 + z) (x) 0 are one tensor
    alg = truncated_polynomial_algebra(GF(2))
    _patch_solves(monkeypatch, alg, {(0, 0): ((1, 0), None), (1, 1): ((0, 0), None)})
    with pytest.raises(TheoremViolation,
                       match="^scalar-collapse count mismatch in the unit route$"):
        enumerate_inner_endos(alg)


def test_unit_route_confirms_a_scaled_inverse(monkeypatch):
    # a wrong answer for 1 + z (it is 1 - z) gives 2 + 2z the inverse 2 + 2z,
    # which the two products reject
    alg = truncated_polynomial_algebra(F3)
    _patch_solves(monkeypatch, alg, {(1, 1): ((1, 1), None)})
    with pytest.raises(InconsistentRoutes,
                       match=r"^unit route: \(2, 2\) times its inverse \(2, 2\) is not 1$"):
        enumerate_inner_endos(alg)


@pytest.mark.parametrize("witness, u", [((0, 0), (0, 1)), ((0, 1), (0, 2))])
def test_unit_route_confirms_every_annihilator(witness, u, monkeypatch):
    # the witness of z is z (z z = 0); the zero vector, which kills
    # everything, is refused at z itself, and a product that does not
    # vanish is caught at the multiple 2z, which a check of the
    # representative alone would miss (the guard test gives z the witness 1)
    alg = truncated_polynomial_algebra(F3)
    solve = alg._unit_certificate
    mul_vec = alg.mul_vec
    if u == (0, 2):
        monkeypatch.setattr(alg, "mul_vec",
                            lambda a, b: (1, 0) if a == (0, 2) and b == witness else mul_vec(a, b))
    else:
        _patch_solves(monkeypatch, alg, {(0, 1): (None, witness)})
    assert solve((0, 1)) == (None, (0, 1))
    with pytest.raises(InconsistentRoutes,
                       match=r"^unit route: %s is not a nonzero right annihilator of %s$"
                             % (re.escape(repr(witness)), re.escape(repr(u)))):
        enumerate_inner_endos(alg)


def test_endo_routes_over_qq():
    m2q = matrix_algebra(2, QQ)
    u = tuple(QQ.coerce(c) for c in (1, 2, 3, 4))     # inverse has entries -2, 1, 3/2, -1/2
    assert any(c.denominator != 1 for c in m2q.unit_inverse(u))
    cand = EndoCandidate.from_unit(m2q, u)
    assert check_endo_conditions(cand).passed
    assert classify_inner_endo_algebra(cand).kind == "conjugation"
    assert tuple(action_columns(m2q, cand.w.coords)) == AlgebraHom.conjugation(m2q, u).cols
    # unit sum holds, but b_1 a_1 = e11 is not 1
    half, two, one = QQ.coerce("1/2"), QQ.coerce(2), QQ.one
    zero = QQ.zero
    a = [(two, zero, zero, zero), (zero, zero, zero, one)]
    b = [(half, zero, zero, zero), (zero, zero, zero, one)]
    cand = EndoCandidate.from_pairs(m2q, a, b)
    verdict = check_endo_conditions(cand)
    assert cand.n == 2
    assert not verdict.passed and verdict.reason == "biorthogonality"


def test_derivation_routes_over_qq():
    m2q = matrix_algebra(2, QQ)
    b = tuple(QQ.coerce(c) for c in ("1/2", "-3/4", "5/3", "2"))
    cand = inner_derivation_of(m2q, b)
    verdict = check_derivation_generic(cand)
    assert verdict.passed and verdict.details["induced_map_is_derivation"]
    coords = list(cand.w.coords)
    coords[1] += QQ.coerce("1/3")
    nudged = DerivationCandidate(m2q, TensorElement(QQ, 4, coords))
    assert not check_derivation_generic(nudged).passed


def _coerce_calls(monkeypatch, run):
    """How many times run() calls Field.coerce."""
    calls = []
    coerce = Field.coerce

    def counting(self, value):
        calls.append(value)
        return coerce(self, value)

    with monkeypatch.context() as patch:
        patch.setattr(Field, "coerce", counting)
        run()
    return len(calls)


def test_scans_work_on_raw_values(monkeypatch):
    # the scans never convert a scalar, R[eps] included
    for p in (2, 5):
        alg = truncated_polynomial_algebra(GF(p))
        assert _coerce_calls(monkeypatch, lambda: enumerate_inner_endos(alg)) == 0
        assert _coerce_calls(monkeypatch, lambda: enumerate_inner_derivations(alg)) == 0


def _every_tensor(alg):
    return list(itertools.product(range(alg.field.char), repeat=alg.dim ** 2))


def _screened(alg, rows, target):
    heads, tails = tensoralg._half_image_screen(alg, rows, target, len(rows))
    return [head + tail for head, need in heads for _, tail in tails.get(need, ())]


def test_half_image_screen_finds_exactly_the_m_equals_tensors():
    # with an empty key every tail shares one list, and head + tail runs over
    # every tensor in lexicographic order; keyed on the whole image, the
    # images match exactly where m(w) is the target
    for alg in (matrix_algebra(2, F2), _moved_ut2()):
        every = _every_tensor(alg)
        pair = tensoralg._pair_table(alg)
        for target in (alg.unit, (0,) * alg.dim):
            heads, tails = tensoralg._half_image_screen(alg, pair, target, 0)
            assert [head + tail for head, _ in heads for _, tail in tails[()]] == every
            assert _screened(alg, pair, target) == [
                w for w in every if tensoralg._m_equals(alg, w, target)]


def test_leibniz_row_screen_agrees_with_the_identity_on_every_tensor():
    for alg in (matrix_algebra(2, F2), _moved_ut2()):
        rows = tensoralg._leibniz_rows(alg)
        passing = [w for w in _every_tensor(alg) if tensoralg._leibniz_tensor_ok(alg, w)]
        assert len(passing) == alg.field.char ** (alg.dim - 1)
        assert _screened(alg, rows, (0,) * len(rows)) == passing


def test_reverse_product_screen_keeps_every_biorthogonal_tensor():
    # a biorthogonal minimal pair of length n has m'(w) = sum_t b_t a_t = n 1
    for alg in (_gf2_cubed(), _moved_ut2()):
        d = alg.dim
        rows = tensoralg._reverse_product_rows(alg)
        screened = set(_screened(alg, rows, (0,) * len(rows)))
        every = _every_tensor(alg)
        assert len(screened) < len(every)
        biorthogonal = [w for w in every if tensoralg._delta_ok(
            alg, *tensoralg._minimal_pair_raw(alg.field, d, [w[i * d:(i + 1) * d] for i in range(d)]))]
        assert len(biorthogonal) > 1
        assert screened.issuperset(biorthogonal)


def test_derivation_scan_cross_checks_leibniz_against_its_screen(monkeypatch):
    leibniz = tensoralg._leibniz_tensor_ok
    monkeypatch.setattr(tensoralg, "_leibniz_tensor_ok", lambda alg, w: not leibniz(alg, w))
    with pytest.raises(InconsistentRoutes, match="Leibniz-row screen"):
        enumerate_inner_derivations(truncated_polynomial_algebra(F3))


def test_endo_scan_cross_checks_the_reverse_product_screen(monkeypatch):
    # a wrong row asking coordinate 0 to vanish drops 1 (x) 1, which the unit route finds
    monkeypatch.setattr(tensoralg, "_reverse_product_rows",
                        lambda alg: [(1,) + (0,) * (alg.dim ** 2 - 1)])
    with pytest.raises(InconsistentRoutes, match="exhaustive scan and unit route disagree"):
        enumerate_inner_endos(matrix_algebra(2, F2))


def _kernel(field, rows, ncols):
    reduced, pivots = rref_raw(field, [list(r) for r in rows])
    return kernel_raw(field, reduced, pivots, ncols)


def _moved_ut2_gf2():
    """UT2(GF(2)) under a seeded random change of basis."""
    rng = random.Random(21)
    while True:
        cols = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(3)]
        if rank_raw(F2, cols) == 3:
            return _change_basis(upper_triangular_algebra(2, F2), cols)


def test_reduced_rows_keep_the_kernel():
    for alg in (matrix_algebra(2, F2), _moved_ut2(), truncated_polynomial_algebra(F3)):
        n = alg.dim ** 2
        for rows in (tensoralg._leibniz_rows(alg), tensoralg._dual_number_rows(alg)):
            assert len(rows) == alg.dim ** 3
            basis = tensoralg._row_basis(alg.field, rows)
            assert len(basis) <= n
            assert _kernel(alg.field, basis, n) == _kernel(alg.field, rows, n)


@pytest.mark.parametrize("build, m_zero, accepted", [
    (lambda: matrix_algebra(2, F2), 4096, 8),
    (lambda: upper_triangular_algebra(2, F3), 729, 729),
    (lambda: truncated_polynomial_algebra(F3), 9, 9),
    (_moved_ut2_gf2, 64, 64),
])
def test_oracle_row_screen_agrees_with_the_oracle(build, m_zero, accepted):
    # on every tensor with m(w) = 0 the oracle's rows decide as the oracle does
    alg = build()
    pair = tensoralg._pair_table(alg)
    rows = [*pair, *tensoralg._row_basis(alg.field, tensoralg._dual_number_rows(alg))]
    candidates = _screened(alg, pair, (0,) * alg.dim)
    oracle = [w for w in candidates if tensoralg._dual_number_ok(alg, w)]
    assert (len(candidates), len(oracle)) == (m_zero, accepted)
    assert _screened(alg, rows, (0,) * len(rows)) == oracle


def test_derivation_scan_cross_checks_the_oracle_against_its_screen(monkeypatch):
    # the oracle runs on each tensor its screen or the identity passes: 0
    # passes both, the other only the screen
    alg = truncated_polynomial_algebra(F3)
    oracle = tensoralg._dual_number_ok
    oracle_only = next(w for w in _every_tensor(alg) if oracle(alg, w)
                       and not tensoralg._leibniz_tensor_ok(alg, w))
    for flip in ((0,) * 4, oracle_only):
        with monkeypatch.context() as patch:
            patch.setattr(tensoralg, "_dual_number_ok",
                          lambda alg, w, flip=flip: oracle(alg, w) != (w == flip))
            with pytest.raises(InconsistentRoutes, match="oracle-row screen"):
                enumerate_inner_derivations(alg)
