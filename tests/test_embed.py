import itertools

import pytest

from innerscope import exactmath, tensoralg
from innerscope.exactmath import GF, QQ, rank_raw, rref_raw
from innerscope.tensoralg import (
    DimensionCap,
    EndoCandidate,
    TensorElement,
    ValidationFailure,
    action_columns,
    centralizer_basis,
    field_algebra,
    induced_endomorphism,
    matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from innerscope.embed import (
    ZeroInput,
    block1_index,
    block2_index,
    build_embedding,
    central_witness,
    verify_injectivity_via_embedding,
)


def test_scalar_base_three_dimensional():
    tt = build_embedding(field_algebra(GF(2)))
    total = tt.total
    assert total.dim == 3
    t = tt.t_element
    t2 = total.mul_vec(t, t)
    assert t2 == total.basis_vector(2)
    assert total.mul_vec(t2, t) == (GF(2).zero,) * 3
    assert total.unit == total.basis_vector(0)


def test_dimension_counts():
    assert build_embedding(matrix_algebra(2, GF(2))).total.dim == 36
    assert build_embedding(truncated_polynomial_algebra(QQ)).total.dim == 10


def test_dimension_cap():
    with pytest.raises(DimensionCap):
        build_embedding(matrix_algebra(3, GF(2)))


def test_twist_relation():
    # t * f(r) = (1 (x) r) t for every basis element of the base
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    total = tt.total
    field = m2.field
    for j in range(m2.dim):
        lhs = total.mul_vec(tt.t_element, tt.f(m2.basis_vector(j)))
        expected = [field.zero] * total.dim
        for i, ci in enumerate(m2.unit):
            if ci != field.zero:
                expected[block1_index(m2.dim, i, j)] = ci
        assert lhs == tuple(expected)
        # and f(r) * t keeps r on the left
        rhs = total.mul_vec(tt.f(m2.basis_vector(j)), tt.t_element)
        expected = [field.zero] * total.dim
        for i, ci in enumerate(m2.unit):
            if ci != field.zero:
                expected[block1_index(m2.dim, j, i)] = ci
        assert rhs == tuple(expected)


def test_embedding_is_a_monomorphism():
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    assert rank_raw(GF(2), tt.embed.cols) == 4
    for i in range(m2.dim):
        for j in range(m2.dim):
            u, v = m2.basis_vector(i), m2.basis_vector(j)
            assert tt.f(m2.mul_vec(u, v)) == tt.total.mul_vec(tt.f(u), tt.f(v))


def test_central_witness_m2():
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    c, report = central_witness(tt, (0, 1, 0, 0))
    assert report["passed"]
    nonzero = [k for k, v in enumerate(c) if v != GF(2).zero]
    assert nonzero == [block2_index(m2.dim, 0, 1), block2_index(m2.dim, 3, 1)]


def test_central_witness_every_nonzero_element():
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    zero = GF(2).zero
    for vec in itertools.product(range(2), repeat=4):
        if all(v == zero for v in vec):
            continue
        _, report = central_witness(tt, vec)
        assert report["passed"], vec


def test_central_witness_for_unit_is_t_squared():
    tt = build_embedding(truncated_polynomial_algebra(QQ))
    c, report = central_witness(tt, tt.base.unit)
    assert report["passed"]
    assert c == tt.total.mul_vec(tt.t_element, tt.t_element)


def test_central_witness_rejects_zero():
    tt = build_embedding(field_algebra(GF(2)))
    with pytest.raises(ZeroInput):
        central_witness(tt, (0,))
    with pytest.raises(ValidationFailure):
        central_witness(tt, (1, 0))


def _centralizer_of_embedded_base(tt):
    return centralizer_basis(tt.total, [tt.f(tt.base.basis_vector(i)) for i in range(tt.base.dim)])


def test_centralizer_dimensions():
    assert len(_centralizer_of_embedded_base(build_embedding(field_algebra(GF(2))))) == 3
    assert len(_centralizer_of_embedded_base(build_embedding(truncated_polynomial_algebra(QQ)))) == 8
    assert len(_centralizer_of_embedded_base(build_embedding(matrix_algebra(2, GF(2))))) == 9


def test_identity_candidate_induces_identity():
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    cand = EndoCandidate.from_unit(m2, m2.unit)
    induced = induced_endomorphism(cand, tt.embed)
    assert induced.cols == tuple(map(tt.total.basis_vector, range(36)))
    report = verify_injectivity_via_embedding(cand, tt)
    assert report["passed"]
    assert report["centralizer_dim"] == 9


def test_all_m2_inner_endos_injective_on_s(monkeypatch):
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    units = [v for v in itertools.product(range(2), repeat=4) if m2.is_unit(v)]
    assert len(units) == 6
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return rref_raw(field, rows)

    monkeypatch.setattr(exactmath, "rref_raw", counted)
    monkeypatch.setattr(tensoralg, "rref_raw", counted)
    for u in units:
        cand = EndoCandidate.from_unit(m2, u)
        calls.clear()
        report = verify_injectivity_via_embedding(cand, tt)
        assert report["passed"], u
        assert report["kernel_rank"] == 0
        # one row reduction for the induced map, one for the centralizer
        assert len(calls) == 2


def test_commutative_base_nontrivial_on_s():
    # conjugation by 1 + z is the identity on the base but not on S
    tp = truncated_polynomial_algebra(QQ)
    tt = build_embedding(tp)
    cand = EndoCandidate.from_unit(tp, (QQ.one, QQ.one))
    assert action_columns(tp, cand.w.coords) == [tp.basis_vector(0), tp.basis_vector(1)]
    induced = induced_endomorphism(cand, tt.embed)
    assert induced.cols != tuple(map(tt.total.basis_vector, range(10)))
    report = verify_injectivity_via_embedding(cand, tt)
    assert report["passed"]
    assert report["centralizer_dim"] == 8


def test_rejects_failing_or_foreign_candidates():
    m2 = matrix_algebra(2, GF(2))
    tt = build_embedding(m2)
    field = GF(2)
    e11, e22 = m2.basis_vector(0), m2.basis_vector(3)
    w = TensorElement.from_pairs(field, 4, [e11, e22], [e11, e22])
    failing = EndoCandidate.from_tensor(m2, w)
    with pytest.raises(ValidationFailure):
        verify_injectivity_via_embedding(failing, tt)
    ut2 = upper_triangular_algebra(2, GF(2))
    other = EndoCandidate.from_unit(ut2, ut2.unit)
    with pytest.raises(ValidationFailure):
        verify_injectivity_via_embedding(other, tt)
