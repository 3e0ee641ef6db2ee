import random
import re
import sys
import tracemalloc

import pytest

from innerscope import rewrite
from innerscope.exactmath import GF, QQ
from innerscope.rewrite import (
    BudgetExceeded,
    InternalError,
    LieData,
    NcPolynomial,
    RewriteSystem,
    ValidationFailure,
    abelian_lie,
    ad_power_check,
    augmentation,
    check_endo_fp,
    fp_witness_checks,
    heisenberg,
    leavitt_system,
    pbw_system,
    scalar_unit_search,
    sl2,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def mono(field, word, coeff=1):
    return NcPolynomial.monomial(field, word, coeff)


def test_polynomial_arithmetic():
    p = mono(QQ, ("a", "b")) + mono(QQ, ("b",), 2)
    q = mono(QQ, ("b",), -2) + NcPolynomial.one(QQ)
    assert (p + q).terms == {("a", "b"): 1, (): 1}
    assert (p - p).is_zero()
    prod = mono(QQ, ("a",)) * mono(QQ, ("b",), 3)
    assert prod.terms == {("a", "b"): 3}
    assert max(map(len, p.terms)) == 2
    assert NcPolynomial.zero(QQ).terms == {}
    assert p.terms[("b",)] == 2
    assert augmentation(q) == 1
    assert augmentation(p) == 0


def test_polynomial_parse():
    gens = ["x1", "x2", "y1", "y2"]
    p = NcPolynomial.parse(QQ, "x1*y1 - 1", gens)
    assert p.terms == {("x1", "y1"): 1, (): -1}
    q = NcPolynomial.parse(QQ, "2*x1^2 + 1/2", gens)
    assert q.terms == {("x1", "x1"): 2, (): QQ.coerce("1/2")}
    r = NcPolynomial.parse(F3, "-x1 + 2*y2*x1", gens)
    assert r.terms == {("x1",): 2, ("y2", "x1"): 2}
    assert NcPolynomial.parse(QQ, "0", gens).is_zero()
    with pytest.raises(ValidationFailure, match=r"^unknown generator 'w3'$"):
        NcPolynomial.parse(QQ, "w3", gens)
    # a numeric factor is an integer or n/d, which over GF(p) is n times d^-1
    assert NcPolynomial.parse(GF(5), "1/2*x1", gens).terms == {("x1",): 3}
    for factor in ("1e10000000", "1.5", "2E3"):
        with pytest.raises(ValidationFailure, match="^unknown generator %r$" % factor):
            NcPolynomial.parse(QQ, factor + "*x1", gens)
    with pytest.raises(ValidationFailure, match="^empty polynomial text$"):
        NcPolynomial.parse(QQ, "", gens)
    with pytest.raises(ValidationFailure, match=r"^dangling sign in 'x1 \+ - x2'$"):
        NcPolynomial.parse(QQ, "x1 + - x2", gens)
    # -(-x1) is no -x1: a sign after the leading sign dangles too
    for text in ("--x1", " -+x1", "+-x1", "++x1"):
        with pytest.raises(ValidationFailure, match="^%s$" % re.escape("dangling sign in %r" % text)):
            NcPolynomial.parse(QQ, text, gens)
    for text in ("x1^-1", "x1^+2"):
        with pytest.raises(ValidationFailure, match=re.escape("signed exponent in %r" % text)):
            NcPolynomial.parse(QQ, text, gens)


def _per_character_pieces(text):
    """The (sign, term) pieces of text by the per-character tokenizer that
    NcPolynomial.parse once used, with its messages; the reference below."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValidationFailure("empty polynomial text")
    pieces = []
    sign = 1
    token = ""
    for pos, ch in enumerate(stripped):
        if ch in "+-":
            if token.endswith("^"):
                raise ValidationFailure("signed exponent in %r" % text)
            if token:
                pieces.append((sign, token))
                token = ""
            elif pieces or pos:
                raise ValidationFailure("dangling sign in %r" % text)
            sign = -1 if ch == "-" else 1
        else:
            token += ch
    if token:
        pieces.append((sign, token))
    else:
        raise ValidationFailure("trailing operator in %r" % text)
    return pieces


def _outcome(parse):
    try:
        return parse()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_parse_tokenizes_like_the_per_character_loop():
    # a term holds no sign, so parsing each piece alone and summing them is
    # the whole parse with the reference tokenizer
    gens = ["x1", "x2", "y1"]
    alphabet = ["x1", "y1", "x2", "w", "1", "2", "0", "1/2", "3/5", "1/0", "*", "*", "^", "^2",
                "^-", "+", "-", "+", "-", " ", "  "]
    rng = random.Random(71)
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
             for _ in range(1500)]
    errors = 0
    for field in (QQ, F5):
        def reference(text):
            total = NcPolynomial.zero(field)
            for sgn, term in _per_character_pieces(text):
                total = total + NcPolynomial.parse(field, term, gens).scale(sgn)
            return total

        for text in texts:
            got = _outcome(lambda: NcPolynomial.parse(field, text, gens))
            assert got == _outcome(lambda: reference(text)), text
            errors += isinstance(got, tuple)
    assert 0 < errors < 2 * len(texts)


def test_polynomial_json_round_trip():
    p = mono(QQ, ("a", "b"), "2/3") + NcPolynomial.one(QQ).scale(-1)
    data = p.to_json()
    assert NcPolynomial.from_json(QQ, data) == p
    q = mono(F3, ("a",), 2)
    assert NcPolynomial.from_json(F3, q.to_json()) == q


def test_system_validates_termination():
    x = "x"
    with pytest.raises(ValidationFailure, match=r"^rule x -> x\*x does not decrease the order$"):
        # length increases
        RewriteSystem(QQ, [x], [((x,), mono(QQ, (x, x)))])
    with pytest.raises(ValidationFailure, match="^rule x -> x does not decrease the order$"):
        # same word: not strictly decreasing
        RewriteSystem(QQ, [x], [((x,), mono(QQ, (x,)))])
    with pytest.raises(ValidationFailure, match="^empty rule left side$"):
        RewriteSystem(QQ, [x], [((), NcPolynomial.one(QQ))])
    with pytest.raises(ValidationFailure, match=r"^rule uses unknown generator 'y'$"):
        RewriteSystem(QQ, [x], [(("y",), NcPolynomial.zero(QQ))])
    with pytest.raises(ValidationFailure, match="^duplicate generator names$"):
        RewriteSystem(QQ, [x, x], [])
    # equal length but lexicographically smaller right side is fine
    rs = RewriteSystem(QQ, ["a", "b"], [(("b", "a"), mono(QQ, ("a", "b")))])
    assert rs.normal_form(mono(QQ, ("b", "a"))).terms == {("a", "b"): 1}


def test_leavitt_normal_forms():
    lv = leavitt_system(2, QQ)
    assert len(lv.rules) == 5
    nf = lv.normal_form
    assert nf(mono(QQ, ("y1", "x1"))) == NcPolynomial.one(QQ)
    assert nf(mono(QQ, ("y1", "x2"))).is_zero()
    assert nf(mono(QQ, ("x2", "y2"))).terms == {(): 1, ("x1", "y1"): -1}
    # irreducible words of degree <= 1
    assert list(lv.irreducible_words(1)) == [(), ("x1",), ("x2",), ("y1",), ("y2",)]
    assert not lv.preserves_augmentation
    assert len(leavitt_system(3, QQ).rules) == 10
    with pytest.raises(ValidationFailure, match="^need n >= 2$"):
        leavitt_system(1, QQ)


def test_leavitt_confluent():
    assert leavitt_system(2, QQ).is_confluent()
    assert leavitt_system(2, F2).is_confluent()
    assert leavitt_system(3, QQ).is_confluent()


def test_pbw_frozen_normal_form():
    rs = pbw_system(sl2(QQ))
    out = rs.normal_form(mono(QQ, ("f", "e", "h")))
    assert out.terms == {("e", "f", "h"): 1, ("h", "h"): -1}
    assert rs.is_confluent()
    assert rs.preserves_augmentation
    # ordered monomials of degree <= 2 over a 3-dimensional algebra: 1 + 3 + 6
    assert len(list(rs.irreducible_words(2))) == 10


def test_pbw_confluent_across_fields():
    for field in (QQ, F3, F5):
        lie = sl2(field)
        assert lie.jacobi_ok()
        assert pbw_system(lie).is_confluent()
    assert pbw_system(abelian_lie(3, QQ)).is_confluent()
    assert pbw_system(heisenberg(F2)).is_confluent()


def test_broken_jacobi_not_confluent():
    z, o = F5.zero, F5.one
    zero = (z, z, z)
    # sl2-like table with [h,e] perturbed: antisymmetric but not Jacobi
    brackets = [
        [zero, (z, z, o), (o, z, z)],
        [(z, z, F5.reduce(-o)), zero, (z, o, z)],
        [(F5.reduce(-o), z, z), (z, F5.reduce(-o), z), zero],
    ]
    lie = LieData(F5, brackets)
    assert not lie.jacobi_ok()
    failures = pbw_system(lie).confluence_check()
    assert failures
    first = failures[0]
    assert first.branch_i != first.branch_j
    assert len(first.word) == 3


def test_jacobi_iff_confluent_random():
    rng = random.Random(9)
    for _ in range(20):
        brackets = [[[F5.zero] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                vec = [rng.randrange(5) for _ in range(3)]
                brackets[i][j] = vec
                brackets[j][i] = [F5.reduce(-c) for c in vec]
        lie = LieData(F5, brackets)
        assert lie.jacobi_ok() == pbw_system(lie).is_confluent()


def test_strategy_independence():
    rng = random.Random(5)
    rs = pbw_system(sl2(QQ))
    lv = leavitt_system(2, QQ)
    sl2_f5 = pbw_system(sl2(F5))
    heis_f2 = pbw_system(heisenberg(F2))
    inputs = [
        (rs, mono(QQ, ("f", "e", "h")) + mono(QQ, ("h", "f", "e"), 2) + NcPolynomial.one(QQ)),
        (rs, mono(QQ, ("h", "h", "e", "f"))),
        (lv, mono(QQ, ("x2", "y2", "x2", "y2"))),
        (lv, mono(QQ, ("y2", "x2", "y1", "x1")) + mono(QQ, ("x1", "y1"))),
        (sl2_f5, NcPolynomial.parse(F5, "3*f*e*e*h*f - h*e*f*e + 2*e*h", sl2_f5.generators)),
        (heis_f2, NcPolynomial.parse(F2, "z*y*x*y*x*z + y*x*y*x + x*z*y", heis_f2.generators)),
    ]
    for system, p in inputs:
        base = system.normal_form(p)
        for _ in range(100):
            assert system.normal_form(p, rng=rng) == base


def test_antisymmetry_enforced():
    z, o = QQ.zero, QQ.one
    with pytest.raises(ValidationFailure, match=r"^\[e0, e0\] != 0$"):
        LieData(QQ, [[(o, z), (z, z)], [(z, z), (z, z)]])
    with pytest.raises(ValidationFailure, match=r"^\[e0, e1\] != -\[e1, e0\]$"):
        LieData(QQ, [[(z, z), (z, o)], [(z, o), (z, z)]])


def test_lie_bracket_facts():
    lie = sl2(QQ)
    e, f, h = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert lie.bracket_vec(e, f) == (0, 0, 1)
    assert lie.bracket_vec(h, e) == (2, 0, 0)
    assert lie.bracket_vec(h, f) == (0, -2, 0)
    heis = heisenberg(QQ)
    assert heis.bracket_vec((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert heis.bracket_vec((0, 0, 1), (1, 1, 0)) == (0, 0, 0)
    data = lie.to_json()
    again = LieData.from_json(data)
    assert again.brackets == lie.brackets
    assert again.names == ["e", "f", "h"]


def test_system_json_round_trip():
    lv = leavitt_system(2, F2)
    data = lv.to_json()
    again = RewriteSystem.from_json(data)
    assert again.generators == lv.generators
    assert again.rules == lv.rules
    assert again.field == F2


def test_check_endo_fp_leavitt():
    lv = leavitt_system(2, QQ)
    a_list = [mono(QQ, ("x1",)), mono(QQ, ("x2",))]
    b_list = [mono(QQ, ("y1",)), mono(QQ, ("y2",))]
    assert check_endo_fp(a_list, b_list, lv).passed
    identity = check_endo_fp([NcPolynomial.one(QQ)], [NcPolynomial.one(QQ)], lv)
    assert identity.passed
    bad = check_endo_fp([mono(QQ, ("x1",))], [mono(QQ, ("y1",))], lv)
    assert not bad.passed and bad.reason == "unit-sum"
    with pytest.raises(ValidationFailure, match="^a and b lists differ in length$"):
        check_endo_fp(a_list, b_list[:1], lv)


def test_check_endo_fp_renames_fresh_generators_past_the_systems_own():
    # the generic elements must not be the system's own z0 and z1, which
    # commute here; the verdicts match those on a copy with other names
    one = NcPolynomial.one(QQ)
    for g0, g1 in (("z0", "z1"), ("p", "q")):
        rs = RewriteSystem(QQ, [g0, g1], [((g1, g0), mono(QQ, (g0, g1)))])
        assert check_endo_fp([one], [one], rs).passed
        bad = check_endo_fp([one, mono(QQ, (g0,))], [one - mono(QQ, (g0,)), one], rs)
        assert not bad.passed and bad.reason == "multiplicativity"


def test_check_endo_fp_multiplicativity_failure():
    # a = (1, e), b = (1 - e, 1): unit sum is 1 but r + [e, r] is not
    # multiplicative
    rs = pbw_system(sl2(QQ))
    one = NcPolynomial.one(QQ)
    e = mono(QQ, ("e",))
    verdict = check_endo_fp([one, e], [one - e, one], rs)
    assert not verdict.passed
    assert verdict.reason == "multiplicativity"


def test_fp_witness_checks():
    lv = leavitt_system(2, QQ)
    a_list = [mono(QQ, ("x1",)), mono(QQ, ("x2",))]
    b_list = [mono(QQ, ("y1",)), mono(QQ, ("y2",))]
    samples = [
        NcPolynomial.one(QQ),
        mono(QQ, ("x1",)),
        mono(QQ, ("y1",)),
        mono(QQ, ("x2",)),
        mono(QQ, ("x1", "y2")),
        mono(QQ, ("x2", "y2")),
    ]
    report = fp_witness_checks(a_list, b_list, lv, samples)
    assert report["passed"]
    assert report["rank"] == 4
    with pytest.raises(ValidationFailure, match="^a and b lists differ in length$"):
        fp_witness_checks(a_list, b_list[:1], lv, samples)


def test_ad_power_sl2_gf3():
    lie = sl2(F3)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for a in basis:
        for u in basis:
            report = ad_power_check(lie, a, u)
            assert report["passed"], (a, u, report)
    # frozen values
    assert ad_power_check(lie, (0, 0, 1), (1, 0, 0))["ad_power"] == (2, 0, 0)
    assert ad_power_check(lie, (1, 0, 0), (0, 1, 0))["ad_power"] == (0, 0, 0)


def test_ad_power_heisenberg():
    for field in (F2, F3):
        lie = heisenberg(field)
        basis = [tuple(field.one if t == i else field.zero for t in range(3))
                 for i in range(3)]
        for a in basis:
            for u in basis:
                assert ad_power_check(lie, a, u)["passed"]


def test_ad_power_guards():
    with pytest.raises(ValidationFailure, match="^needs positive characteristic$"):
        ad_power_check(sl2(QQ), (0, 0, 1), (1, 0, 0))
    with pytest.raises(BudgetExceeded, match="^p = 1009 exceeds 1000$"):
        ad_power_check(sl2(GF(1009)), (0, 0, 1), (1, 0, 0))


def test_ad_power_check_rejects_a_wrong_length():
    lie = sl2(F3)
    with pytest.raises(ValidationFailure, match="has 4 coordinates, expected 3"):
        ad_power_check(lie, (0, 0, 1, 1), (1, 0, 0))
    with pytest.raises(ValidationFailure, match="has 2 coordinates, expected 3"):
        ad_power_check(lie, (0, 0, 1), (1, 0))


def _pbw_jacobi_tables():
    """The 20 GF(5) tables that acceptance.check_pbw_jacobi draws, in order."""
    rng = random.Random(7)
    tables = []
    for _ in range(20):
        brackets = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                vec = [0, 0, 0] if rng.randrange(2) == 0 else [rng.randrange(5) for _ in range(3)]
                brackets[i][j] = vec
                brackets[j][i] = [(-c) % 5 for c in vec]
        tables.append(LieData(F5, brackets))
    return tables


def test_leibniz_sides_of_a_swapped_pair_are_negated():
    # d = [a^p, .]; pair (i, j) compares d([e_i, e_j]) with
    # [d e_i, e_j] + [e_i, d e_j].  Pair (j, i) gives both sides negated and
    # (i, i) gives 0 = 0, on every table, Jacobi or not.
    tables = _pbw_jacobi_tables()
    assert not all(lie.jacobi_ok() for lie in tables)
    for lie in [sl2(F3), heisenberg(F2), heisenberg(F3)] + tables:
        rs, field = pbw_system(lie), lie.field
        basis = [lie.element(lie.basis_vector(i)) for i in range(lie.dim)]
        for a in basis:
            a_power = NcPolynomial.one(field)
            for _ in range(field.char):
                a_power = a_power * a
            d = [rs.normal_form(a_power * q - q * a_power) for q in basis]

            def sides(i, j):
                q = lie.element(lie.brackets[i][j])
                r, s, dr, ds = basis[i], basis[j], d[i], d[j]
                return (rs.normal_form(a_power * q - q * a_power),
                        rs.normal_form(dr * s - s * dr + r * ds - ds * r))

            for i in range(lie.dim):
                assert sides(i, i) == (NcPolynomial.zero(field),) * 2
                for j in range(i + 1, lie.dim):
                    negated = tuple(side.scale(-1) for side in sides(i, j))
                    assert sides(j, i) == negated


def test_ad_power_refuses_a_table_that_fails_jacobi():
    # its presentation is not confluent, so the Leibniz sample would decide nothing
    lie = _pbw_jacobi_tables()[4]
    assert not lie.jacobi_ok()
    for i in range(3):
        for j in range(3):
            with pytest.raises(ValidationFailure, match="^the bracket table fails the Jacobi identity$"):
                ad_power_check(lie, lie.basis_vector(i), lie.basis_vector(j))


def test_augmentation_is_multiplicative_on_normal_forms():
    rng = random.Random(13)
    rs = pbw_system(sl2(QQ))
    monomials = sorted(rs.irreducible_words(2), key=rs.deglex_key)
    for _ in range(25):
        p = NcPolynomial(QQ, {rng.choice(monomials): rng.randint(-2, 2) for _ in range(3)})
        q = NcPolynomial(QQ, {rng.choice(monomials): rng.randint(-2, 2) for _ in range(3)})
        lhs = augmentation(rs.normal_form(p * q))
        rhs = QQ.reduce(augmentation(rs.normal_form(p)) * augmentation(rs.normal_form(q)))
        assert lhs == rhs


def test_scalar_unit_search_enveloping():
    rs_f2 = pbw_system(sl2(F2))
    report = scalar_unit_search(rs_f2, degree_cap=2, budget=1 << 17)
    assert report["all_scalar"]
    assert len(report["solutions"]) == 1
    a, b = report["solutions"][0]
    assert a == NcPolynomial.one(F2) and b == NcPolynomial.one(F2)
    rs = pbw_system(sl2(QQ))
    report1 = scalar_unit_search(rs, degree_cap=1, budget=1 << 10)
    assert report1["all_scalar"]
    trivial = scalar_unit_search(rs, degree_cap=0, budget=100)
    assert trivial["all_scalar"]


def test_scalar_unit_search_leavitt_contrast():
    report = scalar_unit_search(leavitt_system(2, QQ), degree_cap=1, budget=1 << 12)
    assert not report["all_scalar"]
    found = {(a.display(), b.display()) for a, b in report["solutions"]}
    assert ("x1", "y1") in found
    assert ("x2", "y2") in found


def test_scalar_unit_search_guards():
    rs = pbw_system(sl2(QQ))
    with pytest.raises(BudgetExceeded):
        scalar_unit_search(rs, degree_cap=2, budget=10)
    # 1 + 100 + 100^2 monomials: the listing stops at the eleventh, since
    # 3^11 candidates exceed the default budget, and the message names that
    # bound
    free = RewriteSystem(QQ, ["g%d" % i for i in range(100)], [])
    with pytest.raises(BudgetExceeded, match="more than 10 irreducible monomials of degree <= 2"):
        scalar_unit_search(free, degree_cap=2)
    with pytest.raises(ValidationFailure, match="exceeds"):
        scalar_unit_search(rs, degree_cap=0, budget=rewrite.MAX_UNIT_SEARCH_BUDGET + 1)
    # z^2 = 0: no irreducible word is longer than 1, so a huge degree cap
    # ends the listing at once
    nil = RewriteSystem(F2, ["z"], [(("z", "z"), NcPolynomial.zero(F2))])
    assert scalar_unit_search(nil, degree_cap=10 ** 12)["monomials"] == 2
    # over GF(p) with p above the budget not even the constant fits: the
    # search stops there, without listing the p coefficients
    big = leavitt_system(2, GF(1000003))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="more than 0 irreducible monomials of degree <= 1"):
            scalar_unit_search(big, degree_cap=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _reversed_monomial(cls, field, word, coeff=1):
    return cls(field, {tuple(reversed(word)): coeff})


def test_scalar_unit_search_rechecks_each_inverse(monkeypatch):
    # The product table read the wrong way round, nf(m_j m_i): the solver then
    # solves a b = 1, and offers a = y1 with b = x1, which b a = x1 y1 refutes.
    # monomial builds the table's words and nothing else in the search.
    rs = leavitt_system(2, QQ)
    monkeypatch.setattr(NcPolynomial, "monomial", classmethod(_reversed_monomial))
    with pytest.raises(InternalError, match="^solver produced a bad inverse$"):
        scalar_unit_search(rs, degree_cap=1)


# Values of the leftmost strategy frozen at the last commit before monomial
# normal forms were memoised.  On a non-confluent system the leftmost normal
# form is one choice among several, so only a frozen value can show that the
# largest-first sweep computes the same linear map as reducing step by step.
BROKEN_JACOBI_BRANCHES = (
    [(2, "e3"), (3, "e1 e2"), (4, "e3 e3"), (1, "e1 e2 e3")],
    [(3, "e1 e2"), (4, "e3 e3"), (1, "e1 e2 e3")],
)
SEEDED_TABLE_BRANCHES = [
    (
        [(2, "e3"), (1, "e1 e2"), (3, "e1 e3"), (4, "e2 e2"), (3, "e3 e3"),
         (1, "e1 e2 e3")],
        [(1, "e1"), (3, "e2"), (3, "e3"), (1, "e1 e2"), (3, "e1 e3"), (4, "e2 e2"),
         (3, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(2, "e1"), (4, "e2"), (4, "e3"), (1, "e1 e3"), (1, "e2 e2"), (2, "e2 e3"),
         (1, "e1 e2 e3")],
        [(1, "e1"), (1, "e2"), (1, "e1 e3"), (1, "e2 e2"), (2, "e2 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(2, "e3"), (3, "e1 e2"), (3, "e1 e3"), (4, "e2 e2"), (2, "e2 e3"), (4, "e3 e3"),
         (1, "e1 e2 e3")],
        [(3, "e1"), (1, "e2"), (2, "e3"), (3, "e1 e2"), (3, "e1 e3"), (4, "e2 e2"),
         (2, "e2 e3"), (4, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(2, "e1"), (4, "e3"), (4, "e1 e1"), (2, "e1 e2"), (1, "e1 e3"), (3, "e2 e2"),
         (4, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
        [(1, "e1"), (1, "e2"), (4, "e3"), (4, "e1 e1"), (2, "e1 e2"), (1, "e1 e3"),
         (3, "e2 e2"), (4, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(3, "e2"), (1, "e3"), (4, "e1 e1"), (3, "e1 e2"), (3, "e2 e2"), (4, "e2 e3"),
         (2, "e3 e3"), (1, "e1 e2 e3")],
        [(4, "e2"), (3, "e3"), (4, "e1 e1"), (3, "e1 e2"), (3, "e2 e2"), (4, "e2 e3"),
         (2, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(4, "e1"), (3, "e2"), (2, "e3"), (2, "e1 e1"), (4, "e1 e2"), (1, "e1 e3"),
         (1, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
        [(2, "e1"), (1, "e3"), (2, "e1 e1"), (4, "e1 e2"), (1, "e1 e3"), (1, "e2 e3"),
         (2, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e1"), (1, "e2"), (1, "e3"), (4, "e1 e2"), (4, "e1 e3"), (4, "e2 e2"),
         (3, "e2 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
        [(2, "e3"), (4, "e1 e2"), (4, "e1 e3"), (4, "e2 e2"), (3, "e2 e3"), (1, "e3 e3"),
         (1, "e1 e2 e3")],
    ),
    (
        [(4, "e1"), (2, "e2"), (3, "e3"), (1, "e1 e1"), (4, "e1 e2"), (3, "e1 e3"),
         (1, "e2 e2"), (2, "e2 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
        [(2, "e1"), (4, "e2"), (1, "e3"), (1, "e1 e1"), (4, "e1 e2"), (3, "e1 e3"),
         (1, "e2 e2"), (2, "e2 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(2, "e2"), (4, "e3"), (4, "e1 e1"), (1, "e1 e2"), (1, "e2 e2"), (1, "e2 e3"),
         (4, "e3 e3"), (1, "e1 e2 e3")],
        [(4, "e1"), (1, "e2"), (4, "e1 e1"), (1, "e1 e2"), (1, "e2 e2"), (1, "e2 e3"),
         (4, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(3, "e2"), (1, "e3"), (1, "e1 e1"), (1, "e1 e2"), (4, "e2 e2"), (1, "e2 e3"),
         (1, "e3 e3"), (1, "e1 e2 e3")],
        [(1, "e1"), (1, "e1 e1"), (1, "e1 e2"), (4, "e2 e2"), (1, "e2 e3"), (1, "e3 e3"),
         (1, "e1 e2 e3")],
    ),
    (
        [(4, "e2"), (3, "e3"), (3, "e1 e1"), (2, "e1 e2"), (3, "e1 e3"), (1, "e2 e2"),
         (4, "e2 e3"), (4, "e3 e3"), (1, "e1 e2 e3")],
        [(4, "e1"), (1, "e2"), (4, "e3"), (3, "e1 e1"), (2, "e1 e2"), (3, "e1 e3"),
         (1, "e2 e2"), (4, "e2 e3"), (4, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(4, "e1"), (2, "e2"), (3, "e3"), (2, "e1 e1"), (4, "e1 e2"), (3, "e1 e3"),
         (1, "e2 e2"), (3, "e2 e3"), (3, "e3 e3"), (1, "e1 e2 e3")],
        [(1, "e1"), (3, "e2"), (4, "e3"), (2, "e1 e1"), (4, "e1 e2"), (3, "e1 e3"),
         (1, "e2 e2"), (3, "e2 e3"), (3, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e1"), (4, "e2"), (4, "e1 e2"), (4, "e1 e3"), (1, "e2 e2"), (4, "e2 e3"),
         (1, "e1 e2 e3")],
        [(3, "e1"), (2, "e2"), (2, "e3"), (4, "e1 e2"), (4, "e1 e3"), (1, "e2 e2"),
         (4, "e2 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(4, "e1"), (4, "e2"), (2, "e3"), (3, "e1 e1"), (1, "e1 e2"), (4, "e1 e3"),
         (3, "e2 e2"), (4, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
        [(4, "e1"), (4, "e2"), (3, "e1 e1"), (1, "e1 e2"), (4, "e1 e3"), (3, "e2 e2"),
         (4, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(3, "e1"), (4, "e2"), (3, "e3"), (2, "e1 e1"), (1, "e2 e2"), (2, "e2 e3"),
         (1, "e1 e2 e3")],
        [(1, "e1"), (2, "e2"), (2, "e1 e1"), (1, "e2 e2"), (2, "e2 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e1"), (1, "e3"), (1, "e1 e1"), (2, "e1 e2"), (2, "e1 e3"), (2, "e2 e3"),
         (2, "e3 e3"), (1, "e1 e2 e3")],
        [(1, "e1"), (1, "e2"), (4, "e3"), (1, "e1 e1"), (2, "e1 e2"), (2, "e1 e3"),
         (2, "e2 e3"), (2, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e1"), (1, "e2"), (4, "e3"), (3, "e1 e2"), (1, "e1 e3"), (3, "e2 e2"),
         (4, "e2 e3"), (3, "e3 e3"), (1, "e1 e2 e3")],
        [(2, "e1"), (2, "e3"), (3, "e1 e2"), (1, "e1 e3"), (3, "e2 e2"), (4, "e2 e3"),
         (3, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e3"), (1, "e1 e2"), (3, "e1 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
        [(1, "e1"), (1, "e1 e2"), (3, "e1 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(4, "e1"), (4, "e2"), (4, "e1 e1"), (2, "e1 e2"), (3, "e1 e3"), (3, "e2 e2"),
         (1, "e2 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
        [(4, "e1"), (3, "e2"), (2, "e3"), (4, "e1 e1"), (2, "e1 e2"), (3, "e1 e3"),
         (3, "e2 e2"), (1, "e2 e3"), (1, "e3 e3"), (1, "e1 e2 e3")],
    ),
    (
        [(1, "e1"), (3, "e2"), (3, "e1 e2"), (3, "e2 e2"), (4, "e2 e3"), (1, "e1 e2 e3")],
        [(3, "e1"), (2, "e2"), (3, "e3"), (3, "e1 e2"), (3, "e2 e2"), (4, "e2 e3"),
         (1, "e1 e2 e3")],
    ),
]
SL2_QQ_TERMS = [
    (144, "h h"), (264, "h h h"), (-192, "e f h h"), (144, "h h h h"), (-288, "e f h h h"),
    (24, "h h h h h"), (72, "e e f f h h"), (-96, "e f h h h h"), (72, "e e f f h h h"),
    (-16, "e e e f f f h h"), (1, "e e e e f f f f h"),
]
SL2_GF5_TERMS = [
    (4, "h h"), (4, "h h h"), (3, "e f h h"), (4, "h h h h"), (2, "e f h h h"),
    (4, "h h h h h"), (2, "e e f f h h"), (4, "e f h h h h"), (2, "e e f f h h h"),
    (4, "e e e f f f h h"), (1, "e e e e f f f f h"),
]


def _poly_json(terms, fmt):
    """to_json() of the polynomial with the given (coeff, "w1 w2 ...") terms."""
    return [{"word": word.split(), "coeff": fmt % c} for c, word in terms]


def test_confluence_failures_frozen():
    z, o = F5.zero, F5.one
    zero = (z, z, z)
    broken = [
        [zero, (z, z, o), (o, z, z)],
        [(z, z, F5.reduce(-o)), zero, (z, o, z)],
        [(F5.reduce(-o), z, z), (z, F5.reduce(-o), z), zero],
    ]
    tables = [(broken, BROKEN_JACOBI_BRANCHES)]
    # the 20 tables of test_jacobi_iff_confluent_random, none of them Jacobi
    rng = random.Random(9)
    for branches in SEEDED_TABLE_BRANCHES:
        brackets = [[[F5.zero] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                vec = [rng.randrange(5) for _ in range(3)]
                brackets[i][j] = vec
                brackets[j][i] = [F5.reduce(-c) for c in vec]
        tables.append((brackets, branches))
    for brackets, (branch_i, branch_j) in tables:
        failures = pbw_system(LieData(F5, brackets)).confluence_check()
        assert [(f.rule_i, f.rule_j, f.word, f.branch_i.to_json(), f.branch_j.to_json())
                for f in failures] == [(2, 0, ("e3", "e2", "e1"),
                                        _poly_json(branch_i, "%d mod 5"),
                                        _poly_json(branch_j, "%d mod 5"))]


@pytest.mark.parametrize("field, terms, fmt", [
    (QQ, SL2_QQ_TERMS, "%d"),
    (F5, SL2_GF5_TERMS, "%d mod 5"),
], ids=["QQ", "GF(5)"])
def test_leftmost_straightening_frozen_and_memoised(field, terms, fmt):
    rs = pbw_system(sl2(field))
    seen = []
    first_match = rs._first_match

    def counting(word):
        seen.append(word)
        return first_match(word)

    rs._first_match = counting
    p = NcPolynomial.parse(field, "h * f^4 * e^4", ["e", "f", "h"])
    assert rs.normal_form(p).to_json() == _poly_json(terms, fmt)
    # the sweep takes each word once, largest first in deglex order, and
    # keeps nothing for the next call
    assert seen
    assert rs._decode(seen[0]) == ("h",) + ("f",) * 4 + ("e",) * 4
    keys = [rs.deglex_key(rs._decode(w)) for w in seen]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert len(seen) == len(set(seen))
    first_call = list(seen)
    seen.clear()
    rs.normal_form(p)
    assert seen == first_call


@pytest.mark.parametrize("field", [QQ, F5], ids=["QQ", "GF(5)"])
def test_random_route_reduces_each_word_once_largest_first(field):
    rs = pbw_system(sl2(field))
    p = NcPolynomial.parse(field, "h * f^4 * e^4", ["e", "f", "h"])
    base = rs.normal_form(p)
    seen = []
    matches = rs._matches

    def recording(word):
        seen.append(word)
        return matches(word)

    rs._matches = recording
    for seed in range(5):
        seen.clear()
        assert rs.normal_form(p, rng=random.Random(seed)) == base
        assert seen
        keys = [rs.deglex_key(rs._decode(w)) for w in seen]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert len(seen) == len(set(seen))


def test_random_route_is_bounded():
    rs = pbw_system(sl2(QQ))
    p = NcPolynomial.parse(QQ, "f^8 * e^8", rs.generators)
    assert not rs.normal_form(p).is_zero()
    with pytest.raises(BudgetExceeded, match="random-redex"):
        rs.normal_form(p, rng=random.Random(1))


def test_leftmost_normal_form_keeps_no_table_of_words():
    # y1^1000 x1^1000 reduces through 1000 words, one pending at a time
    rs = leavitt_system(2, QQ)
    p = NcPolynomial.parse(QQ, "y1^1000 * x1^1000", rs.generators)
    tracemalloc.start()
    try:
        nf = rs.normal_form(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf == NcPolynomial.one(QQ)
    assert peak < 1 << 20


def _overlapping_prefix_system():
    # left sides of length 1 to 3 sharing first letters: c inside c*a inside
    # c*a*b, and b*b inside b*b*a, so there are inclusion ambiguities
    rules = [
        (("c", "a", "b"), mono(QQ, ("a",))),
        (("b", "b"), mono(QQ, ("a",), 2)),
        (("c",), mono(QQ, ("b",)) + NcPolynomial.one(QQ)),
        (("c", "a"), mono(QQ, ("a", "b"), -1)),
        (("b", "b", "a"), NcPolynomial.zero(QQ)),
    ]
    return RewriteSystem(QQ, ["a", "b", "c"], rules)


@pytest.mark.parametrize("rs", [
    leavitt_system(3, F5),
    pbw_system(sl2(QQ)),
    _overlapping_prefix_system(),
], ids=["leavitt3/GF(5)", "pbw-sl2/QQ", "overlapping-prefixes"])
def test_redex_lists_match_brute_force(rs):
    # both seams take encoded words; the brute force reads the rules' names
    rng = random.Random(21)
    for _ in range(300):
        word = tuple(rng.choice(rs.generators) for _ in range(rng.randrange(13)))
        brute = [(pos, ri) for pos in range(len(word))
                 for ri, (lhs, _) in enumerate(rs.rules)
                 if word[pos:pos + len(lhs)] == lhs]
        s = rs._encode(word)
        assert rs._decode(s) == word
        assert rs._matches(s) == brute
        assert rs._first_match(s) == (brute[0] if brute else None)


def test_a_system_the_letter_code_cannot_hold_is_refused(monkeypatch):
    # one code point per generator: the bound is the number of code points
    assert rewrite.MAX_GENERATORS == sys.maxunicode + 1
    chr(rewrite.MAX_GENERATORS - 1)
    with pytest.raises(ValueError):
        chr(rewrite.MAX_GENERATORS)
    monkeypatch.setattr(rewrite, "MAX_GENERATORS", 2)
    with pytest.raises(ValidationFailure, match="^3 generators exceed the 2 a letter code can hold$"):
        RewriteSystem(QQ, ["a", "b", "c"], [])
    assert RewriteSystem(QQ, ["a", "b"], [(("b",), mono(QQ, ("a",)))]).generators == ["a", "b"]


def test_identical_left_sides_are_an_ambiguity():
    gens = ["a", "b", "c", "d"]
    rs = RewriteSystem(F3, gens, [(("a", "b"), mono(F3, ("c",))), (("a", "b"), mono(F3, ("d",)))])
    assert [(f.rule_i, f.rule_j, f.word, f.branch_i, f.branch_j) for f in rs.confluence_check()] \
        == [(0, 1, ("a", "b"), mono(F3, ("c",)), mono(F3, ("d",)))]
    same = RewriteSystem(F3, gens, [(("a", "b"), mono(F3, ("c",)))] * 2)
    assert same.confluence_check() == []


@pytest.mark.parametrize("inner, inner_rhs, resolved", [
    (("a", "b"), "d", "d*c"),
    (("b",), "a", "a*a*c"),
    (("b", "c"), "a", "a*a"),
], ids=["start", "middle", "end"])
def test_every_inclusion_is_resolved(inner, inner_rhs, resolved):
    # a*b*c contains the second rule's left side; its own right side either
    # equals the other branch or is 0
    gens = ["a", "b", "c", "d"]
    outer_rhs = NcPolynomial.parse(F3, resolved, gens)
    rules = [(("a", "b", "c"), outer_rhs), (inner, NcPolynomial.parse(F3, inner_rhs, gens))]
    assert RewriteSystem(F3, gens, rules).confluence_check() == []
    rules[0] = (("a", "b", "c"), NcPolynomial.zero(F3))
    failures = RewriteSystem(F3, gens, rules).confluence_check()
    assert [(f.rule_i, f.rule_j, f.word, f.branch_i, f.branch_j) for f in failures] \
        == [(0, 1, ("a", "b", "c"), NcPolynomial.zero(F3), outer_rhs)]


RENAMED_SYSTEMS = {
    "leavitt2-QQ": lambda: leavitt_system(2, QQ),
    "leavitt3-GF3": lambda: leavitt_system(3, F3),
    "sl2-QQ": lambda: pbw_system(sl2(QQ)),
    "sl2-GF5": lambda: pbw_system(sl2(F5)),
    "heisenberg-GF2": lambda: pbw_system(heisenberg(F2)),
}


def _renamed(rs, rng):
    """rs with every generator renamed at its own precedence position, to
    seeded names whose alphabetical order is not the precedence; and the
    map that renames a polynomial."""
    names = sorted(rs.generators)
    while sorted(names) == names:
        names = ["g%d" % k for k in rng.sample(range(100), len(rs.generators))]
    to = dict(zip(rs.generators, names))

    def move(p):
        return NcPolynomial(p.field, {tuple(to[g] for g in w): c for w, c in p.terms.items()})

    return RewriteSystem(rs.field, names, [(tuple(to[g] for g in lhs), move(rhs))
                                           for lhs, rhs in rs.rules]), move


def _irreducible_counts(rs, max_len=4):
    counts = [0] * (max_len + 1)
    for word in rs.irreducible_words(max_len):
        counts[len(word)] += 1
    return counts


@pytest.mark.parametrize("name", RENAMED_SYSTEMS)
def test_renaming_the_generators_transports_every_normal_form(name):
    """Renaming generators, each kept at its precedence position, moves no
    result: normal forms of seeded words transport exactly, and the
    confluence verdict and the irreducible-word counts per length are equal.
    The names sort otherwise than the precedence, so this kills
    RewriteSystem.deglex_key ordering by name, (len(word), tuple(word)),
    which every other tier-1 test passes: the renamed systems then fail
    their order check."""
    rs = RENAMED_SYSTEMS[name]()
    rng = random.Random("rename-" + name)
    confluent, counts = rs.is_confluent(), _irreducible_counts(rs)
    for _ in range(3):
        renamed, move = _renamed(rs, rng)
        assert renamed.is_confluent() == confluent
        assert _irreducible_counts(renamed) == counts
        for _ in range(20):
            terms = {tuple(rng.choice(rs.generators) for _ in range(rng.randint(0, 6))):
                     rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
            p = NcPolynomial(rs.field, terms)
            assert renamed.normal_form(move(p)) == move(rs.normal_form(p))
