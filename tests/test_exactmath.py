import random
import re
from fractions import Fraction

import pytest

from innerscope.errors import ValidationFailure
from innerscope.exactmath import (
    GF,
    QQ,
    Field,
    apply_columns,
    is_prime,
    kernel_raw,
    rank_raw,
    rref_raw,
)


def test_field_construction():
    assert QQ.char == 0
    assert GF(7).char == 7
    assert GF(2) is GF(2)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**63 + 7)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**60)


def test_is_prime_rejects_composites_without_a_small_factor():
    # 41 * 43, and strong pseudoprimes to the bases 2-7 and 2-23: none has a
    # factor <= 37, so only a Miller-Rabin round can refuse them
    for n in (1763, 3215031751, 3825123056546413051):
        assert all(n % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        assert not is_prime(n), n
    with pytest.raises(ValidationFailure, match="got 1763$"):
        Field(1763)


def test_scalar_canonical_forms():
    assert QQ.coerce("2/4") == QQ.coerce(Fraction(1, 2))
    assert GF(5).coerce(7) == 2
    assert GF(5).coerce(-1) == 4
    assert QQ.format_scalar(QQ.coerce(3)) == "3"
    assert QQ.format_scalar(QQ.coerce(Fraction(-3, 6))) == "-1/2"
    assert GF(3).format_scalar(GF(3).coerce(5)) == "2 mod 3"


def test_scalar_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        num = rng.randrange(-10**12, 10**12)
        den = rng.randrange(1, 10**12)
        x = QQ.coerce(Fraction(num, den))
        assert QQ.parse_scalar(QQ.format_scalar(x)) == x
    for p in (2, 3, 5, 97, 2**31 - 1):
        field = GF(p)
        for _ in range(20):
            x = field.coerce(rng.randrange(p))
            assert field.parse_scalar(field.format_scalar(x)) == x


def test_scalar_field_mismatch():
    with pytest.raises(ValidationFailure, match=r"^scalar '2 mod 3' does not live in GF\(5\)$"):
        GF(5).parse_scalar("2 mod 3")
    with pytest.raises(ValidationFailure, match="^scalar '1 mod 2' does not live in QQ$"):
        QQ.parse_scalar("1 mod 2")


def test_only_integers_and_fractions_read_as_rationals():
    assert QQ.parse_scalar("-3/2") == Fraction(-3, 2)
    assert QQ.parse_scalar(" 7 ") == 7 and QQ.parse_scalar("+4/6") == Fraction(2, 3)
    # Fraction's own reader takes the first five, and "1e10000000" costs it seconds
    for text in ("1e10000000", "1.5", ".5", "1E3", "1_000", "3 / 2", "inf", "-"):
        with pytest.raises(ValidationFailure, match="^%s$" % re.escape(
                "cannot read scalar %r" % text.strip())):
            QQ.parse_scalar(text)
    with pytest.raises(ValidationFailure, match="^cannot read scalar '1/0'$"):
        QQ.parse_scalar("1/0")


def test_scalar_arithmetic_examples():
    assert QQ.reduce(QQ.coerce("1/2") + QQ.coerce("1/3")) == QQ.coerce("5/6")
    assert GF(5).reduce(3 * 4) == 2
    assert GF(7).inv(3) == 5
    assert GF(2).reduce(-1) == 1
    assert GF(5).reduce_vector([7, -1, 5, 4]) == (2, 4, 0, 4)
    assert QQ.reduce_vector([Fraction(-1, 2), Fraction(3)]) == (Fraction(-1, 2), Fraction(3))
    with pytest.raises(ValidationFailure, match="^cannot invert zero in QQ$"):
        QQ.inv(QQ.zero)
    with pytest.raises(ValidationFailure, match=r"^cannot invert zero in GF\(5\)$"):
        GF(5).inv(0)


def test_coerce_fraction_into_gfp_is_numerator_times_inverse_denominator():
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 97, 2**31 - 1):
        field = GF(p)
        for _ in range(50):
            a = rng.randrange(-10**9, 10**9)
            b = rng.randrange(1, 10**9)
            if b % p == 0:
                b += 1
            value = Fraction(a, b)
            want = value.numerator * pow(value.denominator, -1, p) % p
            assert field.coerce(value) == want
            assert field.coerce(-value) == (-want) % p
            assert 0 <= want < p and want * value.denominator % p == value.numerator % p
        with pytest.raises(ValidationFailure, match=r"^cannot invert zero in GF\(%d\)$" % p):
            field.coerce(Fraction(1, p))
        with pytest.raises(ValidationFailure, match=r"^cannot invert zero in GF\(%d\)$" % p):
            field.coerce(Fraction(-1, 2 * p))


def field_axioms(field, sample):
    """Randomized field-axiom battery on a sample of raw values, each sum and
    product made a field value by reduce."""
    r = field.reduce
    for a in sample:
        for b in sample:
            assert r(a + b) == r(b + a)
            assert r(a * b) == r(b * a)
            for c in sample:
                assert r(r(a + b) + c) == r(a + r(b + c))
                assert r(r(a * b) * c) == r(a * r(b * c))
                assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
        assert r(a + field.zero) == a
        assert r(a * field.one) == a
        assert r(a + r(-a)) == field.zero
        if a != field.zero:
            assert r(a * field.inv(a)) == field.one


def test_field_axioms_qq():
    rng = random.Random(5)
    sample = [Fraction(rng.randrange(-30, 30), rng.randrange(1, 12)) for _ in range(6)]
    field_axioms(QQ, sample)


def test_field_axioms_gfp():
    for p in (2, 3, 5, 11):
        field_axioms(GF(p), list(range(p))[: min(p, 6)])


def rref_rank_kernel(field, rows):
    """(reduced rows, pivots, rank, kernel basis) of a copy of rows."""
    reduced, pivots = rref_raw(field, [list(r) for r in rows])
    return reduced, pivots, len(pivots), kernel_raw(field, reduced, pivots, len(rows[0]))


def test_rref_frozen_example():
    # hand-reduced: [[1,2],[2,4]] over QQ has rank 1 and kernel spanned by (-2,1)
    rows = [[QQ.coerce(1), QQ.coerce(2)], [QQ.coerce(2), QQ.coerce(4)]]
    reduced, pivots, rank, kernel = rref_rank_kernel(QQ, rows)
    assert reduced == [[1, 2], [0, 0]]
    assert pivots == (0,)
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]


def test_rref_identity_example():
    reduced, pivots, rank, kernel = rref_rank_kernel(GF(2), [[1, 1], [0, 1]])
    assert reduced == [[1, 0], [0, 1]]
    assert rank == 2
    assert kernel == []


def random_rows(rng, field, nrows, ncols):
    if field.char == 0:
        return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(ncols)] for _ in range(nrows)]
    return [[rng.randrange(field.char) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_properties_randomized():
    rng = random.Random(77)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(25):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = random_rows(rng, field, nrows, ncols)
            reduced, pivots, rank, kernel = rref_rank_kernel(field, rows)
            # idempotence
            again, pivots2, rank2, _ = rref_rank_kernel(field, reduced)
            assert again == reduced and pivots2 == pivots and rank2 == rank
            # row rank equals column rank
            columns = [[row[j] for row in rows] for j in range(ncols)]
            assert rref_rank_kernel(field, columns)[2] == rank
            assert rank_raw(field, rows) == rank
            # rank-nullity, and every kernel vector is annihilated
            assert rank + len(kernel) == ncols
            for vec in kernel:
                assert all(x == field.zero for x in apply_columns(field, columns, vec))
            # pivot columns of the reduced matrix are standard basis vectors
            for r, pc in enumerate(pivots):
                col = [row[pc] for row in reduced]
                assert col[r] == field.one
                assert all(col[i] == field.zero for i in range(nrows) if i != r)


def test_matrix_inverse_and_solve():
    rng = random.Random(3)
    for field in (QQ, GF(7)):
        found = 0
        while found < 10:
            rows = random_rows(rng, field, 4, 4)
            if rank_raw(field, rows) != 4:
                continue
            found += 1
            cols = list(zip(*rows))
            ident = [[field.one if i == j else field.zero for j in range(4)] for i in range(4)]
            reduced, pivots = rref_raw(field, [list(r) + e for r, e in zip(rows, ident)])
            assert pivots == (0, 1, 2, 3)
            inverse_cols = list(zip(*(r[4:] for r in reduced)))
            assert [apply_columns(field, cols, c) for c in inverse_cols] == \
                [tuple(e) for e in ident]
            rhs = [field.coerce(rng.randrange(-3, 4)) for _ in range(4)]
            reduced, pivots = rref_raw(field, [list(r) + [b] for r, b in zip(rows, rhs)])
            x = tuple(reduced[r][4] for r in range(4))
            assert apply_columns(field, cols, x) == tuple(rhs)
    # an inconsistent system puts a pivot in the right-hand column
    assert 2 in rref_raw(QQ, [[QQ.one, QQ.one, QQ.zero], [QQ.one, QQ.one, QQ.one]])[1]
