"""Exact scalar arithmetic and linear algebra over QQ and GF(p).

Everything downstream (words, tensors, rewriting, actions) reduces to exact
row operations over a field, so this module deliberately avoids floats.
Scalars are raw values everywhere: rationals are stdlib Fractions and
prime-field elements are ints in [0, p).  A Field carries the arithmetic on
them; Field.coerce, parse_scalar and format_scalar are the only places a
scalar is converted, where data enters or leaves the library.  rref_raw,
rank_raw and kernel_raw work on lists of raw rows; a linear map is a tuple
of raw columns, applied by apply_columns; add_scaled is the sparse
accumulate step of the cold loops.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ValidationFailure


class FieldMismatch(ValidationFailure):
    """Raised when a scalar is read into a field it does not live in."""


class DivisionByZero(ValidationFailure):
    """Raised on inversion of a zero scalar."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A coefficient field: characteristic 0 (QQ) or a prime p (GF(p)).

    Instances expose raw-value arithmetic (add/sub/mul/neg/inv on Fractions
    or ints) so hot loops can work without wrapper objects.
    """

    _cache: dict[int, "Field"] = {}

    def __new__(cls, char: int):
        if char in cls._cache:
            return cls._cache[char]
        if char != 0:
            if char >= 1 << 63:
                raise ValidationFailure("characteristic must fit in a machine word")
            if not is_prime(char):
                raise ValidationFailure("characteristic must be 0 or a prime, got %r" % (char,))
        self = object.__new__(cls)
        self.char = char
        if char == 0:
            self.zero = Fraction(0)
            self.one = Fraction(1)
            self.add = operator.add
            self.sub = operator.sub
            self.mul = operator.mul
            self.neg = operator.neg
        else:
            p = char
            self.zero = 0
            self.one = 1 % p
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: (a * b) % p
            self.neg = lambda a: (-a) % p
        cls._cache[char] = self
        return self

    @classmethod
    def from_json(cls, spec) -> "Field":
        """The field of a serialized {"char": p} entry."""
        char = spec.get("char", 0) if isinstance(spec, dict) else None
        if not isinstance(char, int):
            raise ValidationFailure('/field: expected {"char": p}, got %r' % (spec,))
        return cls(char)

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero("cannot invert zero in %r" % self)
        if self.char == 0:
            return 1 / a
        return pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coerce(self, value):
        """Turn an int, Fraction, or serialized string into a raw field value."""
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, bool):
            raise ValidationFailure("booleans are not scalars")
        if self.char == 0:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise ValidationFailure("cannot coerce %r into QQ" % (value,))
        if isinstance(value, int):
            return value % self.char
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.char, value.denominator % self.char)
        raise ValidationFailure("cannot coerce %r into GF(%d)" % (value, self.char))

    def format_scalar(self, value) -> str:
        if self.char == 0:
            return str(Fraction(value))
        return "%d mod %d" % (value % self.char, self.char)

    def parse_scalar(self, text: str):
        """Parse 'n/d' or 'k mod p' back into a raw value, bit-exactly."""
        text = text.strip()
        left, mod, right = text.partition("mod")
        try:
            p = int(right) if mod else self.char
            # bare integers are accepted in prime fields for convenience
            value = int(left) if mod or p else Fraction(left)
        except (ValueError, ZeroDivisionError):
            raise ValidationFailure("cannot read scalar %r" % text) from None
        if p != self.char or (mod and not p):
            raise FieldMismatch("scalar %r does not live in %r" % (text, self))
        return value % p if p else value

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else "GF(%d)" % self.char


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def rref_raw(field: Field, rows: list[list]) -> tuple[list[list], tuple[int, ...]]:
    """In-place reduced row echelon form with first-nonzero pivoting.

    Returns the reduced rows and the pivot column tuple.  Rows must hold raw
    field values.  The pivot rule (first row with a nonzero entry in the
    current column) is part of the contract: every caller that freezes
    expected output relies on it.
    """
    if not rows:
        return rows, ()
    ncols = len(rows[0])
    nrows = len(rows)
    sub, mul, div, zero = field.sub, field.mul, field.div, field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            row = rows[r]
            for j in range(c, ncols):
                row[j] = div(row[j], pv)
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                row_i, row_r = rows[i], rows[r]
                for j in range(c, ncols):
                    row_i[j] = sub(row_i[j], mul(factor, row_r[j]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


def kernel_raw(field: Field, rref_rows: list[list], pivots: tuple[int, ...], ncols: int):
    """Kernel basis (one vector per free column) from a matrix already in rref."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(rref_rows[r][free])
        basis.append(tuple(vec))
    return basis


def rank_raw(field: Field, rows) -> int:
    """Rank of the matrix with the given raw rows (a copy is row-reduced).

    Row rank equals column rank, so a map stored as columns needs no
    transpose: its rank is the rank of its columns read as rows.
    """
    return len(rref_raw(field, [list(r) for r in rows])[1])


def apply_columns(field: Field, cols, vec) -> tuple:
    """sum_k vec[k] * cols[k], accumulated raw and reduced once.

    cols is a nonempty sequence of raw coordinate columns of equal length,
    column k being the image of basis vector k.
    """
    acc = [field.zero] * len(cols[0])
    for c, col in zip(vec, cols):
        if c:
            for t, x in enumerate(col):
                if x:
                    acc[t] += c * x
    p = field.char
    return tuple(x % p for x in acc) if p else tuple(acc)


def add_scaled(field: Field, out: dict, factor, terms) -> None:
    """out += factor * terms on sparse {key: value} data, dropping zeros.

    terms is an iterable of (key, value) pairs; a subtraction is the
    addition of the negated factor.
    """
    add, mul, zero = field.add, field.mul, field.zero
    for k, v in terms:
        nv = add(out.get(k, zero), mul(factor, v))
        if nv == zero:
            out.pop(k, None)
        else:
            out[k] = nv
