"""Exact scalar arithmetic and linear algebra over QQ and GF(p).

Everything downstream (words, tensors, rewriting, actions) reduces to exact
row operations over a field, so this module deliberately avoids floats.
Scalars are raw values everywhere: rationals are stdlib Fractions where
they enter or leave a kernel, and prime-field elements are ints in [0, p).
They are combined with Python's own + - *, left unreduced inside a loop,
and Field.reduce (reduce_vector for a block of coordinates) turns the raw
result into a field value once: mod p over GF(p), unchanged over QQ.
Field.inv is the only division.  Field.coerce, parse_scalar and
format_scalar are the only places a scalar is converted, where data enters
or leaves the library.  Inside the hot QQ kernels (rref_raw here, and the
algebra kernels of tensoralg) rationals become integers once per call:
clear_denominators scales a block of vectors by one common denominator,
the loop runs on Python ints, and only the output is made of Fractions.
rref_raw, rank_raw and kernel_raw work on lists of raw rows; a linear map
is a tuple of raw columns, applied by apply_columns; add_scaled is the
sparse accumulate step of the cold loops.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import BudgetExceeded, ValidationFailure

# Largest |k| in a typed power (x^k in a word, g^k or c^k in a polynomial) and
# ad-power's p: each is up to k letters of a word, so no typed number sizes the work.
MAX_EXPONENT = 1000


def read_integer(text: str) -> int:
    """int(text) of ASCII text without "_"; int() alone reads "1_0" and other scripts."""
    if "_" in text or not text.isascii():
        raise ValueError("not an integer: %r" % text)
    return int(text)


def read_rational(text: str) -> Fraction:
    """The Fraction an integer or n/d names.  Any other text is a ValueError:
    Fraction's own reader takes "1e10000000" and builds a 10^7-digit integer."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError("not an integer or n/d: %r" % text)
    return Fraction(text)


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

    It holds no arithmetic of its own: raw values are added and multiplied
    with Python's operators, and reduce or reduce_vector makes the result a
    field value.
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
        self.zero = Fraction(0) if char == 0 else 0
        self.one = Fraction(1) if char == 0 else 1
        cls._cache[char] = self
        return self

    @classmethod
    def from_json(cls, spec) -> "Field":
        """The field of a serialized {"char": p} entry."""
        char = spec.get("char", 0) if isinstance(spec, dict) else None
        if not isinstance(char, int) or isinstance(char, bool):
            raise ValidationFailure('/field: expected {"char": p}, got %r' % (spec,))
        return cls(char)

    def inv(self, a):
        if a == self.zero:
            raise ValidationFailure("cannot invert zero in %r" % self)
        if self.char == 0:
            return 1 / a
        return pow(a, -1, self.char)

    def reduce(self, x):
        """The field value of a raw sum or product: x mod p, or x over QQ."""
        return x % self.char if self.char else x

    def reduce_vector(self, values) -> tuple:
        """reduce on each raw coordinate, as a tuple."""
        p = self.char
        return tuple([x % p for x in values]) if p else tuple(values)

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
            return value.numerator * self.inv(value.denominator % self.char) % self.char
        raise ValidationFailure("cannot coerce %r into GF(%d)" % (value, self.char))

    def format_scalar(self, value) -> str:
        """The text of a raw value: 'n/d' over QQ, 'k mod p' over GF(p).  A
        rational with more digits than Python writes out stops the run as an
        exceeded budget, because valid input can reduce to one."""
        if self.char == 0:
            try:
                return str(Fraction(value))
            except ValueError:  # the int_max_str_digits limit
                raise BudgetExceeded("a scalar has more than %d digits, the limit for writing one"
                                     % sys.get_int_max_str_digits()) from None
        return "%d mod %d" % (value % self.char, self.char)

    def parse_scalar(self, text: str):
        """Parse 'n/d' or 'k mod p' back into a raw value, bit-exactly."""
        text = text.strip()
        left, mod, right = text.partition("mod")
        try:
            p = read_integer(right) if mod else self.char
            # bare integers are accepted in prime fields for convenience
            value = read_integer(left) if mod or p else read_rational(left)
        except (ValueError, ZeroDivisionError):
            raise ValidationFailure("cannot read scalar %r" % text) from None
        if p != self.char or (mod and not p):
            raise ValidationFailure("scalar %r does not live in %r" % (text, self))
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


def clear_denominators(vectors):
    """(integer vectors, D): each vector of rationals (or ints) times D, the
    lcm of the denominators of all their entries."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def _primitive(row: list) -> list:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref_raw(field: Field, rows: list[list]) -> tuple[list[list], tuple[int, ...]]:
    """In-place reduced row echelon form with first-nonzero pivoting.

    Returns the reduced rows and the pivot column tuple.  Rows must hold raw
    field values.  The pivot rule (first row with a nonzero entry in the
    current column) is part of the contract: every caller that freezes
    expected output relies on it.  Over GF(p) a pivot row is scaled by the
    inverse of its pivot, inverted once per row, and each updated entry is
    reduced once, as Field.reduce would.  Over QQ the elimination is
    fraction-free: each row is cleared to coprime integers, row i becomes
    pv row_i - x row_r (pv the pivot, x row i's entry in the pivot column)
    divided by its content, and each pivot row is divided by its pivot once,
    at the end.  Every row is
    then a nonzero multiple of the row the Fraction loop would hold, so the
    pivots are the same, and the reduced form is unique, so the rows are
    too; they come out as Fractions.
    """
    if not rows:
        return rows, ()
    p = field.char
    work = rows if p else [_primitive(row) for row in clear_denominators(rows)[0]]
    ncols = len(rows[0])
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        pv = row_r[c]
        if p and pv != 1:
            inv = field.inv(pv)
            row_r[c:] = [x * inv % p for x in row_r[c:]]
        tail_r = row_r[c:]
        for i in range(nrows):
            row_i = work[i]
            factor = row_i[c]
            if i == r or not factor:
                continue
            if p:
                row_i[c:] = [(x - factor * y) % p for x, y in zip(row_i[c:], tail_r)]
            else:
                # row_r is 0 left of c, but row_i need not be
                work[i] = _primitive([pv * x - factor * y for x, y in zip(row_i, row_r)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if not p:
        zero = field.zero
        rows[:] = [[Fraction(x, row[c]) if x else zero for x in row]
                   for row, c in zip(work, pivots)] + [[zero] * ncols for _ in range(nrows - r)]
    return rows, tuple(pivots)


def kernel_raw(field: Field, rref_rows: list[list], pivots: tuple[int, ...], ncols: int):
    """Kernel basis (one vector per free column) from a matrix already in rref."""
    pivot_set = set(pivots)
    reduce = field.reduce
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = reduce(-rref_rows[r][free])
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
    return field.reduce_vector(acc)


def add_scaled(field: Field, out: dict, factor, terms) -> None:
    """out += factor * terms on sparse {key: value} data, dropping zeros.

    terms is an iterable of (key, value) pairs; a subtraction is the
    addition of the negated factor.
    """
    reduce, zero = field.reduce, field.zero
    for k, v in terms:
        nv = reduce(out.get(k, zero) + factor * v)
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
