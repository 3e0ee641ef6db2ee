"""Finite-dimensional algebras and the tensor conditions for inner maps.

A degree-2 tensor w = sum_i a_i (x) b_i over an algebra R encodes the map
r |-> sum_i a_i r b_i.  Such a map is an extended inner endomorphism exactly
when sum_i a_i b_i = 1 and, for a minimal pair, b_j a_k = delta_jk; it is an
extended inner derivation exactly when the generic Leibniz identity holds,
which pins w down to 1 (x) b - b (x) 1.  Every decision here is computed by
two independent routes and the routes are compared at runtime; disagreement
raises InconsistentRoutes and means the code, not the data, is wrong.

The exhaustive scans run on raw field values and visit every tensor.  Most
conditions they decide are linear in the coordinates of w.  The unit sum
m(w) = sum_ij w_ij e_i e_j equals sum_t a_t b_t for every decomposition, and
m'(w) = sum_ij w_ij e_j e_i equals sum_t b_t a_t, which is n 1 on a
biorthogonal minimal pair; the generic Leibniz identity is linear too, and
so are the dual-number oracle's conditions D(e_a e_b) = D(e_a) e_b +
e_a D(e_b).  So each tensor is read as a head (its first ceil(d^2/2)
coordinates) and a tail (the rest), the images of the tails under those
linear maps are tabulated once per scan and grouped by image, and each head
reads only the tails whose image is what it needs.  In the endomorphism scan
only the tensors with m(w) = 1 and m'(w) in K 1 are split into a minimal
pair; on the pair the unit sum is computed again and must agree with m(w).
Biorthogonality of the pair and the degree-3 identity are both evaluated
and must agree.  The identity is read off w's coordinates, not the pair:
its coefficient at e_i (x) . (x) e_l is row i of w times column l against
w_il 1, compared one coefficient at a time up to the first that differs.
In the derivation scan every tensor with m(w) = 0 gets the Leibniz
identity, whose verdict must equal its screen's.  The dual-number oracle
runs on every tensor that passes its own screen or the identity, and its
verdict must equal its screen's: psi(1) = 1 is m(w) = 0, the map check's
first test, and psi is tested inside R[eps], built once per scan from R's
own product rows, while the screen's rows come from alg.prod alone.  Every
product of both endomorphism routes goes through one straight-line
function compiled from the structure constants once per scan
(_product_kernel); the one-shot checks and everything over QQ multiply
with mul_vec, whose loop is the kernel's reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .errors import (
    BudgetExceeded,
    InconsistentRoutes,
    InternalError,
    TheoremViolation,
    ValidationFailure,
    Verdict,
    reading,
)
from .exactmath import (Field, add_scaled, apply_columns, clear_denominators, kernel_raw,
                        rank_raw, rref_raw)

MAX_ENUM_DIM = 8
# Largest budget the scans accept, twice the default: enough for the 5^9
# tensors of a 3-dimensional algebra over GF(5).  On a 2-vCPU Xeon container
# the slowest work it admits took 6.6-7.6 s in two runs: the unit route alone,
# over the 11^6 vectors of GF(11)^6, one 6 x 7 elimination per K*-class and
# 9 scaled inverses confirmed for each of its 100,000 classes of units.
# M2(GF(37)) took 4.0 s, GF(37)^4 3.1-3.2 s, UT2(GF(127)) 2.5-2.6 s and
# GF(1447)[z]/(z^2) 2.5 s.  The slowest tensor scan took about 0.4 s (best
# and worst of 3: the derivations of UT2(GF(5)), 0.39-0.44 s, and the
# endomorphisms of GF(5)[z]/(z^3) and GF(5)^3, 0.35-0.40 s).
MAX_SCAN_BUDGET = 1 << 21


class StructAlgebra:
    """A unital associative algebra given by structure constants on a basis.

    prod[i][j] is the sparse product of basis vectors i and j, as a dict
    from basis index to nonzero coefficient; _rows[i] lists the nonzero
    products of e_i as (j, ((k, c), ...)) entries, which the products loop
    over.  The integer kernels read _int_prod and _int_rows: over QQ these
    are prod and _rows times _den, the lcm of the denominators of the
    structure constants, as ints, so a product of integer vectors on
    _int_rows is _den times the true one; over GF(p) they are prod and
    _rows themselves and _den is 1.  An entry of the field's raw type (int
    over GF(p), reduced mod p; Fraction over QQ) skips Field.coerce, and
    each distinct scalar string is coerced once per construction.  The unit
    must be a two-sided identity, and associativity is checked at
    construction on every basis triple with a nonzero product (validate).
    A complement to span(1) is kept alongside (user supplied, or every
    coordinate vector but the last one the unit uses) so that the
    coordinate-0 projection in the basis {1} + complement splits the unit map.
    """

    def __init__(self, field: Field, structure, unit, names=None, one_complement=None):
        self.field = field
        self.dim = len(structure)
        self.names = list(names) if names is not None else ["e%d" % i for i in range(self.dim)]
        if len(self.names) != self.dim:
            raise ValidationFailure("/names: expected %d names, got %d" % (self.dim, len(self.names)))
        p = field.char
        own = int if p else Fraction  # a raw value of this type needs no coerce
        scalars: dict = {}  # each distinct scalar string, coerced once; nothing else is hashed
        self.prod = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                vec = structure[i][j]
                if isinstance(vec, dict):
                    if vec and any(type(k) is not int or not 0 <= k < self.dim for k in vec):
                        raise ValidationFailure("structure[%d][%d]: keys must be basis indices "
                                                "0..%d" % (i, j, self.dim - 1))
                    items = vec.items()
                else:
                    if len(vec) != self.dim:
                        raise ValidationFailure("structure[%d][%d] has wrong length" % (i, j))
                    items = enumerate(vec)
                pij = {}
                for k, c in items:
                    if type(c) is own:
                        v = c % p if p else c
                    elif isinstance(c, str):
                        v = scalars.get(c)
                        if v is None:
                            v = scalars[c] = field.coerce(c)
                    else:
                        v = field.coerce(c)
                    if v:
                        pij[k] = v
                row.append(pij)
            self.prod.append(row)
        self._rows = _rows_of(self.prod)
        if field.char:
            self._den, self._int_prod, self._int_rows = 1, self.prod, self._rows
        else:
            den = self._den = lcm(*(c.denominator for row in self.prod
                                    for pij in row for c in pij.values()))
            self._int_prod = [[{k: c.numerator * (den // c.denominator) for k, c in pij.items()}
                               for pij in row] for row in self.prod]
            self._int_rows = _rows_of(self._int_prod)
        self.unit = tuple(field.coerce(c) for c in unit)
        if len(self.unit) != self.dim:
            raise ValidationFailure("unit vector has wrong length")
        problem = self.validate()
        if problem:
            raise ValidationFailure(problem)
        self.one_complement, self._phi_row = self._split_unit(one_complement)

    # -- construction helpers -------------------------------------------------

    def _split_unit(self, supplied):
        """The complement to span(1) and the row of phi.

        The default complement is every e_i but e_k, k the unit's last nonzero
        coordinate, which is what greedily keeping each e_i outside the span
        of 1 and the e's kept so far gives; phi's row is then e_k / u_k.  Else,
        with C = [1 | complement], it is the y with C^T y = e_0: [C^T | e_0]
        reduces to [I | y] exactly when the complement completes span(1).
        """
        field = self.field
        d = self.dim
        if supplied is None:
            k = max(i for i, c in enumerate(self.unit) if c)
            return ([self.basis_vector(i) for i in range(d) if i != k],
                    tuple(field.inv(c) if i == k else field.zero for i, c in enumerate(self.unit)))
        if len(supplied) != d - 1 or any(len(v) != d for v in supplied):
            raise ValidationFailure(
                "/one_complement: expected %d vectors of %d coordinates" % (d - 1, d))
        vectors = [tuple(field.coerce(c) for c in v) for v in supplied]
        cols = [self.unit] + vectors
        aug = [list(col) + [field.one if i == 0 else field.zero] for i, col in enumerate(cols)]
        reduced, pivots = rref_raw(field, aug)
        if pivots != tuple(range(d)):
            raise ValidationFailure("complement does not complete span(1) to the whole algebra")
        return vectors, tuple(row[d] for row in reduced)

    def validate(self) -> str | None:
        """The first defect of the unit or of associativity, or None.

        The unit is compared with every e_j on both sides, on prod over its
        nonzero coordinates.  Associativity is compared on every triple, in
        (i, j, k) order, on _int_prod, with int arithmetic over QQ, where
        both sides are _den^2 times the true ones.  For each i, (e_i e_j) e_k
        - e_i (e_j e_k) for every j and k is summed into one dict keyed by
        j d^2 + k d + t, the coefficient of e_t, over nonzero products only:
        (e_i e_j) e_k through left[m], the entries of e_m e_k, and
        e_i (e_j e_k) through by_m[m], the (j, k) whose product has an e_m
        term, both listed once per call.  The smallest failing key names the
        triple; a triple that no entry reaches is 0 = 0.
        """
        d = self.dim
        p = self.field.char
        ones = [(s, a) for s, a in enumerate(self.unit) if a]
        if not ones:
            return "unit vector is zero"
        for j in range(d):
            one_e, e_one = {j: -1}, {j: -1}  # 1 e_j - e_j and e_j 1 - e_j
            for s, a in ones:
                for acc, entry in ((one_e, self.prod[s][j]), (e_one, self.prod[j][s])):
                    for t, c in entry.items():
                        acc[t] = acc.get(t, 0) + a * c
            for message, acc in (("1 * e%d != e%d", one_e), ("e%d * 1 != e%d", e_one)):
                if any(x % p if p else x for x in acc.values()):
                    return message % (j, j)
        dd = d * d
        nonzero = [[(k, pjk) for k, pjk in enumerate(row) if pjk] for row in self._int_prod]
        left = [[(k * d + t, c) for k, pjk in row for t, c in pjk.items()] for row in nonzero]
        by_m: list = [[] for _ in range(d)]
        for j, row in enumerate(nonzero):
            for k, pjk in row:
                for t, c in pjk.items():
                    by_m[t].append((j * dd + k * d, c))
        for i in range(d):
            diff: dict = {}
            get = diff.get
            for j, pij in nonzero[i]:
                base = j * dd
                for m, c in pij.items():
                    for key, x in left[m]:
                        key += base
                        diff[key] = get(key, 0) + c * x
            for m, pim in nonzero[i]:
                for t, x in pim.items():
                    for base, c in by_m[m]:
                        key = base + t
                        diff[key] = get(key, 0) - c * x
            if failing := [key for key, x in diff.items() if (x % p if p else x)]:
                key = min(failing)
                return "associativity fails at (e%d, e%d, e%d)" % (i, key // dd, key // d % d)
        return None

    # -- products --------------------------------------------------------------

    def mul_vec(self, u, v):
        """Product of two coordinate vectors, as a tuple."""
        out = [self.field.zero] * self.dim
        _add_product(out, self._rows, u, v)
        return self.field.reduce_vector(out)

    def basis_vector(self, i: int):
        return (self.field.zero,) * i + (self.field.one,) + (self.field.zero,) * (self.dim - i - 1)

    def unit_inverse(self, u):
        """Two-sided inverse of u, or None when u is not a unit (_unit_certificate)."""
        return self._unit_certificate(u, self.mul_vec)[0]

    def _unit_certificate(self, u, mul):
        """(x, None) with u x = 1 = x u, or (None, z) with z != 0 and u z = 0.

        mul is the product: mul_vec, or the scan's _product_kernel.  One
        elimination on the augmented matrix [L_u | 1], whose column j is
        mul(u, e_j).  When u x = 1 is solvable, its solution x is checked by
        mul(x, u) = 1, which holds in every associative algebra of finite
        dimension.  When it is not, L_u is singular, and z is the first
        kernel vector read off the same reduced rows; the caller checks
        u z = 0.
        """
        field = self.field
        d = self.dim
        if len(u) != d:
            raise ValidationFailure("element has %d coordinates, expected %d" % (len(u), d))
        cols = [mul(u, self.basis_vector(j)) for j in range(d)]
        aug = [[*row, c] for row, c in zip(zip(*cols), self.unit)]
        reduced, pivots = rref_raw(field, aug)
        if d in pivots:
            return None, kernel_raw(field, reduced, pivots[:-1], d)[0]
        x = [field.zero] * d
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][d]
        x = tuple(x)
        if mul(x, u) != self.unit:
            raise InconsistentRoutes("unit route: %r solves u x = 1 for u = %r, but x u is not 1"
                                     % (x, u))
        return x, None

    def is_unit(self, u) -> bool:
        return self.unit_inverse(u) is not None

    def phi(self, vec):
        """Coefficient of 1 in the basis {1} + one_complement (splits 1 off)."""
        return self.field.reduce(sum(map(mul, self._phi_row, vec), self.field.zero))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        fmt = self.field.format_scalar
        zero = self.field.zero
        structure = [
            [[fmt(self.prod[i][j].get(k, zero)) for k in range(self.dim)]
             for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return {
            "dim": self.dim,
            "field": {"char": self.field.char},
            "structure": structure,
            "unit": [fmt(c) for c in self.unit],
            "names": self.names,
            "one_complement": [[fmt(c) for c in v] for v in self.one_complement],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StructAlgebra":
        with reading("algebra"):
            alg = cls(
                Field.from_json(data["field"]),
                data["structure"],
                data["unit"],
                names=data.get("names"),
                one_complement=data.get("one_complement"),
            )
            if alg.dim != data["dim"]:
                raise ValidationFailure("/dim: does not match structure size")
        return alg

    def __eq__(self, other):
        return (
            isinstance(other, StructAlgebra)
            and other.field == self.field
            and other.prod == self.prod
            and other.unit == self.unit
        )

    def __repr__(self):
        return "StructAlgebra(dim=%d over %r)" % (self.dim, self.field)


def _rows_of(prod):
    """The product rows of a table: row i lists (j, ((k, c), ...)) for each
    nonzero e_i e_j."""
    return [[(j, tuple(pij.items())) for j, pij in enumerate(row) if pij] for row in prod]


def _add_product(out, rows, u, v):
    """out += u v on a list of raw values, left unreduced, on the product
    rows given: an algebra's _rows, or its _int_rows for integer vectors."""
    for a, row in zip(u, rows):
        if not a:
            continue
        for j, terms in row:
            b = v[j]
            if not b:
                continue
            ab = a * b
            for k, c in terms:
                out[k] += ab * c


def _matrix_unit_algebra(field: Field, pairs) -> StructAlgebra:
    """The span of the matrix units e_ij, (i, j) in pairs, in that basis order.

    pairs must be closed under e_ij e_jl = e_il and hold every (i, i).
    """
    index = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)
    structure = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        if j == k:
            structure[index[(i, j)]][index[(k, l)]] = {index[(i, l)]: field.one}
    unit = [field.one if i == j else field.zero for i, j in pairs]
    names = ["e%d%d" % (i + 1, j + 1) for i, j in pairs]
    return StructAlgebra(field, structure, unit, names)


def matrix_algebra(n: int, field: Field) -> StructAlgebra:
    """Full n x n matrix algebra on the matrix-unit basis e_ij, row by row."""
    return _matrix_unit_algebra(field, [(i, j) for i in range(n) for j in range(n)])


def upper_triangular_algebra(n: int, field: Field) -> StructAlgebra:
    """Upper triangular n x n matrices on the basis e_ij with i <= j."""
    return _matrix_unit_algebra(field, [(i, j) for i in range(n) for j in range(i, n)])


def field_algebra(field: Field) -> StructAlgebra:
    return StructAlgebra(field, [[{0: field.one}]], [field.one], ["1"])


def truncated_polynomial_algebra(field: Field) -> StructAlgebra:
    """K[z]/(z^2) on the basis {1, z}."""
    structure = [
        [{0: field.one}, {1: field.one}],
        [{1: field.one}, {}],
    ]
    return StructAlgebra(field, structure, [field.one, field.zero], ["1", "z"])


def centralizer_basis(alg: StructAlgebra, vectors):
    """Basis of {s in alg : s v = v s for every v in vectors}.

    The kernel of the stacked maps s |-> s v - v s, read off the reduced
    row echelon form; with the basis vectors of alg this is the center.
    Column k of a block is e_k v - v e_k = sum_m v_m (e_k e_m - e_m e_k),
    read off row k and column k of alg._int_prod on v's nonzero
    coordinates.  Over QQ the vectors are cleared to integers once, which
    scales each block of rows by a nonzero integer and leaves the kernel
    as it is.
    """
    field = alg.field
    d = alg.dim
    if not field.char:
        vectors = clear_denominators(vectors)[0]
    prod = alg._int_prod
    rows = []
    for v in vectors:
        support = [(m, x) for m, x in enumerate(v) if x]
        cols = []
        for k, prod_k in enumerate(prod):
            col = [0] * d
            for m, x in support:
                for t, c in prod_k[m].items():
                    col[t] += x * c
                for t, c in prod[m][k].items():
                    col[t] -= x * c
            cols.append(field.reduce_vector(col))
        rows.extend([col[t] for col in cols] for t in range(d))
    reduced, pivots = rref_raw(field, rows)
    return kernel_raw(field, reduced, pivots, d)


def tensor_of_pairs(field: Field, dim: int, a_list, b_list) -> tuple:
    """Flat coordinates of sum_t a_t (x) b_t, accumulated raw and reduced once.

    The vectors hold raw field values; coordinate i*dim + j is the
    coefficient of e_i (x) e_j.
    """
    acc = [field.zero] * (dim * dim)
    for a, b in zip(a_list, b_list):
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                base = i * dim
                for j, y in b_terms:
                    acc[base + j] += x * y
    return field.reduce_vector(acc)


class TensorElement:
    """A degree-2 tensor sum_ij w_ij e_i (x) e_j, where data enters or leaves.

    coords[i*dim + j] is w_ij.  The constructor reads every coordinate into
    the field, as StructAlgebra reads its entries: a raw value of the field's
    own type (int over GF(p), reduced mod p; Fraction over QQ) skips
    Field.coerce.  It checks their count; inside the scans and checks a
    tensor is a flat tuple of raw values, as tensor_of_pairs returns it.
    """

    __slots__ = ("field", "dim", "coords")

    def __init__(self, field: Field, dim: int, coords):
        self.field = field
        self.dim = dim
        p = field.char
        own = int if p else Fraction  # a raw value of this type needs no coerce
        self.coords = tuple([(c % p if p else c) if type(c) is own else field.coerce(c)
                             for c in coords])
        if len(self.coords) != dim * dim:
            raise ValidationFailure("coordinate count does not match dim^2")

    @classmethod
    def from_matrix(cls, field: Field, rows) -> "TensorElement":
        if any(len(row) != len(rows) for row in rows):
            raise ValidationFailure("a row does not have %d coordinates" % len(rows))
        coords = [c for row in rows for c in row]
        return cls(field, len(rows), coords)

    @classmethod
    def from_pairs(cls, field: Field, dim: int, a_list, b_list) -> "TensorElement":
        """sum_t a_t (x) b_t, from two equally long lists of dim-vectors."""
        if len(a_list) != len(b_list):
            raise ValidationFailure("a and b lists differ in length")
        a_list = [tuple(map(field.coerce, a)) for a in a_list]
        b_list = [tuple(map(field.coerce, b)) for b in b_list]
        if any(len(v) != dim for v in a_list + b_list):
            raise ValidationFailure("a vector does not have %d coordinates" % dim)
        return cls(field, dim, tensor_of_pairs(field, dim, a_list, b_list))

    def as_rows(self):
        d = self.dim
        return [list(self.coords[i * d:(i + 1) * d]) for i in range(d)]

    def __repr__(self):
        return "TensorElement(dim=%d)" % self.dim


def _minimal_pair_raw(field: Field, dim: int, wrows):
    """Shortest representation sum_t a_t (x) b_t of the tensor given by wrows.

    Row-reduce the coefficient matrix; the nonzero rref rows are the b's and
    the original columns at the pivot positions are the a's.  Both lists are
    linearly independent and their length is the matrix rank.
    """
    rows = [list(r) for r in wrows]
    reduced, pivots = rref_raw(field, rows)
    b_list = [tuple(reduced[t]) for t in range(len(pivots))]
    a_list = [tuple(wrows[i][pc] for i in range(dim)) for pc in pivots]
    return a_list, b_list


def minimal_pair(alg: StructAlgebra, w: TensorElement):
    """Minimal pair for a tensor over alg; verifies it re-assembles w."""
    if w.dim != alg.dim or w.field != alg.field:
        raise ValidationFailure("tensor does not match the algebra")
    a_list, b_list = _minimal_pair_raw(alg.field, alg.dim, w.as_rows())
    if tensor_of_pairs(alg.field, alg.dim, a_list, b_list) != w.coords:
        raise InconsistentRoutes("minimal pair does not reassemble the tensor")
    return a_list, b_list


class _DualNumbers:
    """R[eps] = R (x) K[eps]/(eps^2) on the basis {e_i} + {eps e_i}, multiplied by
    StructAlgebra's own code: row i is R's row i followed by the same terms
    shifted by d, row d + i is R's row i with its products shifted by d, and
    eps^2 = 0.  It is not validated again: it associates because R does, and
    R was validated when it was built."""

    mul_vec = StructAlgebra.mul_vec

    def __init__(self, alg: StructAlgebra):
        d = alg.dim
        self.field = alg.field
        self.dim = 2 * d
        self.unit = alg.unit + (alg.field.zero,) * d
        self._den = alg._den
        self._rows = self._doubled(alg._rows, d)
        self._int_rows = self._rows if alg.field.char else self._doubled(alg._int_rows, d)

    @staticmethod
    def _doubled(rows, d):
        shifted = [[(j, tuple((k + d, c) for k, c in terms)) for j, terms in row]
                   for row in rows]
        return ([row + [(j + d, terms) for j, terms in eps_row]
                 for row, eps_row in zip(rows, shifted)] + shifted)


def _pair_table(alg: StructAlgebra):
    """The flat coefficient table of e_i e_j, the rows of the scans' m(w)
    screens, built anew on each call.

    pair[t][i*d + j] is the coefficient of e_t in e_i e_j, so the dot
    product of the flat coordinates of w with pair[t] is coordinate t of
    m(w) = sum_ij w_ij e_i e_j.
    """
    d = alg.dim
    pair = [[alg.field.zero] * (d * d) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for t, c in alg.prod[i][j].items():
                pair[t][i * d + j] = c
    return tuple(map(tuple, pair))


def _half_image_screen(alg: StructAlgebra, rows, target, key_len: int):
    """The tensors over GF(p) split into heads and tails, screened for L(w) = target.

    rows are the coefficient rows of a linear map L on the d^2 coordinates,
    reduced mod p, and target holds one value per row.  The head is the
    first ceil(d^2/2) coordinates and the tail the rest.  L is linear, so
    L(head + tail) = target exactly when L(tail) = target - L(head).  Returns
    the heads as a generator of (head, target - L(head)), in lexicographic
    order, and the tails as a dict from the first key_len coordinates of
    L(tail) to the list of (L(tail), tail) that share them, each list in
    lexicographic order; all values are reduced mod p.  So a head reads only
    the tails whose image starts as its need does, in the order head + tail
    runs over the tensors.  The tail table belongs to the caller and is not
    kept on the algebra.
    """
    p = alg.field.char
    n = alg.dim ** 2
    h = (n + 1) // 2
    head_rows = [row[:h] for row in rows]
    tail_rows = [row[h:] for row in rows]
    tails: dict = {}
    for tail in itertools.product(range(p), repeat=n - h):
        image = tuple([sum(map(mul, tail, row)) % p for row in tail_rows])
        tails.setdefault(image[:key_len], []).append((image, tail))
    heads = ((head, tuple((want - sum(map(mul, head, row))) % p
                          for want, row in zip(target, head_rows)))
             for head in itertools.product(range(p), repeat=h))
    return heads, tails


def _reverse_product_rows(alg: StructAlgebra):
    """Rows of w |-> m'(w) - phi(m'(w)) 1 over GF(p), where m'(w) = sum_ij w_ij e_j e_i.

    The map is 0 exactly when m'(w) lies in K 1.  m'(w) = sum_t b_t a_t for
    every decomposition w = sum_t a_t (x) b_t, so a biorthogonal minimal
    pair of length n gives m'(w) = n 1.
    """
    d = alg.dim
    swapped = [[row[j * d + i] for i in range(d) for j in range(d)] for row in _pair_table(alg)]
    on_one = [sum(map(mul, alg._phi_row, column)) for column in zip(*swapped)]
    return [alg.field.reduce_vector([x - u * y for x, y in zip(row, on_one)])
            for row, u in zip(swapped, alg.unit)]


def action_columns(alg: StructAlgebra, w):
    """The linear map r |-> sum_ij w_ij e_i r e_j, as its columns.

    w is the flat coordinate list of a tensor; column k is the image of e_k,
    sum_i (e_i e_k) w_i over the rows w_i of w, accumulated raw and reduced
    once.  For w = sum_t a_t (x) b_t this is r |-> sum_t a_t r b_t.
    """
    d = alg.dim
    cols = [[alg.field.zero] * d for _ in range(d)]
    for i in range(d):
        row = w[i * d:(i + 1) * d]
        for k, ik in alg._rows[i]:
            col = cols[k]
            for m, c in ik:
                for j, terms in alg._rows[m]:
                    x = row[j]
                    if x:
                        cx = c * x
                        for t, y in terms:
                            col[t] += cx * y
    return list(map(alg.field.reduce_vector, cols))


def _product_kernel(alg: StructAlgebra):
    """alg's product over GF(p) as one straight-line function mul(u, v).

    mul(u, v) == alg.mul_vec(u, v) on vectors of alg.dim raw values.
    Coordinate k of the result is (sum of c u_i v_j) % p over the nonzero
    e_k coefficients c of e_i e_j in alg._rows, one sum per coordinate (none
    is empty, as 1 e_k = e_k) and no loop.  The source is written from "%d"
    of ints alone (the indices, the coefficients, already reduced mod p, and
    p) and compiled into a namespace with no builtins; at MAX_ENUM_DIM it
    holds at most 8^3 = 512 terms.  enumerate_inner_endos builds one per
    scan and keeps it nowhere.
    """
    d = alg.dim
    p = alg.field.char
    sums = [[] for _ in range(d)]
    for i, row in enumerate(alg._rows):
        for j, terms in row:
            for k, c in terms:
                sums[k].append("u%d*v%d" % (i, j) if c == 1 else "%d*u%d*v%d" % (c, i, j))
    source = "def mul(u, v):\n    %s, = u\n    %s, = v\n    return (%s,)\n" % (
        ", ".join("u%d" % i for i in range(d)), ", ".join("v%d" % i for i in range(d)),
        ", ".join("(%s) %% %d" % (" + ".join(terms), p) for terms in sums))
    namespace = {"__builtins__": {}}
    exec(compile(source, "<product kernel>", "exec"), namespace)
    return namespace["mul"]


def _unit_sum_ok(alg: StructAlgebra, a_list, b_list, mul) -> bool:
    """sum_t a_t b_t = 1, the products mul(a_t, b_t) summed and reduced once."""
    acc = (alg.field.zero,) * alg.dim
    for a, b in zip(a_list, b_list):
        acc = tuple(map(add, acc, mul(a, b)))
    return alg.field.reduce_vector(acc) == alg.unit


def _delta_ok(alg: StructAlgebra, a_list, b_list, mul) -> bool:
    """b_j a_k = delta_jk 1, for all j, k."""
    zero_vec = (alg.field.zero,) * alg.dim
    for j, b in enumerate(b_list):
        for k, a in enumerate(a_list):
            prod = mul(b, a)
            expected = alg.unit if j == k else zero_vec
            if prod != expected:
                return False
    return True


def _tensor_route_ok(alg: StructAlgebra, w, mul) -> bool:
    """sum_t a_t (x) 1 (x) b_t = sum_jk a_j (x) (b_j a_k) (x) b_k in R^(x)3.

    w is the flat coordinate list of the tensor, and both sides are read off
    it, so the identity is the same for every decomposition w = sum_t a_t (x) b_t.
    The right side is sum w_ix w_yl e_i (x) e_x e_y (x) e_l, so its middle
    factor at e_i (x) . (x) e_l is the product of row i and column l of w;
    the left side's is w_il 1.  These d^2 coefficients are compared one at a
    time, row by row, and the first that differs decides; c 1 is formed once per c.
    """
    d = alg.dim
    reduce_vector = alg.field.reduce_vector
    unit = alg.unit
    scaled: dict = {}
    for i in range(0, d * d, d):
        row = w[i:i + d]
        for l, c in enumerate(row):
            if c not in scaled:
                scaled[c] = reduce_vector([c * x for x in unit])
            if mul(row, w[l::d]) != scaled[c]:
                return False
    return True


def _decide_pair(alg: StructAlgebra, w, a_list, b_list, mul):
    """(unit sum holds, pair is biorthogonal) for the tensor w and its minimal pair.

    Every product is mul: alg.mul_vec, or the endomorphism scan's
    _product_kernel.  The unit sum is taken on the pair.  Biorthogonality of
    the pair and the degree-3 identity, read off w's coordinates, are
    separate implementations of the second condition; both always run and
    must agree.  The identity reads w and biorthogonality the pair, so a
    minimal pair that does not represent w can show up as a disagreement too.
    """
    unit_ok = _unit_sum_ok(alg, a_list, b_list, mul)
    delta = _delta_ok(alg, a_list, b_list, mul)
    tensor = _tensor_route_ok(alg, w, mul)
    if delta != tensor:
        raise InconsistentRoutes(
            "biorthogonality and the degree-3 identity disagree (delta=%r tensor=%r)"
            % (delta, tensor))
    return unit_ok, tensor


def _unit_pair(alg: StructAlgebra, u):
    """u read into alg, with its inverse; ValidationFailure unless u is a unit
    with alg.dim coordinates."""
    u = tuple(alg.field.coerce(c) for c in u)
    u_inv = alg.unit_inverse(u)
    if u_inv is None:
        raise ValidationFailure("not a unit")
    return u, u_inv


class EndoCandidate:
    """A degree-2 tensor together with its canonical minimal pair."""

    def __init__(self, alg: StructAlgebra, w: TensorElement):
        self.algebra = alg
        self.w = w
        self.a_list, self.b_list = minimal_pair(alg, w)
        self.n = len(self.a_list)

    @classmethod
    def from_tensor(cls, alg: StructAlgebra, w: TensorElement) -> "EndoCandidate":
        return cls(alg, w)

    @classmethod
    def from_pairs(cls, alg: StructAlgebra, a_list, b_list) -> "EndoCandidate":
        return cls(alg, TensorElement.from_pairs(alg.field, alg.dim, a_list, b_list))

    @classmethod
    def from_unit(cls, alg: StructAlgebra, u) -> "EndoCandidate":
        u, u_inv = _unit_pair(alg, u)
        return cls(alg, TensorElement.from_pairs(alg.field, alg.dim, [u], [u_inv]))

    def __repr__(self):
        return "EndoCandidate(n=%d over %r)" % (self.n, self.algebra)


def check_endo_conditions(c: EndoCandidate) -> Verdict:
    """Unit-sum plus generic multiplicativity, the latter computed two ways:
    biorthogonality of the minimal pair and the degree-3 identity on c.w."""
    alg = c.algebra
    unit_ok, biorthogonal = _decide_pair(alg, c.w.coords, c.a_list, c.b_list, alg.mul_vec)
    if not unit_ok:
        return Verdict(False, "unit-sum")
    if not biorthogonal:
        return Verdict(False, "biorthogonality")
    return Verdict(True)


@dataclass
class AlgebraInnerClass:
    kind: str                 # "conjugation" | "not_inner"
    unit: tuple | None = None


def classify_inner_endo_algebra(c: EndoCandidate) -> AlgebraInnerClass:
    """Over a finite-dimensional algebra a passing candidate has n = 1.

    R^n = R as right modules forces n * dim = dim; a passing candidate with
    n > 1 would contradict that, so it is flagged as an internal error.
    """
    if not check_endo_conditions(c).passed:
        return AlgebraInnerClass("not_inner")
    if c.n != 1:
        raise InternalError("passing candidate with n=%d on dim %d" % (c.n, c.algebra.dim))
    u = c.a_list[0]
    b = c.b_list[0]
    alg = c.algebra
    if alg.mul_vec(u, b) != alg.unit or alg.mul_vec(b, u) != alg.unit:
        raise TheoremViolation("minimal pair of a passing candidate is not a unit pair")
    return AlgebraInnerClass("conjugation", u)


def _algebra_map_failure(source: StructAlgebra, target: StructAlgebra, cols):
    """Why the map with columns cols is not a unital algebra map, or None.

    cols[k] is f(e_k) in the coordinates of target, as raw field values.
    f(1) must be 1, and f(e_i) f(e_j) = f(e_i e_j) on every basis pair, in
    (i, j) order, where f(e_i e_j) = sum_k c_ijk cols[k].  For each i the
    differences of every j are summed raw into one dict keyed by j n + t,
    n = target.dim, over nonzero values only: f(e_i)_r with each nonzero
    e_r e_s, reaching the f(e_j) with f(e_j)_s != 0 through at[s], listed
    once per call, and each nonzero coordinate of cols[k].  The smallest
    failing key names the pair.  Over QQ, past the unit, both sides are
    integers: with cols times D, their common denominator, f(e_i) f(e_j) on
    target._int_rows is P / (T D^2) and f(e_i e_j) on source._int_prod is
    Q / (S D), T and S the two _den, so the pair is compared as P S - Q T D
    = 0; over GF(p) both scales are 1.
    """
    if apply_columns(target.field, cols, source.unit) != target.unit:
        return "unit is not preserved"
    lhs_scale = rhs_scale = 1
    if not target.field.char:
        cols, den = clear_denominators(cols)
        lhs_scale, rhs_scale = source._den, target._den * den
    p = target.field.char
    n = target.dim
    rows = target._int_rows
    left = [[(b * lhs_scale, rows[s]) for s, b in enumerate(col) if b] for col in cols]
    support = [[(s, b * rhs_scale) for s, b in enumerate(col) if b] for col in cols]
    at = [[(j * n, col[s]) for j, col in enumerate(cols) if col[s]] for s in range(n)]
    for i, prod_i in enumerate(source._int_prod):
        diff: dict = {}
        get = diff.get
        for a, row in left[i]:
            for s, terms in row:
                for base, b in at[s]:
                    ab = a * b
                    for t, c in terms:
                        key = base + t
                        diff[key] = get(key, 0) + ab * c
        for j, pij in enumerate(prod_i):
            base = j * n
            for k, c in pij.items():
                for t, x in support[k]:
                    key = base + t
                    diff[key] = get(key, 0) - c * x
        if failing := [key for key, x in diff.items() if (x % p if p else x)]:
            return "multiplicativity fails at (e%d, e%d)" % (i, min(failing) // n)
    return None


class AlgebraHom:
    """A verified unital algebra homomorphism, stored as its columns.

    cols[k] is the image of basis vector k of the source: a tuple of raw
    field values in the coordinates of the target.
    """

    def __init__(self, source: StructAlgebra, target: StructAlgebra, cols):
        if source.field != target.field:
            raise ValidationFailure("source and target fields differ")
        cols = tuple(map(tuple, cols))
        if len(cols) != source.dim or any(len(col) != target.dim for col in cols):
            raise ValidationFailure("column shape does not match the algebras")
        self.source = source
        self.target = target
        self.cols = cols
        failure = _algebra_map_failure(source, target, cols)
        if failure is not None:
            raise ValidationFailure(failure)

    @classmethod
    def identity(cls, alg: StructAlgebra) -> "AlgebraHom":
        return cls(alg, alg, [alg.basis_vector(k) for k in range(alg.dim)])

    @classmethod
    def conjugation(cls, alg: StructAlgebra, u) -> "AlgebraHom":
        u, u_inv = _unit_pair(alg, u)
        cols = [alg.mul_vec(alg.mul_vec(u, alg.basis_vector(k)), u_inv)
                for k in range(alg.dim)]
        return cls(alg, alg, cols)

    def apply(self, vec):
        return apply_columns(self.target.field, self.cols, vec)

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        if inner.target != self.source:
            raise ValidationFailure("composition mismatch")
        return AlgebraHom(inner.source, self.target, [self.apply(col) for col in inner.cols])

    def __repr__(self):
        return "AlgebraHom(%r -> %r)" % (self.source, self.target)


@dataclass
class InducedEndo:
    cols: tuple
    kernel_rank: int

    @property
    def is_injective(self) -> bool:
        return self.kernel_rank == 0


def induced_endomorphism(c: EndoCandidate, f: AlgebraHom) -> InducedEndo:
    """The map s |-> sum_i f(a_i) s f(b_i) on the target of f.

    Requires a passing candidate; the result is verified to be a unital
    endomorphism and its kernel rank is computed exactly.
    """
    if f.source != c.algebra:
        raise ValidationFailure("candidate and homomorphism source differ")
    if not check_endo_conditions(c).passed:
        raise ValidationFailure("candidate fails the endomorphism conditions")
    target = f.target
    cols = _induced_columns(target, [f.apply(a) for a in c.a_list], [f.apply(b) for b in c.b_list])
    if _algebra_map_failure(target, target, cols) is not None:
        raise TheoremViolation("induced map is not an algebra endomorphism")
    return InducedEndo(tuple(cols), target.dim - rank_raw(target.field, cols))


def _induced_columns(target: StructAlgebra, fa, fb):
    """The columns of s |-> sum_t fa_t s fb_t on target, reduced once.

    Over QQ each of fa and fb is cleared by its own common denominator, the
    products run on target._int_rows, and each column is divided once by
    the product of those scales.
    """
    p = target.field.char
    d = target.dim
    if not p:
        fa, da = clear_denominators(fa)
        fb, db = clear_denominators(fb)
        scale = target._den ** 2 * da * db
    cols = []
    for k in range(d):
        e_k = [int(i == k) for i in range(d)]
        acc = [0] * d
        for a, b in zip(fa, fb):
            a_k = [0] * d
            _add_product(a_k, target._int_rows, a, e_k)
            _add_product(acc, target._int_rows, a_k, b)
        cols.append(target.field.reduce_vector(acc) if p
                    else tuple(Fraction(x, scale) for x in acc))
    return cols


# -- derivations ---------------------------------------------------------------


class DerivationCandidate:
    """A degree-2 tensor read as the map r |-> sum_i a_i r b_i, tested against
    the generic Leibniz identity."""

    def __init__(self, alg: StructAlgebra, w: TensorElement):
        if w.dim != alg.dim or w.field != alg.field:
            raise ValidationFailure("tensor does not match the algebra")
        self.algebra = alg
        self.w = w


def _leibniz_tensor_ok(alg: StructAlgebra, w) -> bool:
    """w[p][r] 1[q] = w[p][q] 1[r] + 1[p] w[q][r] in coordinates, all p,q,r.

    w is the flat coordinate list of the tensor; the identity is checked on
    raw values, reduced only to compare.
    """
    unit = alg.unit
    reduce = alg.field.reduce
    d = alg.dim
    for p in range(d):
        wp = w[p * d:(p + 1) * d]
        up = unit[p]
        for q in range(d):
            uq = unit[q]
            wpq = wp[q]
            wq = w[q * d:(q + 1) * d]
            for r in range(d):
                diff = wp[r] * uq - wpq * unit[r] - up * wq[r]
                if diff and reduce(diff):  # most differences are 0 before reduction
                    return False
    return True


def _leibniz_rows(alg: StructAlgebra):
    """One row per (p, q, r) over GF(char): the coefficients of
    w[p][r] 1[q] - w[p][q] 1[r] - 1[p] w[q][r], the difference that
    _leibniz_tensor_ok tests for zero."""
    unit = alg.unit
    d = alg.dim
    rows = []
    for p, q, r in itertools.product(range(d), repeat=3):
        row = [0] * (d * d)
        row[p * d + r] += unit[q]
        row[p * d + q] -= unit[r]
        row[q * d + r] -= unit[p]
        rows.append(alg.field.reduce_vector(row))
    return rows


def _dual_number_rows(alg: StructAlgebra):
    """One row per (a, b, t): the coefficients, in w, of coordinate t of
    D(e_a e_b) - D(e_a) e_b - e_a D(e_b), where D(e_k) = sum_ij w_ij e_i e_k e_j.

    These are the conditions _dual_number_ok tests inside R[eps] once
    psi(1) = 1, and they are linear in w.  They are built from alg.prod
    alone, so they share no table with the oracle.
    """
    field = alg.field
    d = alg.dim
    prod = alg.prod
    rows = [[field.zero] * (d * d) for _ in range(d ** 3)]
    for i, j in itertools.product(range(d), repeat=2):
        image = []               # image[k] = e_i e_k e_j, sparse
        for k in range(d):
            ikj: dict = {}
            for m, c in prod[i][k].items():
                add_scaled(field, ikj, c, prod[m][j].items())
            image.append(ikj)
        for a, b in itertools.product(range(d), repeat=2):
            defect: dict = {}
            for k, c in prod[a][b].items():
                add_scaled(field, defect, c, image[k].items())
            for m, c in image[a].items():
                add_scaled(field, defect, -c, prod[m][b].items())
            for m, c in image[b].items():
                add_scaled(field, defect, -c, prod[a][m].items())
            for t, c in defect.items():
                rows[(a * d + b) * d + t][i * d + j] = c
    return [tuple(row) for row in rows]


def _row_basis(field: Field, rows):
    """The nonzero rows of rows' reduced echelon form: a basis of their span,
    so the same kernel from at most as many rows as there are columns."""
    reduced, pivots = rref_raw(field, [list(row) for row in rows])
    return [tuple(row) for row in reduced[:len(pivots)]]


def _dual_number_ok(alg: StructAlgebra, dual: _DualNumbers, w) -> bool:
    """Oracle: r |-> r + eps D(r) must be a unital algebra map into dual, R[eps].

    w is the flat coordinate list of the tensor, and the columns D(e_k)
    come from action_columns.  The map check tests psi(1) = 1 first:
    psi(1) = 1 + eps D(1) and D(1) = m(w), so that is m(w) = 0.
    """
    psi_cols = [alg.basis_vector(k) + col for k, col in enumerate(action_columns(alg, w))]
    return _algebra_map_failure(alg, dual, psi_cols) is None


def check_derivation_generic(d: DerivationCandidate) -> Verdict:
    """Generic Leibniz identity, with the dual-number construction as oracle.

    The generic identity is a condition on the tensor; the oracle tests the
    induced linear map.  The first implies the second on every algebra, and
    that implication is asserted here.  The converse can fail (a degenerate
    tensor may induce a derivation, even the zero map, without being of the
    generic form), so an oracle pass with a generic fail is not an error.
    """
    alg = d.algebra
    tensor = _leibniz_tensor_ok(alg, d.w.coords)
    dual = _dual_number_ok(alg, _DualNumbers(alg), d.w.coords)
    if tensor and not dual:
        raise InconsistentRoutes(
            "generic Leibniz identity passed but the dual-number oracle rejected"
            " the induced map")
    return Verdict(tensor, None if tensor else "leibniz", {"induced_map_is_derivation": dual})


def extract_derivation_element(d: DerivationCandidate):
    """The b with w = 1 (x) b - b (x) 1, normalized so that phi(b) = 0.

    Applying the splitting phi to the left tensor factor recovers b up to
    the additive constant that phi kills.
    """
    if not check_derivation_generic(d).passed:
        raise ValidationFailure("candidate fails the generic Leibniz identity")
    alg = d.algebra
    field = alg.field
    b = apply_columns(field, d.w.as_rows(), alg._phi_row)
    if _commutator_tensor(alg, b) != d.w.coords:
        raise TheoremViolation("extracted element does not rebuild the tensor")
    if alg.phi(b) != field.zero:
        raise TheoremViolation("extracted element is not phi-normalized")
    return b


def _commutator_tensor(alg: StructAlgebra, b) -> tuple:
    """Flat coordinates of 1 (x) b - b (x) 1; b holds raw field values."""
    minus_one = tuple([-x for x in alg.unit])
    return tensor_of_pairs(alg.field, alg.dim, (alg.unit, b), (b, minus_one))


def inner_derivation_of(alg: StructAlgebra, b) -> DerivationCandidate:
    """The candidate w = 1 (x) b - b (x) 1, acting as r |-> r b - b r."""
    b = tuple(alg.field.coerce(c) for c in b)
    if len(b) != alg.dim:
        raise ValidationFailure("element has %d coordinates, expected %d" % (len(b), alg.dim))
    return DerivationCandidate(alg, TensorElement(alg.field, alg.dim, _commutator_tensor(alg, b)))


# -- exhaustive scans ----------------------------------------------------------


def _class_walk(p: int, d: int):
    """The zero vector of GF(p)^d, then one representative per K*-class: each
    vector whose first nonzero coordinate is 1.  All in lexicographic order."""
    yield (0,) * d
    for k in reversed(range(d)):
        for tail in itertools.product(range(p), repeat=d - 1 - k):
            yield (0,) * k + (1,) + tail


def _scan_char(alg: StructAlgebra, budget: int) -> int:
    """The characteristic of an algebra a scan within budget may visit."""
    if budget > MAX_SCAN_BUDGET:
        raise ValidationFailure("budget %d exceeds %d" % (budget, MAX_SCAN_BUDGET))
    if alg.dim > MAX_ENUM_DIM:
        raise ValidationFailure("dim %d exceeds the enumeration cap %d" % (alg.dim, MAX_ENUM_DIM))
    if alg.field.char == 0:
        raise BudgetExceeded("enumeration needs a finite field")
    return alg.field.char


@dataclass
class EnumResult:
    passing: list            # sorted coordinate tuples of passing tensors
    count: int
    brute_forced: bool
    unit_count: int
    agreement: bool
    oracle_count: int | None = None   # derivation scans: candidates the oracle accepts
    oracle_exact: bool | None = None  # oracle set identical to the passing set


def enumerate_inner_endos(alg: StructAlgebra, budget: int = 1 << 20) -> EnumResult:
    """All tensors passing the endomorphism conditions over a small GF(p).

    Two routes: the exhaustive scan of all p^(dim^2) tensors, and the
    enumeration of u (x) u^-1 over the unit group.  When both run they must
    produce identical sets, and the count must be |U(R)| / (p - 1).

    The unit route runs one elimination (_unit_certificate) per K*-class
    representative u (_class_walk), which gives either u's inverse x,
    checked by x u = 1, or a nonzero z with u z = 0, which no unit has.
    When u is a unit, each multiple c u takes c^-1 x, confirmed by both
    products; when it is not, u and each multiple c u are confirmed by one
    product, (c u) z = 0.  Every vector is so decided by a checked
    certificate.  u (x) u^-1 is built once per class of units, as
    c u (x) c^-1 u^-1 is the same tensor.  Every product of both routes is
    mul, the algebra's _product_kernel, compiled once per call.
    """
    field = alg.field
    p = _scan_char(alg, budget)
    d = alg.dim
    if p ** d > budget:
        raise BudgetExceeded("unit enumeration would need %d vectors" % p ** d)
    mul = _product_kernel(alg)
    inverses = [0] + [pow(c, -1, p) for c in range(1, p)]
    zero_vec = (0,) * d
    unit_route = set()
    unit_count = 0
    for rep in _class_walk(p, d):
        rep_inv, witness = alg._unit_certificate(rep, mul)
        multiples = range(1, p) if any(rep) else (1,)
        if rep_inv is None:
            for c in multiples:
                u = tuple([c * x % p for x in rep])
                if not any(witness) or mul(u, witness) != zero_vec:
                    raise InconsistentRoutes("unit route: %r is not a nonzero right annihilator "
                                             "of %r" % (witness, u))
            continue
        unit_route.add(tensor_of_pairs(field, d, (rep,), (rep_inv,)))
        unit_count += len(multiples)
        for c in multiples[1:]:
            u = tuple([c * x % p for x in rep])
            u_inv = tuple([inverses[c] * x % p for x in rep_inv])
            if mul(u, u_inv) != alg.unit or mul(u_inv, u) != alg.unit:
                raise InconsistentRoutes("unit route: %r times its inverse %r is not 1" % (u, u_inv))
    expected, remainder = divmod(unit_count, p - 1)
    if remainder != 0:
        raise TheoremViolation("unit count not divisible by |K*|")
    if len(unit_route) != expected:
        raise TheoremViolation("scalar-collapse count mismatch in the unit route")

    brute_forced = p ** (d * d) <= budget
    passing = sorted(unit_route)
    agreement = True
    if brute_forced:
        scan = []
        twist = _reverse_product_rows(alg)
        rows = [*_pair_table(alg), *twist]
        heads, tails = _half_image_screen(alg, rows, alg.unit + (0,) * len(twist), len(rows))
        for head, need in heads:
            for _, tail in tails.get(need, ()):
                coords = head + tail
                wrows = [coords[i * d:(i + 1) * d] for i in range(d)]
                a_list, b_list = _minimal_pair_raw(field, d, wrows)
                unit_ok, biorthogonal = _decide_pair(alg, coords, a_list, b_list, mul)
                if not unit_ok:
                    raise InconsistentRoutes("m(w) and the minimal pair disagree on the unit sum")
                if biorthogonal:
                    scan.append(coords)
        scan.sort()
        agreement = scan == passing
        if not agreement:
            raise InconsistentRoutes("exhaustive scan and unit route disagree")
        passing = scan
    return EnumResult(passing, len(passing), brute_forced, unit_count, agreement)


def enumerate_inner_derivations(alg: StructAlgebra, budget: int = 1 << 20) -> EnumResult:
    """All tensors passing the generic Leibniz identity over a small GF(p).

    Every candidate is screened on m(w) = 0, on the Leibniz rows and on the
    dual-number oracle's rows, each of the last two blocks reduced to a basis
    of its span.  Candidates with m(w) != 0 fail the oracle's unit condition
    psi(1) = 1, and the identity, which forces m(w) = 0.  The tensor identity
    is evaluated on every candidate with m(w) = 0 and must agree with its
    screen.  The oracle is evaluated on every candidate that passes its
    screen or the identity and must agree with its screen, which decides the
    rest; a candidate passing the identity must pass the oracle.  The passing
    set must equal {1 (x) b - b (x) 1} with b ranging over the algebra.
    oracle_exact records whether the oracle accepted nothing else (true on
    central simple algebras, not in general).
    """
    field = alg.field
    p = _scan_char(alg, budget)
    d = alg.dim
    if p ** (d * d) > budget:
        raise BudgetExceeded("scan would need %d tensors" % p ** (d * d))
    # route two: all inner derivation tensors, b ranging over the algebra
    inner_route = set()
    for b in itertools.product(range(p), repeat=d):
        inner_route.add(_commutator_tensor(alg, b))
    scan = []
    oracle_count = 0
    oracle_exact = True
    leibniz = _row_basis(field, _leibniz_rows(alg))
    oracle = _row_basis(field, _dual_number_rows(alg))
    r_eps = _DualNumbers(alg)
    rows = [*_pair_table(alg), *leibniz, *oracle]
    heads, tails = _half_image_screen(alg, rows, (0,) * len(rows), d)
    split = d + len(leibniz)
    for head, need in heads:
        leibniz_need, oracle_need = need[d:split], need[split:]
        for image, tail in tails.get(need[:d], ()):
            coords = head + tail
            tensor = _leibniz_tensor_ok(alg, coords)
            if tensor != (image[d:split] == leibniz_need):
                raise InconsistentRoutes("Leibniz identity and Leibniz-row screen disagree")
            dual = image[split:] == oracle_need
            if (dual or tensor) and _dual_number_ok(alg, r_eps, coords) != dual:
                raise InconsistentRoutes("dual-number oracle and oracle-row screen disagree")
            if tensor and not dual:
                raise InconsistentRoutes("generic pass rejected by the dual-number oracle")
            if dual:
                oracle_count += 1
                if not tensor:
                    oracle_exact = False
            if tensor:
                scan.append(coords)
    scan.sort()
    agreement = scan == sorted(inner_route)
    if not agreement:
        raise InconsistentRoutes("Leibniz scan and inner-derivation route disagree")
    return EnumResult(scan, len(scan), True, len(inner_route), agreement,
                      oracle_count, oracle_exact)
