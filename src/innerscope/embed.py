"""A twisted truncated extension that certifies injectivity of inner maps.

For a finite-dimensional algebra R the algebra

    S = (R (x) 1)  +  (R (x) R) t  +  (R (x) R) t^2

with t^3 = 0 and the twist rule t (r1 (x) r2) = (r2 (x) r1) t receives R by
f(r) = r (x) 1.  Every element (1 (x) r) t^2 is central in S and lies in
S f(r) S, so an inner endomorphism of R, pushed to S along f, must fix such
elements and therefore cannot kill r.  The associativity of S is equivalent
to the twist being an algebra automorphism of R (x) R and is verified
exactly at construction on every basis triple, by StructAlgebra.validate;
the map induced on S is verified to be a unital endomorphism on every basis
pair, by the same map check as every algebra map.  Both visit only the
nonzero products, through indexes listed once per call, since S is sparse:
over M2 it has dimension 36, and 200 of its 1,296 basis products are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import InternalError, ValidationFailure
from .exactmath import add_scaled, apply_columns, rank_raw
from .tensoralg import (
    AlgebraHom,
    EndoCandidate,
    StructAlgebra,
    action_columns,
    centralizer_basis,
    induced_endomorphism,
    tensor_of_pairs,
)

MAX_BASE_DIM = 6


def block1_index(d: int, i: int, j: int) -> int:
    """Position of (e_i (x) e_j) t in S over a base of dimension d."""
    return d + i * d + j


def block2_index(d: int, i: int, j: int) -> int:
    """Position of (e_i (x) e_j) t^2 in S over a base of dimension d."""
    return d + d * d + i * d + j


@dataclass
class TwistedTruncation:
    base: StructAlgebra
    total: StructAlgebra
    embed: AlgebraHom
    t_element: tuple

    def f(self, vec):
        return self.embed.apply(vec)


def build_embedding(r: StructAlgebra) -> TwistedTruncation:
    """Construct S from R, with f and the distinguished element t.

    The basis of S is the R-block followed by the two tensor blocks in
    row-major order, so f is the inclusion of the leading coordinates.
    """
    d = r.dim
    if d > MAX_BASE_DIM:
        raise ValidationFailure("base dimension %d exceeds the cap %d" % (d, MAX_BASE_DIM))
    field = r.field
    total_dim = d + 2 * d * d

    b1 = partial(block1_index, d)
    b2 = partial(block2_index, d)
    zero = field.zero
    structure = [[{} for _ in range(total_dim)] for _ in range(total_dim)]

    def add_terms(row, col, terms):
        add_scaled(field, structure[row][col], field.one, terms)

    for i in range(d):
        for c in range(d):
            rc = r.prod[i][c]
            # (e_i (x) 1) * (e_c (x) 1)
            add_terms(i, c, rc.items())
            for j in range(d):
                # (e_i (x) 1) * (e_c (x) e_j) t^m multiplies the left factor
                add_terms(i, b1(c, j), [(b1(k, j), v) for k, v in rc.items()])
                add_terms(i, b2(c, j), [(b2(k, j), v) for k, v in rc.items()])
                # (e_i (x) e_j) t * (e_c (x) 1): the twist moves e_c right
                add_terms(b1(i, j), c,
                          [(b1(i, k), v) for k, v in r.prod[j][c].items()])
                # (e_i (x) e_j) t^2 * (e_c (x) 1): the twist squared is trivial
                add_terms(b2(i, j), c, [(b2(k, j), v) for k, v in rc.items()])
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    # (e_a (x) e_b) t * (e_c (x) e_e) t = (e_a e_e (x) e_b e_c) t^2
                    terms = []
                    for k, v in r.prod[a][e].items():
                        for m, w in r.prod[b][c].items():
                            terms.append((b2(k, m), v * w))
                    add_terms(b1(a, b), b1(c, e), terms)

    unit = list(r.unit) + [zero] * (2 * d * d)
    names = list(r.names)
    names.extend("t[%s,%s]" % (r.names[i], r.names[j])
                 for i in range(d) for j in range(d))
    names.extend("t2[%s,%s]" % (r.names[i], r.names[j])
                 for i in range(d) for j in range(d))
    total = StructAlgebra(field, structure, unit, names=names)

    cols = [total.basis_vector(i) for i in range(d)]
    embed = AlgebraHom(r, total, cols)
    if rank_raw(field, embed.cols) != d:
        raise InternalError("embedding is not injective")

    t_element = (zero,) * d + tensor_of_pairs(field, d, (r.unit,), (r.unit,)) + (zero,) * (d * d)
    return TwistedTruncation(r, total, embed, t_element)


def central_witness(tt: TwistedTruncation, r_elem):
    """The element (1 (x) r) t^2 of S, with its certifying report.

    The report confirms the element is nonzero, equals t * f(r) * t
    literally, commutes with every basis element of S, and multiplies both
    t-graded summands to zero.
    """
    base = tt.base
    field = base.field
    r_vec = tuple(field.coerce(c) for c in r_elem)
    if len(r_vec) != base.dim:
        raise ValidationFailure("element has wrong length")
    if all(c == field.zero for c in r_vec):
        raise ValidationFailure("central witness needs a nonzero element")
    total = tt.total
    d = base.dim
    c_vec = (field.zero,) * (d + d * d) + tensor_of_pairs(field, d, (base.unit,), (r_vec,))

    product = total.mul_vec(total.mul_vec(tt.t_element, tt.f(r_vec)), tt.t_element)
    literal = product == c_vec
    basis = [total.basis_vector(k) for k in range(total.dim)]
    left = [total.mul_vec(c_vec, e) for e in basis]
    right = [total.mul_vec(e, c_vec) for e in basis]
    central = left == right
    zero_vec = (field.zero,) * total.dim
    annihilates = all(v == zero_vec for v in left[d:] + right[d:])
    nonzero = c_vec != zero_vec
    report = {
        "nonzero": nonzero,
        "literal_product_matches": literal,
        "central": central,
        "annihilates_t_blocks": annihilates,
        "passed": nonzero and literal and central and annihilates,
    }
    return c_vec, report


def verify_injectivity_via_embedding(c: EndoCandidate, tt: TwistedTruncation) -> dict:
    """Push an inner endomorphism of R to S and certify it is one-to-one.

    Checks, in order: the induced map on S fixes the centralizer of f(R)
    pointwise, it has zero kernel, and its restriction along f agrees with
    the original map on R.
    """
    if c.algebra != tt.base:
        raise ValidationFailure("candidate lives on a different algebra")
    induced = induced_endomorphism(c, tt.embed)
    base = tt.base
    field = base.field
    cent = centralizer_basis(tt.total, tt.embed.cols)
    fixes = all(apply_columns(field, induced.cols, v) == tuple(v) for v in cent)
    lhs = [apply_columns(field, induced.cols, col) for col in tt.embed.cols]
    rhs = [tt.f(col) for col in action_columns(base, c.w.coords)]
    restriction = lhs == rhs
    passed = fixes and induced.is_injective and restriction
    return {
        "fixes_centralizer": fixes,
        "centralizer_dim": len(cent),
        "kernel_rank": induced.kernel_rank,
        "injective": induced.is_injective,
        "restriction_matches": restriction,
        "passed": passed,
    }
