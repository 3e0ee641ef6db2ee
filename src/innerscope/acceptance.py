"""End-to-end verification suite behind ``innerscope selftest``.

Every check pits a headline computation against an independent route:
hand-built linear algebra, an exhaustive scan, or a count frozen from a
structural argument.  Checks return (passed, detail) pairs and never
raise on a mathematical failure, so one broken claim does not hide the
others.  A check's wall-clock budget sits beside it in CHECKS, and run_all
fails a pass that reaches it; a pathological slowdown is not a shrug.

All arithmetic is exact.  The random checks draw from seeded generators
so that a failure is reproducible by rerunning the suite.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from .embed import build_embedding, central_witness, verify_injectivity_via_embedding
from .exactmath import GF, QQ, apply_columns, rank_raw
from .freeprod import (
    ReducedWord,
    all_homs,
    apply_extended,
    classification_survey,
    conjugation_word,
    cyclic_group,
    dihedral_group,
    GroupInnerClass,
    inner_endo_monoid,
    symmetric_group,
)
from .gset import (
    EquivariantMap,
    apply_coinner,
    coinner_group,
    disjoint_union,
    natural_gset,
    naturality_oracle,
    orbit_data,
    regular_gset,
    transversal,
)
from .rewrite import (
    LieData,
    NcPolynomial,
    ad_power_check,
    check_endo_fp,
    fp_witness_checks,
    heisenberg,
    leavitt_system,
    pbw_system,
    sl2,
)
from .tensoralg import (
    AlgebraHom,
    DerivationCandidate,
    EndoCandidate,
    TensorElement,
    classify_inner_endo_algebra,
    enumerate_inner_derivations,
    enumerate_inner_endos,
    extract_derivation_element,
    field_algebra,
    induced_endomorphism,
    matrix_algebra,
    truncated_polynomial_algebra,
)


def check_word_survey():
    """Syntactic shape and the generic equation agree on every short word.

    Over S3, D4, and Z6 every reduced one-variable word of length at most
    five with exponents in {1, -1, 2, -2} is classified both ways, and
    the accepted set must be exactly the conjugation words plus the empty
    word: |G| + 1 of them.
    """
    sizes = []
    for label, group in (("S3", symmetric_group(3)[0]),
                         ("D4", dihedral_group(4)[0]),
                         ("Z6", cyclic_group(6))):
        accepted, mismatches = classification_survey(group)
        if mismatches:
            return False, "%s: the two routes disagree on %d words" % (label, len(mismatches))
        got = {w.syllables for w in accepted}
        want = {conjugation_word(group, s).syllables for s in group.elements()}
        want.add(ReducedWord.empty(group).syllables)
        if got != want:
            return False, "%s: accepted words are not the conjugation words" % label
        if len(got) != group.order + 1:
            return False, "%s: expected %d accepted words, got %d" % (
                label, group.order + 1, len(got))
        sizes.append(len(got))
    return True, "accepted sizes %d/%d/%d over S3/D4/Z6, no disagreements" % (
        sizes[0], sizes[1], sizes[2])


def check_endo_monoid():
    """The composition monoid over S3 is S3 with an absorbing element.

    Seven elements; the six conjugations compose exactly like the group
    table, and the constant-identity map swallows everything.
    """
    group = symmetric_group(3)[0]
    res = inner_endo_monoid(group)
    if len(res.elements) != 7:
        return False, "expected 7 elements, got %d" % len(res.elements)
    if not res.iso_check:
        return False, "internal isomorphism check failed"
    for s in group.elements():
        for t in group.elements():
            if res.table[s][t] != group.mul(s, t):
                return False, "table disagrees with S3 at (%d, %d)" % (s, t)
    trivial = len(res.elements) - 1
    for i in range(len(res.elements)):
        if res.table[trivial][i] != trivial or res.table[i][trivial] != trivial:
            return False, "constant map fails to absorb position %d" % i
    kinds = [c.kind for c in res.elements]
    if kinds != ["conjugation"] * 6 + ["trivial"]:
        return False, "unexpected element kinds %r" % kinds
    return True, "7 elements, table matches S3 exactly, constant map absorbing"


def check_unit_tensor_scan():
    """All 2^16 degree-2 tensors over M2(F2), against a hand-built GL2.

    The scan must accept exactly six tensors, each classifying as a
    conjugation, and the accepted set must equal {u (x) u^-1} where u
    runs over the matrices with nonzero 2 x 2 determinant, invertibility
    and inverses computed here from the closed formulas rather than by
    the library.
    """
    field = GF(2)
    alg = matrix_algebra(2, field)
    res = enumerate_inner_endos(alg, budget=1 << 20)
    if not res.brute_forced:
        return False, "scan did not run"
    if res.count != 6 or res.unit_count != 6 or not res.agreement:
        return False, "scan accepted %d tensors, unit route built %d" % (
            res.count, res.unit_count)
    expected = set()
    units = 0
    for u in itertools.product(range(2), repeat=4):
        a, b, c, d = u
        if (a * d + b * c) % 2 != 1:
            continue
        units += 1
        uinv = (d, b, c, a)
        expected.add(tuple(u[i] * uinv[j] % 2 for i in range(4) for j in range(4)))
    if set(res.passing) != expected:
        return False, "accepted set differs from the hand-built unit tensors"
    if units != 6 or res.count * (field.char - 1) != units:
        return False, "unit count %d breaks the quotient formula" % units
    for coords in res.passing:
        cand = EndoCandidate.from_tensor(alg, TensorElement(field, alg.dim, coords))
        if classify_inner_endo_algebra(cand).kind != "conjugation":
            return False, "an accepted tensor did not classify as a conjugation"
    return True, "6 of 65536 tensors pass, all conjugations by GL2(F2)"


def check_derivation_scan():
    """All 2^16 tensors against the commutator family over M2(F2).

    Exactly eight tensors satisfy the generic Leibniz identity; they are
    the tensors 1 (x) b - b (x) 1 built here by hand, the dual-number
    oracle accepts exactly the same eight, and extraction returns the
    splitting-normalized b that rebuilds each tensor.
    """
    field = GF(2)
    alg = matrix_algebra(2, field)
    res = enumerate_inner_derivations(alg, budget=1 << 20)
    if res.count != 8 or not res.agreement:
        return False, "scan accepted %d tensors" % res.count
    if res.oracle_count != 8 or not res.oracle_exact:
        return False, "dual-number oracle accepted %s tensors" % res.oracle_count
    unit = alg.unit
    expected = set()
    for b in itertools.product(range(2), repeat=4):
        expected.add(tuple((unit[i] * b[j] + b[i] * unit[j]) % 2
                           for i in range(4) for j in range(4)))
    if set(res.passing) != expected:
        return False, "accepted set differs from the commutator tensors"
    for coords in res.passing:
        cand = DerivationCandidate(alg, TensorElement(field, alg.dim, coords))
        b = extract_derivation_element(cand)
        if alg.phi(b) != field.zero:
            return False, "extracted element is not splitting-normalized"
        rebuilt = tuple((unit[i] * b[j] + b[i] * unit[j]) % 2
                        for i in range(4) for j in range(4))
        if rebuilt != coords:
            return False, "extracted element does not rebuild its tensor"
    return True, "8 passing tensors, oracle exact on all 65536, extraction round-trips"


def check_leavitt_pair():
    """The rank-2 row-column pair is a verified injective endomorphism.

    The defining rewriting system is confluent, the pair a = (x1, x2),
    b = (y1, y2) passes both endomorphism conditions, and the witness
    battery (left inverses y_j w(r) x_j = r, commuting and independent
    matrix units) holds on seven sample elements.
    """
    rs = leavitt_system(2, QQ)
    if not rs.is_confluent():
        return False, "defining system is not confluent"
    a_list = [NcPolynomial.parse(QQ, "x1", rs.generators),
              NcPolynomial.parse(QQ, "x2", rs.generators)]
    b_list = [NcPolynomial.parse(QQ, "y1", rs.generators),
              NcPolynomial.parse(QQ, "y2", rs.generators)]
    verdict = check_endo_fp(a_list, b_list, rs)
    if not verdict.passed:
        return False, "pair fails the endomorphism conditions: %s" % verdict.reason
    samples = [NcPolynomial.one(QQ)]
    samples.extend(NcPolynomial.monomial(QQ, (g,)) for g in rs.generators)
    samples.append(NcPolynomial.monomial(QQ, ("x1", "y2")))
    samples.append(NcPolynomial.monomial(QQ, ("y2", "x1")))
    witness = fp_witness_checks(a_list, b_list, rs, samples)
    if not witness["injectivity"]:
        return False, "a left-inverse witness failed"
    if not witness["centralizing"]:
        return False, "a matrix unit fails to commute with w(r)"
    if not witness["independent_units"] or witness["rank"] != 4:
        return False, "matrix units have rank %d, expected 4" % witness["rank"]
    return True, "confluent, pair passes, witnesses hold on %d samples, units rank 4" % len(samples)


def check_pbw_jacobi():
    """Straightening is confluent exactly on the Jacobi tables.

    Twenty random 3-dimensional antisymmetric bracket tables over GF(5)
    are straightened; confluence must agree with the Jacobi identity on
    every one.  Each bracket vector is zeroed with probability one half
    so that the sample contains tables on both sides of the divide.  The
    split Lie algebra straightens cleanly over QQ, GF(3), and GF(5).
    """
    field = GF(5)
    rng = random.Random(7)
    holds = 0
    for _ in range(20):
        brackets = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if rng.randrange(2) == 0:
                    vec = [0, 0, 0]
                else:
                    vec = [rng.randrange(5) for _ in range(3)]
                brackets[i][j] = vec
                brackets[j][i] = [(-c) % 5 for c in vec]
        lie = LieData(field, brackets)
        jacobi = lie.jacobi_ok()
        confluent = pbw_system(lie).is_confluent()
        if jacobi != confluent:
            return False, "a random table is %s but %s" % (
                "Jacobi" if jacobi else "non-Jacobi",
                "confluent" if confluent else "not confluent")
        holds += jacobi
    for f in (QQ, GF(3), GF(5)):
        if not pbw_system(sl2(f)).is_confluent():
            return False, "sl2 straightening is not confluent over char %d" % f.char
    return True, "20 random GF(5) tables agree (%d Jacobi, %d not); sl2 confluent over QQ, GF(3), GF(5)" % (
        holds, 20 - holds)


def check_char_p_powers():
    """Iterated brackets equal p-th power commutators on basis pairs.

    For every ordered basis pair (a, u): three iterated brackets match
    the commutator with a^3 in sl2 over GF(3), two match the commutator
    with a^2 in the Heisenberg algebra over GF(2), and each commutator
    normal form lies back in the span of the generators.
    """
    pairs = 0
    for label, lie in (("sl2/GF(3)", sl2(GF(3))), ("heisenberg/GF(2)", heisenberg(GF(2)))):
        basis = [lie.basis_vector(i) for i in range(lie.dim)]
        for a_vec in basis:
            for u_vec in basis:
                rep = ad_power_check(lie, a_vec, u_vec)
                if not rep["match"]:
                    return False, "%s: iterated bracket misses the commutator" % label
                if not rep["degree_one"]:
                    return False, "%s: a commutator leaves the Lie algebra" % label
                if not rep["passed"]:
                    return False, "%s: power check failed" % label
                pairs += 1
    return True, "%d basis pairs match, every commutator stays degree one" % pairs


def check_coinner_orders():
    """Co-inner group orders against the brute-force naturality count.

    Four right G-sets with frozen orders: the natural S3-set (2), the
    regular Z4-set (4), the regular S3-set (6), and a two-orbit regular
    S3-set (36).  Each order must equal the product of centralizers of
    stabilizers, and the exhaustive oracle must accept exactly the same
    solutions.
    """
    s3, s3_perms = symmetric_group(3)
    z4 = cyclic_group(4)
    cases = [
        ("natural S3-set", natural_gset(s3, s3_perms), 2),
        ("regular Z4-set", regular_gset(z4), 4),
        ("regular S3-set", regular_gset(s3), 6),
        ("two-orbit S3-set", disjoint_union(regular_gset(s3), regular_gset(s3)), 36),
    ]
    for label, obj, order in cases:
        res = coinner_group(obj)
        if res.order != order:
            return False, "%s: order %d, expected %d" % (label, res.order, order)
        if not res.iso_check:
            return False, "%s: structure check failed" % label
        data = orbit_data(obj)
        product = math.prod(map(len, data.centralizers))
        if product != order:
            return False, "%s: centralizer product %d != %d" % (label, product, order)
        count, match = naturality_oracle(obj)
        if count != order or not match:
            return False, "%s: oracle found %d solutions, match=%s" % (label, count, match)
    return True, "orders 2/4/6/36 equal centralizer products and oracle counts"


def check_embedding_suite():
    """Twisted truncations over three base rings, then the M2 injectivity run.

    For GF(2), M2(GF(2)), and QQ[z]/(z^2): the big algebra associates on
    every basis triple (StructAlgebra checks that when build_embedding
    constructs it, and raises otherwise), the embedding has full rank, and
    every basis element of the base gets a verified central witness.  All six inner
    endomorphisms of M2(GF(2)) then induce kernel-free maps on the
    36-dimensional algebra that fix its computed centralizer pointwise.
    """
    f2 = GF(2)
    m2 = matrix_algebra(2, f2)
    bases = [
        ("GF(2)", field_algebra(f2)),
        ("M2(GF(2))", m2),
        ("QQ[z]/(z^2)", truncated_polynomial_algebra(QQ)),
    ]
    dims = []
    m2_truncation = None
    for label, alg in bases:
        tt = build_embedding(alg)
        if alg is m2:
            m2_truncation = tt
        if tt.total.dim != alg.dim + 2 * alg.dim ** 2:
            return False, "%s: wrong total dimension %d" % (label, tt.total.dim)
        if rank_raw(alg.field, tt.embed.cols) != alg.dim:
            return False, "%s: embedding is not injective" % label
        for i in range(alg.dim):
            _, report = central_witness(tt, alg.basis_vector(i))
            if not report["passed"]:
                return False, "%s: central witness fails on basis element %d" % (label, i)
        dims.append(tt.total.dim)
    verified = 0
    for u in itertools.product(range(2), repeat=4):
        if not m2.is_unit(u):
            continue
        cand = EndoCandidate.from_unit(m2, u)
        report = verify_injectivity_via_embedding(cand, m2_truncation)
        if not report["passed"]:
            return False, "conjugation by %r fails the induced-map checks" % (u,)
        if report["kernel_rank"] != 0 or not report["fixes_centralizer"]:
            return False, "conjugation by %r: kernel rank %d" % (u, report["kernel_rank"])
        verified += 1
    if verified != 6:
        return False, "expected 6 units of M2(GF(2)), verified %d" % verified
    return True, "dimensions %d/%d/%d associative, 6 induced maps kernel-free" % (
        dims[0], dims[1], dims[2])


def _group_squares(rng, count):
    pool = [
        symmetric_group(3)[0],
        cyclic_group(6),
        cyclic_group(4),
        cyclic_group(3),
    ]
    hom_cache = {}

    def homs(src, dst):
        key = (id(src), id(dst))
        if key not in hom_cache:
            hom_cache[key] = all_homs(src, dst)
        return hom_cache[key]

    for _ in range(count):
        g = rng.choice(pool)
        h1 = rng.choice(pool)
        h2 = rng.choice(pool)
        f1 = rng.choice(homs(g, h1))
        connecting = rng.choice(homs(h1, h2))
        f2 = connecting.compose(f1)
        pick = rng.randrange(g.order + 1)
        cls = GroupInnerClass.trivial() if pick == g.order else GroupInnerClass.conjugation(pick)
        for t in h1.elements():
            left = connecting.apply(apply_extended(cls, f1, t))
            right = apply_extended(cls, f2, connecting.apply(t))
            if left != right:
                return "group square breaks at t=%d for %r" % (t, cls)
    return None


def _free_orbit_map(rng, source, target):
    """A random equivariant map out of a disjoint union of free orbits."""
    data = orbit_data(source)
    mapping = [None] * source.points
    for rep in data.reps:
        image = rng.randrange(target.points)
        for point, h in transversal(source, rep).items():
            mapping[point] = target.action[image][h]
    return EquivariantMap(source, target, mapping)


def _algebra_squares(rng, count):
    f2 = GF(2)
    m2 = matrix_algebra(2, f2)
    m2_units = [u for u in itertools.product(range(2), repeat=4) if m2.is_unit(u)]
    tp3 = truncated_polynomial_algebra(GF(3))
    tp3_units = [u for u in itertools.product(range(3), repeat=2) if u[0] != 0]
    tpq = truncated_polynomial_algebra(QQ)
    scenes = []
    for alg, units in ((m2, m2_units), (tp3, tp3_units)):
        tt = build_embedding(alg)
        big_units = []
        for _ in range(4):
            coords = list(alg.unit) + [rng.randrange(alg.field.char)
                                       for _ in range(2 * alg.dim ** 2)]
            big_units.append(tuple(coords))
        scenes.append((alg, units, tt, big_units))
    tpq_units = [(1, 0), (1, 1), (2, 1), (1, -3)]
    tpq_tt = build_embedding(tpq)
    tpq_big = [tuple([1, 0] + [rng.randrange(-2, 3) for _ in range(8)])]
    scenes.append((tpq, tpq_units, tpq_tt, tpq_big))
    for step in range(count):
        alg, units, tt, big_units = scenes[step % len(scenes)]
        cand = EndoCandidate.from_unit(alg, rng.choice(units))
        if rng.randrange(2) == 0:
            f1 = AlgebraHom.conjugation(alg, rng.choice(units))
            connecting = AlgebraHom.conjugation(alg, rng.choice(units))
        else:
            f1 = tt.embed
            connecting = AlgebraHom.conjugation(tt.total, rng.choice(big_units))
        f2 = connecting.compose(f1)
        left = [connecting.apply(col) for col in induced_endomorphism(cand, f1).cols]
        right_cols = induced_endomorphism(cand, f2).cols
        right = [apply_columns(alg.field, right_cols, col) for col in connecting.cols]
        if left != right:
            return "algebra square breaks over %r" % (alg,)
    return None


def _gset_squares(rng, count):
    s3, s3_perms = symmetric_group(3)
    bases = [natural_gset(s3, s3_perms), regular_gset(s3), regular_gset(cyclic_group(4))]
    data_of = [(a, coinner_group(a).elements) for a in bases]
    for _ in range(count):
        a, elements = rng.choice(data_of)
        group = a.group
        def free_object():
            if rng.randrange(2) == 0:
                return regular_gset(group)
            return disjoint_union(regular_gset(group), regular_gset(group))
        b1 = free_object()
        b2 = free_object()
        connecting = _free_orbit_map(rng, b1, b2)
        f2 = _free_orbit_map(rng, b2, a)
        f1 = f2.compose(connecting)
        datum = rng.choice(elements)
        e1 = apply_coinner(datum, a, f1)
        e2 = apply_coinner(datum, a, f2)
        for q in range(b1.points):
            if connecting.mapping[e1[q]] != e2[connecting.mapping[q]]:
                return "G-set square breaks at point %d" % q
    return None


def check_square_commutation():
    """Fifty random commuting triangles produce commuting squares.

    Triangles are drawn across all three object kinds: 17 group
    homomorphism triangles, 17 algebra homomorphism triangles (with the
    twisted truncations among the targets), and 16 equivariant-map
    triangles.  In each, the self-maps induced on the two stages must
    commute with the connecting map, pointwise and exactly.
    """
    rng = random.Random(2754)
    for failure in (_group_squares(rng, 17),
                    _algebra_squares(rng, 17),
                    _gset_squares(rng, 16)):
        if failure is not None:
            return False, failure
    return True, "50 squares commute: 17 group, 17 algebra, 16 G-set"


# (name, check, wall-clock budget in seconds or None)
CHECKS = [
    ("word-survey", check_word_survey, 10),
    ("endo-monoid", check_endo_monoid, None),
    ("unit-tensor-scan", check_unit_tensor_scan, 60),
    ("derivation-scan", check_derivation_scan, 120),
    ("leavitt-pair", check_leavitt_pair, None),
    ("pbw-jacobi", check_pbw_jacobi, None),
    ("char-p-powers", check_char_p_powers, None),
    ("coinner-orders", check_coinner_orders, 30),
    ("embedding-suite", check_embedding_suite, 60),
    ("square-commutation", check_square_commutation, None),
]


def run_all():
    """Run every check in order; returns (name, passed, detail) triples.

    A check that passes but reaches its budget fails, with its time.
    """
    results = []
    for name, fn, budget in CHECKS:
        started = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - started
        if passed and budget is not None and elapsed >= budget:
            passed, detail = False, "%s took %.1f s against a %d s budget" % (name, elapsed, budget)
        results.append((name, passed, detail))
    return results
