import random

import pytest

from innerscope import freeprod
from innerscope.errors import InternalError
from innerscope.freeprod import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupHom,
    GroupInnerClass,
    ReducedWord,
    ValidationFailure,
    all_homs,
    apply_extended,
    check_generic_multiplicative,
    classification_survey,
    classify_inner_endo_group,
    conjugation_word,
    cyclic_group,
    dihedral_group,
    enumerate_reduced_words,
    inner_endo_monoid,
    symmetric_group,
    word_substitute,
)

S3, S3_PERMS = symmetric_group(3)
D4, _ = dihedral_group(4)
Z6 = cyclic_group(6)


def test_builders_validate():
    assert S3.order == 6
    assert D4.order == 8
    assert Z6.order == 6
    assert S3.names[S3.identity] == "e"
    # presentation facts for S3: transpositions square to e, srs = r^-1
    s = S3.index_of("(12)")
    r = S3.index_of("(123)")
    assert S3.mul(s, s) == S3.identity
    assert S3.mul(S3.mul(s, r), s) == S3.inv(r)
    assert S3.mul(r, S3.mul(r, r)) == S3.identity


def test_composition_convention():
    # apply the right factor first: (123)(12)(132) = (23)
    a = S3.index_of("(123)")
    b = S3.index_of("(12)")
    c = S3.index_of("(132)")
    assert S3.name_of(S3.mul(S3.mul(a, b), c)) == "(23)"


def test_bad_tables_rejected():
    with pytest.raises(ValidationFailure,
                       match=r"^bad Cayley table: row 1 is not a permutation of 0\.\.1$"):
        FiniteGroup([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(ValidationFailure, match="^bad Cayley table: no two-sided identity$"):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # Latin square, no identity
    # non-associative Latin square with identity (order 5 quasigroup)
    with pytest.raises(ValidationFailure,
                       match=r"^bad Cayley table: associativity fails at \(1,1,2\)$"):
        FiniteGroup([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    with pytest.raises(ValidationFailure, match="not a permutation"):
        FiniteGroup([[False, True], [True, False]])  # booleans are no indices
    # an order over the cap is rejected before any loop over the table
    with pytest.raises(ValidationFailure, match="order %d exceeds the cap" % (MAX_GROUP_ORDER + 1)):
        FiniteGroup([None] * (MAX_GROUP_ORDER + 1))


def test_json_round_trip(tmp_path):
    data = S3.to_json()
    again = FiniteGroup.from_json(data)
    assert again == S3
    bad = dict(data)
    bad["order"] = 7
    with pytest.raises(ValidationFailure, match="^/order: does not match table size$"):
        FiniteGroup.from_json(bad)


def test_hom_validation():
    sign_map = []
    e, t = Z6.identity, None
    # S3 -> Z6 sending even perms to 0 and odd perms to 3
    for i in S3.elements():
        odd = S3.names[i].count("(") == 1 and len(S3.names[i]) == 4
        sign_map.append(3 if odd else 0)
    f = GroupHom(S3, Z6, sign_map)
    assert f.apply(S3.index_of("(12)")) == 3
    with pytest.raises(ValidationFailure, match=r"^f\(ab\) != f\(a\)f\(b\) at \(0,0\)$"):
        GroupHom(S3, Z6, [1] * 6)
    with pytest.raises(ValidationFailure, match="^map covers 5 of 6 elements$"):
        GroupHom(S3, Z6, [0] * 5)
    # an image must be an element index of the target: True == 1 is no index
    z2 = cyclic_group(2)
    for images in ([0, True], [0, 5], [0, -1], [0, 1.0]):
        with pytest.raises(ValidationFailure, match="^image of element 1 is invalid$"):
            GroupHom(z2, z2, images)


def test_hom_checks_products_on_generators_only():
    # f(ab) = f(a) f(b) on every pair of S4 would take 24^2 products;
    # on the pairs (a, s) with s a generator it takes 24 * |gens|
    s4, _ = symmetric_group(4)
    calls = []
    mul = s4.mul
    s4.mul = lambda g, h: calls.append(1) or mul(g, h)
    GroupHom.identity(s4)
    assert len(calls) <= 24 * len(s4.gens) + 1


def test_word_parse_and_display():
    w = ReducedWord.parse(S3, "(12) x (12)")
    assert len(w.syllables) == 3
    t = S3.index_of("(12)")
    assert w.syllables == (('g', t), ('x', 'x', 1), ('g', t))
    assert ReducedWord.parse(S3, "").syllables == ()
    assert ReducedWord.parse(S3, "x^-1").syllables == (('x', 'x', -1),)
    with pytest.raises(ValidationFailure,
                       match=r"^token '\(12345\)' is neither a variable nor an element name$"):
        ReducedWord.parse(S3, "(12345) x")
    # a caret with nothing after it is a bad exponent, not x^1 or the letter
    with pytest.raises(ValidationFailure, match=r"^bad exponent in token 'x\^'$"):
        ReducedWord.parse(S3, "(12) x^ (12)")
    with pytest.raises(ValidationFailure,
                       match=r"^exponents on group letters are not supported: '\(12\)\^'$"):
        ReducedWord.parse(S3, "(12)^ x (12)")


def test_every_name_is_found_by_index_of():
    s4, _ = symmetric_group(4)
    assert [s4.index_of(s4.name_of(i)) for i in s4.elements()] == list(range(24))
    with pytest.raises(KeyError) as exc:
        s4.index_of("(12345)")
    assert exc.value.args == ("no element named '(12345)'",)


def test_reduction_examples():
    s12 = S3.index_of("(12)")
    w = ReducedWord.parse(S3, "(12) x")
    # no cancellation at the seam: (12) x (12) x stays length 4
    assert (w * w).syllables == (('g', s12), ('x', 'x', 1), ('g', s12), ('x', 'x', 1))
    # group letters at the seam merge, and may vanish
    u = ReducedWord.parse(S3, "x (12)")
    v = ReducedWord.parse(S3, "(12) x")
    assert (u * v).syllables == (('x', 'x', 2),)
    # exponents of the same variable merge
    assert (ReducedWord.from_syllables(S3, [('x', 'x', 2)])
            * ReducedWord.from_syllables(S3, [('x', 'x', -2)])).syllables == ()
    # inverse really inverts
    w = ReducedWord.parse(S3, "(123) x^2 (12) x^-1")
    assert (w * w.inverse()).syllables == ()
    assert (w.inverse() * w).syllables == ()


def random_raw_syllables(rng, group, length):
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            out.append(('g', rng.randrange(group.order)))
        else:
            out.append(('x', rng.choice(["x", "y"]), rng.randrange(-2, 3)))
    return out


def reduce_random_order(rng, group, syllables):
    """Oracle: apply locally-mergeable reductions in a random order."""
    word = list(syllables)
    while True:
        moves = []
        for i, syl in enumerate(word):
            if syl[0] == 'g' and syl[1] == group.identity:
                moves.append(("drop", i))
            if syl[0] == 'x' and syl[2] == 0:
                moves.append(("drop", i))
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a[0] == 'g' and b[0] == 'g':
                moves.append(("merge", i))
            if a[0] == 'x' and b[0] == 'x' and a[1] == b[1]:
                moves.append(("merge", i))
        if not moves:
            return tuple(word)
        kind, i = rng.choice(moves)
        if kind == "drop":
            del word[i]
        else:
            a, b = word[i], word[i + 1]
            if a[0] == 'g':
                merged = ('g', group.mul(a[1], b[1]))
            else:
                merged = ('x', a[1], a[2] + b[2])
            word[i:i + 2] = [merged]


def test_reduction_order_is_irrelevant():
    rng = random.Random(2024)
    for _ in range(300):
        group = rng.choice([S3, Z6, D4])
        raw = random_raw_syllables(rng, group, rng.randrange(0, 12))
        canonical = ReducedWord.from_syllables(group, raw).syllables
        assert reduce_random_order(rng, group, raw) == canonical


def test_multiplication_is_associative():
    rng = random.Random(9)
    for _ in range(100):
        words = [
            ReducedWord.from_syllables(S3, random_raw_syllables(rng, S3, rng.randrange(0, 6)))
            for _ in range(3)
        ]
        a, b, c = words
        assert (a * b) * c == a * (b * c)


def test_group_mismatch():
    with pytest.raises(ValidationFailure, match="^words over different groups$"):
        ReducedWord.parse(S3, "x") * ReducedWord.parse(Z6, "x")


def test_substitution():
    w = ReducedWord.parse(S3, "(12) x (12)")
    ident = GroupHom.identity(S3)
    image = ReducedWord.parse(S3, "(13) x (13)")
    out = word_substitute(w, ident, {"x": image})
    s = S3.mul(S3.index_of("(12)"), S3.index_of("(13)"))
    assert out.syllables == (('g', s), ('x', 'x', 1), ('g', S3.inv(s)))
    with pytest.raises(ValidationFailure, match=r"^no image for variables \['x'\]$"):
        word_substitute(w, ident, {})


def test_substitution_rejects_words_over_the_wrong_group():
    ident = GroupHom.identity(S3)
    with pytest.raises(ValidationFailure, match="^word is not over the homomorphism source$"):
        word_substitute(ReducedWord.parse(Z6, "1 x"), ident, {"x": ReducedWord.parse(S3, "x")})
    with pytest.raises(ValidationFailure, match="^image word lives over the wrong group$"):
        word_substitute(ReducedWord.parse(S3, "(12) x"), ident, {"x": ReducedWord.parse(Z6, "x")})


def test_substitution_through_a_non_identity_hom():
    # f: Z6 -> S3 with f(1) = (123), so f(3) = e and f(5) = (132)
    r, s = S3.index_of("(123)"), S3.index_of("(12)")
    f = next(h for h in all_homs(Z6, S3) if h.apply(1) == r)
    w = ReducedWord.parse(Z6, "1 x0^-2 3 x1 5")
    images = {"x0": ReducedWord.parse(S3, "(12) x"), "x1": ReducedWord.parse(S3, "(12) x^-1")}
    # pieces (123) | x^-1 (12) x^-1 (12) | e | (12) x^-1 | (132): the two (12)s meet and cancel
    assert word_substitute(w, f, images).syllables == (
        ('g', r), ('x', 'x', -1), ('g', s), ('x', 'x', -2), ('g', S3.inv(r)))


def test_generic_check_reduces_each_side_once(monkeypatch):
    calls = []
    reduce = freeprod._reduce_syllables
    monkeypatch.setattr(freeprod, "_reduce_syllables",
                        lambda group, syllables: calls.append(1) or reduce(group, syllables))

    def no_hom(*args):
        raise AssertionError("the generic check built a GroupHom")

    monkeypatch.setattr(GroupHom, "__init__", no_hom)
    counts = []
    for text in ("x", "(12) x (13) x^-1 (23) x^2 (123) x^-3 (132)"):
        w = ReducedWord.parse(S3, text)
        calls.clear()
        check_generic_multiplicative(w)
        counts.append((len(w.syllables), len(calls)))
    assert counts == [(1, 2), (9, 2)]


def test_generic_check_examples():
    # conjugation shapes pass
    for s in S3.elements():
        assert check_generic_multiplicative(conjugation_word(S3, s))
    # the empty word (trivial endomorphism) passes
    assert check_generic_multiplicative(ReducedWord.empty(S3))
    # squaring and constants fail
    assert not check_generic_multiplicative(ReducedWord.parse(S3, "x^2"))
    assert not check_generic_multiplicative(ReducedWord.parse(S3, "(12)"))
    assert not check_generic_multiplicative(ReducedWord.parse(S3, "(12) x^2 (12)"))
    assert not check_generic_multiplicative(ReducedWord.parse(S3, "(12) x"))
    with pytest.raises(ValidationFailure,
                       match=r"^expected a word in one variable, found \['x0', 'x1'\]$"):
        check_generic_multiplicative(ReducedWord.parse(S3, "x0 x1"))


def test_classification_examples():
    assert classify_inner_endo_group(ReducedWord.empty(S3)) == GroupInnerClass.trivial()
    assert classify_inner_endo_group(ReducedWord.parse(S3, "x")) == \
        GroupInnerClass.conjugation(S3.identity)
    assert classify_inner_endo_group(ReducedWord.parse(S3, "(12) x (12)")) == \
        GroupInnerClass.conjugation(S3.index_of("(12)"))
    assert classify_inner_endo_group(ReducedWord.parse(S3, "(12) x (13)")) == \
        GroupInnerClass.not_inner()
    assert classify_inner_endo_group(ReducedWord.parse(S3, "x^-1")) == \
        GroupInnerClass.not_inner()


def test_routes_agree_on_short_words():
    # quick version of the full survey: all reduced words up to 3 syllables
    for group in (S3, Z6):
        accepted, mismatches = [], []
        for w in enumerate_reduced_words(group, 3):
            generic = check_generic_multiplicative(w)
            if generic != classify_inner_endo_group(w).is_inner():
                mismatches.append(w)
            if generic:
                accepted.append(w)
        assert mismatches == []
        assert len(accepted) == group.order + 1


def test_survey_of_s3_with_its_identity_at_index_3():
    # Relabel S3 by the cycle 0 -> 3 -> 1 -> 0, so that no code may take
    # element 0 for the identity: both routes still agree on every word, and
    # exactly the conjugations and the empty word pass.
    move = [3, 0, 2, 1, 4, 5]
    table = [[0] * 6 for _ in range(6)]
    names = [""] * 6
    for i in range(6):
        names[move[i]] = S3.names[i]
        for j in range(6):
            table[move[i]][move[j]] = move[S3.mul(i, j)]
    group = FiniteGroup(table, names)
    assert group.identity == 3
    accepted, mismatches = classification_survey(group)
    assert mismatches == []
    expected = {conjugation_word(group, s).syllables for s in range(6)} | {()}
    assert len(accepted) == 7 and {w.syllables for w in accepted} == expected


def test_enumeration_counts():
    # alternating syllable patterns with 5 nonidentity letters and 4 exponents
    words = list(enumerate_reduced_words(S3, 2))
    # 1 empty + (5 + 4) of length 1 + (5*4 + 4*5) of length 2
    assert len(words) == 1 + 9 + 40
    assert len(set(w.syllables for w in words)) == len(words)


def test_monoid_s3():
    result = inner_endo_monoid(S3)
    assert len(result.elements) == 7
    assert result.iso_check
    # invertible part: exactly the conjugations, composing like S3 itself
    trivial = 6
    for i in range(6):
        assert any(result.table[i][j] == S3.identity for j in range(6))
    assert all(result.table[trivial][j] == trivial for j in range(7))
    assert all(result.table[i][trivial] == trivial for i in range(7))


def test_monoid_closure_check_fires(monkeypatch):
    # every composition substitutes to x^2, which realizes no extended inner endo
    monkeypatch.setattr(freeprod, "_substituted", lambda *args: [('x', 'x', 2)])
    with pytest.raises(InternalError, match="composition left the candidate set"):
        inner_endo_monoid(S3)


def test_monoid_trivial_group():
    g = cyclic_group(1)
    result = inner_endo_monoid(g)
    assert len(result.elements) == 2
    assert result.iso_check


def test_apply_extended():
    ident = GroupHom.identity(S3)
    cls = GroupInnerClass.conjugation(S3.index_of("(123)"))
    t = S3.index_of("(12)")
    assert S3.name_of(apply_extended(cls, ident, t)) == "(23)"
    assert apply_extended(GroupInnerClass.trivial(), ident, t) == S3.identity
    with pytest.raises(ValidationFailure, match="^cannot apply a not_inner classification$"):
        apply_extended(GroupInnerClass.not_inner(), ident, t)


def test_apply_extended_naturality():
    """f2 = h o f1 implies beta_{f2}(h(t)) = h(beta_{f1}(t)) for every class."""
    rng = random.Random(41)
    homs_s3 = all_homs(S3, S3)
    for _ in range(20):
        f1 = rng.choice(homs_s3)
        h = rng.choice(homs_s3)
        f2 = h.compose(f1)
        for cls in [GroupInnerClass.trivial()] + \
                [GroupInnerClass.conjugation(s) for s in S3.elements()]:
            for t in S3.elements():
                left = apply_extended(cls, f2, h.apply(t))
                right = h.apply(apply_extended(cls, f1, t))
                assert left == right
