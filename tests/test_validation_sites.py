"""Every ValidationFailure raise site fires: bad input is refused with its
own message.

Input files go through cli.main, which must exit 2 with one `error:` line
and no traceback; library-only sites are called directly.  Each message is
matched whole.
"""

import copy
import json

import pytest

from innerscope import corpus
from innerscope.cli import main
from innerscope.errors import ValidationFailure
from innerscope.exactmath import GF, QQ
from innerscope.freeprod import GroupHom, ReducedWord, cyclic_group, symmetric_group
from innerscope.gset import CoInnerDatum, EquivariantMap, apply_coinner, regular_gset, trivial_gset
from innerscope.rewrite import NcPolynomial, RewriteSystem
from innerscope.tensoralg import (
    AlgebraHom,
    DerivationCandidate,
    EndoCandidate,
    TensorElement,
    induced_endomorphism,
    inner_derivation_of,
    matrix_algebra,
    upper_triangular_algebra,
)

F2, F3 = GF(2), GF(3)


def _bundled(name):
    with open(corpus.data_path(name)) as f:
        return json.load(f)


def _edited(name, edit):
    data = copy.deepcopy(_bundled(name))
    edit(data)
    return data


def _exits_2(argv, message, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out + err
    assert err == "error: %s\n" % message


def _fails(message, call, *args):
    with pytest.raises(ValidationFailure) as exc:
        call(*args)
    assert str(exc.value) == message


def _repeated_name(data):
    data["names"][1] = data["names"][0]


def _short_unit(data):
    data["unit"] = data["unit"][:3]


def _names_e_e_h(data):
    data["names"] = ["e", "e", "h"]


@pytest.mark.parametrize("argv, option, payload, message", [
    (["group", "monoid"], "--group", _edited("s3", _repeated_name),
     "bad Cayley table: duplicate names"),
    (["group", "monoid"], "--group", {"names": ["a", "b"], "order": 2, "table": [[0, 1], [0, 1]]},
     "bad Cayley table: column 0 is not a permutation"),
    (["algebra", "enumerate"], "--algebra", _edited("m2f2", _short_unit),
     "unit vector has wrong length"),
    (["rewrite", "pbw"], "--lie", _edited("sl2f3", _names_e_e_h), "bad basis names"),
    (["gset", "orbits"], "--gset", {"points": 1, "action": [[0] * 6]}, "/group: missing path"),
])
def test_a_bad_input_file_exits_2(argv, option, payload, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    _exits_2(argv + [option, str(path)], message, capsys)


def test_a_tensor_candidate_needs_a_row_per_basis_vector(tmp_path, capsys):
    path = tmp_path / "cand.json"
    path.write_text(json.dumps({"kind": "tensor", "coords": [["0"] * 4] * 3}))
    _exits_2(["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", str(path)],
             "/coords: expected 4 rows", capsys)


# ARABIC-INDIC DIGIT THREE and FIVE: int() reads them as 3 and 5
THREE, FIVE = "\u0663", "\u0665"
S3 = symmetric_group(3)[0]


@pytest.mark.parametrize("case, message", [
    ((ReducedWord.parse, S3, "x^1_0"), "bad exponent in token 'x^1_0'"),
    ((ReducedWord.parse, S3, "x^" + THREE), "bad exponent in token 'x^%s'" % THREE),
    ((NcPolynomial.parse, QQ, "x1^1_0", ["x1"]), "bad exponent '1_0'"),
    ((GF(5).parse_scalar, "1_0"), "cannot read scalar '1_0'"),
    ((GF(5).parse_scalar, "1_0 mod 5"), "cannot read scalar '1_0 mod 5'"),
    ((GF(5).parse_scalar, THREE + " mod " + FIVE), "cannot read scalar '%s mod %s'" % (THREE, FIVE)),
    (["rewrite", "leavitt", "--field", "GF(%s)" % FIVE], "/field: cannot read 'GF(%s)'" % FIVE),
    (["rewrite", "leavitt", "--field", "F1_1"], "/field: cannot read 'F1_1'"),
    (["rewrite", "leavitt", "--n", "1_0"], "argument --n: expected an integer, got '1_0'"),
    (["rewrite", "unit-search", "--system", "leavitt2.json", "--degree-cap", "1_0"],
     "argument --degree-cap: expected a non-negative integer, got '1_0'"),
    (["algebra", "enumerate", "--algebra", "m2f2.json", "--budget", THREE],
     "argument --budget: expected a non-negative integer, got '%s'" % THREE),
], ids=["word-underscore", "word-arabic", "polynomial-underscore", "scalar-underscore",
        "scalar-underscore-mod", "scalar-arabic-mod", "field-arabic", "field-underscore",
        "n-underscore", "degree-cap-underscore", "budget-arabic"])
def test_typed_integers_are_ascii_digits(case, message, capsys):
    if isinstance(case, tuple):  # a library-only site
        _fails(message, *case)
        return
    try:
        code = main(case)
    except SystemExit as exc:  # an option value argparse refuses
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in out + err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1 and lines[0].endswith("error: " + message)


@pytest.mark.parametrize("word", ["e,q", "e"])
def test_ad_power_word_names_two_basis_vectors(word, capsys):
    _exits_2(["rewrite", "ad-power", "--lie", "sl2f3.json", "--word", word],
             "/word: expected 'a,u' with basis names from ['e', 'f', 'h']", capsys)


def test_homomorphisms_compose_only_end_to_end():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    _fails("composition mismatch", GroupHom.identity(z2).compose, GroupHom.identity(z3))


def test_a_coinner_family_acts_through_a_map_into_its_base():
    z2 = cyclic_group(2)
    base, other = regular_gset(z2), trivial_gset(z2, 1)
    _fails("map does not land in the base G-set", apply_coinner,
           CoInnerDatum((0,), (0,)), base, EquivariantMap.identity(other))


def test_polynomials_over_different_fields_do_not_mix():
    x_qq, x_f3 = NcPolynomial.monomial(QQ, ["x"]), NcPolynomial.monomial(F3, ["x"])
    _fails("field mismatch", x_qq.__add__, x_f3)
    _fails("field mismatch", x_qq.__mul__, x_f3)


def test_a_rewrite_system_keeps_to_its_field():
    x_f3 = NcPolynomial.monomial(F3, ["x"])
    _fails("rule right side over the wrong field", RewriteSystem, QQ, ["x"], [(["x", "x"], x_f3)])
    rs = RewriteSystem(QQ, ["x"], [(["x", "x"], NcPolynomial.zero(QQ))])
    _fails("polynomial over the wrong field", rs.normal_form, x_f3)


def test_a_candidate_tensor_matches_its_algebra():
    m2 = matrix_algebra(2, F2)
    w = TensorElement(F2, 3, (0,) * 9)
    _fails("tensor does not match the algebra", EndoCandidate, m2, w)
    _fails("tensor does not match the algebra", DerivationCandidate, m2, w)


def test_an_induced_endomorphism_needs_a_hom_out_of_the_candidates_algebra():
    m2 = matrix_algebra(2, F2)
    ut2 = upper_triangular_algebra(2, F2)
    _fails("candidate and homomorphism source differ", induced_endomorphism,
           EndoCandidate.from_unit(m2, m2.unit), AlgebraHom.identity(ut2))


def test_an_inner_derivation_needs_one_coordinate_per_basis_vector():
    _fails("element has 5 coordinates, expected 4", inner_derivation_of,
           matrix_algebra(2, F2), [0] * 5)
