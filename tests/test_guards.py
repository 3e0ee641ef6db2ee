"""Each cross-check guard fires on a wrong answer.

One test per guard: a route is monkeypatched to give a wrong answer on a
small input, and the verb that reaches the guard must exit 3 with one
`internal error:` line naming the exception class and the guard's message,
and no traceback.
"""

import json

import pytest

from innerscope import cli, embed, tensoralg
from innerscope.cli import main
from innerscope.errors import InternalError, TheoremViolation, Verdict
from innerscope.exactmath import GF
from innerscope.freeprod import FiniteGroup, symmetric_group
from innerscope.gset import CoInnerDatum, EquivariantMap, apply_coinner, natural_gset, transversal

UNIT = {"kind": "unit", "u": ["1", "1", "0", "1"]}
E11 = ["1", "0", "0", "0"]
E22 = ["0", "0", "0", "1"]


def _internal_error(argv, capsys, cls, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: %s: " % cls)
    assert message in lines[0]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def test_minimal_pair_must_reassemble_the_tensor(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tensoralg, "_minimal_pair_raw", lambda field, dim, wrows: ([], []))
    cand = _write(tmp_path, "cand.json", UNIT)
    _internal_error(["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", cand],
                    capsys, "InconsistentRoutes", "minimal pair does not reassemble the tensor")


def test_biorthogonality_and_degree3_identity_must_agree(tmp_path, monkeypatch, capsys):
    delta = tensoralg._delta_ok
    monkeypatch.setattr(tensoralg, "_delta_ok", lambda alg, a, b: not delta(alg, a, b))
    cand = _write(tmp_path, "cand.json", UNIT)
    _internal_error(["algebra", "check-endo", "--algebra", "m2f2.json", "--candidate", cand],
                    capsys, "InconsistentRoutes",
                    "biorthogonality and the degree-3 identity disagree (delta=False tensor=True)")


@pytest.mark.parametrize("a, b, cls, message", [
    # R^n = R as right modules forces n = 1 on a passing candidate
    ([E11, E22], [E11, E22], "InternalError", "passing candidate with n=2 on dim 4"),
    # a passing candidate of rank 1 is u (x) u^-1
    ([E11], [E11], "TheoremViolation", "minimal pair of a passing candidate is not a unit pair"),
])
def test_classify_guards_a_passing_candidate(a, b, cls, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tensoralg, "check_endo_conditions", lambda c: Verdict(True))
    cand = _write(tmp_path, "cand.json", {"kind": "pairs", "a": a, "b": b})
    _internal_error(["algebra", "classify", "--algebra", "m2f2.json", "--candidate", cand],
                    capsys, cls, message)


def test_unit_route_confirms_a_scaled_inverse(tmp_path, monkeypatch, capsys):
    # 1 + z over GF(3) answered with 1 + z (it is 1 - z): the multiple 2 + 2z
    # then takes 2 + 2z, and the two products reject it
    solve = tensoralg.StructAlgebra._unit_certificate
    monkeypatch.setattr(tensoralg.StructAlgebra, "_unit_certificate",
                        lambda alg, u: ((1, 1), None) if u == (1, 1) else solve(alg, u))
    alg = _write(tmp_path, "tp3.json", tensoralg.truncated_polynomial_algebra(GF(3)).to_json())
    _internal_error(["algebra", "enumerate", "--algebra", alg], capsys, "InconsistentRoutes",
                    "unit route: (2, 2) times its inverse (2, 2) is not 1")


def test_unit_route_confirms_a_non_unit_witness(tmp_path, monkeypatch, capsys):
    # z over GF(3) given the witness 1: z 1 = z is not 0
    solve = tensoralg.StructAlgebra._unit_certificate
    monkeypatch.setattr(tensoralg.StructAlgebra, "_unit_certificate",
                        lambda alg, u: (None, (1, 0)) if u == (0, 1) else solve(alg, u))
    alg = _write(tmp_path, "tp3.json", tensoralg.truncated_polynomial_algebra(GF(3)).to_json())
    _internal_error(["algebra", "enumerate", "--algebra", alg], capsys, "InconsistentRoutes",
                    "unit route: (1, 0) is not a nonzero right annihilator of (0, 1)")


def test_endo_scan_checks_the_unit_sum_against_m(monkeypatch, capsys):
    monkeypatch.setattr(tensoralg, "_unit_sum_ok", lambda alg, a_list, b_list: False)
    _internal_error(["algebra", "enumerate", "--algebra", "m2f2.json"], capsys,
                    "InconsistentRoutes", "m(w) and the minimal pair disagree on the unit sum")


def test_derivation_scan_checks_the_identity_against_the_oracle(monkeypatch, capsys):
    # the identity and its screen both accept every tensor with m(w) = 0
    monkeypatch.setattr(tensoralg, "_leibniz_tensor_ok", lambda alg, w: True)
    monkeypatch.setattr(tensoralg, "_leibniz_rows", lambda alg: [])
    _internal_error(["algebra", "enumerate-derivs", "--algebra", "m2f2.json"], capsys,
                    "InconsistentRoutes", "generic pass rejected by the dual-number oracle")


def test_derivation_scan_checks_the_inner_route(monkeypatch, capsys):
    # the inner route builds 1 (x) 0 - 0 (x) 1 for every b
    commutator = tensoralg._commutator_tensor
    monkeypatch.setattr(tensoralg, "_commutator_tensor",
                        lambda alg, b: commutator(alg, (0,) * alg.dim))
    _internal_error(["algebra", "enumerate-derivs", "--algebra", "m2f2.json"], capsys,
                    "InconsistentRoutes", "Leibniz scan and inner-derivation route disagree")


def test_embedding_must_be_injective(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(embed, "rank_raw", lambda field, rows: len(rows) - 1)
    _internal_error(["embed", "build", "--algebra", "m2f2.json", "--out", str(tmp_path / "s.json")],
                    capsys, "InternalError", "embedding is not injective")


def _natural_s3():
    group, perms = symmetric_group(3)
    return natural_gset(group, perms)


def _moving_point_0(a):
    return next(g for g in range(a.group.order) if a.action[0][g] != 0)


def test_transversal_must_reach_each_point(monkeypatch, capsys):
    # a group whose identity is wrong after loading starts the walk at
    # rep * e' != rep
    a = _natural_s3()
    monkeypatch.setattr(a.group, "identity", _moving_point_0(a))
    with pytest.raises(InternalError, match="^transversal failed at point 0$"):
        transversal(a, 0)
    build = cli.LOADERS["gset"]

    def faulty(data, group):
        obj = build(data, group)
        monkeypatch.setattr(group, "identity", _moving_point_0(obj))
        return obj

    monkeypatch.setitem(cli.LOADERS, "gset", faulty)
    _internal_error(["gset", "orbits", "--gset", "s3-natural-gset.json"], capsys,
                    "InternalError", "transversal failed at point 0")


def test_induced_map_must_be_a_bijection(monkeypatch, capsys):
    # conjugate(h^-1, g) answered with h^-1 sends each q = s * h to s
    monkeypatch.setattr(FiniteGroup, "conjugate", lambda group, s, t: s)
    a = _natural_s3()
    datum = CoInnerDatum((0,), (a.group.identity,))
    with pytest.raises(TheoremViolation, match="^induced map is not a bijection$"):
        apply_coinner(datum, a, EquivariantMap.identity(a))
    _internal_error(["gset", "coinner", "--gset", "s3-natural-gset.json"], capsys,
                    "TheoremViolation", "induced map is not a bijection")


def test_induced_map_must_be_equivariant(monkeypatch, capsys):
    # conjugate(h^-1, g) answered with g gives q |-> q * g, a bijection that
    # commutes with the action only for central g; the second family of the
    # natural S3-set picks the transposition fixing point 0
    monkeypatch.setattr(FiniteGroup, "conjugate", lambda group, s, t: t)
    a = _natural_s3()
    fixing_0 = next(g for g in range(a.group.order)
                    if g != a.group.identity and a.action[0][g] == 0)
    datum = CoInnerDatum((0,), (fixing_0,))
    with pytest.raises(TheoremViolation, match="^induced map is not equivariant$"):
        apply_coinner(datum, a, EquivariantMap.identity(a))
    _internal_error(["gset", "coinner", "--gset", "s3-natural-gset.json"], capsys,
                    "TheoremViolation", "induced map is not equivariant")
