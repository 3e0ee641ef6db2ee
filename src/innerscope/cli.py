"""Command-line front end.

Every subcommand loads exact JSON inputs, dispatches to one of the library
modules, and emits a report: a human-readable summary on stdout and, with
--json, a machine-readable file.  Reports carry the sha256 of every input,
a list of named verdicts, the content tags the run exercised, and a
determinism hash over everything except the input paths and the timing.
Exit status is 0 when all verdicts pass, 1 when a verdict fails or a search
runs out of budget (BudgetExceeded), 2 for unusable input (ValidationFailure,
unreadable files, bad arguments), and 3 for an internal error: two routes
disagreed, a proved fact failed (InternalError), or some other fault
escaped.  Errors print one line on stderr and never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

from . import corpus
from .errors import BudgetExceeded, ValidationFailure, reading
from .exactmath import GF, QQ, Field
from .freeprod import (
    FiniteGroup,
    ReducedWord,
    check_generic_multiplicative,
    classify_inner_endo_group,
    inner_endo_monoid,
)
from .tensoralg import (
    DerivationCandidate,
    EndoCandidate,
    StructAlgebra,
    TensorElement,
    check_derivation_generic,
    check_endo_conditions,
    classify_inner_endo_algebra,
    enumerate_inner_derivations,
    enumerate_inner_endos,
    extract_derivation_element,
    inner_derivation_of,
)
from .rewrite import (
    LieData,
    NcPolynomial,
    RewriteSystem,
    ad_power_check,
    check_endo_fp,
    fp_witness_checks,
    leavitt_system,
    pbw_system,
    scalar_unit_search,
)
from .gset import GSetObj, coinner_group, naturality_oracle, orbit_data
from .embed import build_embedding, central_witness, verify_injectivity_via_embedding


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _parse_field(text: str | None) -> Field:
    if text is None or text in ("QQ", "Q", "0"):
        return QQ
    inner = text
    if text.upper().startswith("GF(") and text.endswith(")"):
        inner = text[3:-1]
    elif text.upper().startswith("F"):
        inner = text[1:]
    try:
        p = int(inner)
    except ValueError:
        raise ValidationFailure("/field: cannot read %r" % text) from None
    if p == 0:
        return QQ
    return GF(p)


def _parse_vec(field: Field, data, where: str, length: int | None = None):
    if not isinstance(data, list):
        raise ValidationFailure("%s: expected a list" % where)
    if length is not None and len(data) != length:
        raise ValidationFailure("%s: expected %d coordinates" % (where, length))
    try:
        return tuple(field.parse_scalar(str(x)) for x in data)
    except ValueError as exc:
        raise ValidationFailure("%s: %s" % (where, exc)) from None


def _candidate_spec(alg: StructAlgebra, path: str):
    data = _load_json(path)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationFailure("/kind: missing")
    kind = data["kind"]
    field = alg.field
    if kind == "unit":
        return ("unit", _parse_vec(field, data.get("u"), "/u", alg.dim))
    if kind == "inner":
        return ("inner", _parse_vec(field, data.get("b"), "/b", alg.dim))
    if kind == "pairs":
        a = data.get("a")
        b = data.get("b")
        if not isinstance(a, list) or not isinstance(b, list) or len(a) != len(b):
            raise ValidationFailure("/a, /b: expected lists of equal length")
        a_list = [_parse_vec(field, v, "/a/%d" % i, alg.dim) for i, v in enumerate(a)]
        b_list = [_parse_vec(field, v, "/b/%d" % i, alg.dim) for i, v in enumerate(b)]
        return ("pairs", a_list, b_list)
    if kind == "tensor":
        rows = data.get("coords")
        if not isinstance(rows, list) or len(rows) != alg.dim:
            raise ValidationFailure("/coords: expected %d rows" % alg.dim)
        coords = [_parse_vec(field, row, "/coords/%d" % i, alg.dim)
                  for i, row in enumerate(rows)]
        return ("tensor", TensorElement.from_matrix(field, coords))
    raise ValidationFailure("/kind: %r is not one of unit|pairs|tensor|inner" % kind)


def _endo_candidate(alg: StructAlgebra, path: str) -> EndoCandidate:
    spec = _candidate_spec(alg, path)
    if spec[0] == "unit":
        return EndoCandidate.from_unit(alg, spec[1])
    if spec[0] == "pairs":
        return EndoCandidate.from_pairs(alg, spec[1], spec[2])
    if spec[0] == "tensor":
        return EndoCandidate.from_tensor(alg, spec[1])
    raise ValidationFailure("/kind: an endomorphism candidate cannot be 'inner'")


def _deriv_candidate(alg: StructAlgebra, path: str) -> DerivationCandidate:
    spec = _candidate_spec(alg, path)
    if spec[0] == "inner":
        return inner_derivation_of(alg, spec[1])
    if spec[0] == "tensor":
        return DerivationCandidate(alg, spec[1])
    if spec[0] == "pairs":
        return DerivationCandidate(alg, TensorElement.from_pairs(alg.field, alg.dim, spec[1], spec[2]))
    raise ValidationFailure("/kind: a derivation candidate cannot be 'unit'")


def _fmt_vec(field: Field, vec) -> list:
    return [field.format_scalar(c) for c in vec]


# -- handlers -------------------------------------------------------------------
# Each returns (input_paths, verdicts, citations); a verdict is a
# (name, value, pass) triple and the command passes when every triple does.


def _cmd_group_check(args):
    path = corpus.resolve(args.group)
    group = FiniteGroup.load(path)
    word = ReducedWord.parse(group, args.word)
    generic = check_generic_multiplicative(word)
    syntactic = classify_inner_endo_group(word)
    agree = generic == syntactic.is_inner()
    verdicts = [
        ("multiplicative", generic, generic),
        ("routes_agree", agree, agree),
    ]
    return [path], verdicts, ["generic-word-multiplicativity", "inner-word-shapes"]


def _class_label(group: FiniteGroup, cls) -> str:
    if cls.kind == "conjugation":
        return "Conjugation(%s)" % group.name_of(cls.s)
    if cls.kind == "trivial":
        return "Trivial"
    return "NotInner"


def _cmd_group_classify(args):
    path = corpus.resolve(args.group)
    group = FiniteGroup.load(path)
    word = ReducedWord.parse(group, args.word)
    cls = classify_inner_endo_group(word)
    generic = check_generic_multiplicative(word)
    agree = generic == cls.is_inner()
    verdicts = [
        ("classification", _class_label(group, cls), cls.is_inner()),
        ("routes_agree", agree, agree),
    ]
    return [path], verdicts, ["inner-word-shapes", "generic-word-multiplicativity"]


def _cmd_group_monoid(args):
    path = corpus.resolve(args.group)
    group = FiniteGroup.load(path)
    result = inner_endo_monoid(group)
    verdicts = [
        ("size", len(result.elements), len(result.elements) == group.order + 1),
        ("group_with_absorbing_element", result.iso_check, result.iso_check),
    ]
    return [path], verdicts, ["monoid-group-plus-absorbing"]


def _cmd_algebra_check_endo(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    cand_path = corpus.resolve(args.candidate)
    cand = _endo_candidate(alg, cand_path)
    verdict = check_endo_conditions(cand)
    verdicts = [
        ("passes", verdict.passed, verdict.passed),
        ("rank", cand.n, True),
    ]
    if verdict.reason:
        verdicts.append(("reason", verdict.reason, False))
    return [path, cand_path], verdicts, ["tensor-endo-conditions", "biorthogonality"]


def _cmd_algebra_classify(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    cand_path = corpus.resolve(args.candidate)
    cand = _endo_candidate(alg, cand_path)
    cls = classify_inner_endo_algebra(cand)
    inner = cls.kind == "conjugation"
    verdicts = [("classification", cls.kind, inner)]
    if inner:
        verdicts.append(("unit", _fmt_vec(alg.field, cls.unit), True))
    return [path, cand_path], verdicts, ["conjugation-by-unit", "biorthogonality"]


def _cmd_algebra_enumerate(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    result = enumerate_inner_endos(alg, budget=args.budget)
    verdicts = [
        ("count", result.count, True),
        ("unit_route_count", result.unit_count, result.count == result.unit_count),
        ("brute_forced", result.brute_forced, True),
        ("routes_agree", result.agreement, result.agreement),
    ]
    return [path], verdicts, ["unit-group-quotient", "biorthogonality"]


def _cmd_algebra_check_deriv(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    cand_path = corpus.resolve(args.candidate)
    cand = _deriv_candidate(alg, cand_path)
    verdict = check_derivation_generic(cand)
    verdicts = [
        ("generic_leibniz", verdict.passed, verdict.passed),
        ("induced_map_is_derivation", verdict.details["induced_map_is_derivation"], True),
    ]
    return [path, cand_path], verdicts, ["generic-leibniz", "dual-number-oracle"]


def _cmd_algebra_extract_deriv(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    cand_path = corpus.resolve(args.candidate)
    cand = _deriv_candidate(alg, cand_path)
    b = extract_derivation_element(cand)
    phi_zero = alg.phi(b) == alg.field.zero
    verdicts = [
        ("element", _fmt_vec(alg.field, b), True),
        ("splitting_normalized", phi_zero, phi_zero),
    ]
    return [path, cand_path], verdicts, ["inner-derivation-extraction", "generic-leibniz"]


def _cmd_algebra_enumerate_derivs(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    result = enumerate_inner_derivations(alg, budget=args.budget)
    verdicts = [
        ("count", result.count, True),
        ("routes_agree", result.agreement, result.agreement),
        ("oracle_count", result.oracle_count, True),
        ("oracle_exact", result.oracle_exact, True),
    ]
    return [path], verdicts, ["generic-leibniz", "dual-number-oracle"]


def _load_system(path: str) -> RewriteSystem:
    return RewriteSystem.from_json(_load_json(path))


def _cmd_rewrite_nf(args):
    path = corpus.resolve(args.system)
    rs = _load_system(path)
    poly = NcPolynomial.parse(rs.field, args.word, rs.generators)
    nf = rs.normal_form(poly)
    verdicts = [
        ("normal_form", nf.display(), True),
        ("is_zero", nf.is_zero(), True),
    ]
    return [path], verdicts, ["deglex-termination"]


def _cmd_rewrite_confluence(args):
    path = corpus.resolve(args.system)
    rs = _load_system(path)
    failures = rs.confluence_check()
    verdicts = [
        ("confluent", not failures, not failures),
        ("unresolved_ambiguities", len(failures), not failures),
    ]
    if failures:
        first = failures[0]
        verdicts.append(("first_failure_word", list(first.word), False))
    return [path], verdicts, ["diamond-lemma"]


def _cmd_rewrite_leavitt(args):
    field = _parse_field(args.field)
    rs = leavitt_system(args.n, field)
    confluent = rs.is_confluent()
    verdicts = [
        ("rules", len(rs.rules), True),
        ("confluent", confluent, confluent),
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rs.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return [], verdicts, ["leavitt-relations", "diamond-lemma"]


def _cmd_rewrite_pbw(args):
    path = corpus.resolve(args.lie)
    lie = LieData.load(path)
    jacobi = lie.jacobi_ok()
    rs = pbw_system(lie)
    confluent = rs.is_confluent()
    agree = jacobi == confluent
    verdicts = [
        ("jacobi", jacobi, True),
        ("confluent", confluent, True),
        ("jacobi_iff_confluent", agree, agree),
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rs.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return [path], verdicts, ["pbw-jacobi", "diamond-lemma"]


def _cmd_rewrite_check_endo(args):
    path = corpus.resolve(args.system)
    rs = _load_system(path)
    cand_path = corpus.resolve(args.candidate)
    data = _load_json(cand_path)
    with reading("candidate"):
        a_list = [NcPolynomial.parse(rs.field, t, rs.generators) for t in data["a"]]
        b_list = [NcPolynomial.parse(rs.field, t, rs.generators) for t in data["b"]]
    verdict = check_endo_fp(a_list, b_list, rs)
    verdicts = [("passes", verdict.passed, verdict.passed)]
    if verdict.reason:
        verdicts.append(("reason", verdict.reason, False))
    citations = ["fp-endo-conditions"]
    if verdict.passed:
        samples = [NcPolynomial.one(rs.field)]
        samples.extend(NcPolynomial.monomial(rs.field, (g,)) for g in rs.generators)
        g0 = rs.generators[0]
        g1 = rs.generators[-1]
        samples.append(NcPolynomial.monomial(rs.field, (g0, g1)))
        samples.append(NcPolynomial.monomial(rs.field, (g1, g0)))
        witness = fp_witness_checks(a_list, b_list, rs, samples)
        verdicts.extend([
            ("samples", len(samples), True),
            ("injectivity_witness", witness["injectivity"], witness["injectivity"]),
            ("centralizing_units", witness["centralizing"], witness["centralizing"]),
            ("independent_units", witness["independent_units"], witness["independent_units"]),
        ])
        citations.append("fp-injectivity-witness")
    return [path, cand_path], verdicts, citations


def _cmd_rewrite_ad_power(args):
    path = corpus.resolve(args.lie)
    lie = LieData.load(path)
    names = lie.names
    if args.word:
        try:
            a_name, probe_name = (t.strip() for t in args.word.split(","))
            pairs = [(names.index(a_name), names.index(probe_name))]
        except ValueError:
            raise ValidationFailure(
                "/word: expected 'a,u' with basis names from %s" % names) from None
    else:
        pairs = [(i, j) for i in range(lie.dim) for j in range(lie.dim)]
    all_match = True
    all_degree_one = True
    for i, j in pairs:
        a_vec = tuple(lie.field.one if k == i else lie.field.zero for k in range(lie.dim))
        u_vec = tuple(lie.field.one if k == j else lie.field.zero for k in range(lie.dim))
        result = ad_power_check(lie, a_vec, u_vec, degree_cap=args.degree_cap)
        all_match = all_match and result["match"]
        all_degree_one = all_degree_one and result["degree_one"]
    verdicts = [
        ("pairs_checked", len(pairs), True),
        ("ad_power_equals_commutator", all_match, all_match),
        ("values_in_lie_algebra", all_degree_one, all_degree_one),
    ]
    return [path], verdicts, ["char-p-ad-power", "pbw-jacobi"]


def _cmd_rewrite_unit_search(args):
    path = corpus.resolve(args.system)
    rs = _load_system(path)
    result = scalar_unit_search(rs, degree_cap=args.degree_cap, budget=args.budget)
    verdicts = [
        ("searched", result["searched"], True),
        ("solutions", len(result["solutions"]), True),
        ("all_scalar", result["all_scalar"], True),
    ]
    return [path], verdicts, ["scalar-unit-search"]


def _cmd_gset_orbits(args):
    path = corpus.resolve(args.gset)
    obj = GSetObj.load(path)
    data = orbit_data(obj)
    verdicts = [
        ("orbits", len(data.orbits), True),
        ("reps", data.reps, True),
        ("stabilizer_sizes", [len(s) for s in data.stabilizers], True),
        ("centralizer_sizes", [len(c) for c in data.centralizers], True),
    ]
    return [path], verdicts, ["orbit-stabilizer"]


def _cmd_gset_coinner(args):
    path = corpus.resolve(args.gset)
    obj = GSetObj.load(path)
    result = coinner_group(obj)
    verdicts = [
        ("order", result.order, True),
        ("direct_product_of_centralizers", result.iso_check, result.iso_check),
    ]
    citations = ["coinner-centralizer-product"]
    if args.oracle:
        count, match = naturality_oracle(obj)
        verdicts.append(("oracle_count", count, count == result.order))
        verdicts.append(("oracle_match", match, match))
        citations.append("naturality-equation")
    return [path], verdicts, citations


def _cmd_gset_oracle(args):
    path = corpus.resolve(args.gset)
    obj = GSetObj.load(path)
    count, match = naturality_oracle(obj)
    verdicts = [
        ("oracle_count", count, True),
        ("matches_centralizers", match, match),
    ]
    return [path], verdicts, ["naturality-equation", "coinner-centralizer-product"]


def _cmd_embed_build(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    tt = build_embedding(alg)
    zero = alg.field.zero
    witness_ok = True
    for i in range(alg.dim):
        vec = tuple(alg.field.one if j == i else zero for j in range(alg.dim))
        _, report = central_witness(tt, vec)
        witness_ok = witness_ok and report["passed"]
    verdicts = [
        ("total_dim", tt.total.dim, True),
        ("associative", True, True),
        ("embedding_rank", tt.embed_matrix.rank(), tt.embed_matrix.rank() == alg.dim),
        ("central_witnesses", witness_ok, witness_ok),
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(tt.total.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return [path], verdicts, ["twisted-truncation", "central-witness"]


def _cmd_embed_verify(args):
    path = corpus.resolve(args.algebra)
    alg = StructAlgebra.load(path)
    cand_path = corpus.resolve(args.candidate)
    cand = _endo_candidate(alg, cand_path)
    tt = build_embedding(alg)
    report = verify_injectivity_via_embedding(cand, tt)
    verdicts = [
        ("fixes_centralizer", report["fixes_centralizer"], report["fixes_centralizer"]),
        ("centralizer_dim", report["centralizer_dim"], True),
        ("kernel_rank", report["kernel_rank"], report["kernel_rank"] == 0),
        ("restriction_matches", report["restriction_matches"], report["restriction_matches"]),
    ]
    return [path, cand_path], verdicts, ["embedding-injectivity", "central-witness"]


def _cmd_selftest(args):
    from . import acceptance

    verdicts = []
    for name, passed, detail in acceptance.run_all():
        verdicts.append((name, detail, passed))
    inputs = [corpus.data_path(n) for n in corpus.names()]
    return inputs, verdicts, ["acceptance-suite"]


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerscope",
        description="Decide and cross-check inner endomorphisms, derivations, "
                    "and co-inner maps over exact arithmetic.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="reduced words over a finite group")
    gsub = group.add_subparsers(dest="action", required=True)
    p = gsub.add_parser("check", parents=[common], help="generic multiplicativity of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_group_check)
    p = gsub.add_parser("classify", parents=[common], help="syntactic classification of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_group_classify)
    p = gsub.add_parser("monoid", parents=[common], help="the full monoid of inner endomorphisms")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_group_monoid)

    algebra = sub.add_parser("algebra", help="tensor candidates over a finite-dimensional algebra")
    asub = algebra.add_subparsers(dest="action", required=True)
    p = asub.add_parser("check-endo", parents=[common], help="test the endomorphism conditions")
    p.add_argument("--algebra", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_algebra_check_endo)
    p = asub.add_parser("classify", parents=[common], help="classify a passing candidate")
    p.add_argument("--algebra", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_algebra_classify)
    p = asub.add_parser("enumerate", parents=[common], help="count all passing tensors by two routes")
    p.add_argument("--algebra", required=True)
    p.add_argument("--budget", type=_nonnegative, default=1 << 20)
    p.set_defaults(handler=_cmd_algebra_enumerate)
    p = asub.add_parser("check-deriv", parents=[common], help="test the generic Leibniz identity")
    p.add_argument("--algebra", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_algebra_check_deriv)
    p = asub.add_parser("extract-deriv", parents=[common], help="extract the inner element of a derivation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_algebra_extract_deriv)
    p = asub.add_parser("enumerate-derivs", parents=[common], help="count all derivation tensors by two routes")
    p.add_argument("--algebra", required=True)
    p.add_argument("--budget", type=_nonnegative, default=1 << 20)
    p.set_defaults(handler=_cmd_algebra_enumerate_derivs)

    rewrite = sub.add_parser("rewrite", help="noncommutative rewriting systems")
    rsub = rewrite.add_subparsers(dest="action", required=True)
    p = rsub.add_parser("nf", parents=[common], help="normal form of an expression")
    p.add_argument("--system", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_rewrite_nf)
    p = rsub.add_parser("confluence", parents=[common], help="resolve all overlap ambiguities")
    p.add_argument("--system", required=True)
    p.set_defaults(handler=_cmd_rewrite_confluence)
    p = rsub.add_parser("leavitt", parents=[common], help="build the n-generator module-type system")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--field", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_rewrite_leavitt)
    p = rsub.add_parser("pbw", parents=[common], help="straightening rules of a Lie bracket table")
    p.add_argument("--lie", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_rewrite_pbw)
    p = rsub.add_parser("check-endo", parents=[common], help="endomorphism conditions in a presented algebra")
    p.add_argument("--system", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_rewrite_check_endo)
    p = rsub.add_parser("ad-power", parents=[common], help="iterated brackets against p-th power commutators")
    p.add_argument("--lie", required=True)
    p.add_argument("--word", default=None, help="optional 'a,u' basis-name pair")
    p.add_argument("--degree-cap", type=_nonnegative, default=8)
    p.set_defaults(handler=_cmd_rewrite_ad_power)
    p = rsub.add_parser("unit-search", parents=[common], help="hunt scalar-coefficient one-sided units")
    p.add_argument("--system", required=True)
    p.add_argument("--degree-cap", type=_nonnegative, default=2)
    p.add_argument("--budget", type=_nonnegative, default=1 << 16)
    p.set_defaults(handler=_cmd_rewrite_unit_search)

    gset = sub.add_parser("gset", help="finite right G-sets")
    ssub = gset.add_subparsers(dest="action", required=True)
    p = ssub.add_parser("orbits", parents=[common], help="orbits, stabilizers, centralizers")
    p.add_argument("--gset", required=True)
    p.set_defaults(handler=_cmd_gset_orbits)
    p = ssub.add_parser("coinner", parents=[common], help="the group of co-inner families")
    p.add_argument("--gset", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force naturality search")
    p.set_defaults(handler=_cmd_gset_coinner)
    p = ssub.add_parser("oracle", parents=[common], help="brute-force the naturality equation")
    p.add_argument("--gset", required=True)
    p.set_defaults(handler=_cmd_gset_oracle)

    embed = sub.add_parser("embed", help="the twisted truncated extension")
    esub = embed.add_subparsers(dest="action", required=True)
    p = esub.add_parser("build", parents=[common], help="construct S from a base algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_embed_build)
    p = esub.add_parser("verify", parents=[common], help="certify an inner endomorphism is one-to-one")
    p.add_argument("--algebra", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler=_cmd_embed_verify)

    p = sub.add_parser("selftest", parents=[common], help="run the full acceptance suite")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def _emit(command: str, inputs, verdicts, citations, started: float,
          json_path: str | None) -> int:
    timing_ms = int((time.time() - started) * 1000)
    digests = [_sha256(p) for p in inputs]
    verdict_entries = [{"name": n, "value": v, "pass": bool(ok)} for n, v, ok in verdicts]
    # The hash covers what the run read and decided, not where the files
    # were: the same command on the same input content gives the same hash.
    core = {
        "command": command,
        "inputs": digests,
        "verdicts": verdict_entries,
        "citations": citations,
    }
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    report = dict(core, paths=list(inputs), timing=timing_ms, determinism_hash=digest)

    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print("innerscope %s" % command)
    for path, sha in zip(inputs, digests):
        print("  input: %s (sha256 %s)" % (path, sha[:16]))
    for entry in verdict_entries:
        mark = "ok" if entry["pass"] else "FAIL"
        print("  %-32s %s  [%s]" % (entry["name"] + ":", entry["value"], mark))
    print("  citations: %s" % ", ".join(citations))
    print("  determinism: %s" % digest[:16])
    print("  timing: %d ms" % timing_ms)
    all_pass = all(entry["pass"] for entry in verdict_entries)
    print("PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command + ("" if not getattr(args, "action", None) else " " + args.action)
    started = time.time()
    try:
        try:
            inputs, verdicts, citations = args.handler(args)
        except BudgetExceeded as exc:
            inputs, verdicts, citations = (
                [], [("completed", False, False), ("reason", str(exc), False)], ["budget"])
        return _emit(command, inputs, verdicts, citations, started, args.json)
    except json.JSONDecodeError as exc:
        print("error: /: not valid JSON: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ValidationFailure is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError, or a fault no check anticipated
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print("internal error: %s: %s (%s:%d)" % (
            type(exc).__name__, exc, os.path.basename(where.filename), where.lineno),
            file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
