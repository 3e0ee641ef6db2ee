"""Command-line front end.

Every verb is declared once, in VERBS: its noun and name, its handler, its
help line, the input files it reads and its other options.  main resolves
each declared input through corpus.resolve, reads it once (_read: the
sha256 of its bytes, and their JSON decoded as UTF-8) and builds it with
the from_json constructor that LOADERS names; the library opens no file.
The handler receives the parsed arguments and the built inputs and returns
its verdict Lines and citations, which _emit alone renders.  The argument
parser is built from VERBS on the first call to main, not at import.

Every run emits a report: a human-readable summary on stdout and, with
--json, a machine-readable file.  Reports carry the sha256 of every input
as read before the verb ran, a list of named verdicts, the content tags
the run exercised, and a determinism hash over everything except the input
paths and the timing.  Exit status is 0 when all verdicts pass, 1 when a
verdict fails or a search runs out of budget (BudgetExceeded), 2 for
unusable input (ValidationFailure, unreadable files, files that are not
UTF-8 JSON, bad arguments), and 3 for an internal error: two routes
disagreed, a proved fact failed (InternalError), or some other fault
escaped.  Errors print one line on stderr and never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from typing import NamedTuple

from . import corpus
from .errors import BudgetExceeded, InconsistentRoutes, ValidationFailure, Verdict, reading
from .exactmath import QQ, Field, rank_raw, read_integer
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
    witness_samples,
)
from .gset import GSetObj, coinner_group, naturality_oracle, orbit_data
from .embed import build_embedding, central_witness, verify_injectivity_via_embedding


class Line(NamedTuple):
    """One verdict line of a report: a name, its value, and whether it passes."""

    name: str
    value: object
    passed: bool = True


def _verdict_lines(name: str, verdict: Verdict) -> list:
    """A verdict's lines: `name: passed`, then, if it failed, a failing `reason`."""
    lines = [Line(name, verdict.passed, verdict.passed)]
    if not verdict.passed:
        lines.append(Line("reason", verdict.reason, False))
    return lines


def _read(path: str):
    """The sha256 of the file's bytes and the JSON they decode to, as UTF-8,
    from one read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return hashlib.sha256(raw).hexdigest(), json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a decode error, or a number over the digit limit
        raise ValidationFailure("/: not valid JSON: %s" % exc) from None


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_field(text: str | None) -> Field:
    if text is None or text in ("QQ", "Q"):
        return QQ
    inner = text
    if text.upper().startswith("GF(") and text.endswith(")"):
        inner = text[3:-1]
    elif text.upper().startswith("F"):
        inner = text[1:]
    try:
        return Field(read_integer(inner))
    except ValueError:
        raise ValidationFailure("/field: cannot read %r" % text) from None


def _parse_vec(field: Field, data, where: str, length: int):
    if not isinstance(data, list):
        raise ValidationFailure("%s: expected a list" % where)
    if len(data) != length:
        raise ValidationFailure("%s: expected %d coordinates" % (where, length))
    try:
        return tuple(map(field.coerce, data))
    except ValueError as exc:
        raise ValidationFailure("%s: %s" % (where, exc)) from None


def _candidate(alg: StructAlgebra, data, cls):
    """The cls, EndoCandidate or DerivationCandidate, a candidate file describes;
    a unit is an endomorphism only, an inner element a derivation only."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationFailure("/kind: missing")
    kind, field = data["kind"], alg.field
    if kind in ("unit", "inner"):
        key = "u" if kind == "unit" else "b"
        vec = _parse_vec(field, data.get(key), "/" + key, alg.dim)
        if kind == "unit" and cls is EndoCandidate:
            return EndoCandidate.from_unit(alg, vec)
        if kind == "inner" and cls is DerivationCandidate:
            return inner_derivation_of(alg, vec)
        noun = "an endomorphism" if cls is EndoCandidate else "a derivation"
        raise ValidationFailure("/kind: %s candidate cannot be %r" % (noun, kind))
    if kind == "pairs":
        a, b = data.get("a"), data.get("b")
        if not isinstance(a, list) or not isinstance(b, list) or len(a) != len(b):
            raise ValidationFailure("/a, /b: expected lists of equal length")
        a_list = [_parse_vec(field, v, "/a/%d" % i, alg.dim) for i, v in enumerate(a)]
        b_list = [_parse_vec(field, v, "/b/%d" % i, alg.dim) for i, v in enumerate(b)]
        return cls(alg, TensorElement.from_pairs(field, alg.dim, a_list, b_list))
    if kind == "tensor":
        rows = data.get("coords")
        if not isinstance(rows, list) or len(rows) != alg.dim:
            raise ValidationFailure("/coords: expected %d rows" % alg.dim)
        coords = [_parse_vec(field, row, "/coords/%d" % i, alg.dim)
                  for i, row in enumerate(rows)]
        return cls(alg, TensorElement.from_matrix(field, coords))
    raise ValidationFailure("/kind: %r is not one of unit|pairs|tensor|inner" % kind)


# -- handlers -------------------------------------------------------------------
# Each takes the parsed arguments and the loaded inputs, in the order the
# verb declares them, and returns (verdicts, citations), the verdicts a list
# of Lines; selftest and a budget stop report Lines too.


def _decide_word(args, group):
    """The generic verdict and the shape class of the typed word; they must agree."""
    word = ReducedWord.parse(group, args.word)
    generic, cls = check_generic_multiplicative(word), classify_inner_endo_group(word)
    if generic != cls.is_inner():
        raise InconsistentRoutes("generic equation and word shape disagree on %r" % args.word)
    return generic, cls


def _cmd_group_check(args, group):
    generic, _ = _decide_word(args, group)
    verdicts = [
        Line("multiplicative", generic, generic),
        Line("routes_agree", True),
    ]
    return verdicts, ["generic-word-multiplicativity", "inner-word-shapes"]


def _class_label(group: FiniteGroup, cls) -> str:
    if cls.kind == "conjugation":
        return "Conjugation(%s)" % group.name_of(cls.s)
    if cls.kind == "trivial":
        return "Trivial"
    return "NotInner"


def _cmd_group_classify(args, group):
    _, cls = _decide_word(args, group)
    verdicts = [
        Line("classification", _class_label(group, cls), cls.is_inner()),
        Line("routes_agree", True),
    ]
    return verdicts, ["inner-word-shapes", "generic-word-multiplicativity"]


def _cmd_group_monoid(args, group):
    result = inner_endo_monoid(group)
    verdicts = [
        Line("size", len(result.elements), len(result.elements) == group.order + 1),
        Line("group_with_absorbing_element", result.iso_check, result.iso_check),
    ]
    return verdicts, ["monoid-group-plus-absorbing"]


def _cmd_algebra_check_endo(args, alg, candidate):
    cand = _candidate(alg, candidate, EndoCandidate)
    passes, *reason = _verdict_lines("passes", check_endo_conditions(cand))
    return [passes, Line("rank", cand.n), *reason], ["tensor-endo-conditions", "biorthogonality"]


def _cmd_algebra_classify(args, alg, candidate):
    cls = classify_inner_endo_algebra(_candidate(alg, candidate, EndoCandidate))
    inner = cls.kind == "conjugation"
    verdicts = [Line("classification", cls.kind, inner)]
    if inner:
        verdicts.append(Line("unit", [alg.field.format_scalar(c) for c in cls.unit]))
    return verdicts, ["conjugation-by-unit", "biorthogonality"]


def _cmd_algebra_enumerate(args, alg):
    result = enumerate_inner_endos(alg, budget=args.budget)
    # the unit route counts units u; u and cu give one tensor for c in GF(p)*
    units_ok = result.count * (alg.field.char - 1) == result.unit_count
    verdicts = [
        Line("count", result.count),
        Line("unit_route_count", result.unit_count, units_ok),
        Line("brute_forced", result.brute_forced),
        Line("routes_agree", result.agreement, result.agreement),
    ]
    return verdicts, ["unit-group-quotient", "biorthogonality"]


def _cmd_algebra_check_deriv(args, alg, candidate):
    verdict = check_derivation_generic(_candidate(alg, candidate, DerivationCandidate))
    verdicts = [
        Line("generic_leibniz", verdict.passed, verdict.passed),
        Line("induced_map_is_derivation", verdict.details["induced_map_is_derivation"]),
    ]
    return verdicts, ["generic-leibniz", "dual-number-oracle"]


def _cmd_algebra_extract_deriv(args, alg, candidate):
    b = extract_derivation_element(_candidate(alg, candidate, DerivationCandidate))
    phi_zero = alg.phi(b) == alg.field.zero
    verdicts = [
        Line("element", [alg.field.format_scalar(c) for c in b]),
        Line("splitting_normalized", phi_zero, phi_zero),
    ]
    return verdicts, ["inner-derivation-extraction", "generic-leibniz"]


def _cmd_algebra_enumerate_derivs(args, alg):
    result = enumerate_inner_derivations(alg, budget=args.budget)
    verdicts = [
        Line("count", result.count),
        Line("routes_agree", result.agreement, result.agreement),
        Line("oracle_count", result.oracle_count),
        Line("oracle_exact", result.oracle_exact),
    ]
    return verdicts, ["generic-leibniz", "dual-number-oracle"]


def _cmd_rewrite_nf(args, rs):
    nf = rs.normal_form(NcPolynomial.parse(rs.field, args.word, rs.generators))
    verdicts = [
        Line("normal_form", nf.display()),
        Line("is_zero", nf.is_zero()),
    ]
    return verdicts, ["deglex-termination"]


def _cmd_rewrite_confluence(args, rs):
    failures = rs.confluence_check()
    verdicts = [
        Line("confluent", not failures, not failures),
        Line("unresolved_ambiguities", len(failures), not failures),
    ]
    if failures:
        verdicts.append(Line("first_failure_word", list(failures[0].word), False))
    return verdicts, ["diamond-lemma"]


def _cmd_rewrite_leavitt(args):
    rs = leavitt_system(args.n, _parse_field(args.field))
    confluent = rs.is_confluent()
    verdicts = [
        Line("rules", len(rs.rules)),
        Line("confluent", confluent, confluent),
    ]
    if args.out:
        _write_json(args.out, rs.to_json())
    return verdicts, ["leavitt-relations", "diamond-lemma"]


def _cmd_rewrite_pbw(args, lie):
    jacobi = lie.jacobi_ok()
    rs = pbw_system(lie)
    confluent = rs.is_confluent()
    agree = jacobi == confluent
    verdicts = [
        Line("jacobi", jacobi),
        Line("confluent", confluent),
        Line("jacobi_iff_confluent", agree, agree),
    ]
    if args.out:
        _write_json(args.out, rs.to_json())
    return verdicts, ["pbw-jacobi", "diamond-lemma"]


def _cmd_rewrite_check_endo(args, rs, candidate):
    with reading("candidate"):
        a_list = [NcPolynomial.parse(rs.field, t, rs.generators) for t in candidate["a"]]
        b_list = [NcPolynomial.parse(rs.field, t, rs.generators) for t in candidate["b"]]
    verdict = check_endo_fp(a_list, b_list, rs)
    verdicts = _verdict_lines("passes", verdict)
    citations = ["fp-endo-conditions"]
    if verdict.passed:
        samples = witness_samples(rs)
        witness = fp_witness_checks(a_list, b_list, rs, samples)
        verdicts.extend([
            Line("samples", len(samples)),
            Line("injectivity_witness", witness["injectivity"], witness["injectivity"]),
            Line("centralizing_units", witness["centralizing"], witness["centralizing"]),
            Line("independent_units", witness["independent_units"], witness["independent_units"]),
        ])
        citations.append("fp-injectivity-witness")
    return verdicts, citations


def _cmd_rewrite_ad_power(args, lie):
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
    results = [ad_power_check(lie, *map(lie.basis_vector, pair)) for pair in pairs]
    all_match = all(r["match"] for r in results)
    all_degree_one = all(r["degree_one"] for r in results)
    verdicts = [
        Line("pairs_checked", len(pairs)),
        Line("ad_power_equals_commutator", all_match, all_match),
        Line("values_in_lie_algebra", all_degree_one, all_degree_one),
    ]
    return verdicts, ["char-p-ad-power", "pbw-jacobi"]


def _cmd_rewrite_unit_search(args, rs):
    result = scalar_unit_search(rs, degree_cap=args.degree_cap, budget=args.budget)
    verdicts = [
        Line("searched", result["searched"]),
        Line("solutions", len(result["solutions"])),
        Line("all_scalar", result["all_scalar"]),
    ]
    return verdicts, ["scalar-unit-search"]


def _cmd_gset_orbits(args, obj):
    data = orbit_data(obj)
    verdicts = [
        Line("orbits", len(data.orbits)),
        Line("reps", data.reps),
        Line("stabilizer_sizes", [len(s) for s in data.stabilizers]),
        Line("centralizer_sizes", [len(c) for c in data.centralizers]),
    ]
    return verdicts, ["orbit-stabilizer"]


def _cmd_gset_coinner(args, obj):
    result = coinner_group(obj)
    verdicts = [
        Line("order", result.order),
        Line("direct_product_of_centralizers", result.iso_check, result.iso_check),
    ]
    citations = ["coinner-centralizer-product"]
    if args.oracle:
        count, match = naturality_oracle(obj)
        verdicts.append(Line("oracle_count", count, count == result.order))
        verdicts.append(Line("oracle_match", match, match))
        citations.append("naturality-equation")
    return verdicts, citations


def _cmd_gset_oracle(args, obj):
    count, match = naturality_oracle(obj)
    verdicts = [
        Line("oracle_count", count),
        Line("matches_centralizers", match, match),
    ]
    return verdicts, ["naturality-equation", "coinner-centralizer-product"]


def _cmd_embed_build(args, alg):
    tt = build_embedding(alg)
    witness_ok = all(central_witness(tt, alg.basis_vector(i))[1]["passed"] for i in range(alg.dim))
    rank = rank_raw(alg.field, tt.embed.cols)
    verdicts = [
        Line("total_dim", tt.total.dim),
        Line("associative", True),
        Line("embedding_rank", rank, rank == alg.dim),
        Line("central_witnesses", witness_ok, witness_ok),
    ]
    if args.out:
        _write_json(args.out, tt.total.to_json())
    return verdicts, ["twisted-truncation", "central-witness"]


def _cmd_embed_verify(args, alg, candidate):
    cand = _candidate(alg, candidate, EndoCandidate)
    report = verify_injectivity_via_embedding(cand, build_embedding(alg))
    verdicts = [
        Line("fixes_centralizer", report["fixes_centralizer"], report["fixes_centralizer"]),
        Line("centralizer_dim", report["centralizer_dim"]),
        Line("kernel_rank", report["kernel_rank"], report["kernel_rank"] == 0),
        Line("restriction_matches", report["restriction_matches"], report["restriction_matches"]),
    ]
    return verdicts, ["embedding-injectivity", "central-witness"]


def _cmd_selftest(args):
    from . import acceptance

    return ([Line(name, verdict.reason, verdict.passed) for name, verdict in acceptance.run_all()],
            ["acceptance-suite"])


def _integer(text: str) -> int:
    try:
        return read_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None


def _nonnegative(text: str) -> int:
    try:
        value = read_integer(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _count(default: int) -> dict:
    return {"type": _nonnegative, "default": default}


def _gset_group(data, path: str) -> FiniteGroup:
    """The group of the G-set file at path: the file its "group" names,
    looked up relative to path."""
    ref = data.get("group") if isinstance(data, dict) else None
    if not isinstance(ref, str):
        raise ValidationFailure("/group: missing path")
    _, group = _read(corpus.resolve(os.path.join(os.path.dirname(path), ref)))
    return FiniteGroup.from_json(group)


# Each input option names the constructor of its decoded JSON; main reads
# the file, and a G-set's constructor also takes its group (_gset_group).
LOADERS = {
    "group": FiniteGroup.from_json,
    "algebra": StructAlgebra.from_json,
    "candidate": lambda data: data,
    "system": RewriteSystem.from_json,
    "lie": LieData.from_json,
    "gset": GSetObj.from_json,
}

# noun -> (help, [(action, handler, help, input options, other options)]).
# Input options are required paths, looked up through LOADERS and passed to
# the handler in this order; other options are (flag, argparse keywords).
VERBS = {
    "group": ("reduced words over a finite group", [
        ("check", _cmd_group_check, "generic multiplicativity of a word",
         ["group"], [("--word", {"required": True})]),
        ("classify", _cmd_group_classify, "syntactic classification of a word",
         ["group"], [("--word", {"required": True})]),
        ("monoid", _cmd_group_monoid, "the full monoid of inner endomorphisms",
         ["group"], []),
    ]),
    "algebra": ("tensor candidates over a finite-dimensional algebra", [
        ("check-endo", _cmd_algebra_check_endo, "test the endomorphism conditions",
         ["algebra", "candidate"], []),
        ("classify", _cmd_algebra_classify, "classify a passing candidate",
         ["algebra", "candidate"], []),
        ("enumerate", _cmd_algebra_enumerate, "count all passing tensors by two routes",
         ["algebra"], [("--budget", _count(1 << 20))]),
        ("check-deriv", _cmd_algebra_check_deriv, "test the generic Leibniz identity",
         ["algebra", "candidate"], []),
        ("extract-deriv", _cmd_algebra_extract_deriv, "extract the inner element of a derivation",
         ["algebra", "candidate"], []),
        ("enumerate-derivs", _cmd_algebra_enumerate_derivs, "count all derivation tensors by two routes",
         ["algebra"], [("--budget", _count(1 << 20))]),
    ]),
    "rewrite": ("noncommutative rewriting systems", [
        ("nf", _cmd_rewrite_nf, "normal form of an expression",
         ["system"], [("--word", {"required": True})]),
        ("confluence", _cmd_rewrite_confluence, "resolve all overlap ambiguities",
         ["system"], []),
        ("leavitt", _cmd_rewrite_leavitt, "build the n-generator module-type system",
         [], [("--n", {"type": _integer, "default": 2}), ("--field", {}), ("--out", {})]),
        ("pbw", _cmd_rewrite_pbw, "straightening rules of a Lie bracket table",
         ["lie"], [("--out", {})]),
        ("check-endo", _cmd_rewrite_check_endo, "endomorphism conditions in a presented algebra",
         ["system", "candidate"], []),
        ("ad-power", _cmd_rewrite_ad_power, "iterated brackets against p-th power commutators",
         ["lie"], [("--word", {"help": "optional 'a,u' basis-name pair"})]),
        ("unit-search", _cmd_rewrite_unit_search, "hunt scalar-coefficient one-sided units",
         ["system"], [("--degree-cap", _count(2)), ("--budget", _count(1 << 16))]),
    ]),
    "gset": ("finite right G-sets", [
        ("orbits", _cmd_gset_orbits, "orbits, stabilizers, centralizers",
         ["gset"], []),
        ("coinner", _cmd_gset_coinner, "the group of co-inner families",
         ["gset"], [("--oracle", {"action": "store_true",
                                  "help": "also run the brute-force naturality search"})]),
        ("oracle", _cmd_gset_oracle, "brute-force the naturality equation",
         ["gset"], []),
    ]),
    "embed": ("the twisted truncated extension", [
        ("build", _cmd_embed_build, "construct S from a base algebra",
         ["algebra"], [("--out", {})]),
        ("verify", _cmd_embed_verify, "certify an inner endomorphism is one-to-one",
         ["algebra", "candidate"], []),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerscope",
        description="Decide and cross-check inner endomorphisms, derivations, "
                    "and co-inner maps over exact arithmetic.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    sub = parser.add_subparsers(dest="command", required=True)
    for noun, (noun_help, verbs) in VERBS.items():
        actions = sub.add_parser(noun, help=noun_help).add_subparsers(dest="action", required=True)
        for action, handler, verb_help, inputs, options in verbs:
            p = actions.add_parser(action, parents=[common], help=verb_help)
            for name in inputs:
                p.add_argument("--" + name, required=True)
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler, inputs=inputs)
    p = sub.add_parser("selftest", parents=[common], help="run the full acceptance suite")
    p.set_defaults(handler=_cmd_selftest, inputs=[])
    return parser


def _emit(command: str, inputs, digests, verdicts, citations, started: float,
          json_path: str | None) -> int:
    timing_ms = int((time.time() - started) * 1000)
    verdict_entries = [{"name": line.name, "value": line.value, "pass": bool(line.passed)}
                       for line in verdicts]
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
        _write_json(json_path, report)

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
    args = _build_parser().parse_args(argv)
    command = args.command + ("" if not getattr(args, "action", None) else " " + args.action)
    started = time.time()
    try:
        # selftest reads no input file; its report covers the whole corpus
        paths = [corpus.data_path(n) for n in corpus.names()] if args.command == "selftest" else []
        digests = [_read(path)[0] for path in paths]
        try:
            loaded = []
            for name in args.inputs:
                path = corpus.resolve(getattr(args, name))
                digest, data = _read(path)
                paths.append(path)
                digests.append(digest)
                group = [_gset_group(data, path)] if name == "gset" else []
                loaded.append(LOADERS[name](data, *group))
            verdicts, citations = args.handler(args, *loaded)
        except BudgetExceeded as exc:  # the inputs read stay; the stop replaces the verdicts
            verdicts, citations = _verdict_lines("completed", Verdict(False, str(exc))), ["budget"]
        return _emit(command, paths, digests, verdicts, citations, started, args.json)
    except (ValidationFailure, OSError) as exc:
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
