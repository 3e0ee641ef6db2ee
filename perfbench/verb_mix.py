"""verb-mix: one-shot decisions for the README tour verbs.

Every verb except the whole-algebra scans: algebra check-endo, classify,
check-deriv and extract-deriv on unit, pair, inner and random candidates
over M2(GF(2)), M2(GF(3)), M3(GF(2)), M2(QQ) and QQ[z]/(z^2); rewrite
check-endo, ad-power and unit-search; gset coinner with the naturality
oracle; embed verify; group check and classify.  Each request parses its
inputs fresh from JSON text, as the CLI does.  Every verb slot comes four
times a round, and one of the four (chosen by the seed) runs through
cli.main(argv) in-process with its output captured and its exit code
checked; the other three call the same library functions directly.

This is the only workload that measures gset, embed and cli, and it uses
tensoralg one candidate at a time, with wrapper types and QQ.

Checks: verdicts equal the benchmark's own route (conjugation tensors are
a (x) b with ab = ba = 1, derivation tensors are 1 (x) b - b (x) 1); unit
candidates classify as conjugations; extracted derivations rebuild their
tensor; the co-inner order equals the centralizer product and the oracle
count; the embed kernel rank is 0; cli.main exit codes match.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import time

import common

NAME = "verb-mix"
COPIES = 4  # each verb slot appears this many times per round; one goes through the CLI

ALGEBRAS = [
    ("M2/GF(2)", common.matrix_units(2, 2)),
    ("M2/GF(3)", common.matrix_units(2, 3)),
    ("M3/GF(2)", common.matrix_units(3, 2)),
    ("M2/QQ", common.matrix_units(2, 0)),
    ("QQ[z]/z^2", common.truncated_poly(2, 0)),
]
EMBED_ALGEBRAS = [0, 1, 3, 4]
ALGEBRA_VERBS = [
    ("check-endo", ("unit", "pairs", "random", "unit")),
    ("classify", ("unit", "unit", "pairs", "random")),
    ("check-deriv", ("inner", "inner", "random", "inner")),
    ("extract-deriv", ("inner", "inner", "inner", "inner")),
]
GROUPS = [common.symmetric(3), common.dihedral4(), common.cyclic(6)]


def _lie(label, p, names, pairs):
    brackets = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for (i, j), vec in pairs.items():
        brackets[i][j] = [c % p for c in vec]
        brackets[j][i] = [-c % p for c in vec]
    return {"label": label, "dim": 3, "field": {"char": p}, "brackets": brackets, "names": names}


def _sl2(p):
    return _lie("sl2/GF(%d)" % p, p, ["e", "f", "h"],
                {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0), (2, 1): (0, -2, 0)})


def _heisenberg(p):
    return _lie("heisenberg/GF(%d)" % p, p, ["x", "y", "z"], {(0, 1): (0, 0, 1)})


LIES = [_sl2(3), _sl2(2), _heisenberg(2), _heisenberg(3)]


def _poly(terms):
    return [{"word": list(word), "coeff": str(c)} for word, c in terms]


LEAVITT2 = {
    "field": {"char": 0}, "generators": ["x1", "x2", "y1", "y2"],
    "rules": [{"lhs": ["y%d" % i, "x%d" % j], "rhs": _poly([((), 1)] if i == j else [])}
              for i in (1, 2) for j in (1, 2)]
    + [{"lhs": ["x2", "y2"], "rhs": _poly([((), 1), (("x1", "y1"), -1)])}],
}


def _pbw_json(lie):
    p, names, br = lie["field"]["char"], lie["names"], lie["brackets"]
    rules = []
    for j in range(3):
        for i in range(j):
            terms = [((names[i], names[j]), 1)]
            terms += [((names[k],), c) for k, c in enumerate(br[j][i]) if c % p]
            rules.append({"lhs": [names[j], names[i]], "rhs": _poly(terms)})
    return {"field": {"char": p}, "generators": names, "rules": rules}


UNIT_SEARCH = [("leavitt2/QQ", LEAVITT2, False), ("pbw-sl2/GF(3)", _pbw_json(LIES[0]), True)]
# Leavitt pairs (a, b): the row-column pair passes in either order; crossed or single pairs fail.
LEAVITT_PAIRS = [
    (["x1", "x2"], ["y1", "y2"], True),
    (["x2", "x1"], ["y2", "y1"], True),
    (["x1", "x2"], ["y2", "y1"], False),
    (["x1"], ["y1"], False),
]


def _gsets():
    s3, d4, z4, s4 = common.symmetric(3), common.dihedral4(), common.cyclic(4), common.symmetric(4)
    transposition = common.subgroup(s3, [common.element(s3, "(12)")])
    reflection = common.subgroup(d4, [common.element(d4, "(24)")])
    point = common.subgroup(s4, [common.element(s4, "(12)"), common.element(s4, "(123)")])
    natural_s3 = common.coset_action(s3, transposition)
    regular_s3 = common.regular_action(s3)
    return [
        ("natural S3-set", s3, natural_s3),
        ("regular Z4-set", z4, common.regular_action(z4)),
        ("regular S3-set", s3, regular_s3),
        ("two-orbit S3-set", s3, common.disjoint_union(regular_s3, regular_s3)),
        ("natural D4-set", d4, common.coset_action(d4, reflection)),
        ("natural S4-set", s4, common.coset_action(s4, point)),
        ("natural+regular S3-set", s3, common.disjoint_union(natural_s3, regular_s3)),
    ]


GSETS = _gsets()


# -- generation ------------------------------------------------------------------


def _random_vector(rng, p, d):
    return [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(d)]


def _random_unit(rng, own):
    while True:
        u = _random_vector(rng, own.p, own.dim)
        if own.inverse(u) is not None:
            return u


def _candidate(rng, own, kind):
    """(candidate JSON, tensor coordinates by the benchmark's own route)."""
    p, d = own.p, own.dim
    fmt = lambda v: [common.fmt_scalar(p, x) for x in v]
    if kind == "unit":
        u = _random_unit(rng, own)
        v = own.inverse(u)
        return {"kind": "unit", "u": fmt(u)}, [common.norm(p, a * b) for a in u for b in v]
    if kind == "pairs":
        if rng.random() < 0.5:
            u = _random_unit(rng, own)
            pairs = [(u, own.inverse(u))]
        else:
            pairs = [(_random_vector(rng, p, d), _random_vector(rng, p, d)) for _ in range(2)]
        coords = [common.norm(p, sum(a[i] * b[j] for a, b in pairs)) for i in range(d) for j in range(d)]
        return {"kind": "pairs", "a": [fmt(a) for a, _ in pairs], "b": [fmt(b) for _, b in pairs]}, coords
    if kind == "inner":
        b = common.vec(p, _random_vector(rng, p, d))
        return {"kind": "inner", "b": fmt(b)}, list(own.commutator_tensor(b))
    coords = common.vec(p, _random_vector(rng, p, d * d))
    return {"kind": "tensor", "coords": [fmt(coords[i * d:(i + 1) * d]) for i in range(d)]}, coords


def generate(seed, k):
    rng = random.Random("%s:%d:%d" % (NAME, seed, k))
    slots = []
    for a, (label, data) in enumerate(ALGEBRAS):
        own = common.Algebra(data)
        for verb, kinds in ALGEBRA_VERBS:
            group = []
            for kind in kinds:
                cand, coords = _candidate(rng, own, kind)
                if verb in ("check-endo", "classify"):
                    expect = own.is_conjugation_tensor(coords)
                else:
                    expect = own.is_commutator_tensor(coords)
                group.append({"verb": "algebra " + verb, "algebra": a, "candidate": cand,
                              "coords": [common.fmt_scalar(own.p, c) for c in coords],
                              "kind": kind, "expect": expect})
            slots.append(group)
    slots.append([{"verb": "rewrite check-endo", "pair": rng.randrange(len(LEAVITT_PAIRS))}
                  for _ in range(COPIES)])
    slots.append([{"verb": "rewrite ad-power", "lie": rng.randrange(len(LIES)),
                   "pair": rng.choice([None, [rng.randrange(3), rng.randrange(3)]])}
                  for _ in range(COPIES)])
    slots.append([{"verb": "rewrite unit-search", "system": n % len(UNIT_SEARCH)} for n in range(COPIES)])
    slots.append([{"verb": "gset coinner", "gset": rng.randrange(len(GSETS))} for _ in range(COPIES)])
    embed = []
    for a in EMBED_ALGEBRAS:
        cand, _ = _candidate(rng, common.Algebra(ALGEBRAS[a][1]), "unit")
        embed.append({"verb": "embed verify", "algebra": a, "candidate": cand})
    slots.append(embed)
    for verb in ("group check", "group classify"):
        group = []
        for _ in range(COPIES):
            g = rng.randrange(len(GROUPS))
            syllables = common.random_word(rng, GROUPS[g], rng.random() < 0.5)
            group.append({"verb": verb, "group": g, "word": common.word_text(GROUPS[g], syllables),
                          "expect": common.word_is_inner(GROUPS[g], syllables)})
        slots.append(group)
    requests = []
    for group in slots:
        via_cli = rng.randrange(len(group))
        for n, req in enumerate(group):
            req["route"] = "cli" if n == via_cli else "direct"
            requests.append(req)
    rng.shuffle(requests)
    return requests


# -- execution -------------------------------------------------------------------


class State:
    def __init__(self, modules, work):
        self.em, self.fp, self.ta, self.rw, self.gs, self.eb, self.cli = modules
        self.work = work
        self.timings = {}   # (verb, route) -> seconds, for cli.overhead_ms


def setup(ctx):
    from innerscope import cli, embed, exactmath, freeprod, gset, rewrite, tensoralg
    return State((exactmath, freeprod, tensoralg, rewrite, gset, embed, cli), ctx["work"])


def _algebra_json(data):
    d = len(data["unit"])
    return {"dim": d, "field": {"char": data["p"]}, "structure": data["structure"], "unit": data["unit"]}


def _group_json(group):
    return {"order": group["order"], "table": group["table"], "names": group["names"]}


def prepare(state, requests):
    """Serialize every input to JSON text; write files for the CLI requests."""
    shutil.rmtree(state.work, ignore_errors=True)
    os.makedirs(state.work)
    items = []
    for n, req in enumerate(requests):
        verb = req["verb"]
        texts = {}
        if verb.startswith("algebra") or verb == "embed verify":
            texts["algebra"] = json.dumps(_algebra_json(ALGEBRAS[req["algebra"]][1]))
            texts["candidate"] = json.dumps(req["candidate"])
        elif verb == "rewrite check-endo":
            a, b, _ = LEAVITT_PAIRS[req["pair"]]
            texts["system"] = json.dumps(LEAVITT2)
            texts["candidate"] = json.dumps({"a": a, "b": b})
        elif verb == "rewrite ad-power":
            lie = dict(LIES[req["lie"]])
            lie.pop("label")
            texts["lie"] = json.dumps(lie)
        elif verb == "rewrite unit-search":
            texts["system"] = json.dumps(UNIT_SEARCH[req["system"]][1])
        elif verb == "gset coinner":
            _, group, action = GSETS[req["gset"]]
            texts["group"] = json.dumps(_group_json(group))
            texts["gset"] = json.dumps({"group": "r%d-group.json" % n, "points": len(action),
                                        "action": action})
        else:
            texts["group"] = json.dumps(_group_json(GROUPS[req["group"]]))
        item = dict(req, texts=texts)
        if req["route"] == "cli":
            paths = {}
            for key, text in texts.items():
                paths[key] = os.path.join(state.work, "r%d-%s.json" % (n, key))
                with open(paths[key], "w") as fh:
                    fh.write(text)
            item["argv"] = _argv(req, paths)
        items.append(item)
    return items


def _argv(req, paths):
    verb = req["verb"]
    argv = verb.split()
    if verb.startswith("algebra") or verb == "embed verify":
        argv += ["--algebra", paths["algebra"], "--candidate", paths["candidate"]]
    elif verb == "rewrite check-endo":
        argv += ["--system", paths["system"], "--candidate", paths["candidate"]]
    elif verb == "rewrite ad-power":
        argv += ["--lie", paths["lie"]]
        if req["pair"] is not None:
            names = LIES[req["lie"]]["names"]
            argv += ["--word", "%s,%s" % (names[req["pair"][0]], names[req["pair"][1]])]
    elif verb == "rewrite unit-search":
        argv += ["--system", paths["system"], "--degree-cap", "1"]
    elif verb == "gset coinner":
        argv += ["--gset", paths["gset"], "--oracle"]
    else:
        argv += ["--group", paths["group"], "--word", req["word"]]
    return argv


def label(item):
    detail = {k: item[k] for k in ("algebra", "kind", "word", "gset", "lie", "pair", "system") if k in item}
    return "%s via %s %s" % (item["verb"], item["route"], json.dumps(detail))


def execute(state, item, tr):
    t0 = time.perf_counter()
    if item["route"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli.main", state.cli.main, item["argv"])
        result = ("cli", code, out.getvalue(), err.getvalue())
    else:
        result = DIRECT[item["verb"]](state, item, tr)
    state.timings.setdefault((item["verb"], item["route"]), []).append(time.perf_counter() - t0)
    return result


def _vector(field, values):
    return tuple(field.parse_scalar(str(x)) for x in values)


def _load_algebra(state, item, tr):
    data = json.loads(item["texts"]["algebra"])
    return tr.call("tensoralg.StructAlgebra.from_json", state.ta.StructAlgebra.from_json, data)


def _endo_candidate(state, alg, spec, tr):
    ta, field = state.ta, alg.field
    if spec["kind"] == "unit":
        return tr.call("tensoralg.EndoCandidate", ta.EndoCandidate.from_unit, alg, _vector(field, spec["u"]))
    if spec["kind"] == "pairs":
        a = [_vector(field, v) for v in spec["a"]]
        b = [_vector(field, v) for v in spec["b"]]
        return tr.call("tensoralg.EndoCandidate", ta.EndoCandidate.from_pairs, alg, a, b)
    w = ta.TensorElement.from_matrix(field, [_vector(field, r) for r in spec["coords"]])
    return tr.call("tensoralg.EndoCandidate", ta.EndoCandidate.from_tensor, alg, w)


def _deriv_candidate(state, alg, spec, tr):
    ta, field = state.ta, alg.field
    if spec["kind"] == "inner":
        return tr.call("tensoralg.inner_derivation_of", ta.inner_derivation_of, alg, _vector(field, spec["b"]))
    w = ta.TensorElement.from_matrix(field, [_vector(field, r) for r in spec["coords"]])
    return tr.call("tensoralg.DerivationCandidate", ta.DerivationCandidate, alg, w)


def _algebra_endo(state, item, tr):
    alg = _load_algebra(state, item, tr)
    cand = _endo_candidate(state, alg, json.loads(item["texts"]["candidate"]), tr)
    if item["verb"] == "algebra check-endo":
        return tr.call("tensoralg.check_endo_conditions", state.ta.check_endo_conditions, cand)
    return tr.call("tensoralg.classify_inner_endo_algebra", state.ta.classify_inner_endo_algebra, cand)


def _algebra_deriv(state, item, tr):
    alg = _load_algebra(state, item, tr)
    cand = _deriv_candidate(state, alg, json.loads(item["texts"]["candidate"]), tr)
    if item["verb"] == "algebra check-deriv":
        return tr.call("tensoralg.check_derivation_generic", state.ta.check_derivation_generic, cand)
    b = tr.call("tensoralg.extract_derivation_element", state.ta.extract_derivation_element, cand)
    return alg, b


def _rewrite_endo(state, item, tr):
    rw = state.rw
    rs = tr.call("rewrite.RewriteSystem.from_json", rw.RewriteSystem.from_json,
                 json.loads(item["texts"]["system"]))
    data = json.loads(item["texts"]["candidate"])
    parse = rw.NcPolynomial.parse
    a = [tr.call("rewrite.NcPolynomial.parse", parse, rs.field, t, rs.generators) for t in data["a"]]
    b = [tr.call("rewrite.NcPolynomial.parse", parse, rs.field, t, rs.generators) for t in data["b"]]
    verdict = tr.call("rewrite.check_endo_fp", rw.check_endo_fp, a, b, rs)
    witness = None
    if verdict.passed:
        mono = rw.NcPolynomial.monomial
        g0, g1 = rs.generators[0], rs.generators[-1]
        samples = [rw.NcPolynomial.one(rs.field)]
        samples += [mono(rs.field, (g,)) for g in rs.generators]
        samples += [mono(rs.field, (g0, g1)), mono(rs.field, (g1, g0))]
        witness = tr.call("rewrite.fp_witness_checks", rw.fp_witness_checks, a, b, rs, samples)
    return verdict, witness


def _ad_power(state, item, tr):
    rw = state.rw
    lie = tr.call("rewrite.LieData.from_json", rw.LieData.from_json, json.loads(item["texts"]["lie"]))
    pairs = [tuple(item["pair"])] if item["pair"] is not None else [(i, j) for i in range(3) for j in range(3)]
    reports = []
    for i, j in pairs:
        a = tuple(lie.field.one if t == i else lie.field.zero for t in range(lie.dim))
        u = tuple(lie.field.one if t == j else lie.field.zero for t in range(lie.dim))
        reports.append(tr.call("rewrite.ad_power_check", rw.ad_power_check, lie, a, u))
    return reports


def _unit_search(state, item, tr):
    rw = state.rw
    rs = tr.call("rewrite.RewriteSystem.from_json", rw.RewriteSystem.from_json,
                 json.loads(item["texts"]["system"]))
    return tr.call("rewrite.scalar_unit_search", rw.scalar_unit_search, rs, degree_cap=1)


def _coinner(state, item, tr):
    group = tr.call("freeprod.FiniteGroup.from_json", state.fp.FiniteGroup.from_json,
                    json.loads(item["texts"]["group"]))
    obj = tr.call("gset.GSetObj.from_json", state.gs.GSetObj.from_json,
                  json.loads(item["texts"]["gset"]), group)
    result = tr.call("gset.coinner_group", state.gs.coinner_group, obj)
    count, match = tr.call("gset.naturality_oracle", state.gs.naturality_oracle, obj)
    return result, count, match


def _embed(state, item, tr):
    alg = _load_algebra(state, item, tr)
    cand = _endo_candidate(state, alg, json.loads(item["texts"]["candidate"]), tr)
    tt = tr.call("embed.build_embedding", state.eb.build_embedding, alg)
    report = tr.call("embed.verify_injectivity_via_embedding", state.eb.verify_injectivity_via_embedding, cand, tt)
    return cand, tt, report


def _group(state, item, tr):
    fp = state.fp
    group = tr.call("freeprod.FiniteGroup.from_json", fp.FiniteGroup.from_json, json.loads(item["texts"]["group"]))
    word = tr.call("freeprod.ReducedWord.parse", fp.ReducedWord.parse, group, item["word"])
    generic = tr.call("freeprod.check_generic_multiplicative", fp.check_generic_multiplicative, word)
    shape = tr.call("freeprod.classify_inner_endo_group", fp.classify_inner_endo_group, word)
    return generic, shape


DIRECT = {
    "algebra check-endo": _algebra_endo,
    "algebra classify": _algebra_endo,
    "algebra check-deriv": _algebra_deriv,
    "algebra extract-deriv": _algebra_deriv,
    "rewrite check-endo": _rewrite_endo,
    "rewrite ad-power": _ad_power,
    "rewrite unit-search": _unit_search,
    "gset coinner": _coinner,
    "embed verify": _embed,
    "group check": _group,
    "group classify": _group,
}


# -- checking ----------------------------------------------------------------------


def expected_pass(item):
    """The verdict the verb must reach, by construction or by the benchmark's own route."""
    verb = item["verb"]
    if verb == "rewrite check-endo":
        return LEAVITT_PAIRS[item["pair"]][2]
    if "expect" in item:
        return item["expect"]
    return True


def check(state, item, result, tr):
    if item["route"] == "cli":
        return _check_cli(item, result, tr)
    return CHECKS[item["verb"]](item, result, tr)


def _check_cli(item, result, tr):
    _, code, out, err = result
    want = 0 if expected_pass(item) else 1
    problems = []
    if code != want:
        tr.count("cli.exit_mismatch")
        problems.append(("cli-exit", "exit %r, expected %d; stderr %r" % (code, want, err.strip()[-200:])))
    lines = out.strip().splitlines()
    if code in (0, 1) and (not lines or lines[-1] != ("PASS" if code == 0 else "FAIL")):
        problems.append(("cli-report", "last line %r for exit %r" % (lines[-1:] or None, code)))
    return problems


def _check_endo(item, verdict, tr):
    if verdict.passed != item["expect"]:
        return [("own-route", "passed=%r, own route %r" % (verdict.passed, item["expect"]))]
    return []


def _check_classify(item, cls, tr):
    conj = cls.kind == "conjugation"
    problems = []
    if conj != item["expect"]:
        problems.append(("own-route", "kind %s, own route %r" % (cls.kind, item["expect"])))
    if item["kind"] == "unit" and not conj:
        problems.append(("unit-is-conjugation", "unit candidate classified %s" % cls.kind))
    return problems


def _check_deriv(item, verdict, tr):
    if verdict.passed != item["expect"]:
        return [("own-route", "passed=%r, own route %r" % (verdict.passed, item["expect"]))]
    return []


def _check_extract(item, result, tr):
    _, b = result
    data = ALGEBRAS[item["algebra"]][1]
    own = common.Algebra(data)
    b_own = [common.norm(own.p, x) for x in b]
    coords = tuple(common.parse_scalar(own.p, c) for c in item["coords"])
    if own.commutator_tensor(b_own) != coords:
        return [("rebuild", "1 (x) b - b (x) 1 does not rebuild the candidate tensor")]
    return []


def _check_rewrite_endo(item, result, tr):
    verdict, witness = result
    want = expected_pass(item)
    problems = []
    if verdict.passed != want:
        problems.append(("by-construction", "passed=%r for pair %r" % (verdict.passed, LEAVITT_PAIRS[item["pair"]])))
    if verdict.passed and not (witness and witness["passed"]):
        problems.append(("witness", "passing pair without injectivity witnesses"))
    return problems


def _check_ad_power(item, reports, tr):
    if not all(r["match"] and r["degree_one"] and r["passed"] for r in reports):
        return [("char-p-identity", "ad_a^p differs from [a^p, .] on %s" % LIES[item["lie"]]["label"])]
    return []


def _check_unit_search(item, result, tr):
    label, _, all_scalar = UNIT_SEARCH[item["system"]]
    if result["all_scalar"] != all_scalar or not result["solutions"]:
        return [("known-units", "%s: all_scalar=%r with %d solutions"
                 % (label, result["all_scalar"], len(result["solutions"])))]
    return []


def _check_coinner(item, result, tr):
    res, count, match = result
    label, group, action = GSETS[item["gset"]]
    product, sizes = common.gset_centralizer_product(group, action)
    tr.count("oracle.survivors", sum(sizes))
    tr.count("oracle.seeds", len(sizes) * group["order"])
    if not (res.order == product == count and res.iso_check and match):
        return [("centralizer-product", "%s: order %d, centralizer product %d, oracle %d, iso=%r, match=%r"
                 % (label, res.order, product, count, res.iso_check, match))]
    return []


def _check_embed(item, result, tr):
    _, _, report = result
    if report["kernel_rank"] != 0 or not report["passed"]:
        return [("kernel-rank", "kernel rank %d, passed=%r" % (report["kernel_rank"], report["passed"]))]
    return []


def _check_group(item, result, tr):
    generic, shape = result
    if generic != shape.is_inner() or generic != item["expect"]:
        return [("own-shape", "generic=%r, shape=%s, own shape test %r" % (generic, shape.kind, item["expect"]))]
    return []


CHECKS = {
    "algebra check-endo": _check_endo,
    "algebra classify": _check_classify,
    "algebra check-deriv": _check_deriv,
    "algebra extract-deriv": _check_extract,
    "rewrite check-endo": _check_rewrite_endo,
    "rewrite ad-power": _check_ad_power,
    "rewrite unit-search": _check_unit_search,
    "gset coinner": _check_coinner,
    "embed verify": _check_embed,
    "group check": _check_group,
    "group classify": _check_group,
}


def probe(state, outcomes, tr, rng):
    """Time induced_endomorphism on its own for each direct embed request."""
    problems = []
    for index, (item, result, error) in enumerate(outcomes):
        if error or item["verb"] != "embed verify" or item["route"] != "direct":
            continue
        cand, tt, _ = result
        induced = tr.call("tensoralg.induced_endomorphism", state.ta.induced_endomorphism, cand, tt.embed)
        if not induced.is_injective:
            problems.append((index, "probe-induced", "induced map on the extension has a kernel"))
    return problems


def layer_metrics(state, phase, tracer):
    """cli.overhead_ms: median over verbs of (median CLI latency - median direct latency), rescaled."""
    gaps = []
    for (verb, route), times in state.timings.items():
        direct = state.timings.get((verb, "direct"))
        if route == "cli" and direct:
            gaps.append(statistics.median(times) - statistics.median(direct))
    return {"cli.overhead_ms": statistics.median(gaps) * 1e3 * phase.scale if gaps else 0.0,
            "cli.exit_mismatch": tracer.counts["cli.exit_mismatch"]}


def extra_metrics(state, phase):
    return []


def teardown(ctx):
    shutil.rmtree(ctx["work"], ignore_errors=True)
