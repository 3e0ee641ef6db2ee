"""word-stream: group words decided one at a time, as `group check` does.

Each request is a text word over S3, D4, Z6 or S4, parsed with
ReducedWord.parse, then classified by shape and checked for generic
multiplicativity.  Words have 0 to 11 alternating syllables with exponents
+-1 to +-3; about a fifth are built conjugation-shaped, so both verdicts
occur.  One request per group and round computes inner_endo_monoid instead.

Word length drives substitution and reduction; group order drives the
O(|G|^2) GroupHom.identity validation inside check_generic_multiplicative.

Checks: the two routes agree, both agree with the benchmark's own shape
test on its own reduction of the word, and every conjugation-shaped word
the generator built is accepted.  The monoid has |G| + 1 elements and is G
with an absorbing element.
"""

from __future__ import annotations

import random

import common

NAME = "word-stream"
WORDS_PER_GROUP = 50
GROUPS = [common.symmetric(3), common.dihedral4(), common.cyclic(6), common.symmetric(4)]


def generate(seed, k):
    rng = random.Random("%s:%d:%d" % (NAME, seed, k))
    requests = []
    for g, group in enumerate(GROUPS):
        for _ in range(WORDS_PER_GROUP):
            conjugation = rng.random() < 0.2
            syllables = common.random_word(rng, group, conjugation)
            requests.append({"group": g, "word": common.word_text(group, syllables),
                             "syllables": syllables, "built_conjugation": conjugation})
        requests.append({"group": g, "monoid": True})
    rng.shuffle(requests)
    return requests


class State:
    def __init__(self, freeprod):
        self.fp = freeprod
        self.groups = [freeprod.FiniteGroup(g["table"], g["names"]) for g in GROUPS]


def setup(ctx):
    from innerscope import freeprod
    return State(freeprod)


def prepare(state, requests):
    return requests


def label(item):
    group = GROUPS[item["group"]]["label"]
    return "%s monoid" % group if item.get("monoid") else "%s %r" % (group, item["word"])


def execute(state, item, tr):
    fp = state.fp
    group = state.groups[item["group"]]
    if item.get("monoid"):
        return tr.call("freeprod.inner_endo_monoid", fp.inner_endo_monoid, group)
    word = tr.call("freeprod.ReducedWord.parse", fp.ReducedWord.parse, group, item["word"])
    shape = tr.call("freeprod.classify_inner_endo_group", fp.classify_inner_endo_group, word)
    generic = tr.call("freeprod.check_generic_multiplicative", fp.check_generic_multiplicative, word)
    return word, shape, generic


def check(state, item, result, tr):
    group = GROUPS[item["group"]]
    if item.get("monoid"):
        problems = []
        if len(result.elements) != group["order"] + 1:
            problems.append(("monoid-size", "%d elements" % len(result.elements)))
        if not result.iso_check:
            problems.append(("monoid-structure", "not G with an absorbing element"))
        return problems
    word, shape, generic = result
    own = common.word_is_inner(group, [tuple(s) for s in item["syllables"]])
    tr.count("words.tried")
    tr.count("words.accepted", bool(generic))
    problems = []
    if generic != shape.is_inner():
        problems.append(("routes-agree", "generic=%r, shape=%s" % (generic, shape.kind)))
    if generic != own:
        problems.append(("own-shape", "generic=%r, own shape test says %r" % (generic, own)))
    if item["built_conjugation"] and not generic:
        problems.append(("built-conjugation", "a conjugation-shaped word was rejected"))
    return problems


def probe(state, outcomes, tr, rng):
    """Split check_generic_multiplicative into its identity and substitution calls."""
    fp = state.fp
    problems = []
    for index, (item, result, error) in enumerate(outcomes):
        if error or item.get("monoid"):
            continue
        word, _, generic = result
        group = word.group
        ident = tr.call("freeprod.GroupHom.identity", fp.GroupHom.identity, group)
        x0 = fp.ReducedWord.generator(group, "x'0")
        x1 = fp.ReducedWord.generator(group, "x'1")
        lhs = tr.call("freeprod.word_substitute", fp.word_substitute, word, ident, {"x": x0 * x1})
        r0 = tr.call("freeprod.word_substitute", fp.word_substitute, word, ident, {"x": x0})
        r1 = tr.call("freeprod.word_substitute", fp.word_substitute, word, ident, {"x": x1})
        if (lhs == r0 * r1) != generic:
            problems.append((index, "probe-substitution", "substitution disagrees with the generic check"))
    return problems


def layer_metrics(state, phase, tracer):
    return {}


def extra_metrics(state, phase):
    return []


def teardown(ctx):
    pass
