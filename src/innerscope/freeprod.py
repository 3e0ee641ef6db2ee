"""Reduced words over G * <x> and the conjugation-shape decision procedure.

A word w(x) with coefficients in a finite group G induces, for every
homomorphism f: G -> H, the map t |-> w_f(t) on H.  Multiplicativity of
that map for a generic argument forces w to be either s x s^-1 (conjugation
shape) or the empty word (the trivial endomorphism).  This module carries
both routes independently: the syntactic pattern match and the generic
two-variable equation, so tests can confront one with the other.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass


from .errors import InternalError, ValidationFailure, reading

# Largest |k| accepted in a typed power x^k; substitution repeats the image
# word |k| times, so the bound keeps a typed number from sizing the work.
MAX_WORD_EXPONENT = 1000


class GroupMismatch(ValidationFailure):
    """Words or elements from different ambient groups were combined."""


class NotAHomomorphism(ValidationFailure):
    """An index map offered as a group homomorphism is not one."""


class WrongVariableCount(ValidationFailure):
    """The operation needs a word in at most one variable."""


class NotInnerClass(ValidationFailure):
    """apply_extended was handed a classification with no acting element."""


class FiniteGroup:
    """A finite group as a Cayley table over element indices 0..order-1.

    The table convention is table[i][j] = i*j where, for permutation-built
    groups, i*j means "apply j first, then i" (ordinary composition).
    """

    def __init__(self, table, names=None):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.names = list(names) if names is not None else [str(i) for i in range(self.order)]
        problems, self.identity = self._find_problems()
        if problems:
            raise ValidationFailure("bad Cayley table: " + "; ".join(problems[:3]))
        self.inverse = [self.table[i].index(self.identity) for i in range(self.order)]

    def _find_problems(self):
        """The table's defects, and its two-sided identity if it has one."""
        n = self.order
        problems = []
        if len(self.names) != n:
            problems.append("names length != order")
        if len(set(self.names)) != n:
            problems.append("duplicate names")
        for i, row in enumerate(self.table):
            if len(row) != n or sorted(row) != list(range(n)):
                problems.append("row %d is not a permutation of 0..%d" % (i, n - 1))
                return problems, None
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                problems.append("column %d is not a permutation" % j)
                return problems, None
        identity = next((e for e in range(n)
                         if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n))),
                        None)
        if identity is None:
            problems.append("no two-sided identity")
            return problems, None
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        problems.append("associativity fails at (%d,%d,%d)" % (a, b, c))
                        return problems, identity
        return problems, identity

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conjugate(self, s: int, t: int) -> int:
        """s t s^-1."""
        return self.mul(self.mul(s, t), self.inv(s))

    def elements(self):
        return range(self.order)

    def name_of(self, i: int) -> str:
        return self.names[i]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("no element named %r" % name) from None

    def centralizer(self, subset) -> list[int]:
        return [g for g in range(self.order)
                if all(self.mul(g, h) == self.mul(h, g) for h in subset)]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and other.table == self.table
            and other.names == self.names
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.table))

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order

    def to_json(self) -> dict:
        return {"order": self.order, "table": self.table, "names": self.names}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        with reading("group"):
            g = cls(data["table"], data["names"])
            if g.order != data["order"]:
                raise ValidationFailure("/order: does not match table size")
        return g

    @classmethod
    def load(cls, path) -> "FiniteGroup":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _perm_compose(p, q):
    """(p o q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_name(perm) -> str:
    """1-based cycle notation, 'e' for the identity."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def group_from_permutations(perms) -> tuple[FiniteGroup, list[tuple]]:
    """Close a set of permutations under composition; names are cycle notation.

    Returns the group and the permutation realizing each element index.
    """
    n = len(perms[0])
    identity = tuple(range(n))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in perms:
            for r in (_perm_compose(p, q), _perm_compose(q, p)):
                if r not in index:
                    index[r] = len(elements)
                    elements.append(r)
                    frontier.append(r)
    table = [[index[_perm_compose(p, q)] for q in elements] for p in elements]
    names = [_cycle_name(p) for p in elements]
    return FiniteGroup(table, names), elements


def symmetric_group(n: int) -> tuple[FiniteGroup, list[tuple]]:
    gens = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    return group_from_permutations(gens)


def dihedral_group(n: int) -> tuple[FiniteGroup, list[tuple]]:
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return group_from_permutations([rot, flip])


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, [str(i) for i in range(n)])


class GroupHom:
    """A verified homomorphism between two finite groups, as an index map."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping):
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        if len(self.mapping) != source.order:
            raise NotAHomomorphism("map covers %d of %d elements"
                                   % (len(self.mapping), source.order))
        for a in range(source.order):
            for b in range(source.order):
                if self.mapping[source.mul(a, b)] != target.mul(self.mapping[a], self.mapping[b]):
                    raise NotAHomomorphism("f(ab) != f(a)f(b) at (%d,%d)" % (a, b))

    @classmethod
    def identity(cls, g: FiniteGroup) -> "GroupHom":
        return cls(g, g, list(range(g.order)))

    def apply(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise GroupMismatch("composition mismatch")
        return GroupHom(inner.source, self.target, [self.mapping[i] for i in inner.mapping])

    def __repr__(self):
        return "GroupHom(%r -> %r)" % (self.source, self.target)


def all_homs(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    """Brute-force enumeration of all homomorphisms; desk scale only."""
    homs = []
    n, m = source.order, target.order
    for mapping in itertools.product(range(m), repeat=n):
        if mapping[source.identity] != target.identity:
            continue
        ok = True
        for a in range(n):
            for b in range(n):
                if mapping[source.mul(a, b)] != target.mul(mapping[a], mapping[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(GroupHom(source, target, list(mapping)))
    return homs


# A syllable is ('g', element_index) or ('x', variable_name, nonzero_exponent).


def _reduce_syllables(group: FiniteGroup, syllables):
    e = group.identity
    stack = []
    for syl in syllables:
        if syl[0] == 'g':
            if syl[1] == e:
                cur = None
            else:
                cur = syl
        else:
            cur = None if syl[2] == 0 else syl
        while cur is not None and stack:
            top = stack[-1]
            if top[0] == 'g' and cur[0] == 'g':
                stack.pop()
                k = group.mul(top[1], cur[1])
                cur = None if k == e else ('g', k)
            elif top[0] == 'x' and cur[0] == 'x' and top[1] == cur[1]:
                stack.pop()
                exp = top[2] + cur[2]
                cur = None if exp == 0 else ('x', top[1], exp)
            else:
                break
        if cur is not None:
            stack.append(cur)
    return tuple(stack)


@dataclass(frozen=True)
class ReducedWord:
    """An element of the free product G * <variables>, in normal form.

    Syllables alternate: no two adjacent group letters, no two adjacent
    powers of the same variable, no identity letters, no zero exponents.
    """

    group: FiniteGroup
    syllables: tuple

    @classmethod
    def from_syllables(cls, group: FiniteGroup, syllables) -> "ReducedWord":
        return cls(group, _reduce_syllables(group, syllables))

    @classmethod
    def empty(cls, group: FiniteGroup) -> "ReducedWord":
        return cls(group, ())

    @classmethod
    def generator(cls, group: FiniteGroup, var: str = "x") -> "ReducedWord":
        return cls.from_syllables(group, [('x', var, 1)])

    @classmethod
    def group_elem(cls, group: FiniteGroup, i: int) -> "ReducedWord":
        return cls.from_syllables(group, [('g', i)])

    def _check(self, other: "ReducedWord"):
        if other.group != self.group:
            raise GroupMismatch("words over different groups")

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        self._check(other)
        return ReducedWord(self.group, _reduce_syllables(
            self.group, list(self.syllables) + list(other.syllables)))

    def inverse(self) -> "ReducedWord":
        inv = []
        for syl in reversed(self.syllables):
            if syl[0] == 'g':
                inv.append(('g', self.group.inv(syl[1])))
            else:
                inv.append(('x', syl[1], -syl[2]))
        return ReducedWord(self.group, tuple(inv))

    def power(self, n: int) -> "ReducedWord":
        base = self if n >= 0 else self.inverse()
        return ReducedWord.from_syllables(self.group, base.syllables * abs(n))

    def variables(self) -> set:
        return {syl[1] for syl in self.syllables if syl[0] == 'x'}

    def is_empty(self) -> bool:
        return not self.syllables

    def display(self) -> str:
        if not self.syllables:
            return ""
        parts = []
        for syl in self.syllables:
            if syl[0] == 'g':
                parts.append(self.group.name_of(syl[1]))
            elif syl[2] == 1:
                parts.append(syl[1])
            else:
                parts.append("%s^%d" % (syl[1], syl[2]))
        return " ".join(parts)

    @classmethod
    def parse(cls, group: FiniteGroup, text: str) -> "ReducedWord":
        """Parse whitespace-separated tokens: element names, or x / x^k forms
        in the variables x, x0, x1."""
        syllables = []
        for token in text.split():
            base, _, exp_text = token.partition("^")
            if base in ("x", "x0", "x1"):
                exp = 1
                if exp_text:
                    try:
                        exp = int(exp_text)
                    except ValueError:
                        raise ValidationFailure("bad exponent in token %r" % token) from None
                    if abs(exp) > MAX_WORD_EXPONENT:
                        raise ValidationFailure("exponent in token %r exceeds %d in absolute value"
                                                % (token, MAX_WORD_EXPONENT))
                syllables.append(('x', base, exp))
            else:
                if exp_text:
                    raise ValidationFailure("exponents on group letters are not supported: %r" % token)
                try:
                    idx = group.index_of(base)
                except KeyError:
                    raise ValidationFailure("token %r is neither a variable nor an element name" % token) from None
                syllables.append(('g', idx))
        return cls.from_syllables(group, syllables)


def word_substitute(w: ReducedWord, hom: GroupHom, images: dict) -> ReducedWord:
    """Push w through f: G -> H on letters and substitute words for variables.

    Every variable of w must have an image (a ReducedWord over the target).
    """
    if w.group != hom.source:
        raise GroupMismatch("word is not over the homomorphism source")
    missing = w.variables() - set(images)
    if missing:
        raise WrongVariableCount("no image for variables %s" % sorted(missing))
    target = hom.target
    out = ReducedWord.empty(target)
    for syl in w.syllables:
        if syl[0] == 'g':
            out = out * ReducedWord.group_elem(target, hom.apply(syl[1]))
        else:
            img = images[syl[1]]
            if img.group != target:
                raise GroupMismatch("image word lives over the wrong group")
            out = out * img.power(syl[2])
    return out


def _single_variable(w: ReducedWord):
    vars = w.variables()
    if len(vars) > 1:
        raise WrongVariableCount("expected a word in one variable, found %s" % sorted(vars))
    return vars.pop() if vars else "x"


def check_generic_multiplicative(w: ReducedWord) -> bool:
    """Does w(x0 x1) equal w(x0) w(x1) as reduced words in G * <x0, x1>?

    This is the generic test: it quantifies over all homomorphisms and all
    arguments at once.  Constant words fail it, conjugation shapes pass.
    """
    var = _single_variable(w)
    v0, v1 = var + "'0", var + "'1"
    ident = GroupHom.identity(w.group)
    x0 = ReducedWord.generator(w.group, v0)
    x1 = ReducedWord.generator(w.group, v1)
    lhs = word_substitute(w, ident, {var: x0 * x1})
    rhs = word_substitute(w, ident, {var: x0}) * word_substitute(w, ident, {var: x1})
    return lhs == rhs


@dataclass(frozen=True)
class GroupInnerClass:
    """Outcome of the syntactic classification: trivial, conjugation, or neither."""

    kind: str  # "trivial" | "conjugation" | "not_inner"
    s: int | None = None

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def conjugation(cls, s: int):
        return cls("conjugation", s)

    @classmethod
    def not_inner(cls):
        return cls("not_inner")

    def is_inner(self) -> bool:
        return self.kind != "not_inner"


def classify_inner_endo_group(w: ReducedWord) -> GroupInnerClass:
    """Pattern-match w against the two shapes an extended inner endo may take.

    Purely syntactic; independent of check_generic_multiplicative, which must
    agree with it on every reduced word.
    """
    _single_variable(w)
    syl = w.syllables
    if len(syl) == 0:
        return GroupInnerClass.trivial()
    if len(syl) == 1 and syl[0][0] == 'x' and syl[0][2] == 1:
        return GroupInnerClass.conjugation(w.group.identity)
    if (
        len(syl) == 3
        and syl[0][0] == 'g'
        and syl[1][0] == 'x'
        and syl[1][2] == 1
        and syl[2][0] == 'g'
        and syl[2][1] == w.group.inv(syl[0][1])
    ):
        return GroupInnerClass.conjugation(syl[0][1])
    return GroupInnerClass.not_inner()


def conjugation_word(group: FiniteGroup, s: int) -> ReducedWord:
    """The word s x s^-1 (reduces to x when s is the identity)."""
    return (
        ReducedWord.group_elem(group, s)
        * ReducedWord.generator(group)
        * ReducedWord.group_elem(group, group.inv(s))
    )


def class_to_word(group: FiniteGroup, cls: GroupInnerClass) -> ReducedWord:
    if cls.kind == "trivial":
        return ReducedWord.empty(group)
    if cls.kind == "conjugation":
        return conjugation_word(group, cls.s)
    raise NotInnerClass("no word realizes a not_inner classification")


@dataclass
class MonoidResult:
    elements: list          # GroupInnerClass, conjugations first then trivial
    words: list             # the realizing words, same order
    table: list             # composition table over element positions
    iso_check: bool         # composition matches G with an absorbing zero


def inner_endo_monoid(group: FiniteGroup) -> MonoidResult:
    """The monoid of extended inner endomorphisms under composition.

    Elements are Conjugation(s) for s in G plus the trivial (constant
    identity) endomorphism; composition is word substitution.  iso_check
    verifies the monoid is G with a two-sided absorbing element adjoined.
    """
    classes = [GroupInnerClass.conjugation(s) for s in group.elements()]
    classes.append(GroupInnerClass.trivial())
    words = [class_to_word(group, c) for c in classes]
    index = {w.syllables: i for i, w in enumerate(words)}
    n = len(classes)
    table = [[None] * n for _ in range(n)]
    ident = GroupHom.identity(group)
    for i, wi in enumerate(words):
        vi = _single_variable(wi)
        for j, wj in enumerate(words):
            composed = word_substitute(wi, ident, {vi: wj}) if not wi.is_empty() else wi
            if composed.syllables not in index:
                raise InternalError("composition left the candidate set")
            table[i][j] = index[composed.syllables]
    trivial_pos = n - 1
    ok = True
    for s in group.elements():
        for t in group.elements():
            if table[s][t] != group.mul(s, t):
                ok = False
    for i in range(n):
        if table[trivial_pos][i] != trivial_pos or table[i][trivial_pos] != trivial_pos:
            ok = False
    # distinctness: the realizing words are pairwise different
    if len(index) != n:
        ok = False
    return MonoidResult(classes, words, table, ok)


def apply_extended(cls: GroupInnerClass, hom: GroupHom, t: int) -> int:
    """Evaluate the extended endomorphism attached to cls at t in the target.

    Conjugation(s) sends t to f(s) t f(s)^-1; the trivial class sends
    everything to the identity.
    """
    if cls.kind == "trivial":
        return hom.target.identity
    if cls.kind == "conjugation":
        return hom.target.conjugate(hom.apply(cls.s), t)
    raise NotInnerClass("cannot apply a not_inner classification")


def enumerate_reduced_words(group: FiniteGroup, max_len: int):
    """All reduced words in one variable, with exponents 1, -1, 2, -2 and at
    most max_len syllables.

    Within each length, output order is deterministic (group letters by
    index, exponents in the order 1, -1, 2, -2).
    """
    nonidentity = [i for i in group.elements() if i != group.identity]
    yield ReducedWord.empty(group)
    for length in range(1, max_len + 1):
        for starts_with_g in (True, False):
            kinds = [('g' if (starts_with_g == (k % 2 == 0)) else 'x') for k in range(length)]
            pools = [nonidentity if kind == 'g' else (1, -1, 2, -2) for kind in kinds]
            for combo in itertools.product(*pools):
                syllables = []
                for kind, c in zip(kinds, combo):
                    syllables.append(('g', c) if kind == 'g' else ('x', 'x', c))
                w = ReducedWord(group, tuple(syllables))
                yield w


def classification_survey(group: FiniteGroup, max_len: int = 5):
    """Run both routes over every short word; returns (accepted words, mismatches).

    accepted = words passing the generic multiplicative check; a mismatch is
    any word where the syntactic classification disagrees with that check.
    """
    accepted = []
    mismatches = []
    for w in enumerate_reduced_words(group, max_len):
        generic = check_generic_multiplicative(w)
        syntactic = classify_inner_endo_group(w).is_inner()
        if generic != syntactic:
            mismatches.append(w)
        if generic:
            accepted.append(w)
    return accepted, mismatches
