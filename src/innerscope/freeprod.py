"""Reduced words over G * <x> and the conjugation-shape decision procedure.

A word w(x) with coefficients in a finite group G induces, for every
homomorphism f: G -> H, the map t |-> w_f(t) on H.  Multiplicativity of
that map for a generic argument forces w to be either s x s^-1 (conjugation
shape) or the empty word (the trivial endomorphism).  This module carries
both routes independently: the syntactic pattern match and the generic
two-variable equation, so tests can confront one with the other.

Groups, homomorphisms and, in innerscope.gset, actions and equivariant maps
are checked on FiniteGroup.gens only: the elements an axiom holds for are
closed under the product, so it holds on all of G once it holds on gens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalError, ValidationFailure, reading

# Largest |k| accepted in a typed power x^k; substitution repeats the image
# word |k| times, so the bound keeps a typed number from sizing the work.
MAX_WORD_EXPONENT = 1000
# Largest group order accepted.  The corpus, the tests, the selftest and the
# benchmark reach 24 (S4).  At the cap the slowest group verb is `group
# monoid` on Z_256: its report read 0.14-0.24 s on a 2-vCPU Xeon container,
# mostly the 257^2 word substitutions and loading the table (0.06 s).
MAX_GROUP_ORDER = 256


class FiniteGroup:
    """A finite group as a Cayley table over element indices 0..order-1.

    The table convention is table[i][j] = i*j where, for permutation-built
    groups, i*j means "apply j first, then i" (ordinary composition).
    """

    def __init__(self, table, names=None):
        if len(table) > MAX_GROUP_ORDER:
            raise ValidationFailure("group order %d exceeds the cap %d" % (len(table), MAX_GROUP_ORDER))
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.names = list(names) if names is not None else [str(i) for i in range(self.order)]
        defect = self._first_defect()
        if defect:
            raise ValidationFailure("bad Cayley table: " + defect)
        self.inverse = [self.table[i].index(self.identity) for i in range(self.order)]

    def _first_defect(self) -> str | None:
        """The table's first defect, if any; on the way it sets the identity and gens."""
        n = self.order
        if len(self.names) != n:
            return "names length != order"
        if len(set(self.names)) != n:
            return "duplicate names"
        for i, row in enumerate(self.table):
            if (len(row) != n or any(type(x) is not int for x in row)
                    or sorted(row) != list(range(n))):
                return "row %d is not a permutation of 0..%d" % (i, n - 1)
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                return "column %d is not a permutation" % j
        self.identity = next((e for e in range(n) if all(
            self.table[e][j] == j and self.table[j][e] == j for j in range(n))), None)
        if self.identity is None:
            return "no two-sided identity"
        self.gens = self.generating_set(range(n))
        # Light's test: the s with (a s) c = a (s c) for all a, c are closed
        # under the product, and every element is a product of gens
        for a in range(n):
            for s in self.gens:
                for c in range(n):
                    if self.table[self.table[a][s]][c] != self.table[a][self.table[s][c]]:
                        return "associativity fails at (%d,%d,%d)" % (a, s, c)
        return None

    def generating_set(self, elements) -> list[int]:
        """Greedy picks from elements (the group or a subgroup) until each is a
        left-nested product e s1 ... sk of picks; sound before associativity."""
        gens, reached = [], {self.identity}
        for g in elements:
            if g in reached:
                continue
            gens.append(g)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = self.mul(x, s)
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        return gens

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
        return other is self or (
            isinstance(other, FiniteGroup)
            and other.table == self.table
            and other.names == self.names
        )

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


def _first_non_hom(source: FiniteGroup, target: FiniteGroup, mapping):
    """First pair (a, b) with f(ab) != f(a) f(b), or None; f is an index list.
    Tries (e, e), which fails exactly when f(e) != e, then (a, s) for s in gens."""
    if mapping[source.identity] != target.identity:
        return source.identity, source.identity
    for a in range(source.order):
        for s in source.gens:
            if mapping[source.mul(a, s)] != target.table[mapping[a]][mapping[s]]:
                return a, s
    return None


class GroupHom:
    """A verified homomorphism between two finite groups, as an index map."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping):
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        if len(self.mapping) != source.order:
            raise ValidationFailure("map covers %d of %d elements"
                                    % (len(self.mapping), source.order))
        for a, fa in enumerate(self.mapping):
            if not (type(fa) is int and 0 <= fa < target.order):
                raise ValidationFailure("image of element %d is invalid" % a)
        failure = _first_non_hom(source, target, self.mapping)
        if failure is not None:
            raise ValidationFailure("f(ab) != f(a)f(b) at (%d,%d)" % failure)

    @classmethod
    def identity(cls, g: FiniteGroup) -> "GroupHom":
        return cls(g, g, list(range(g.order)))

    def apply(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValidationFailure("composition mismatch")
        return GroupHom(inner.source, self.target, [self.mapping[i] for i in inner.mapping])

    def __repr__(self):
        return "GroupHom(%r -> %r)" % (self.source, self.target)


def all_homs(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    """Brute-force enumeration of all homomorphisms; desk scale only."""
    return [GroupHom(source, target, list(mapping))
            for mapping in itertools.product(range(target.order), repeat=source.order)
            if _first_non_hom(source, target, mapping) is None]


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


def _inverse_syllables(group: FiniteGroup, syllables) -> tuple:
    """The syllables of the inverse of a reduced word, again reduced."""
    return tuple(('g', group.inv(syl[1])) if syl[0] == 'g' else ('x', syl[1], -syl[2])
                 for syl in reversed(syllables))


def _substituted(group: FiniteGroup, letters, syllables, images) -> list:
    """The unreduced pieces of a substitution: letters[g] for each group letter
    g, and images[v] (its inverse when n < 0) |n| times for each ('x', v, n).
    Reduction is confluent, so one reduction of them gives the word."""
    pieces = []
    for syl in syllables:
        if syl[0] == 'g':
            pieces.append(('g', letters[syl[1]]))
        else:
            img = images[syl[1]] if syl[2] > 0 else _inverse_syllables(group, images[syl[1]])
            pieces.extend(img * abs(syl[2]))
    return pieces


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

    def _check(self, other: "ReducedWord"):
        if other.group != self.group:
            raise ValidationFailure("words over different groups")

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        self._check(other)
        return ReducedWord(self.group, _reduce_syllables(
            self.group, list(self.syllables) + list(other.syllables)))

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.group, _inverse_syllables(self.group, self.syllables))

    def variables(self) -> set:
        return {syl[1] for syl in self.syllables if syl[0] == 'x'}

    @classmethod
    def parse(cls, group: FiniteGroup, text: str) -> "ReducedWord":
        """Parse whitespace-separated tokens: element names, or x / x^k forms
        in the variables x, x0, x1."""
        syllables = []
        for token in text.split():
            base, caret, exp_text = token.partition("^")
            if base in ("x", "x0", "x1"):
                exp = 1
                if caret:
                    try:
                        exp = int(exp_text)
                    except ValueError:
                        raise ValidationFailure("bad exponent in token %r" % token) from None
                    if abs(exp) > MAX_WORD_EXPONENT:
                        raise ValidationFailure("exponent in token %r exceeds %d in absolute value"
                                                % (token, MAX_WORD_EXPONENT))
                syllables.append(('x', base, exp))
            else:
                if caret:
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
        raise ValidationFailure("word is not over the homomorphism source")
    used = w.variables()
    missing = used - set(images)
    if missing:
        raise ValidationFailure("no image for variables %s" % sorted(missing))
    target = hom.target
    if any(images[v].group != target for v in used):
        raise ValidationFailure("image word lives over the wrong group")
    pieces = _substituted(target, hom.mapping, w.syllables,
                          {v: images[v].syllables for v in used})
    return ReducedWord(target, _reduce_syllables(target, pieces))


def _single_variable(w: ReducedWord):
    vars = w.variables()
    if len(vars) > 1:
        raise ValidationFailure("expected a word in one variable, found %s" % sorted(vars))
    return vars.pop() if vars else "x"


def check_generic_multiplicative(w: ReducedWord) -> bool:
    """Does w(x0 x1) equal w(x0) w(x1) as reduced words in G * <x0, x1>?

    This is the generic test: it quantifies over all homomorphisms and all
    arguments at once.  Constant words fail it, conjugation shapes pass.
    Each side is substituted whole, on the identity letter map, and reduced once.
    """
    var = _single_variable(w)
    group = w.group
    x0, x1 = ('x', var + "'0", 1), ('x', var + "'1", 1)
    letters = range(group.order)
    lhs = _substituted(group, letters, w.syllables, {var: (x0, x1)})
    rhs = (_substituted(group, letters, w.syllables, {var: (x0,)})
           + _substituted(group, letters, w.syllables, {var: (x1,)}))
    return _reduce_syllables(group, lhs) == _reduce_syllables(group, rhs)


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
    return ReducedWord.from_syllables(group, [('g', s), ('x', 'x', 1), ('g', group.inv(s))])


@dataclass
class MonoidResult:
    elements: list          # GroupInnerClass, conjugations first then trivial
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
    words = [conjugation_word(group, s) for s in group.elements()] + [ReducedWord.empty(group)]
    index = {w.syllables: i for i, w in enumerate(words)}
    n = len(classes)
    table = [[None] * n for _ in range(n)]
    letters = range(group.order)
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            composed = _reduce_syllables(group, _substituted(
                group, letters, wi.syllables, {"x": wj.syllables}))
            if composed not in index:
                raise InternalError("composition left the candidate set")
            table[i][j] = index[composed]
    trivial_pos = n - 1
    ok = (all(table[s][t] == group.mul(s, t) for s in group.elements() for t in group.elements())
          and all(table[trivial_pos][i] == trivial_pos == table[i][trivial_pos] for i in range(n))
          and len(index) == n)  # distinctness: the realizing words are pairwise different
    return MonoidResult(classes, table, ok)


def apply_extended(cls: GroupInnerClass, hom: GroupHom, t: int) -> int:
    """Evaluate the extended endomorphism attached to cls at t in the target.

    Conjugation(s) sends t to f(s) t f(s)^-1; the trivial class sends
    everything to the identity.
    """
    if cls.kind == "trivial":
        return hom.target.identity
    if cls.kind == "conjugation":
        return hom.target.conjugate(hom.apply(cls.s), t)
    raise ValidationFailure("cannot apply a not_inner classification")


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
                yield ReducedWord(group, tuple(syllables))


def classification_survey(group: FiniteGroup):
    """Run both routes over every word of at most five syllables.

    Returns (accepted words, mismatches): accepted = words passing the generic
    multiplicative check; a mismatch is any word where the syntactic
    classification disagrees with that check.
    """
    accepted = []
    mismatches = []
    for w in enumerate_reduced_words(group, 5):
        generic = check_generic_multiplicative(w)
        syntactic = classify_inner_endo_group(w).is_inner()
        if generic != syntactic:
            mismatches.append(w)
        if generic:
            accepted.append(w)
    return accepted, mismatches
