"""Noncommutative polynomial rewriting with diamond-lemma confluence checking.

Rewriting systems here present quotients of free associative algebras: the
relations y_i x_j = delta_ij realizing R^n = R as right modules, and the
straightening rules e_j e_i = e_i e_j + [e_j, e_i] presenting an enveloping
algebra.  Rules must strictly decrease the degree-lexicographic order, so
every reduction terminates; confluence is checked, not assumed, by reducing
both branches of every overlap and inclusion ambiguity.
"""

from __future__ import annotations

import heapq
import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    BudgetExceeded,
    InternalError,
    ValidationFailure,
    Verdict,
    reading,
)
from .exactmath import Field, add_scaled, rank_raw

# Most generators a RewriteSystem accepts: its letter code spends one code
# point on each.
MAX_GENERATORS = sys.maxunicode + 1
# Largest k accepted in a typed factor g^k or c^k; a power of a generator
# becomes k letters of a word.
MAX_EXPONENT = 1000
# Largest n for leavitt_system: the system has n^2 + 1 rules and its
# confluence check resolves every pair of overlapping rules.
MAX_LEAVITT_N = 16
# Largest number of reducible words one normal_form call may reduce, by either
# strategy.  The largest leftmost count met in the tests, the selftest and the
# benchmark workloads is 1,000 (y1^1000 * x1^1000 over Leavitt n = 2), and at
# most 221 in nf-stream; the largest random-redex count is 304, in nf-stream.
MAX_NF_WORDS = 4000
# Largest candidate budget scalar_unit_search accepts, twice the default; it
# solves an m x m system for each of up to |coeffs|^m candidates.  On a
# 2-vCPU Xeon container the default admits 16 monomials over GF(2) (K[z] at
# degree cap 15: 9.4-10.5 s) and 10 over QQ (sl2 or heisenberg PBW at cap 2:
# 1.9-2.5 s); this bound admits 17 over GF(2), the slowest (K[z], cap 16: 24.4 s).
MAX_UNIT_SEARCH_BUDGET = 1 << 17


class NcPolynomial:
    """A polynomial in noncommuting variables: map from words to coefficients.

    Words are tuples of generator names.  Zero coefficients are never stored.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        clean = {}
        if terms:
            for word, coeff in terms.items():
                c = field.coerce(coeff)
                if c != field.zero:
                    clean[tuple(word)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, field: Field, terms: dict) -> "NcPolynomial":
        """The polynomial on terms whose values are raw and nonzero, unchecked."""
        p = cls.__new__(cls)
        p.field = field
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field: Field) -> "NcPolynomial":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "NcPolynomial":
        return cls(field, {(): field.one})

    @classmethod
    def monomial(cls, field: Field, word, coeff=1) -> "NcPolynomial":
        return cls(field, {tuple(word): field.coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        if other.field != self.field:
            raise ValidationFailure("field mismatch")
        out = dict(self.terms)
        add_scaled(self.field, out, self.field.one, other.terms.items())
        return NcPolynomial._wrap(self.field, out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        if other.field != self.field:
            raise ValidationFailure("field mismatch")
        out: dict = {}
        for w1, c1 in self.terms.items():
            add_scaled(self.field, out, c1, [(w1 + w2, c2) for w2, c2 in other.terms.items()])
        return NcPolynomial._wrap(self.field, out)

    def scale(self, c) -> "NcPolynomial":
        field = self.field
        c = field.coerce(c)
        if not c:
            return NcPolynomial.zero(field)
        return NcPolynomial._wrap(field, {w: field.reduce(c * v) for w, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, NcPolynomial)
                and other.field == self.field and other.terms == self.terms)

    def to_json(self) -> list:
        fmt = self.field.format_scalar
        return [{"word": list(w), "coeff": fmt(c)}
                for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))]

    @classmethod
    def from_json(cls, field: Field, data: list) -> "NcPolynomial":
        terms: dict = {}
        for entry in data:
            word = tuple(entry["word"])
            terms[word] = terms.get(word, field.zero) + field.coerce(entry["coeff"])
        return cls(field, terms)

    @classmethod
    def parse(cls, field: Field, text: str, generators) -> "NcPolynomial":
        """Parse the flat syntax used on the command line, e.g. "x1*y1 - 1".

        Terms are separated by + and -; factors inside a term by *; a factor
        is a generator name, optionally with ^k, or an integer or fraction.
        """
        gens = set(generators)
        stripped = text.replace(" ", "")
        if not stripped:
            raise ValidationFailure("empty polynomial text")
        pieces = []
        sign = 1
        token = ""
        for pos, ch in enumerate(stripped):
            if ch in "+-":
                if token.endswith("^"):
                    raise ValidationFailure("signed exponent in %r" % text)
                if token:
                    pieces.append((sign, token))
                    token = ""
                elif pieces or pos:
                    raise ValidationFailure("dangling sign in %r" % text)
                sign = -1 if ch == "-" else 1
            else:
                token += ch
        if token:
            pieces.append((sign, token))
        else:
            raise ValidationFailure("trailing operator in %r" % text)
        terms: dict = {}
        for sgn, term in pieces:
            coeff = field.coerce(sgn)
            word: list = []
            for factor in term.split("*"):
                if not factor:
                    raise ValidationFailure("empty factor in %r" % term)
                base, caret, exp = factor.partition("^")
                if caret:
                    try:
                        power = int(exp)
                    except ValueError:
                        raise ValidationFailure("bad exponent %r" % exp)
                    if power > MAX_EXPONENT:
                        raise ValidationFailure("exponent in %r exceeds %d" % (factor, MAX_EXPONENT))
                else:
                    power = 1
                if base in gens:
                    word.extend([base] * power)
                else:
                    try:
                        value = Fraction(base)
                    except (ValueError, ZeroDivisionError):
                        raise ValidationFailure("unknown generator %r" % base)
                    coeff = field.reduce(coeff * field.coerce(value) ** power)
            key = tuple(word)
            terms[key] = terms.get(key, field.zero) + coeff
        reduce = field.reduce
        return cls._wrap(field, {w: r for w, c in terms.items() if (r := reduce(c))})

    def display(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        fmt = self.field.format_scalar
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            body = "*".join(word) if word else "1"
            if word and c == self.field.one:
                parts.append(body)
            elif not word:
                parts.append(fmt(c))
            else:
                parts.append("%s*%s" % (fmt(c), body))
        return " + ".join(parts)

    def __repr__(self):
        return "NcPolynomial(%s)" % self.display()


def augmentation(p: NcPolynomial):
    """Coefficient of the empty word: the algebra map killing all generators.

    Descends to a rewriting quotient exactly when every rule's right side has
    zero augmentation (RewriteSystem.preserves_augmentation).
    """
    return p.terms.get((), p.field.zero)


@dataclass
class OverlapFailure:
    rule_i: int
    rule_j: int
    word: tuple
    branch_i: NcPolynomial
    branch_j: NcPolynomial


class RewriteSystem:
    """An ordered alphabet plus strictly order-decreasing rewriting rules.

    The monomial order is degree-lexicographic: longer words are larger, and
    equal lengths compare letter by letter through the generator precedence
    (position in the generators list, later = larger).  Every rule must have
    all right-side terms strictly below its left side, which is what makes
    reduction terminate with no step cap.
    """

    def __init__(self, field: Field, generators, rules):
        self.field = field
        self.generators = list(generators)
        if len(self.generators) > MAX_GENERATORS:
            raise ValidationFailure("%d generators exceed the %d a letter code can hold"
                                    % (len(self.generators), MAX_GENERATORS))
        if len(set(self.generators)) != len(self.generators):
            raise ValidationFailure("duplicate generator names")
        self.rank = {g: i for i, g in enumerate(self.generators)}
        self.rules = []
        for lhs, rhs in rules:
            lhs = tuple(lhs)
            if not lhs:
                raise ValidationFailure("empty rule left side")
            for g in lhs:
                if g not in self.rank:
                    raise ValidationFailure("rule uses unknown generator %r" % g)
            if rhs.field != field:
                raise ValidationFailure("rule right side over the wrong field")
            lkey = self.deglex_key(lhs)
            for word in rhs.terms:
                if self.deglex_key(word) >= lkey:
                    raise ValidationFailure(
                        "rule %s -> %s does not decrease the order"
                        % ("*".join(lhs), rhs.display()))
            self.rules.append((lhs, rhs))
        self.preserves_augmentation = all(
            augmentation(rhs) == field.zero for _, rhs in self.rules)
        # The letter code: generator g is the character chr(n - 1 - rank[g]),
        # so a later generator has a smaller code and (-len(s), s) on encoded
        # words orders them as the negated deglex key does.
        n = len(self.generators)
        self._code = {g: chr(n - 1 - r) for g, r in self.rank.items()}
        self._names = {c: g for g, c in self._code.items()}
        # Over QQ with integral rule coefficients the loops run on ints.
        self._integral = field.char == 0 and all(
            c.denominator == 1 for _, rhs in self.rules for c in rhs.terms.values())
        # rule index -> (len(lhs), [(encoded word, coefficient)] of the rhs)
        self._coded_rules = []
        # rule index -> encoded lhs
        self._lefts = []
        # encoded lhs -> lowest index of a rule with that left side
        self._rule_of: dict = {}
        for ri, (lhs, rhs) in enumerate(self.rules):
            left = self._encode(lhs)
            self._coded_rules.append((len(left), [
                (self._encode(w), int(c) if self._integral else c)
                for w, c in rhs.terms.items()]))
            self._lefts.append(left)
            self._rule_of.setdefault(left, ri)
        # the left sides as one alternation in rule order; re tries them in
        # turn at each position, so its first match is the leftmost redex
        # of the lowest rule index ("(?!)" never matches: no rules)
        self._leftmost = re.compile(
            "|".join(re.escape(left) for left in self._rule_of) or "(?!)").search

    def deglex_key(self, word):
        return (len(word), tuple(self.rank[g] for g in word))

    def _encode(self, word) -> str:
        code = self._code
        return "".join([code[g] for g in word])

    def _decode(self, s: str) -> tuple:
        names = self._names
        return tuple([names[c] for c in s])

    # -- reduction ---------------------------------------------------------

    def _matches(self, s):
        """Every redex (pos, rule index) of the encoded word s, by position,
        then rule index."""
        out = []
        find = s.find
        for ri, left in enumerate(self._lefts):
            pos = find(left)
            while pos >= 0:
                out.append((pos, ri))
                pos = find(left, pos + 1)
        out.sort()
        return out

    def _first_match(self, s):
        """The first of _matches(s), or None."""
        m = self._leftmost(s)
        return None if m is None else (m.start(), self._rule_of[m.group()])

    def normal_form(self, p: NcPolynomial, rng=None) -> NcPolynomial:
        """Fully reduce p.  The default strategy is leftmost, lowest rule
        index; passing a random generator picks random redexes instead, which
        must not change the answer on a confluent system.

        The default strategy is one sweep over the pending words, largest
        first in deglex order.  Every rule lowers the order, so a word only
        gains coefficient from strictly larger words: its coefficient is final
        when it is taken, and it is reduced once, at its leftmost redex.  The
        random strategy has its own loop, which also takes the largest word
        first.  No verb runs it yet; test_strategy_independence and the
        nf-stream benchmark compare it with the sweep.

        Both loops work on encoded words, strings of the system's letter
        code, so the heap compares (-len(s), s) in C.  The sweep finds its
        redex with one compiled alternation of the encoded left sides; the
        random loop lists every redex through a first-letter index.
        Coefficients are raw and exact: over GF(p) they are summed
        unreduced and reduced once, when their word is taken.  Over QQ,
        when every rule coefficient is an integer, p is scaled by the lcm of
        its denominators, the loop runs on ints, and the result is divided
        by that lcm once; other QQ systems run on Fractions.
        """
        if p.field != self.field:
            raise ValidationFailure("polynomial over the wrong field")
        scale = 1
        if self._integral:
            scale = lcm(*[c.denominator for c in p.terms.values()])
            pending = {self._encode(w): c.numerator * (scale // c.denominator)
                       for w, c in p.terms.items()}
        else:
            pending = {self._encode(w): c for w, c in p.terms.items()}
        if rng is None:
            result = self._sweep(pending)
        else:
            result = self._normal_form_random(pending, rng)
        decode = self._decode
        if self._integral:
            return NcPolynomial._wrap(self.field, {decode(s): Fraction(v, scale)
                                                   for s, v in result.items()})
        return NcPolynomial._wrap(self.field, {decode(s): v for s, v in result.items()})

    def _sweep(self, pending: dict) -> dict:
        """The leftmost sweep on {encoded word: raw coefficient}; returns the
        irreducible words with their reduced, nonzero coefficients."""
        char = self.field.char
        rules = self._coded_rules
        first_match = self._first_match
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = [(-len(s), s) for s in pending]
        heapq.heapify(heap)
        result: dict = {}
        reduced = 0
        while heap:
            word = heappop(heap)[1]
            coeff = pending.pop(word)
            if char:
                coeff %= char
            if not coeff:
                continue
            match = first_match(word)
            if match is None:
                result[word] = coeff
                continue
            reduced += 1
            if reduced > MAX_NF_WORDS:
                raise BudgetExceeded("normal form needs more than %d reducible words"
                                     % MAX_NF_WORDS)
            pos, ri = match
            n, rhs = rules[ri]
            prefix = word[:pos]
            suffix = word[pos + n:]
            for rword, rcoeff in rhs:
                new_word = prefix + rword + suffix
                old = pending.get(new_word)
                if old is None:
                    pending[new_word] = coeff * rcoeff
                    heappush(heap, (-len(new_word), new_word))
                else:
                    pending[new_word] = old + coeff * rcoeff
        return result

    def _normal_form_random(self, pending: dict, rng) -> dict:
        """Reduction at a redex drawn by rng.choice, one pending word at a time.

        Pending words are taken largest first in deglex order, so each word
        has gathered all its coefficient when taken and is reduced once.  The
        answer does not rest on that order: a word that gains coefficient
        after it was taken is pending again, and irreducible words are added
        into the result.
        """
        char = self.field.char
        rules = self._coded_rules
        matches_of = self._matches
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = [(-len(s), s) for s in pending]
        heapq.heapify(heap)
        result: dict = {}
        reduced = 0
        while heap:
            word = heappop(heap)[1]
            coeff = pending.pop(word)
            if char:
                coeff %= char
            if not coeff:
                continue
            matches = matches_of(word)
            if not matches:
                v = result.get(word, 0) + coeff
                if char:
                    v %= char
                if not v:
                    result.pop(word, None)
                else:
                    result[word] = v
                continue
            reduced += 1
            if reduced > MAX_NF_WORDS:
                raise BudgetExceeded("random-redex normal form needs more than %d "
                                     "reducible words" % MAX_NF_WORDS)
            pos, ri = rng.choice(matches)
            n, rhs = rules[ri]
            prefix = word[:pos]
            suffix = word[pos + n:]
            for rword, rcoeff in rhs:
                new_word = prefix + rword + suffix
                old = pending.get(new_word)
                if old is None:
                    pending[new_word] = coeff * rcoeff
                    heappush(heap, (-len(new_word), new_word))
                else:
                    pending[new_word] = old + coeff * rcoeff
        return result

    def irreducible_words(self, max_len: int):
        """Yield the irreducible words of length <= max_len, shortest first.

        Once a length has no irreducible word, no longer one has either.
        """
        yield ()
        code = self._code
        layer = [((), "")]
        for _ in range(max_len):
            if not layer:
                return
            nxt = []
            for word, s in layer:
                for g in self.generators:
                    cand = s + code[g]
                    if self._first_match(cand) is None:
                        nxt.append((word + (g,), cand))
                        yield word + (g,)
            layer = nxt

    # -- confluence ----------------------------------------------------------

    def confluence_check(self) -> list[OverlapFailure]:
        """All overlap and inclusion ambiguities, reduced both ways; two rules
        with the same left side are an inclusion too.

        Returns the ambiguities whose two branches have different normal
        forms; empty means locally confluent, hence confluent (reduction
        terminates by the order invariant).
        """
        failures = []
        wrap, field = NcPolynomial._wrap, self.field
        for i, (lhs_i, rhs_i) in enumerate(self.rules):
            n = len(lhs_i)
            for j, (lhs_j, rhs_j) in enumerate(self.rules):
                # lhs_j placed at offset s of lhs_i: s > 0 is a proper overlap
                # or an inclusion after the first letter, s = 0 an inclusion at
                # the start, taken once for equal left sides
                first = 0 if len(lhs_j) < n or (lhs_j == lhs_i and j > i) else 1
                for s in range(first, n):
                    if lhs_i[s:s + len(lhs_j)] != lhs_j[:n - s]:
                        continue
                    # the covered word is lhs_i + ext; lhs_j leaves pre and post
                    ext, pre, post = lhs_j[n - s:], lhs_i[:s], lhs_i[s + len(lhs_j):]
                    nf_l = self.normal_form(wrap(field, {w + ext: c for w, c in rhs_i.terms.items()}))
                    nf_r = self.normal_form(wrap(field, {pre + w + post: c
                                                         for w, c in rhs_j.terms.items()}))
                    if nf_l != nf_r:
                        failures.append(OverlapFailure(i, j, lhs_i + ext, nf_l, nf_r))
        failures.sort(key=lambda f: (f.rule_i, f.rule_j, f.word))
        return failures

    def is_confluent(self) -> bool:
        return not self.confluence_check()

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": self.generators,
            "precedence": self.generators,
            "field": {"char": self.field.char},
            "rules": [{"lhs": list(lhs), "rhs": rhs.to_json()} for lhs, rhs in self.rules],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RewriteSystem":
        with reading("rewriting system"):
            field = Field.from_json(data["field"])
            generators = data.get("precedence") or data["generators"]
            rules = [(tuple(r["lhs"]), NcPolynomial.from_json(field, r["rhs"]))
                     for r in data["rules"]]
            return cls(field, generators, rules)

    def __repr__(self):
        return "RewriteSystem(%d generators, %d rules)" % (len(self.generators), len(self.rules))


def leavitt_system(n: int, field: Field) -> RewriteSystem:
    """Presentation of the algebra with a 1 x n row a and n x 1 column b
    satisfying ab = 1 and ba = I_n; generators x_1..x_n, y_1..y_n.

    The unit relation is oriented at its largest monomial:
    x_n y_n -> 1 - sum_{i<n} x_i y_i.
    """
    if n < 2:
        raise ValidationFailure("need n >= 2")
    if n > MAX_LEAVITT_N:
        raise ValidationFailure("n = %d exceeds %d" % (n, MAX_LEAVITT_N))
    xs = ["x%d" % (i + 1) for i in range(n)]
    ys = ["y%d" % (i + 1) for i in range(n)]
    gens = xs + ys
    rules = []
    for i in range(n):
        for j in range(n):
            rhs = NcPolynomial.one(field) if i == j else NcPolynomial.zero(field)
            rules.append(((ys[i], xs[j]), rhs))
    last = NcPolynomial.one(field)
    for i in range(n - 1):
        last = last - NcPolynomial.monomial(field, (xs[i], ys[i]))
    rules.append(((xs[n - 1], ys[n - 1]), last))
    return RewriteSystem(field, gens, rules)


class LieData:
    """A finite-dimensional Lie bracket table over a field.

    brackets[i][j] is the coordinate vector of [e_i, e_j].  Alternation is
    enforced ([e_i, e_i] = 0 and antisymmetry); the Jacobi identity is a
    separate query, since straightening a non-Jacobi table is exactly how
    the confluence check gets its negative examples.
    """

    def __init__(self, field: Field, brackets, names=None):
        self.field = field
        self.dim = len(brackets)
        self.names = list(names) if names is not None else ["e%d" % (i + 1) for i in range(self.dim)]
        if len(self.names) != self.dim or len(set(self.names)) != self.dim:
            raise ValidationFailure("bad basis names")
        self.brackets = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                vec = tuple(field.coerce(c) for c in brackets[i][j])
                if len(vec) != self.dim:
                    raise ValidationFailure("brackets[%d][%d] has wrong length" % (i, j))
                row.append(vec)
            self.brackets.append(row)
        zero_vec = (field.zero,) * self.dim
        for i in range(self.dim):
            if self.brackets[i][i] != zero_vec:
                raise ValidationFailure("[e%d, e%d] != 0" % (i, i))
            for j in range(i + 1, self.dim):
                if self.brackets[i][j] != field.reduce_vector([-c for c in self.brackets[j][i]]):
                    raise ValidationFailure("[e%d, e%d] != -[e%d, e%d]" % (i, j, j, i))

    def bracket_vec(self, u, v):
        """Bilinear extension of the bracket table to coordinate vectors."""
        out = [self.field.zero] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(self.brackets[i][j]):
                    if c:
                        out[k] += ab * c
        return self.field.reduce_vector(out)

    def basis_vector(self, i: int):
        return tuple(self.field.one if t == i else self.field.zero for t in range(self.dim))

    def jacobi_ok(self) -> bool:
        zero_vec = (self.field.zero,) * self.dim
        for i, j, k in itertools.combinations(range(self.dim), 3):
            terms = [self.bracket_vec(self.brackets[a][b], self.basis_vector(c))
                     for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
            if self.field.reduce_vector(map(sum, zip(*terms))) != zero_vec:
                return False
        return True

    def element(self, vec) -> NcPolynomial:
        """The degree-1 polynomial with the given coordinates."""
        terms = {(self.names[i],): c for i, c in enumerate(vec)}
        return NcPolynomial(self.field, terms)

    def to_json(self) -> dict:
        fmt = self.field.format_scalar
        return {
            "dim": self.dim,
            "field": {"char": self.field.char},
            "brackets": [[[fmt(c) for c in vec] for vec in row] for row in self.brackets],
            "names": self.names,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LieData":
        with reading("Lie bracket table"):
            lie = cls(Field.from_json(data["field"]), data["brackets"], data.get("names"))
            if lie.dim != data["dim"]:
                raise ValidationFailure("/dim: does not match brackets size")
        return lie

    def __repr__(self):
        return "LieData(dim=%d over %r)" % (self.dim, self.field)


def sl2(field: Field) -> LieData:
    """Basis e, f, h with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    zero = (0, 0, 0)
    brackets = [
        [zero, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), zero, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), zero],
    ]
    return LieData(field, brackets, ["e", "f", "h"])


def heisenberg(field: Field) -> LieData:
    """Basis x, y, z with [x,y] = z and z central."""
    zv = (0, 0, 0)
    brackets = [[zv, (0, 0, 1), zv],
                [(0, 0, -1), zv, zv],
                [zv, zv, zv]]
    return LieData(field, brackets, ["x", "y", "z"])


def abelian_lie(dim: int, field: Field) -> LieData:
    zv = (field.zero,) * dim
    return LieData(field, [[zv] * dim for _ in range(dim)])


def pbw_system(lie: LieData) -> RewriteSystem:
    """Straightening rules e_j e_i -> e_i e_j + [e_j, e_i] for j > i.

    Confluent exactly when the bracket satisfies the Jacobi identity; the
    irreducible words are then the ordered monomials.
    """
    field = lie.field
    rules = []
    for j in range(lie.dim):
        for i in range(j):
            rhs = NcPolynomial.monomial(field, (lie.names[i], lie.names[j]))
            rhs = rhs + lie.element(lie.brackets[j][i])
            rules.append(((lie.names[j], lie.names[i]), rhs))
    return RewriteSystem(field, lie.names, rules)


def extended_system(rs: RewriteSystem):
    """rs with two fresh rule-free generators adjoined (a free extension)."""
    fresh = []
    for i in range(2):
        name = "z%d" % i
        while name in rs.generators or name in fresh:
            name = "_" + name
        fresh.append(name)
    return RewriteSystem(rs.field, rs.generators + fresh, rs.rules), fresh


def _sandwich_sum(a_list, b_list, r: NcPolynomial) -> NcPolynomial:
    """sum_i a_i r b_i; the unit sum sum_i a_i b_i is the case r = 1."""
    total = NcPolynomial.zero(r.field)
    for a, b in zip(a_list, b_list):
        total = total + a * r * b
    return total


def check_endo_fp(a_list, b_list, rs: RewriteSystem) -> Verdict:
    """Unit-sum and generic multiplicativity at the presentation level.

    Fresh generators z0, z1 play the role of two independent generic
    elements; both conditions are decided by normal-form equality.
    Additivity is automatic for maps of the shape r |-> sum a_i r b_i.
    """
    if len(a_list) != len(b_list):
        raise ValidationFailure("a and b lists differ in length")
    ext, (z0, z1) = extended_system(rs)
    field = rs.field
    one = NcPolynomial.one(field)
    unit_ok = ext.normal_form(_sandwich_sum(a_list, b_list, one) - one).is_zero()
    mz0 = NcPolynomial.monomial(field, (z0,))
    mz1 = NcPolynomial.monomial(field, (z1,))
    w_z0z1 = _sandwich_sum(a_list, b_list, mz0 * mz1)
    w_z0 = _sandwich_sum(a_list, b_list, mz0)
    w_z1 = _sandwich_sum(a_list, b_list, mz1)
    mult_ok = ext.normal_form(w_z0z1 - w_z0 * w_z1).is_zero()
    if not unit_ok:
        return Verdict(False, "unit-sum")
    if not mult_ok:
        return Verdict(False, "multiplicativity")
    return Verdict(True)


def fp_witness_checks(a_list, b_list, rs: RewriteSystem, samples) -> dict:
    """Injectivity and centralizer witnesses for a passing presentation pair.

    For each sample r: b_j w(r) a_j must reduce back to r (a left inverse,
    so the endomorphism is one-to-one), and each a_i b_j must commute with
    w(r).  The n^2 elements a_i b_j must also be linearly independent.
    """
    verdict = check_endo_fp(a_list, b_list, rs)
    if not verdict.passed:
        raise ValidationFailure("pair fails the endomorphism conditions: %s" % verdict.reason)
    n = len(a_list)
    field = rs.field
    injectivity = True
    centralizing = True
    for r in samples:
        wr = rs.normal_form(_sandwich_sum(a_list, b_list, r))
        for j in range(n):
            back = rs.normal_form(b_list[j] * wr * a_list[j] - r)
            if not back.is_zero():
                injectivity = False
        for i in range(n):
            for j in range(n):
                e = a_list[i] * b_list[j]
                comm = rs.normal_form(e * wr - wr * e)
                if not comm.is_zero():
                    centralizing = False
    units_nf = [rs.normal_form(a_list[i] * b_list[j])
                for i in range(n) for j in range(n)]
    support = sorted({w for p in units_nf for w in p.terms}, key=rs.deglex_key)
    index = {w: t for t, w in enumerate(support)}
    rows = []
    for p in units_nf:
        row = [field.zero] * len(support)
        for w, c in p.terms.items():
            row[index[w]] = c
        rows.append(row)
    rank = rank_raw(field, rows)
    independent = rank == n * n
    return {
        "injectivity": injectivity,
        "centralizing": centralizing,
        "independent_units": independent,
        "rank": rank,
        "passed": injectivity and centralizing and independent,
    }


def ad_power_check(lie: LieData, a_vec, probe_vec, degree_cap: int = 8) -> dict:
    """Compare p iterated brackets with the commutator by the p-th power.

    ad_a^p(probe) is computed inside the Lie algebra; [a^p, probe] is
    normalized in the enveloping presentation.  They must agree, and the
    normal form must be of pure degree <= 1 with no constant term.  The
    Leibniz identity for commutation with a^p is also sampled on all basis
    pairs.
    """
    # a^p is one word of p letters, like a typed power.  The slowest work the bound
    # admits, one call per basis pair of sl2 over GF(997), took 1.1-1.4 s on a
    # 2-vCPU Xeon; the three calls with a = h stop at MAX_NF_WORDS, as for every
    # p >= 89.
    if degree_cap > MAX_EXPONENT:
        raise ValidationFailure("degree cap %d exceeds %d" % (degree_cap, MAX_EXPONENT))
    field = lie.field
    p = field.char
    if p == 0:
        raise ValidationFailure("needs positive characteristic")
    if p > degree_cap:
        raise BudgetExceeded("p = %d exceeds the degree cap %d" % (p, degree_cap))
    a_vec = tuple(field.coerce(c) for c in a_vec)
    probe_vec = tuple(field.coerce(c) for c in probe_vec)
    for vec in (a_vec, probe_vec):
        if len(vec) != lie.dim:
            raise ValidationFailure("element has %d coordinates, expected %d" % (len(vec), lie.dim))
    ad_result = probe_vec
    for _ in range(p):
        ad_result = lie.bracket_vec(a_vec, ad_result)
    rs = pbw_system(lie)
    a_poly = lie.element(a_vec)
    probe_poly = lie.element(probe_vec)
    a_power = NcPolynomial.one(field)
    for _ in range(p):
        a_power = a_power * a_poly
    comm = rs.normal_form(a_power * probe_poly - probe_poly * a_power)
    degree_one = all(len(w) == 1 for w in comm.terms)
    match = degree_one and comm == rs.normal_form(lie.element(ad_result))
    # Leibniz for d = [a^p, .] on all basis pairs, inside the presentation
    leibniz_ok = True
    basis_polys = [lie.element(lie.basis_vector(i)) for i in range(lie.dim)]

    def d_of(q):
        return rs.normal_form(a_power * q - q * a_power)

    d_basis = [d_of(r) for r in basis_polys]
    for i, (r, dr) in enumerate(zip(basis_polys, d_basis)):
        for j, (s, ds) in enumerate(zip(basis_polys, d_basis)):
            lhs = d_of(lie.element(lie.brackets[i][j]))
            rhs = rs.normal_form(dr * s - s * dr + r * ds - ds * r)
            # d([r,s]) against [d(r), s] + [r, d(s)], all as commutators
            if lhs != rhs:
                leibniz_ok = False
    passed = match and degree_one and leibniz_ok
    return {
        "ad_power": ad_result,
        "commutator": comm,
        "degree_one": degree_one,
        "match": match,
        "leibniz_ok": leibniz_ok,
        "passed": passed,
    }


def _eliminate(u: dict, a, b, v: dict, p: int) -> None:
    """u <- a u - b v in place on sparse {position: int} rows; mod p if p."""
    if a != 1:
        for k, x in u.items():
            u[k] = a * x % p if p else a * x
    for k, y in v.items():
        x = (u.get(k, 0) - b * y) % p if p else u.get(k, 0) - b * y
        if x:
            u[k] = x
        else:
            del u[k]


def scalar_unit_search(rs: RewriteSystem, degree_cap: int = 2,
                       budget: int = 1 << 16) -> dict:
    """Exhaustive search for pairs (a, b) with b a = 1 in normal form.

    a ranges over polynomials on the irreducible monomials of degree <=
    degree_cap with coefficients 0, 1, -1 over QQ and all of GF(p)
    otherwise, taken monic in the leading monomial (pairs scale); b is then
    solved for linearly over the same monomial space.  For an enveloping
    presentation over a field the expectation is that only scalars appear;
    a presentation with a one-sided inverse (y_1 x_1 = 1) shows up by
    contrast.

    There are |coeffs|^m candidates on m monomials, so the listing stops at
    the first monomial past the largest m within budget.

    Each candidate is one sparse echelon on ints over the columns nf(m_k a),
    then 1, on deglex word positions, scaled over QQ by one denominator D.
    A row holding x at pivot pv becomes pv row - x pivot_row, mod p over
    GF(p); over QQ pivot rows are divided by their content.  So each row is
    a nonzero multiple of the one a Fraction loop holds: same pivots, and b
    on the first independent columns.
    """
    if budget > MAX_UNIT_SEARCH_BUDGET:
        raise ValidationFailure("budget %d exceeds %d" % (budget, MAX_UNIT_SEARCH_BUDGET))
    field = rs.field
    p = field.char
    coeffs = (0, 1, -1) if p == 0 else range(p)
    limit = 0
    while len(coeffs) ** (limit + 1) <= budget:
        limit += 1
    monomials = []
    for word in rs.irreducible_words(degree_cap):
        if len(monomials) == limit:
            raise BudgetExceeded("more than %d irreducible monomials of degree <= %d:"
                                 " the candidates exceed the budget %d"
                                 % (limit, degree_cap, budget))
        monomials.append(word)
    monomials.sort(key=rs.deglex_key)
    m = len(monomials)
    # products of basis monomials, normalized once, on word positions: () is 0
    prod_nf = [[rs.normal_form(NcPolynomial.monomial(field, monomials[i] + monomials[j])).terms
                for j in range(m)] for i in range(m)]
    words = sorted(set().union([()], *(t for row in prod_nf for t in row)), key=rs.deglex_key)
    position = {w: k for k, w in enumerate(words)}
    den = lcm(*(c.denominator for row in prod_nf for t in row for c in t.values())) if p == 0 else 1
    table = [[{position[w]: int(c * den) for w, c in t.items()} for t in row] for row in prod_nf]
    one = NcPolynomial.one(field)
    solutions = []
    searched = 0
    aug_prune = rs.preserves_augmentation
    for pattern in itertools.product(coeffs, repeat=m):
        terms = [(j, c) for j, c in enumerate(pattern) if c]
        # nonzero and monic in the largest monomial present (deglex order of
        # the list); with augmentation kept, a needs a constant term (m_0 = 1)
        if not terms or terms[-1][1] != 1 or (aug_prune and not pattern[0]):
            continue
        searched += 1
        # the columns D nf(m_k * a), then the target 1 as column m
        columns = []
        for row in table:
            columns.append({})
            for j, c in terms:
                _eliminate(columns[-1], 1, -c, row[j], p)
        columns.append({0: 1})
        echelon = []  # (pivot position, pivot value, vector, combo)
        for idx, vec in enumerate(columns):
            combo = {idx: 1}
            for pw, pv, pvec, pcombo in echelon:
                x = vec.get(pw)
                if x:
                    _eliminate(vec, pv, x, pvec, p)
                    _eliminate(combo, pv, x, pcombo, p)
                    if not vec:
                        break
            if vec:
                pw = max(vec)
                if not p:
                    g = gcd(*vec.values(), *combo.values()) * (vec[pw] > 0 or -1)
                    if g != 1:
                        vec, combo = ({k: x // g for k, x in r.items()} for r in (vec, combo))
                echelon.append((pw, vec[pw], vec, combo))
        if not vec:
            s = combo.pop(m)  # 0 = D sum_k combo[k] nf(m_k a) + s 1
            scale = -field.inv(s) if p else Fraction(-den, s)
            a_poly = NcPolynomial(field, {monomials[t]: c for t, c in terms})
            b_poly = NcPolynomial(field, {monomials[k]: field.reduce(c * scale)
                                          for k, c in combo.items()})
            if not rs.normal_form(b_poly * a_poly - one).is_zero():
                raise InternalError("solver produced a bad inverse")
            solutions.append((a_poly, b_poly))
    all_scalar = all(set(a.terms) <= {()} and set(b.terms) <= {()}
                     for a, b in solutions)
    return {
        "searched": searched,
        "solutions": solutions,
        "all_scalar": all_scalar,
        "monomials": m,
    }
