"""Finite right G-sets and their co-inner endomorphisms.

A co-inner family is determined by one group element per orbit, taken from
the centralizer of that orbit's stabilizer; the family acts on every G-set
over A by q |-> q * (h^-1 g_s h) where the image of q decomposes as s * h.
The classification is verified two ways: structurally (direct product of
centralizers) and by brute-force enumeration of all solutions of the
naturality equation g_{a*h} = h^-1 g_a h.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

from . import corpus
from .errors import BudgetExceeded, InternalError, TheoremViolation, ValidationFailure, reading
from .freeprod import FiniteGroup

# (point, group element) pairs that naturality_oracle checks at most.
MAX_ORACLE_PAIRS = 10 ** 4
# Largest order^2 * points that coinner_group accepts; the order grows
# exponentially with the number of orbits.  The tests, the selftest and the
# benchmark reach 15,552 (order 36 on 12 points).  The slowest admitted case
# is a two-point trivial Z_26-set (order 676, work 914k): 0.8-0.95 s through
# the CLI on a 2-vCPU Xeon container.  The 5-point trivial Z4-set (order
# 1,024, work 5.2M) exits 1 at once.
MAX_COINNER_WORK = 10 ** 6


class InvalidAction(ValidationFailure):
    """An action table breaks the right-action axioms."""


class NotEquivariant(ValidationFailure):
    """A point map offered as a map of G-sets does not commute with the action."""


class GSetObj:
    """A finite right G-set: a points x |G| table of point indices."""

    def __init__(self, group: FiniteGroup, action):
        self.group = group
        self.points = len(action)
        self.action = [tuple(row) for row in action]
        problems = self._validate()
        if problems:
            raise InvalidAction("; ".join(problems[:3]))

    def _validate(self) -> list[str]:
        n = self.points
        order = self.group.order
        problems = []
        for p, row in enumerate(self.action):
            if len(row) != order:
                return ["row %d has length %d, expected %d" % (p, len(row), order)]
            for q in row:
                if not (type(q) is int and 0 <= q < n):
                    return ["row %d contains invalid point %r" % (p, q)]
        e = self.group.identity
        for p in range(n):
            if self.action[p][e] != p:
                problems.append("identity moves point %d" % p)
                return problems
        # (p g) s = p (g s) for every generator s gives (p g) h = p (g h) for
        # every h, by induction on h as a product of generators
        gens = _generating_set(self.group)
        for p in range(n):
            row = self.action[p]
            for g in range(order):
                pg = self.action[row[g]]
                for s in gens:
                    if pg[s] != row[self.group.mul(g, s)]:
                        problems.append(
                            "action axiom fails at point %d with (%s, %s)"
                            % (p, self.group.name_of(g), self.group.name_of(s)))
                        return problems
        return problems

    def to_json(self, group_ref: str) -> dict:
        return {"group": group_ref, "points": self.points,
                "action": [list(row) for row in self.action]}

    @classmethod
    def from_json(cls, data: dict, group: FiniteGroup) -> "GSetObj":
        with reading("G-set"):
            obj = cls(group, data["action"])
            if obj.points != data["points"]:
                raise ValidationFailure("/points: does not match action table")
        return obj

    @classmethod
    def load(cls, path: str) -> "GSetObj":
        with open(path) as fh:
            data = json.load(fh)
        ref = data.get("group") if isinstance(data, dict) else None
        if not isinstance(ref, str):
            raise ValidationFailure("/group: missing path")
        group_path = ref if os.path.isabs(ref) else os.path.join(os.path.dirname(path), ref)
        return cls.from_json(data, FiniteGroup.load(corpus.resolve(group_path)))

    def __repr__(self):
        return "GSetObj(%d points over group of order %d)" % (self.points, self.group.order)


def _generating_set(group: FiniteGroup) -> list[int]:
    """Elements whose products give every element of group, picked greedily:
    each element not yet a product of the earlier picks is picked."""
    gens, reached = [], {group.identity}
    for g in range(group.order):
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = group.mul(x, s)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return gens


def regular_gset(group: FiniteGroup) -> GSetObj:
    """G acting on itself by right multiplication."""
    return GSetObj(group, [list(group.table[p]) for p in range(group.order)])


def trivial_gset(group: FiniteGroup, points: int) -> GSetObj:
    return GSetObj(group, [[p] * group.order for p in range(points)])


def natural_gset(group: FiniteGroup, perms) -> GSetObj:
    """The right action p * g = sigma_{g^-1}(p) of a permutation group.

    perms[i] is the permutation named by group element i (as a tuple of
    images).  Inverting makes the apply-first composition of the Cayley
    table come out as a right action.
    """
    npoints = len(perms[0])
    action = []
    for p in range(npoints):
        action.append([perms[group.inv(g)][p] for g in range(group.order)])
    return GSetObj(group, action)


def disjoint_union(a: GSetObj, b: GSetObj) -> GSetObj:
    if a.group is not b.group and a.group != b.group:
        raise ValidationFailure("G-sets over different groups")
    action = [list(row) for row in a.action]
    action.extend([q + a.points for q in row] for row in b.action)
    return GSetObj(a.group, action)


@dataclass
class OrbitData:
    orbits: list          # sorted point lists, one per orbit
    reps: list            # chosen representative per orbit
    stabilizers: list     # sorted element indices per orbit
    centralizers: list    # sorted element indices per orbit


def orbit_data(a: GSetObj) -> OrbitData:
    """Orbits ordered by their least point, which is each orbit's
    representative, with its stabilizer and that stabilizer's centralizer.

    The orbit comes from the transversal and the stabilizer from the action
    table, so |orbit| * |stabilizer| = |G| compares two routes per orbit.
    """
    orbits = []
    placed = set()
    for p in range(a.points):
        if p not in placed:
            orbit = sorted(transversal(a, p))
            placed.update(orbit)
            orbits.append(orbit)
    reps = [o[0] for o in orbits]
    pairs = [_stabilizer_centralizer(a, rep) for rep in reps]
    for orbit, (stab, _) in zip(orbits, pairs):
        if len(orbit) * len(stab) != a.group.order:
            raise TheoremViolation("orbit-stabilizer fails at point %d: %d * %d != %d"
                                   % (orbit[0], len(orbit), len(stab), a.group.order))
    return OrbitData(orbits, reps, [s for s, _ in pairs], [c for _, c in pairs])


def _stabilizer_centralizer(a: GSetObj, p: int) -> tuple[list, list]:
    """The stabilizer of point p and the centralizer of that stabilizer."""
    stab = [g for g in range(a.group.order) if a.action[p][g] == p]
    return stab, a.group.centralizer(stab)


def transversal(a: GSetObj, rep: int) -> dict:
    """For each point of rep's orbit, one h with rep * h = point."""
    out = {rep: a.group.identity}
    frontier = [rep]
    while frontier:
        q = frontier.pop()
        hq = out[q]
        for g in range(a.group.order):
            r = a.action[q][g]
            if r not in out:
                out[r] = a.group.mul(hq, g)
                frontier.append(r)
    for q, h in out.items():
        if a.action[rep][h] != q:
            raise InternalError("transversal failed at point %d" % q)
    return out


@dataclass(frozen=True)
class CoInnerDatum:
    """One centralizer element per orbit representative."""

    reps: tuple
    choice: tuple         # choice[k] is g_s for reps[k]

    def __post_init__(self):
        if len(self.reps) != len(self.choice):
            raise ValidationFailure("reps and choice differ in length")


class EquivariantMap:
    """A verified map of right G-sets: f(q * g) = f(q) * g."""

    def __init__(self, source: GSetObj, target: GSetObj, mapping):
        if source.group != target.group:
            raise NotEquivariant("source and target groups differ")
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.points:
            raise NotEquivariant("mapping has wrong length")
        for q in range(source.points):
            fq = self.mapping[q]
            if not (type(fq) is int and 0 <= fq < target.points):
                raise NotEquivariant("image of point %d is invalid" % q)
        for q in range(source.points):
            for g in range(source.group.order):
                if self.mapping[source.action[q][g]] != target.action[self.mapping[q]][g]:
                    raise NotEquivariant(
                        "not equivariant at point %d, element %s"
                        % (q, source.group.name_of(g)))

    @classmethod
    def identity(cls, a: GSetObj) -> "EquivariantMap":
        return cls(a, a, range(a.points))

    def apply(self, q: int) -> int:
        return self.mapping[q]

    def compose(self, inner: "EquivariantMap") -> "EquivariantMap":
        if inner.target is not self.source and inner.target != self.source:
            raise NotEquivariant("composition mismatch")
        return EquivariantMap(inner.source, self.target,
                              [self.mapping[q] for q in inner.mapping])

    def __repr__(self):
        return "EquivariantMap(%d -> %d points)" % (self.source.points, self.target.points)


def apply_coinner(d: CoInnerDatum, a: GSetObj, f: EquivariantMap) -> tuple:
    """The self-map of f's source induced by the co-inner family of d.

    Each point q goes to q * (h^-1 g_s h), where f(q) lies in the orbit of
    rep s and f(q) = s * h.  Independence of the choice of h is exactly the
    centralizer condition on g_s, which is validated here.  The datum may
    use any representative set, one point per orbit in any order.
    """
    if f.target is not a and f.target != a:
        raise NotEquivariant("map does not land in the base G-set")
    group = a.group
    conj_at = {}          # s * h -> h^-1 g_s h, over the orbit of each rep s
    for rep, g in zip(d.reps, d.choice):
        if rep not in range(a.points) or rep in conj_at:
            raise ValidationFailure("datum does not take one point from each orbit")
        if g not in range(group.order) or any(
                group.mul(g, h) != group.mul(h, g)
                for h in range(group.order) if a.action[rep][h] == rep):
            raise ValidationFailure("choice at point %d does not centralize its stabilizer" % rep)
        for q, h in transversal(a, rep).items():
            conj_at[q] = group.conjugate(group.inv(h), g)
    if len(conj_at) != a.points:
        raise ValidationFailure("datum does not take one point from each orbit")
    b = f.source
    images = tuple(b.action[q][conj_at[f.apply(q)]] for q in range(b.points))
    if sorted(images) != list(range(b.points)):
        raise TheoremViolation("induced map is not a bijection")
    for q in range(b.points):
        for g in range(group.order):
            if images[b.action[q][g]] != b.action[images[q]][g]:
                raise TheoremViolation("induced map is not equivariant")
    return images


@dataclass
class CoInnerGroup:
    elements: list        # CoInnerDatum in itertools.product order
    order: int
    group_table: list     # composition table over element indices
    iso_check: bool


def coinner_group(a: GSetObj) -> CoInnerGroup:
    """All co-inner families of a, composed pointwise.

    iso_check verifies that the order is the product of the centralizer
    orders, that pointwise composition agrees with composition of the
    induced self-maps of a, and that nothing changes when each orbit's
    last point is its representative instead of its least point.
    """
    data = orbit_data(a)
    expected = math.prod(map(len, data.centralizers))
    if expected ** 2 * a.points > MAX_COINNER_WORK:
        raise BudgetExceeded("order %d on %d points exceeds the budget %d"
                             % (expected, a.points, MAX_COINNER_WORK))
    reps = tuple(data.reps)
    elements = [CoInnerDatum(reps, choice)
                for choice in itertools.product(*data.centralizers)]
    order = len(elements)
    index = {d.choice: i for i, d in enumerate(elements)}
    group = a.group
    group_table = []
    for d1 in elements:
        row = []
        for d2 in elements:
            product = tuple(group.mul(g1, g2) for g1, g2 in zip(d1.choice, d2.choice))
            row.append(index[product])
        group_table.append(row)
    iso_check = order == expected
    # composition of induced maps must match the pointwise product
    ident = EquivariantMap.identity(a)
    perms = [apply_coinner(d, a, ident) for d in elements]
    if iso_check:
        for i in range(order):
            for j in range(order):
                composed = tuple(perms[i][q] for q in perms[j])
                if composed != perms[group_table[i][j]]:
                    iso_check = False
                    break
            if not iso_check:
                break
    # representative independence: recompute with each orbit's last point
    if iso_check:
        reps_last = tuple(o[-1] for o in data.orbits)
        cents_last = [_stabilizer_centralizer(a, rep)[1] for rep in reps_last]
        elements_last = [CoInnerDatum(reps_last, choice)
                         for choice in itertools.product(*cents_last)]
        iso_check = (len(elements_last) == order
                     and {apply_coinner(d, a, ident) for d in elements_last} == set(perms))
    return CoInnerGroup(elements, order, group_table, iso_check)


def naturality_oracle(a: GSetObj):
    """All functions g: A -> G with g_{q*h} = h^-1 g_q h, counted exactly.

    The equation never couples distinct orbits, so the search runs one
    orbit at a time: every group element is tried as the value at the
    representative, propagated along a transversal, and then the equation
    is checked at every (point, group element) pair of the orbit.  The
    count must be the product of the per-orbit counts of coinner_group and
    the surviving values at each representative must be exactly the
    centralizer of its stabilizer.
    """
    group = a.group
    if a.points * group.order > MAX_ORACLE_PAIRS:
        raise BudgetExceeded("%d pairs exceed the budget %d"
                             % (a.points * group.order, MAX_ORACLE_PAIRS))
    data = orbit_data(a)
    oracle_count = 1
    match = True
    for k, rep in enumerate(data.reps):
        trans = transversal(a, rep)
        orbit = data.orbits[k]
        survivors = []
        for seed in range(group.order):
            # propagate the candidate along the transversal
            g_of = {q: group.conjugate(group.inv(trans[q]), seed) for q in orbit}
            ok = True
            for q in orbit:
                gq = g_of[q]
                for h in range(group.order):
                    if g_of[a.action[q][h]] != group.conjugate(group.inv(h), gq):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append(seed)
        oracle_count *= len(survivors)
        if sorted(survivors) != list(data.centralizers[k]):
            match = False
    match = match and oracle_count == math.prod(map(len, data.centralizers))
    return oracle_count, match
