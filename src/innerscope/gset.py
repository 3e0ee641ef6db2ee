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
                if not (isinstance(q, int) and 0 <= q < n):
                    return ["row %d contains invalid point %r" % (p, q)]
        e = self.group.identity
        for p in range(n):
            if self.action[p][e] != p:
                problems.append("identity moves point %d" % p)
                return problems
        for p in range(n):
            for g in range(order):
                pg = self.action[p][g]
                for h in range(order):
                    if self.action[pg][h] != self.action[p][self.group.mul(g, h)]:
                        problems.append(
                            "action axiom fails at point %d with (%s, %s)"
                            % (p, self.group.name_of(g), self.group.name_of(h)))
                        return problems
        return problems

    def orbit_of(self, p: int) -> list[int]:
        seen = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for g in range(self.group.order):
                r = self.action[q][g]
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        return sorted(seen)

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


def orbit_data(a: GSetObj, rep_choice: str = "min") -> OrbitData:
    """Orbits with representatives, stabilizers, and their centralizers.

    Representatives default to the minimal point index; "max" picks the
    maximal one instead, which exists only to demonstrate that nothing
    downstream depends on the choice.
    """
    if rep_choice not in ("min", "max"):
        raise ValidationFailure("rep_choice must be 'min' or 'max'")
    remaining = set(range(a.points))
    orbits = []
    while remaining:
        p = min(remaining)
        orbit = a.orbit_of(p)
        orbits.append(orbit)
        remaining -= set(orbit)
    orbits.sort(key=lambda o: o[0])
    reps = [o[0] if rep_choice == "min" else o[-1] for o in orbits]
    group = a.group
    stabilizers = []
    centralizers = []
    for rep in reps:
        stab = [g for g in range(group.order) if a.action[rep][g] == rep]
        stabilizers.append(stab)
        cent = group.centralizer(stab)
        centralizers.append(cent)
    return OrbitData(orbits, reps, stabilizers, centralizers)


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


def datum_valid(a: GSetObj, d: CoInnerDatum, data: OrbitData | None = None) -> bool:
    """A datum may use any representative set: one point per orbit, each
    group element taken from the centralizer of its rep's stabilizer."""
    data = data or orbit_data(a)
    if len(d.reps) != len(data.orbits):
        return False
    group = a.group
    for k, rep in enumerate(d.reps):
        if rep not in data.orbits[k]:
            return False
        stab = [g for g in range(group.order) if a.action[rep][g] == rep]
        if d.choice[k] not in group.centralizer(stab):
            return False
    return True


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
            if not (isinstance(fq, int) and 0 <= fq < target.points):
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
    centralizer condition on g_s, which is validated here.
    """
    if f.target is not a and f.target != a:
        raise NotEquivariant("map does not land in the base G-set")
    data = orbit_data(a)
    if not datum_valid(a, d, data):
        raise ValidationFailure("datum does not match the G-set's orbit data")
    group = a.group
    point_to_orbit = {}
    for k, orbit in enumerate(data.orbits):
        for q in orbit:
            point_to_orbit[q] = k
    trans = {k: transversal(a, rep) for k, rep in enumerate(d.reps)}
    b = f.source
    images = []
    for q in range(b.points):
        target_point = f.apply(q)
        k = point_to_orbit[target_point]
        h = trans[k][target_point]
        g = d.choice[k]
        conj = group.mul(group.mul(group.inv(h), g), h)
        images.append(b.action[q][conj])
    images = tuple(images)
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
    induced self-maps of a, and that nothing changes when the orbit
    representatives are chosen maximal instead of minimal.
    """
    data = orbit_data(a)
    reps = tuple(data.reps)
    elements = [CoInnerDatum(reps, choice)
                for choice in itertools.product(*data.centralizers)]
    order = len(elements)
    expected = math.prod(map(len, data.centralizers))
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
    # representative independence: recompute with maximal-index reps
    if iso_check:
        data_max = orbit_data(a, rep_choice="max")
        reps_max = tuple(data_max.reps)
        elements_max = [CoInnerDatum(reps_max, choice)
                        for choice in itertools.product(*data_max.centralizers)]
        if len(elements_max) != order:
            iso_check = False
        else:
            perm_set = {apply_coinner(d, a, ident) for d in elements_max}
            if perm_set != set(perms):
                iso_check = False
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
