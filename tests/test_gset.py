import dataclasses
import os
import random

import pytest

from innerscope import cli, gset
from innerscope.cli import main
from innerscope.errors import InternalError, TheoremViolation
from innerscope.freeprod import FiniteGroup, cyclic_group, symmetric_group
from innerscope.gset import (
    MAX_ORACLE_PAIRS,
    BudgetExceeded,
    CoInnerDatum,
    EquivariantMap,
    GSetObj,
    ValidationFailure,
    apply_coinner,
    coinner_group,
    disjoint_union,
    natural_gset,
    naturality_oracle,
    orbit_data,
    regular_gset,
    transversal,
    trivial_gset,
)


def s3_pair():
    return symmetric_group(3)


def natural_s3():
    group, perms = s3_pair()
    return group, natural_gset(group, perms)


def test_bad_action_tables_rejected():
    z2 = cyclic_group(2)
    with pytest.raises(ValidationFailure, match="^identity moves point 0$"):
        GSetObj(z2, [[1, 0], [0, 1]])
    with pytest.raises(ValidationFailure, match=r"^action axiom fails at point 0 with \(1, 1\)$"):
        GSetObj(z2, [[0, 1], [1, 1]])
    with pytest.raises(ValidationFailure, match="^row 0 has length 1, expected 2$"):
        GSetObj(z2, [[0], [1]])
    with pytest.raises(ValidationFailure, match="^row 0 contains invalid point 5$"):
        GSetObj(z2, [[0, 5], [1, 0]])


@pytest.mark.parametrize("make", [
    lambda: natural_s3()[1],
    lambda: regular_gset(symmetric_group(3)[0]),
    lambda: regular_gset(cyclic_group(4)),
    lambda: disjoint_union(regular_gset(cyclic_group(6)), trivial_gset(cyclic_group(6), 1)),
], ids=["natural-S3", "regular-S3", "regular-Z4", "regular-Z6+point"])
def test_every_one_entry_corruption_is_rejected(make):
    # a changed entry leaves its column no longer a permutation, so the
    # table is no action, whichever column it sits in
    good = make()
    GSetObj(good.group, good.action)
    for p, row in enumerate(good.action):
        for g, q in enumerate(row):
            for bad in range(good.points):
                if bad != q:
                    action = [list(r) for r in good.action]
                    action[p][g] = bad
                    with pytest.raises(ValidationFailure,
                                       match=r"^(identity moves|action axiom fails at) point \d+"):
                        GSetObj(good.group, action)


def _is_action(group, action):
    e = group.identity
    return all(row[e] == p for p, row in enumerate(action)) and all(
        action[row[g]][h] == row[group.mul(g, h)]
        for row in action for g in range(group.order) for h in range(group.order))


@pytest.mark.parametrize("group", [
    symmetric_group(3)[0], cyclic_group(4), cyclic_group(6), symmetric_group(4)[0],
], ids=["S3", "Z4", "Z6", "S4"])
def test_tables_right_for_one_element_are_checked_in_full(group):
    # each table satisfies (p g) s = p (g s) for one element s and every g:
    # the column of g s is the column of g followed by a permutation sigma
    # with sigma^order(s) = 1, and each coset g<s> starts from a random column
    rng = random.Random(46)
    points = 3
    rejected = 0
    for s in range(group.order):
        k, x = 1, s
        while x != group.identity:
            k, x = k + 1, group.mul(x, s)
        for _ in range(4):
            while True:
                sigma = rng.sample(range(points), points)
                power = list(range(points))
                for _ in range(k):
                    power = [sigma[q] for q in power]
                if power == list(range(points)):
                    break
            cols = {}
            for g in range(group.order):
                if g in cols:
                    continue
                col = list(range(points)) if g == group.identity else rng.sample(range(points), points)
                while g not in cols:
                    cols[g] = col
                    g, col = group.mul(g, s), [sigma[q] for q in col]
            action = [[cols[g][q] for g in range(group.order)] for q in range(points)]
            if _is_action(group, action):
                GSetObj(group, action)
            else:
                rejected += 1
                with pytest.raises(ValidationFailure, match=r"^action axiom fails at point \d+ with "):
                    GSetObj(group, action)
    assert rejected


def test_loading_checks_the_action_on_generators_only():
    # a 200-point trivial Z_64-set: the axiom on every pair of group
    # elements took 200 * 64^2 products, on the one generator 200 * 64
    group = cyclic_group(64)
    calls = []
    mul = group.mul
    group.mul = lambda g, h: calls.append(1) or mul(g, h)
    GSetObj.from_json({"points": 200, "action": [[p] * 64 for p in range(200)]}, group)
    assert len(calls) <= 2 * 200 * 64


def test_equivariance_is_checked_on_generators_only():
    # f(q g) = f(q) g on every element of Z_64 would take 200 * 64 reads
    # of the source's action rows; on its one generator it takes 200
    group = cyclic_group(64)
    source, target = trivial_gset(group, 200), trivial_gset(group, 3)
    reads = []

    class CountedRows(list):
        def __getitem__(self, q):
            reads.append(q)
            return super().__getitem__(q)

    source.action = CountedRows(source.action)
    EquivariantMap(source, target, [q % 3 for q in range(200)])
    assert len(reads) <= 200 * len(group.gens)


def test_regular_z4_orbit_data():
    z4 = cyclic_group(4)
    a = regular_gset(z4)
    data = orbit_data(a)
    assert data.orbits == [[0, 1, 2, 3]]
    assert data.reps == [0]
    assert data.stabilizers == [[0]]
    assert data.centralizers == [[0, 1, 2, 3]]


def test_natural_s3_orbit_data():
    group, a = natural_s3()
    data = orbit_data(a)
    assert data.orbits == [[0, 1, 2]]
    assert data.reps == [0]
    assert len(data.stabilizers[0]) == 2
    assert len(data.centralizers[0]) == 2
    assert data.stabilizers[0] == data.centralizers[0]
    for g in data.stabilizers[0]:
        assert a.action[0][g] == 0


def test_trivial_one_point_s3():
    group, _ = s3_pair()
    a = trivial_gset(group, 1)
    data = orbit_data(a)
    assert data.stabilizers == [list(range(6))]
    assert data.centralizers == [[group.identity]]


def test_orbit_data_takes_least_points():
    group, _ = s3_pair()
    a = disjoint_union(trivial_gset(group, 2), regular_gset(group))
    data = orbit_data(a)
    assert data.reps == [0, 1, 2]
    assert data.orbits == [[0], [1], list(range(2, 8))]


def test_orbit_data_centralizes_each_distinct_stabilizer_once():
    # the 200 stabilizers of a trivial Z_256-set are all of G: one centralizer
    group = cyclic_group(256)
    calls = []
    centralizer = group.centralizer
    group.centralizer = lambda subset: calls.append(1) or centralizer(subset)
    data = orbit_data(trivial_gset(group, 200))
    assert len(calls) == 1
    assert data.centralizers == [list(range(256))] * 200


def test_orbit_data_checks_orbit_stabilizer(monkeypatch, capsys):
    # a transversal that loses a point gives |orbit| * |stabilizer| = 2 * 2 != 6
    group, a = natural_s3()
    full = transversal

    def dropped(obj, rep):
        out = full(obj, rep)
        del out[max(out)]
        return out

    monkeypatch.setattr(gset, "transversal", dropped)
    with pytest.raises(TheoremViolation, match=r"orbit-stabilizer fails at point 0: 2 \* 2 != 6"):
        orbit_data(a)
    assert issubclass(TheoremViolation, InternalError)
    assert main(["gset", "orbits", "--gset", "s3-natural-gset.json"]) == 3
    assert "orbit-stabilizer fails" in capsys.readouterr().err


def test_transversal_covers_orbit():
    group, a = natural_s3()
    trans = transversal(a, 0)
    assert set(trans) == {0, 1, 2}
    for point, h in trans.items():
        assert a.action[0][h] == point
    assert trans[0] == group.identity


def _transversal_over_every_element(a, rep):
    """The reference walk: from each point reached, every group element,
    not the gens alone."""
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
    return out


def _natural_plus_regular_s3():
    group, a = natural_s3()
    return disjoint_union(a, regular_gset(group))


@pytest.mark.parametrize("make", [
    lambda: natural_s3()[1],
    lambda: regular_gset(symmetric_group(3)[0]),
    lambda: regular_gset(cyclic_group(4)),
    _natural_plus_regular_s3,
], ids=["natural-S3", "regular-S3", "regular-Z4", "natural+regular-S3"])
def test_transversal_on_gens_matches_the_walk_over_every_element(make, monkeypatch):
    a = make()

    def outcomes():
        result = coinner_group(a)
        induced = [apply_coinner(d, a, EquivariantMap.identity(a)) for d in result.elements]
        return orbit_data(a), result.order, result.group_table, induced, naturality_oracle(a)

    on_gens = outcomes()
    for rep in on_gens[0].reps:
        trans = transversal(a, rep)
        assert set(trans) == set(_transversal_over_every_element(a, rep))
        assert all(a.action[rep][h] == q for q, h in trans.items())
    monkeypatch.setattr(gset, "transversal", _transversal_over_every_element)
    assert outcomes() == on_gens


def _relabelled(a, rng):
    """a over its group relabelled by a random bijection that moves the
    identity off index 0, with its points permuted at random."""
    group = a.group
    move = list(range(group.order))
    while move[group.identity] == 0:
        rng.shuffle(move)
    table = [[0] * group.order for _ in range(group.order)]
    names = [""] * group.order
    for i in range(group.order):
        names[move[i]] = group.names[i]
        for j in range(group.order):
            table[move[i]][move[j]] = move[group.mul(i, j)]
    points = rng.sample(range(a.points), a.points)
    action = [[0] * group.order for _ in range(a.points)]
    for p in range(a.points):
        for g in range(group.order):
            action[points[p]][move[g]] = points[a.action[p][g]]
    moved = GSetObj(FiniteGroup(table, names), action)
    assert moved.group.identity != 0
    return moved


def _invariants(a):
    """The G-set facts a relabelling must keep: orbit, stabilizer and
    centralizer sizes as multisets, the co-inner order and the oracle."""
    data = orbit_data(a)
    sizes = [sorted(map(len, part)) for part in (data.orbits, data.stabilizers, data.centralizers)]
    result = coinner_group(a)
    return sizes, result.order, result.iso_check, naturality_oracle(a)


@pytest.mark.parametrize("make, order", [
    (lambda: natural_s3()[1], 2),
    (lambda: regular_gset(symmetric_group(3)[0]), 6),
    (_natural_plus_regular_s3, 12),
    (lambda: regular_gset(cyclic_group(4)), 4),
    (lambda: disjoint_union(regular_gset(s3_pair()[0]), regular_gset(s3_pair()[0])), 36),
], ids=["natural-S3", "regular-S3", "natural+regular-S3", "regular-Z4", "regular+regular-S3"])
def test_relabelling_the_group_and_the_points_keeps_every_count(make, order):
    # no code may take element 0 for the identity, or rely on how points are numbered
    a = make()
    expected = _invariants(a)
    assert expected[1:] == (order, True, (order, True))
    rng = random.Random(22)
    for _ in range(3):
        assert _invariants(_relabelled(a, rng)) == expected


def test_coinner_natural_s3():
    _, a = natural_s3()
    result = coinner_group(a)
    assert result.order == 2
    assert result.iso_check
    assert result.elements[0].choice == (a.group.identity,)
    assert result.group_table[0] == [0, 1]
    assert result.group_table[1] == [1, 0]


def test_coinner_regular_is_the_group():
    group, _ = s3_pair()
    a = regular_gset(group)
    result = coinner_group(a)
    assert result.order == 6
    assert result.iso_check
    # choices enumerate the centralizer of {e}, which is G in order
    assert [d.choice for d in result.elements] == [(g,) for g in range(6)]
    assert result.group_table == [list(row) for row in group.table]


def test_coinner_regular_z4():
    result = coinner_group(regular_gset(cyclic_group(4)))
    assert result.order == 4
    assert result.iso_check


def test_coinner_two_regular_s3_orbits():
    group, _ = s3_pair()
    a = disjoint_union(regular_gset(group), regular_gset(group))
    result = coinner_group(a)
    assert result.order == 36
    assert result.iso_check


def test_coinner_reads_orbit_data_once(monkeypatch):
    # each family is checked against its own transversals, not fresh orbit data
    group, _ = s3_pair()
    a = disjoint_union(regular_gset(group), regular_gset(group))
    calls = []

    def counted(base):
        calls.append(base)
        return orbit_data(base)

    monkeypatch.setattr(gset, "orbit_data", counted)
    assert coinner_group(a).order == 36
    assert calls == [a]


def test_coinner_trivial_two_points():
    group, _ = s3_pair()
    result = coinner_group(trivial_gset(group, 2))
    assert result.order == 1
    assert result.iso_check


def test_coinner_checks_the_last_point_representatives(monkeypatch):
    # a fault that shows only for data on each orbit's last point must fail
    # the representative-independence check
    _, a = natural_s3()
    last = tuple(o[-1] for o in orbit_data(a).orbits)
    apply = gset.apply_coinner

    def swapped(d, base, f):
        images = apply(d, base, f)
        if d.reps != last:
            return images
        return (images[1], images[0]) + images[2:]

    monkeypatch.setattr(gset, "apply_coinner", swapped)
    assert not coinner_group(a).iso_check


def test_coinner_budget():
    # each point of a trivial Z4-set multiplies the order by 4
    z4 = cyclic_group(4)
    assert coinner_group(trivial_gset(z4, 3)).order == 64
    assert coinner_group(trivial_gset(z4, 4)).order == 256
    with pytest.raises(BudgetExceeded, match="order 1024 on 5 points"):
        coinner_group(trivial_gset(z4, 5))


def test_apply_identity_datum_is_identity():
    group, a = natural_s3()
    data = orbit_data(a)
    d = CoInnerDatum(tuple(data.reps), (group.identity,))
    assert apply_coinner(d, a, EquivariantMap.identity(a)) == (0, 1, 2)


def test_apply_on_regular_set_is_left_translation():
    group, _ = s3_pair()
    a = regular_gset(group)
    ident = EquivariantMap.identity(a)
    for g in range(group.order):
        d = CoInnerDatum((0,), (g,))
        images = apply_coinner(d, a, ident)
        assert images == tuple(group.mul(g, q) for q in range(group.order))


def test_distinct_data_can_agree_on_the_base_object():
    # On the natural S3-set the non-identity datum conjugates the point
    # stabilizer's transposition to one fixing each point in turn, so the
    # induced self-map of the base object is the identity; the datum shows
    # its difference only on objects over the base, e.g. the regular set.
    group, a = natural_s3()
    data = orbit_data(a)
    t = next(g for g in data.centralizers[0] if g != group.identity)
    d = CoInnerDatum((0,), (t,))
    assert apply_coinner(d, a, EquivariantMap.identity(a)) == (0, 1, 2)

    b = regular_gset(group)
    f = EquivariantMap(b, a, [a.action[0][q] for q in range(group.order)])
    images = apply_coinner(d, a, f)
    assert images != tuple(range(group.order))
    twice = tuple(images[q] for q in images)
    assert twice == tuple(range(group.order))


def test_apply_rejects_bad_datum():
    group, a = natural_s3()
    ident = EquivariantMap.identity(a)
    outside = next(g for g in range(group.order)
                   if g not in orbit_data(a).centralizers[0])
    with pytest.raises(ValidationFailure, match="^choice at point 0 does not centralize its stabilizer$"):
        apply_coinner(CoInnerDatum((0,), (outside,)), a, ident)
    # a point outside the G-set, and a second point of an orbit already taken
    with pytest.raises(ValidationFailure, match="^datum does not take one point from each orbit$"):
        apply_coinner(CoInnerDatum((7,), (group.identity,)), a, ident)
    with pytest.raises(ValidationFailure, match="^datum does not take one point from each orbit$"):
        apply_coinner(CoInnerDatum((0, 1), (group.identity,) * 2), a, ident)
    with pytest.raises(ValidationFailure, match="^reps and choice differ in length$"):
        CoInnerDatum((0, 1), (group.identity,))
    # a choice that is no group element
    with pytest.raises(ValidationFailure, match="^choice at point 0 does not centralize its stabilizer$"):
        apply_coinner(CoInnerDatum((0,), (group.order,)), a, ident)
    # one valid point, so only the final count can see the other orbit left
    # without a representative
    b = disjoint_union(a, regular_gset(group))
    ident_b = EquivariantMap.identity(b)
    with pytest.raises(ValidationFailure, match="^datum does not take one point from each orbit$"):
        apply_coinner(CoInnerDatum((0,), (group.identity,)), b, ident_b)
    # any orbit point is an acceptable representative, the orbits in any order
    d = CoInnerDatum((1,), (group.identity,))
    assert apply_coinner(d, a, ident) == (0, 1, 2)
    t = next(g for g in orbit_data(a).centralizers[0] if g != group.identity)
    r = group.index_of("(123)")
    forward = apply_coinner(CoInnerDatum((0, 3), (t, r)), b, ident_b)
    assert forward != tuple(range(b.points))
    assert apply_coinner(CoInnerDatum((3, 0), (r, t)), b, ident_b) == forward


def test_equivariant_map_validation():
    group, a = natural_s3()
    b = regular_gset(group)
    with pytest.raises(ValidationFailure, match=r"^not equivariant at point 0, element \(12\)$"):
        EquivariantMap(a, a, [0, 0, 0])
    with pytest.raises(ValidationFailure, match="^mapping has wrong length$"):
        EquivariantMap(a, a, [0, 1])
    with pytest.raises(ValidationFailure, match=r"^not equivariant at point 1, element \(23\)$"):
        EquivariantMap(a, a, [0, 1, 7])
    with pytest.raises(ValidationFailure, match="^image of point 0 is invalid$"):
        EquivariantMap(a, a, [7, 1, 2])
    with pytest.raises(ValidationFailure, match="^source and target groups differ$"):
        EquivariantMap(regular_gset(cyclic_group(4)), a, [0, 1, 2, 0])
    f = EquivariantMap(b, a, [a.action[0][q] for q in range(group.order)])
    ident = EquivariantMap.identity(a)
    assert ident.compose(f).mapping == f.mapping
    with pytest.raises(ValidationFailure, match="^composition mismatch$"):
        f.compose(ident)


def test_composition_homomorphism():
    group, a0 = natural_s3()
    a = disjoint_union(a0, regular_gset(group))
    result = coinner_group(a)
    assert result.order == 12
    ident = EquivariantMap.identity(a)
    perms = [apply_coinner(d, a, ident) for d in result.elements]
    rng = random.Random(9)
    for _ in range(40):
        i = rng.randrange(result.order)
        j = rng.randrange(result.order)
        composed = tuple(perms[i][q] for q in perms[j])
        assert composed == perms[result.group_table[i][j]]


def test_naturality_squares():
    group, a = natural_s3()
    b1 = regular_gset(group)
    f1 = EquivariantMap(b1, a, [a.action[0][q] for q in range(group.order)])
    f2 = EquivariantMap.identity(a)
    h = EquivariantMap(b1, a, f1.mapping)
    assert [f2.mapping[q] for q in h.mapping] == list(f1.mapping)
    for d in coinner_group(a).elements:
        e1 = apply_coinner(d, a, f1)
        e2 = apply_coinner(d, a, f2)
        assert tuple(h.mapping[q] for q in e1) == tuple(e2[h.mapping[q]] for q in range(b1.points))


def test_oracle_frozen_counts():
    group, a = natural_s3()
    assert naturality_oracle(a) == (2, True)
    assert naturality_oracle(regular_gset(cyclic_group(4))) == (4, True)
    assert naturality_oracle(regular_gset(group)) == (6, True)
    assert naturality_oracle(trivial_gset(group, 2)) == (1, True)
    union = disjoint_union(regular_gset(group), regular_gset(group))
    assert naturality_oracle(union) == (36, True)


def test_oracle_budget():
    group, _ = s3_pair()
    with pytest.raises(BudgetExceeded):
        naturality_oracle(trivial_gset(cyclic_group(1), MAX_ORACLE_PAIRS + 1))
    with pytest.raises(BudgetExceeded):
        naturality_oracle(trivial_gset(group, 2000))


def test_disjoint_union_group_mismatch():
    group, _ = s3_pair()
    with pytest.raises(ValidationFailure, match="^G-sets over different groups$"):
        disjoint_union(regular_gset(group), regular_gset(cyclic_group(4)))


def test_json_round_trip(tmp_path):
    group, a = natural_s3()
    group_path = os.path.join(tmp_path, "s3.json")
    gset_path = os.path.join(tmp_path, "nat.json")
    import json
    with open(group_path, "w") as fh:
        json.dump(group.to_json(), fh)
    with open(gset_path, "w") as fh:
        json.dump(a.to_json("s3.json"), fh)
    _, data = cli._read(gset_path)
    loaded = GSetObj.from_json(data, cli._gset_group(data, gset_path))
    assert loaded.action == a.action
    assert loaded.group == group
    again = GSetObj.from_json(a.to_json("s3.json"), group)
    assert again.action == a.action
    with pytest.raises(ValidationFailure, match="^G-set: missing key 'action'$"):
        GSetObj.from_json({"points": 3}, group)
    with pytest.raises(ValidationFailure, match="^/points: does not match action table$"):
        GSetObj.from_json({"points": 4, "action": a.to_json("x")["action"]}, group)


def _verdict_rows(out):
    return [" ".join(line.split()) for line in out.splitlines()
            if line.endswith("[ok]") or line.endswith("[FAIL]")]


def test_coinner_reports_a_composition_that_misses_the_product(monkeypatch, capsys):
    # every datum induces the same 3-cycle c, and c * c != c
    monkeypatch.setattr(gset, "apply_coinner", lambda d, a, f: (1, 2, 0))
    assert main(["gset", "coinner", "--gset", "s3-natural-gset.json"]) == 1
    out = capsys.readouterr().out
    assert _verdict_rows(out) == ["order: 2 [ok]", "direct_product_of_centralizers: False [FAIL]"]
    assert out.strip().splitlines()[-1] == "FAIL"


def test_oracle_reports_survivors_off_the_centralizers(monkeypatch, capsys):
    # orbit data that claims a centralizer of the identity alone
    def narrowed(a):
        return dataclasses.replace(orbit_data(a), centralizers=[[0]])

    monkeypatch.setattr(gset, "orbit_data", narrowed)
    assert main(["gset", "oracle", "--gset", "s3-natural-gset.json"]) == 1
    out = capsys.readouterr().out
    assert _verdict_rows(out) == ["oracle_count: 2 [ok]", "matches_centralizers: False [FAIL]"]
