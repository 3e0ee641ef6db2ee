import os
import random

import pytest

from innerscope.freeprod import FiniteGroup, cyclic_group, symmetric_group
from innerscope.gset import (
    MAX_ORACLE_PAIRS,
    BudgetExceeded,
    CoInnerDatum,
    EquivariantMap,
    GSetObj,
    InvalidAction,
    NotEquivariant,
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
    with pytest.raises(InvalidAction):
        GSetObj(z2, [[1, 0], [0, 1]])
    with pytest.raises(InvalidAction):
        GSetObj(z2, [[0, 1], [1, 1]])
    with pytest.raises(InvalidAction):
        GSetObj(z2, [[0], [1]])
    with pytest.raises(InvalidAction):
        GSetObj(z2, [[0, 5], [1, 0]])


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


def test_orbit_data_rep_choice():
    group, _ = s3_pair()
    a = disjoint_union(trivial_gset(group, 2), regular_gset(group))
    data_min = orbit_data(a)
    data_max = orbit_data(a, rep_choice="max")
    assert data_min.reps == [0, 1, 2]
    assert data_max.reps == [0, 1, 7]
    assert data_min.orbits == data_max.orbits
    with pytest.raises(ValidationFailure):
        orbit_data(a, rep_choice="median")


def test_transversal_covers_orbit():
    group, a = natural_s3()
    trans = transversal(a, 0)
    assert set(trans) == {0, 1, 2}
    for point, h in trans.items():
        assert a.action[0][h] == point
    assert trans[0] == group.identity


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


def test_coinner_trivial_two_points():
    group, _ = s3_pair()
    result = coinner_group(trivial_gset(group, 2))
    assert result.order == 1
    assert result.iso_check


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
    with pytest.raises(ValidationFailure):
        apply_coinner(CoInnerDatum((0,), (outside,)), a, ident)
    with pytest.raises(ValidationFailure):
        apply_coinner(CoInnerDatum((7,), (group.identity,)), a, ident)
    with pytest.raises(ValidationFailure):
        apply_coinner(CoInnerDatum((0, 1), (group.identity,) * 2), a, ident)
    with pytest.raises(ValidationFailure):
        CoInnerDatum((0, 1), (group.identity,))
    # any orbit point is an acceptable representative
    d = CoInnerDatum((1,), (group.identity,))
    assert apply_coinner(d, a, ident) == (0, 1, 2)


def test_equivariant_map_validation():
    group, a = natural_s3()
    b = regular_gset(group)
    with pytest.raises(NotEquivariant):
        EquivariantMap(a, a, [0, 0, 0])
    with pytest.raises(NotEquivariant):
        EquivariantMap(a, a, [0, 1])
    with pytest.raises(NotEquivariant):
        EquivariantMap(a, a, [0, 1, 7])
    with pytest.raises(NotEquivariant):
        EquivariantMap(regular_gset(cyclic_group(4)), a, [0, 1, 2, 0])
    f = EquivariantMap(b, a, [a.action[0][q] for q in range(group.order)])
    ident = EquivariantMap.identity(a)
    assert ident.compose(f).mapping == f.mapping
    with pytest.raises(NotEquivariant):
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
    with pytest.raises(ValidationFailure):
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
    loaded = GSetObj.load(gset_path)
    assert loaded.action == a.action
    assert loaded.group == group
    again = GSetObj.from_json(a.to_json("s3.json"), group)
    assert again.action == a.action
    with pytest.raises(ValidationFailure):
        GSetObj.from_json({"points": 3}, group)
    with pytest.raises(ValidationFailure):
        GSetObj.from_json({"points": 4, "action": a.to_json("x")["action"]}, group)
