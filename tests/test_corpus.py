import json

import pytest

from innerscope import cli, corpus
from innerscope.exactmath import GF, QQ
from innerscope.freeprod import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from innerscope.gset import GSetObj, natural_gset
from innerscope.rewrite import LieData, RewriteSystem, leavitt_system, sl2
from innerscope.tensoralg import StructAlgebra, matrix_algebra


def read(name):
    with open(corpus.data_path(name)) as fh:
        return json.load(fh)


def test_names_listing():
    assert corpus.names() == ["d4", "leavitt2", "m2f2", "s3", "s3-natural-gset",
                              "sl2f3", "sl2q", "z6"]
    with pytest.raises(FileNotFoundError):
        corpus.data_path("no-such-entry")


def test_group_files_match_builders():
    assert read("s3") == symmetric_group(3)[0].to_json()
    assert read("d4") == dihedral_group(4)[0].to_json()
    assert read("z6") == cyclic_group(6).to_json()


def test_algebra_file_matches_builder():
    assert read("m2f2") == matrix_algebra(2, GF(2)).to_json()
    loaded = StructAlgebra.from_json(read("m2f2"))
    assert loaded == matrix_algebra(2, GF(2))


def test_lie_files_match_builders():
    assert read("sl2q") == sl2(QQ).to_json()
    assert read("sl2f3") == sl2(GF(3)).to_json()
    loaded = LieData.from_json(read("sl2f3"))
    assert loaded.names == ["e", "f", "h"]
    assert loaded.jacobi_ok()


def test_leavitt_file_matches_builder():
    assert read("leavitt2") == leavitt_system(2, QQ).to_json()
    loaded = RewriteSystem.from_json(read("leavitt2"))
    assert loaded.is_confluent()


def test_gset_file_loads_with_relative_group():
    group, perms = symmetric_group(3)
    built = natural_gset(group, perms)
    assert read("s3-natural-gset") == built.to_json("s3.json")
    path = corpus.data_path("s3-natural-gset")
    _, data = cli._read(path)
    loaded = GSetObj.from_json(data, cli._gset_group(data, path))
    assert loaded.action == built.action
    assert loaded.group == group


def test_groups_load_as_groups():
    for name in ("s3", "d4", "z6"):
        g = FiniteGroup.from_json(read(name))
        assert g.order in (6, 8)
