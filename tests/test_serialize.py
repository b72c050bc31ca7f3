import contextlib
import functools
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from framedf import catalog, serialize
from framedf.cli import _emit
from framedf.designs import affine_plane
from framedf.fields import make_field
from framedf.groups import AbelianGroup
from framedf.lifting import lift_sdf


def test_field_round_trip():
    for fld in (make_field(89), make_field(5, 2), make_field(2, 5)):
        d = serialize.field_to_dict(fld)
        back = serialize.field_from_dict(json.loads(json.dumps(d)))
        assert back is fld or back == fld


def test_group_round_trip():
    g = AbelianGroup.product(AbelianGroup.cyclic(63),
                             AbelianGroup.additive(make_field(5, 2)))
    d = serialize.group_to_dict(g)
    assert serialize.group_from_dict(json.loads(json.dumps(d))) == g


def test_family_round_trip_lossless():
    fam = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    d = serialize.family_to_dict(fam)
    back = serialize.family_from_dict(json.loads(json.dumps(d)))
    assert back.blocks == fam.blocks
    assert back.subgroup == fam.subgroup
    assert back.frame_partition == fam.frame_partition
    assert back.group == fam.group
    assert back.lam == fam.lam


def test_lifting_round_trip():
    data = catalog.lifting_datum("fdf_z119xF25")
    d = serialize.lifting_to_dict(data)
    back = serialize.lifting_from_dict(json.loads(json.dumps(d)))
    assert back.phi == data.phi
    assert back.partition == data.partition
    assert back.sdf.blocks == data.sdf.blocks
    assert (back.e, back.d, back.lam) == (data.e, data.d, data.lam)


def test_design_round_trip(tmp_path):
    design, res = affine_plane(4)
    path = tmp_path / "ap4.json"
    serialize.dump(serialize.design_to_dict(design, res), path)
    back, back_res = serialize.design_from_dict(serialize.load(path))
    assert np.array_equal(back.blocks, design.blocks)
    assert np.array_equal(back_res.classes, res.classes)


_ints = st.integers(-3, 3) | st.integers()
_scalars = st.none() | st.booleans() | _ints | st.floats() | st.text()
# rectangular int rows (the shape of blocks, classes, phi and codewords)
_int_rows = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(_ints, min_size=m, max_size=m)
                       | st.tuples(*[_ints] * m), max_size=6))


def _containers(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=3), inner, max_size=4))


_values = st.recursive(
    _scalars | st.lists(_ints) | _int_rows
    | st.lists(st.lists(_ints, max_size=4), max_size=5)               # ragged rows
    | st.lists(st.lists(_ints | _scalars, min_size=1, max_size=3), max_size=4),
    _containers, max_leaves=20)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_values)
@example([])
@example({})
@example([[], []])
@example([[1, 2], [3, True]])
@example([[1, 2], (3, 4)])
@example({"\u00e9\n\"%d": [float("nan"), -2**70, None, False]})
@example({"b": [[0, 1]], "a": {"c": ()}})
def test_dump_and_cli_json_match_json_dumps(tmp_path, obj):
    want = json.dumps(obj, indent=1, sort_keys=True)
    assert serialize.dumps(obj) == want
    path = tmp_path / "obj.json"
    serialize.dump(obj, path)
    assert path.read_text() == want + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(obj, "json")
    assert out.getvalue() == want + "\n"


def test_dumps_chunks_long_int_rows_exactly(monkeypatch):
    monkeypatch.setattr(serialize, "_ROW_CHUNK", 3)
    for rows in ([[i, -i] for i in range(7)], [(i,) for i in range(6)], [[5, 6, 7]]):
        assert serialize.dumps({"rows": rows}) == json.dumps({"rows": rows}, indent=1,
                                                             sort_keys=True)


@pytest.mark.parametrize("obj", [[np.int64(3)], [[1, 2], [3, np.int64(4)]], {(1,): 2},
                                 [object()], {"a": 1, 2: 3}])
def test_dumps_raises_where_json_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=1, sort_keys=True)
    with pytest.raises(TypeError):
        serialize.dumps(obj)


def test_dumps_raises_on_a_key_that_is_not_a_str():
    # json would write the key 1 as "1"; no product or record has such a key
    with pytest.raises(TypeError):
        serialize.dumps({"a": {1: 2}})


def _set(blob, path, value):
    """Set the entry of `blob` at `path` (a key, then indices) to `value`,
    and return the name a reader's ValueError gives it."""
    *outer, last = path
    functools.reduce(lambda obj, key: obj[key], outer, blob)[last] = value
    return path[0] + "".join(f"[{i}]" for i in path[1:])


@pytest.mark.parametrize("path,value", [
    (("blocks", 0, 0), 1.0), (("subgroup", 1), True), (("framePartition", 0, 0), "0"),
    (("lambda",), 1.0)])
def test_family_from_dict_names_an_entry_that_is_not_an_int(path, value):
    blob = json.loads(json.dumps(serialize.family_to_dict(
        lift_sdf(catalog.lifting_datum("fdf_z7xF89")))))
    named = _set(blob, path, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(named)} = {re.escape(repr(value))} "):
        serialize.family_from_dict(blob)


@pytest.mark.parametrize("path,value", [
    (("phi", 0, 1), 3.5), (("partition", 0, 0), False), (("partition", 0), 0), (("e",), "8")])
def test_lifting_from_dict_names_an_entry_that_is_not_an_int(path, value):
    blob = json.loads(json.dumps(serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))))
    named = _set(blob, path, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(named)} = {re.escape(repr(value))} "):
        serialize.lifting_from_dict(blob)


def test_design_from_dict_stores_rectangular_rows_as_arrays_and_ragged_as_rows():
    blob = json.loads(serialize.dumps(serialize.design_to_dict(*affine_plane(2))))
    design, res = serialize.design_from_dict(blob)
    assert isinstance(design.blocks, np.ndarray) and isinstance(res.classes, np.ndarray)
    blob["blocks"][1] = [1, 3, 0]
    blob["resolution"][2] = [4]
    design, res = serialize.design_from_dict(blob)
    assert type(design.blocks) is tuple and type(res.classes) is tuple
    assert [b.tolist() for b in design.blocks] == blob["blocks"]
    assert [c.tolist() for c in res.classes] == blob["resolution"]
    assert all(r.dtype == np.int64 and not r.flags.writeable
               for r in design.blocks + res.classes)
    assert serialize.dumps(serialize.design_to_dict(design, res)) == json.dumps(
        blob, indent=1, sort_keys=True)
