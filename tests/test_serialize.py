import contextlib
import functools
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from framedf import catalog, designs, serialize
from framedf.cli import _emit
from framedf.designs import BlockDesign, Resolution, affine_plane
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
    monkeypatch.setattr(serialize, "_CHUNK", 3)
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


# -- load_design: the writer's layout read as arrays, anything else through json --

def _read(fn, path):
    """What fn(path) gives: the design and resolution, or the exception's
    type and message."""
    try:
        return fn(path)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def _json_design(path):
    return serialize.design_from_dict(serialize.load(path))


def _assert_same_read(got, want):
    """Two reads agree: the same exception, or designs with equal fields and
    rows stored in the same form (read-only int64, an array or a tuple)."""
    if not isinstance(want[0], BlockDesign):
        assert got == want
        return
    (design, res), (want_design, want_res) = got, want
    for field in ("v", "k", "lam", "provenance"):
        assert getattr(design, field) == getattr(want_design, field), field
    assert (res is None) == (want_res is None)
    pairs = [(design.blocks, want_design.blocks)]
    if res is not None:
        pairs.append((res.classes, want_res.classes))
    for rows, want_rows in pairs:
        assert type(rows) is type(want_rows)
        if isinstance(rows, np.ndarray):
            rows, want_rows = (rows,), (want_rows,)
        assert len(rows) == len(want_rows)
        for r, w in zip(rows, want_rows):
            assert r.dtype == np.int64 and not r.flags.writeable and np.array_equal(r, w)


_entries = (st.integers(-3, 20) | st.integers(-2**63, 2**63 - 1)
            | st.sampled_from([10**17, -10**17, 10**18 - 1, 1 - 10**18, 10**18, -10**18,
                               2**63 - 1, -2**63]))
_rect = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=1, max_size=7))
_rows_st = _rect | st.lists(st.lists(_entries, max_size=4), max_size=5)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(-2, 50), st.integers(-2, 9), st.integers(-1, 3), _rows_st,
       st.none() | _rows_st, st.text(), st.booleans(), st.sampled_from([1, 2, 4096]))
@example(13, 4, 1, [[-5, 10**18 - 1], [0, -(10**18 - 1)]], None, "é\n\"\\x", True, 1)
def test_load_design_reads_what_dump_writes_as_the_json_path_does(
        tmp_path, v, k, lam, blocks, classes, provenance, as_arrays, chunk):
    def stored(rows):
        """rows, or as a design stores them when they fit (see _stored)"""
        if as_arrays and len(set(map(len, rows))) == 1 and all(
                -2**63 <= x < 2**63 for r in rows for x in r):
            return designs._stored(np.array(rows, dtype=np.int64).reshape(len(rows), -1))
        return rows
    design = BlockDesign(v, k, lam, stored(blocks), provenance=provenance)
    res = None if classes is None else Resolution(stored(classes))
    path = tmp_path / "design.json"
    serialize.dump(serialize.design_to_dict(design, res), path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CHUNK", chunk)
        _assert_same_read(_read(serialize.load_design, path), _read(_json_design, path))
        # rows of one nonzero width take the array path
        readable = [rows for rows in (blocks, classes)
                    if rows is not None and len(set(map(len, rows))) == 1 and rows[0]]
        if len(readable) == 1 + (classes is not None):
            assert serialize._canonical_design(path.read_bytes()) is not None


def _canonical_file(tmp_path):
    design = BlockDesign(9, 3, 1, designs._stored(np.array(
        [[0, 1, 2], [-3, 45, 6], [10**18 - 1, 70, 8], [123, -4567, 89]])), provenance="p")
    res = Resolution(designs._stored(np.array([[0, 1], [2, 3]])))
    path = tmp_path / "design.json"
    serialize.dump(serialize.design_to_dict(design, res), path)
    return path


_EDIT_BYTES = [bytes([b]) for b in b"0123456789-,[]\n "]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(["replace", "insert", "delete", "slot"]),
       st.sampled_from([1, 2, 4096]))
def test_load_design_agrees_with_json_on_a_file_one_edit_away(tmp_path, data, edit, chunk):
    """Either both reads raise the same error or both give equal designs:
    the array reader accepts no file that json rejects."""
    path = _canonical_file(tmp_path)
    text = path.read_bytes()
    if edit == "slot":
        # a slot made non-canonical: a leading zero, "-0", "1-2" or nothing
        slots = [m.span() for m in re.finditer(rb"-?\d+", text)]
        lo, hi = data.draw(st.sampled_from(slots))
        new = data.draw(st.sampled_from([b"0" + text[lo:hi], b"-0", b"1-2", b"", b"00", b"-"]))
        text = text[:lo] + new + text[hi:]
    else:
        at = data.draw(st.integers(0, len(text) - 1))
        byte = b"" if edit == "delete" else data.draw(st.sampled_from(_EDIT_BYTES))
        text = text[:at] + byte + text[at + (edit != "insert"):]
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CHUNK", chunk)
        _assert_same_read(_read(serialize.load_design, path), _read(_json_design, path))


@pytest.mark.parametrize("edit", [
    (b"   45", b"  4[5"),         # digits moved out of a slot into the glue
    (b"   45,", b"  4 5,"),       # a slot split in two
    (b"   6\n", b"   -\n"),       # a lone minus
    (b"  [\n   -3", b"  -[\n   3"),   # a minus moved before a row's bracket
    (b"   70", b"   070"), (b"   89\n", b"   -0\n"), (b"   1,", b"   ,")])
def test_load_design_falls_back_on_a_slot_that_is_not_canonical(tmp_path, edit):
    path = _canonical_file(tmp_path)
    text = path.read_bytes()
    assert text.count(edit[0]) == 1
    path.write_bytes(text.replace(*edit))
    assert serialize._canonical_design(path.read_bytes()) is None
    _assert_same_read(_read(serialize.load_design, path), _read(_json_design, path))


def test_load_design_reads_a_canonical_files_arrays_without_json(tmp_path, monkeypatch):
    design, res = affine_plane(16)
    path = tmp_path / "ag16.json"
    serialize.dump(serialize.design_to_dict(design, res), path)
    want = _json_design(path)

    def refuse(*args, **kwargs):
        raise AssertionError("the array reader called json.load")
    parsed = []

    def loads(text, *args, **kwargs):
        parsed.append(text)
        return json_loads(text, *args, **kwargs)
    json_loads = json.loads
    monkeypatch.setattr(serialize, "load", refuse)
    monkeypatch.setattr(json, "load", refuse)
    monkeypatch.setattr(json, "loads", loads)
    got = serialize.load_design(path)
    _assert_same_read(got, want)
    # json read only the object around the arrays, each array replaced by []
    assert parsed == [serialize.dumps({"blocks": [], "k": 16, "lambda": 1, "resolution": [],
                                       "provenance": design.provenance, "v": 256}) + "\n"]


def test_load_design_holds_no_int_object_per_entry(tmp_path, monkeypatch):
    # AG(2,64): 266,240 entries, whose int objects alone would take 7 MB
    design, res = affine_plane(64)
    path = tmp_path / "ag64.json"
    serialize.dump(serialize.design_to_dict(design, res), path)
    size = path.stat().st_size
    monkeypatch.setattr(serialize, "_CHUNK", 4096)
    tracemalloc.start()
    try:
        got, got_res = serialize.load_design(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.blocks, design.blocks)
    assert np.array_equal(got_res.classes, res.classes)
    # the file's bytes, the arrays, and one chunk's transients
    assert peak < size + design.blocks.nbytes + res.classes.nbytes + 2**20, peak


def test_load_design_frees_the_files_bytes_before_reading_it_through_json(tmp_path):
    # a file json reads but dump does not write: the array path rejects it,
    # and the json read must not also hold the file's bytes
    design, res = affine_plane(32)
    path = tmp_path / "ag32.json"
    path.write_text(json.dumps(dict(serialize.design_to_dict(design, res),
                                    blocks=design.blocks.tolist(),
                                    resolution=res.classes.tolist())))
    assert serialize._canonical_design(path.read_bytes()) is None
    peaks = []
    for fn in (_json_design, serialize.load_design):
        tracemalloc.start()
        try:
            fn(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + path.stat().st_size // 2, peaks


def test_load_design_reads_a_repeated_key_as_json_does(tmp_path):
    # json keeps the last "blocks", which is not a list; the array reader
    # must not keep the first
    path = _canonical_file(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'\n "k": 3,', b'\n "blocks": 5,\n "k": 3,'))
    assert _read(serialize.load_design, path) == (
        ValueError, "blocks = 5 is not a list") == _read(_json_design, path)
