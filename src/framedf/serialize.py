"""JSON interchange for fields, groups, families, lifting data and designs.

Round trips are lossless; element encodings are the integers used
throughout the package.  Field descriptors carry the modulus and the
generator coefficient vector so a reader can rebuild identical tables.

Readers check their input once, where it is built: a design, family,
lifting datum, group or field must be a JSON object and a product's
factors a list; every integer field
(v, k, lambda, e, d, and a descriptor's n, p, m) must be a plain int that
fits in int64, every row of a block, class, subgroup, frame partition,
phi or lifting partition, and a field modulus, a list, and every entry an
integer that fits in int64; a bool is neither.  A type, kind or
provenance must be a str.  Otherwise a ValueError names the first bad
entry.  A design's blocks and classes are read straight into int64 arrays
and stored as designs._stored stores them: read-only (rows, width) arrays
when the rows have one nonzero length.

`load_design` is the one reader of design files, and mirrors the writer:
a file laid out exactly as dump(design_to_dict(...)) writes it has its
blocks and classes parsed from the text into int64 arrays a chunk of rows
at a time, and is taken only if writing those arrays again gives the
text read (_canonical_rows), so no Python int outlives its chunk; any
other file goes through json and design_from_dict, with their errors.

`dump` and `dumps` are the package's one JSON writer (product files and
CLI output).  For a value whose dict keys are all str, their text is
exactly ``json.dumps(obj, indent=1, sort_keys=True)`` with an int array
(a design's blocks and classes) written as its ``tolist()``, but a list
of plain ints is joined in one call and a rectangular list of non-empty
int rows or such an array (blocks, classes, phi, codewords) is filled
into a repeated row template by one ``%`` per chunk of rows, so the ints
of a large design never pass through json's pure-Python indenting
encoder, nor become one list of lists.
"""

from __future__ import annotations

import json
import math
import reprlib
import warnings
from array import array
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

import numpy as np

from .fields import FiniteField, make_field
from .groups import AbelianGroup
from .families import DesignFamily
from .lifting import LiftingData
from .designs import BlockDesign, Resolution, _stored

__all__ = [
    "field_to_dict", "field_from_dict",
    "group_to_dict", "group_from_dict",
    "family_to_dict", "family_from_dict",
    "lifting_to_dict", "lifting_from_dict",
    "design_to_dict", "design_from_dict",
    "dump", "dumps", "load", "load_design",
]

# entries per `%` of a rectangular int list in _pieces (whole rows, at least
# one); bounds the transient text and ints
_CHUNK = 32768


def field_to_dict(field: FiniteField) -> dict:
    return field.descriptor()


def field_from_dict(d: dict) -> FiniteField:
    _typed(d, dict, "field")
    p, m, modulus = _int(d, "p"), _int(d, "m"), _int_tuples(d, "modulus", depth=1)
    fld = make_field(p, m, modulus if m > 1 else None)
    if fld.descriptor() != d:
        raise ValueError("field descriptor does not match canonical construction")
    return fld


def group_to_dict(group: AbelianGroup) -> dict:
    return group.descriptor()


def group_from_dict(d: dict) -> AbelianGroup:
    kind = _str(_typed(d, dict, "group"), "type")
    if kind == "cyclic":
        return AbelianGroup.cyclic(_int(d, "n"))
    if kind == "field":
        return AbelianGroup.additive(field_from_dict(d["field"]))
    if kind == "product":
        factors = _typed(d["factors"], list, "factors")
        return AbelianGroup.product(*map(group_from_dict, factors))
    raise ValueError(f"unknown group descriptor type {kind!r}")


def _order(d: dict) -> int:
    """The order of the group descriptor d, read as group_from_dict reads
    it but building nothing.  A field's m is taken as at most 64: p**64 is
    past any order that blocks held in memory can give."""
    kind = _str(_typed(d, dict, "group"), "type")
    if kind == "cyclic":
        return _int(d, "n")
    if kind == "field":
        fd = _typed(d["field"], dict, "field")
        return _int(fd, "p") ** min(max(_int(fd, "m"), 0), 64)
    if kind == "product":
        return math.prod(map(_order, _typed(d["factors"], list, "factors")))
    raise ValueError(f"unknown group descriptor type {kind!r}")


def family_to_dict(fam: DesignFamily) -> dict:
    out = {
        "kind": fam.kind,
        "group": group_to_dict(fam.group),
        "lambda": fam.lam,
        "blocks": [list(b) for b in fam.blocks],
        "provenance": fam.provenance,
    }
    if fam.subgroup is not None:
        out["subgroup"] = list(fam.subgroup)
    if fam.frame_partition is not None:
        out["framePartition"] = [list(p) for p in fam.frame_partition]
    return out


def family_from_dict(d: dict) -> DesignFamily:
    _typed(d, dict, "family")
    return DesignFamily(
        kind=_str(d, "kind"),
        group=group_from_dict(d["group"]),
        lam=_int(d, "lambda"),
        blocks=_int_tuples(d, "blocks"),
        subgroup=_int_tuples(d, "subgroup", depth=1) if "subgroup" in d else None,
        frame_partition=_int_tuples(d, "framePartition") if "framePartition" in d else None,
        provenance=_str(d, "provenance", ""),
    )


def lifting_to_dict(data: LiftingData) -> dict:
    return {
        "sdf": family_to_dict(data.sdf),
        "field": field_to_dict(data.field),
        "e": data.e,
        "d": data.d,
        "lambda": data.lam,
        "phi": [list(r) for r in data.phi],
        "partition": [list(p) for p in data.partition],
        "provenance": data.provenance,
    }


def lifting_from_dict(d: dict) -> LiftingData:
    """The datum `d` describes.  Two checks are made from the descriptors
    before any field's tables, which take time and memory linear in q, are
    built: the SDF's group order must be sum |B|(|B|-1)/lambda over its
    blocks B, and LiftingData's d | e, e | q-1 is checked from the field
    descriptor's p and m."""
    _typed(d, dict, "lifting datum")
    sd = _typed(d["sdf"], dict, "sdf")
    pairs = sum(len(b) * (len(b) - 1) for b in _int_tuples(sd, "blocks"))
    order, mu = _order(sd["group"]), _int(sd, "lambda")
    if mu * order != pairs:
        raise ValueError(f"SDF blocks have {pairs} differences, not lambda * |G| = "
                         f"{mu} * {order}")
    sdf = family_from_dict(sd)
    fd = _typed(d["field"], dict, "field")
    p, m, e, dd = _int(fd, "p"), _int(fd, "m"), _int(d, "e"), _int(d, "d")
    if e < 1 or dd < 1 or e % dd or pow(p, max(m, 0), e) != 1 % e:
        raise ValueError("need d | e and e | q-1")
    return LiftingData(
        sdf=sdf,
        field=field_from_dict(fd),
        e=e,
        d=dd,
        lam=_int(d, "lambda"),
        phi=_int_tuples(d, "phi"),
        partition=_int_tuples(d, "partition"),
        provenance=_str(d, "provenance", ""),
    )


def design_to_dict(design: BlockDesign, res: Resolution | None = None) -> dict:
    out = {
        "v": design.v,
        "k": design.k,
        "lambda": design.lam,
        "blocks": design.blocks,
        "provenance": design.provenance,
    }
    if res is not None:
        out["resolution"] = res.classes
    return out


def design_from_dict(d: dict) -> tuple[BlockDesign, Resolution | None]:
    _typed(d, dict, "design")
    return _design(d, lambda key: _stored(*_int_array(d[key], key)))


def _design(d: dict, rows) -> tuple[BlockDesign, Resolution | None]:
    """The design the dict d describes, its blocks and resolution read by
    rows(key)."""
    design = BlockDesign(_int(d, "v"), _int(d, "k"), _int(d, "lambda"), rows("blocks"),
                         provenance=_str(d, "provenance", ""))
    return design, Resolution(rows("resolution")) if "resolution" in d else None


def load_design(path) -> tuple[BlockDesign, Resolution | None]:
    """design_from_dict(load(path)), reading the file's blocks and
    resolution straight into int64 arrays when it is laid out as
    dump(design_to_dict(...)) writes it (see _canonical_design); any other
    file is read through json, so its errors are those of
    design_from_dict(load(path))."""
    with open(path, "rb") as fh:
        read = _canonical_design(fh.read())   # the bytes are freed before any fallback
    return read if read is not None else design_from_dict(load(path))


# layout bytes to spaces, so numpy's text parse sees the values alone
_LAYOUT_TO_SPACE = bytes.maketrans(b"[],", b"   ")
_ROWS_KEYS = ("blocks", "resolution")


def _canonical_design(data: bytes) -> tuple[BlockDesign, Resolution | None] | None:
    """The design whose file text is `data`, when the text is exactly what
    dump(design_to_dict(...)) writes with blocks and resolution as
    rectangular rows of non-empty int rows (read by _canonical_rows), else
    None.  The rest of the text, each array replaced by "[]", is parsed by
    json and must be what dumps writes for what it parses (plus the final
    newline): then each "[]" stood at the top-level key it follows, since
    canonical text has no raw newline inside a string and indents every
    key by its depth."""
    arrays, rest, pos = {}, [], 0
    for key in _ROWS_KEYS:
        mark = b'\n "%s": ' % key.encode()
        at = data.find(mark + b"[\n  [\n", pos)
        if at < 0:
            continue
        start = at + len(mark)
        read = _canonical_rows(data, start)
        if read is None:
            return None
        arrays[key], end = read
        rest += [data[pos:start], b"[]"]
        pos = end
    if "blocks" not in arrays:
        return None
    rest.append(data[pos:])
    try:
        text = b"".join(rest).decode("ascii")
        d = json.loads(text)
    except ValueError:      # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return None
    if (type(d) is not dict or dumps(d) + "\n" != text
            or any((key in d) != (key in arrays) for key in _ROWS_KEYS)):
        return None
    return _design(d, lambda key: _stored(arrays[key]))


def _canonical_rows(data: bytes, start: int) -> tuple[np.ndarray, int] | None:
    """The rows of the top-level int array whose text starts at
    data[start], and the offset just past its text, when that text is
    exactly what _pieces writes for the rows; else None.  The values are
    parsed a chunk of about _CHUNK entries at a time, each cut after a
    row's "]", and are taken only if the writer's text for them, written
    piece by piece, is the text read."""
    end = data.find(b"\n ]", start)        # the array's closing line
    first = data.find(b"]", start)          # the first row's end
    if not start < first < end:
        return None
    width = data.count(b",", start, first) + 1
    rows = data.count(b"]", start, end)
    if rows * width > end - start:          # each value takes a byte at least
        return None
    out = np.empty((rows, width), dtype=np.int64)
    flat = out.reshape(-1)
    step = max(1, _CHUNK // width) * (first - start)
    done, pos = 0, start
    with warnings.catch_warnings():
        # numpy 1.x warns, and numpy 2 raises, when a text parse stops early
        warnings.simplefilter("error", DeprecationWarning)
        while pos < end:
            cut = data.find(b"]", min(pos + step, end - 1), end) + 1 or end
            try:
                values = np.fromstring(data[pos:cut].translate(_LAYOUT_TO_SPACE),
                                       dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
            if done + len(values) > len(flat):
                return None
            flat[done:done + len(values)] = values
            done, pos = done + len(values), cut
    if done != len(flat):
        return None
    pos = start
    for piece in _pieces(out, " "):
        piece = piece.encode()
        if not data.startswith(piece, pos):
            return None
        pos += len(piece)
    return out, pos


def _typed(x, kind: type, what: str):
    """x, which must be a dict (a JSON object) or a list, as `kind` says;
    otherwise a ValueError names `what`."""
    if type(x) is not kind:
        raise ValueError(f"{what} = {reprlib.repr(x)} is not "
                         f"{'an object' if kind is dict else 'a list'}")
    return x


def _int(d: dict, key: str) -> int:
    x = d[key]
    if type(x) is not int or not -2**63 <= x < 2**63:     # a bool's type is bool
        raise ValueError(f"{key} = {x!r} is not an int64 integer")
    return x


def _str(d: dict, key: str, default: str | None = None) -> str:
    """d[key], which must be a str; an absent key gives `default` when
    there is one."""
    x = d[key] if default is None else d.get(key, default)
    if type(x) is not str:
        raise ValueError(f"{key} = {x!r} is not a string")
    return x


def _int_array(value, what: str, depth: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The entries of `value`, a list of lists (a list when depth is 1) of
    integers, not bools, that fit in int64: one int64 array of them in row
    order, and each row's length.  Otherwise a ValueError names the first
    entry or row that is not.  Building is the check: array.fromlist takes
    only a list of integers in range, and only the entries it read as 0 or
    1 can have been bools."""
    rows = value if depth == 2 else [value]
    out = array("q")
    try:
        if type(value) is not list:
            raise TypeError
        for row in rows:
            out.fromlist(row)
    except (TypeError, OverflowError):
        raise ValueError(_first_bad(value, what, depth)) from None
    flat = np.frombuffer(out, dtype=np.int64)
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    at = np.flatnonzero((flat == 0) | (flat == 1))
    ends = np.cumsum(lens)
    in_row = np.searchsorted(ends, at, side="right")
    in_col = at - (ends - lens)[in_row]
    if any(type(rows[i][j]) is bool for i, j in zip(in_row.tolist(), in_col.tolist())):
        raise ValueError(_first_bad(value, what, depth))
    return flat, lens


def _is_entry(x) -> bool:
    """x is an entry as _int_array reads it."""
    try:
        array("q").fromlist([x])
    except (TypeError, OverflowError):
        return False
    return type(x) is not bool


def _first_bad(value, what: str, depth: int) -> str:
    if type(value) is not list:
        return f"{what} = {value!r} is not a list"
    for i, x in enumerate(value):
        if depth > 1:
            bad = _first_bad(x, f"{what}[{i}]", depth - 1)
            if bad:
                return bad
        elif not _is_entry(x):
            return f"{what}[{i}] = {x!r} is not an int64 integer"
    return ""


def _int_tuples(d: dict, key: str, depth: int = 2) -> tuple:
    """d[key], checked as by _int_array, as (nested) tuples."""
    _int_array(d[key], key, depth)
    return tuple(map(tuple, d[key])) if depth == 2 else tuple(d[key])


def _pieces(obj, ind: str) -> Iterator[str]:
    """The text of json.dumps(obj, indent=1, sort_keys=True) nested at
    indentation `ind`, in pieces, with an int array written as its
    tolist() (a non-empty 2-D one chunk by chunk).  Scalars go to
    json.dumps, so anything json rejects (another array too) raises here
    too; so does a dict key that is not a str, which json would write as a
    string."""
    inner = ind + " "
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        if obj.ndim == 2 and obj.size:
            yield from _row_pieces(obj, ind, lambda rows: rows.ravel().tolist())
        else:
            yield from _pieces(obj.tolist(), ind)
    elif not isinstance(obj, (dict, list, tuple)):
        yield json.dumps(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif isinstance(obj, dict):
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _pieces(value, inner)
            sep = ",\n" + inner
        yield "\n" + ind + "}"
    else:
        types = set(map(type, obj))
        if types == {int}:
            yield "[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + ind + "]"
        elif (types <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]
                and set(map(type, chain.from_iterable(obj))) == {int}):
            yield from _row_pieces(obj, ind, chain.from_iterable)
        else:
            sep = "[\n" + inner
            for value in obj:
                yield sep
                yield from _pieces(value, inner)
                sep = ",\n" + inner
            yield "\n" + ind + "]"


def _row_pieces(rows, ind: str, ints) -> Iterator[str]:
    """Non-empty rows of one nonzero length, as _pieces writes them: one
    row template filled by one `%` per chunk of _CHUNK entries in whole
    rows, whose ints come from ints(chunk) in row order."""
    inner = ind + " "
    cell = inner + " "
    row = "[\n" + cell + (",\n" + cell).join(["%d"] * len(rows[0])) + "\n" + inner + "]"
    sep = "[\n" + inner
    step = max(1, _CHUNK // len(rows[0]))
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        yield sep + (",\n" + inner).join([row] * len(chunk)) % tuple(ints(chunk))
        sep = ",\n" + inner
    yield "\n" + ind + "]"


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=1, sort_keys=True), byte for byte; every dict
    key must be a str."""
    return "".join(_pieces(obj, ""))


def dump(obj: Any, path) -> None:
    """Write dumps(obj) and a newline to `path`, one piece at a time."""
    with open(path, "w") as fh:
        fh.writelines(_pieces(obj, ""))
        fh.write("\n")


def load(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
