"""JSON interchange for fields, groups, families, lifting data and designs.

Round trips are lossless; element encodings are the integers used
throughout the package.  Field descriptors carry the modulus and the
generator coefficient vector so a reader can rebuild identical tables.

`dump` and `dumps` are the package's one JSON writer (product files and
CLI output).  For a value whose dict keys are all str, their text is
exactly ``json.dumps(obj, indent=1, sort_keys=True)``, but a list of plain
ints is joined in one call and a rectangular list of non-empty int rows
(blocks, classes, phi, codewords) is filled into a repeated row template
by one ``%`` per chunk of rows, so the ints of a large design never pass
through json's pure-Python indenting encoder.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

from .fields import FiniteField, make_field
from .groups import AbelianGroup
from .families import DesignFamily
from .lifting import LiftingData
from .designs import BlockDesign, Resolution

__all__ = [
    "field_to_dict", "field_from_dict",
    "group_to_dict", "group_from_dict",
    "family_to_dict", "family_from_dict",
    "lifting_to_dict", "lifting_from_dict",
    "design_to_dict", "design_from_dict",
    "dump", "dumps", "load",
]

# rows per `%` of a rectangular int list in _pieces; bounds the transient text
_ROW_CHUNK = 4096


def field_to_dict(field: FiniteField) -> dict:
    return field.descriptor()


def field_from_dict(d: dict) -> FiniteField:
    fld = make_field(d["p"], d["m"], tuple(d["modulus"]) if d["m"] > 1 else None)
    if fld.descriptor() != d:
        raise ValueError("field descriptor does not match canonical construction")
    return fld


def group_to_dict(group: AbelianGroup) -> dict:
    return group.descriptor()


def group_from_dict(d: dict) -> AbelianGroup:
    if d["type"] == "cyclic":
        return AbelianGroup.cyclic(d["n"])
    if d["type"] == "field":
        return AbelianGroup.additive(field_from_dict(d["field"]))
    if d["type"] == "product":
        return AbelianGroup.product(*(group_from_dict(f) for f in d["factors"]))
    raise ValueError(f"unknown group descriptor type {d['type']!r}")


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
    return DesignFamily(
        kind=d["kind"],
        group=group_from_dict(d["group"]),
        lam=d["lambda"],
        blocks=tuple(tuple(b) for b in d["blocks"]),
        subgroup=tuple(d["subgroup"]) if "subgroup" in d else None,
        frame_partition=tuple(tuple(p) for p in d["framePartition"])
        if "framePartition" in d else None,
        provenance=d.get("provenance", ""),
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
    return LiftingData(
        sdf=family_from_dict(d["sdf"]),
        field=field_from_dict(d["field"]),
        e=d["e"],
        d=d["d"],
        lam=d["lambda"],
        phi=tuple(tuple(r) for r in d["phi"]),
        partition=tuple(tuple(p) for p in d["partition"]),
        provenance=d.get("provenance", ""),
    )


def design_to_dict(design: BlockDesign, res: Resolution | None = None) -> dict:
    out = {
        "v": design.v,
        "k": design.k,
        "lambda": design.lam,
        "blocks": [list(b) for b in design.blocks],
        "provenance": design.provenance,
    }
    if res is not None:
        out["resolution"] = [list(c) for c in res.classes]
    return out


def design_from_dict(d: dict) -> tuple[BlockDesign, Resolution | None]:
    design = BlockDesign(d["v"], d["k"], d["lambda"],
                         tuple(tuple(b) for b in d["blocks"]),
                         provenance=d.get("provenance", ""))
    res = Resolution(tuple(tuple(c) for c in d["resolution"])) \
        if "resolution" in d else None
    return design, res


def _pieces(obj, ind: str) -> Iterator[str]:
    """The text of json.dumps(obj, indent=1, sort_keys=True) nested at
    indentation `ind`, in pieces.  Scalars go to json.dumps, so anything
    json rejects raises here too; so does a dict key that is not a str,
    which json would write as a string."""
    inner = ind + " "
    if not isinstance(obj, (dict, list, tuple)):
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
            return
        sep = "[\n" + inner
        if (types <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]
                and set(map(type, chain.from_iterable(obj))) == {int}):
            cell = inner + " "
            row = "[\n" + cell + (",\n" + cell).join(["%d"] * len(obj[0])) + "\n" + inner + "]"
            for lo in range(0, len(obj), _ROW_CHUNK):
                rows = obj[lo:lo + _ROW_CHUNK]
                yield sep + (",\n" + inner).join([row] * len(rows)) % tuple(
                    chain.from_iterable(rows))
                sep = ",\n" + inner
        else:
            for value in obj:
                yield sep
                yield from _pieces(value, inner)
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
