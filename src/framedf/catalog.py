"""Built-in catalog of strong difference families and lifting data.

Printed tables are ingested verbatim; negative residues are normalized at
parse time.  The z63xF25 lifting datum contains two second coordinates
equal to zero (and their scaled copies), so its conditions fail as
printed: family() refuses to lift it and points at search.repair_block.
Nothing in here silently alters ingested values.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from .fields import FiniteField, field_of_order, make_field
from .groups import AbelianGroup
from .families import SDF, DesignFamily
from .lifting import LiftingData, check_lifting_conditions, lift_sdf

__all__ = ["catalog_names", "family", "lifting_datum", "entry_info", "CatalogDataError"]


class CatalogDataError(ValueError):
    """Raised when a catalog entry cannot be produced as requested."""


# ---------------------------------------------------------------------------
# SDF constructions from prime-power ingredients


def _squares(field: FiniteField) -> list[int]:
    return sorted(int(field.pow_generator(2 * j)) for j in range((field.q - 1) // 2))


def paley2(p: int) -> DesignFamily:
    """Doubled {0} + squares: an (F_p^+, p+1, p+1)-SDF for p = 3 (mod 4)."""
    if p % 4 != 3:
        raise CatalogDataError("paley2 needs a prime power p = 3 (mod 4)")
    fld = field_of_order(p)
    group = AbelianGroup.of_field(fld)
    block = tuple(sorted([0] + _squares(fld)) * 2)
    block = tuple(sorted(block))
    return DesignFamily(SDF, group, p + 1, (block,), provenance="paley2(%d)" % p)


def paley3(p: int) -> DesignFamily:
    """Doubled {0}+squares and {0}+nonsquares: an (F_p^+, p+1, 2p+2)-SDF, p odd."""
    if p % 2 == 0 or p < 3:
        raise CatalogDataError("paley3 needs an odd prime power")
    fld = field_of_order(p)
    group = AbelianGroup.of_field(fld)
    sq = _squares(fld)
    nonsq = sorted(set(range(1, p)) - set(sq))
    b1 = tuple(sorted(([0] + sq) * 2))
    b2 = tuple(sorted(([0] + nonsq) * 2))
    return DesignFamily(SDF, group, 2 * p + 2, (b1, b2), provenance="paley3(%d)" % p)


def twin_prime(p: int) -> DesignFamily:
    """Twin prime power difference multiset on F_p x F_{p+2}, doubled complement
    of the classical twin-prime-power difference set."""
    if p % 2 == 0:
        raise CatalogDataError("twinPrime needs odd prime powers p, p + 2")
    f1 = field_of_order(p)
    f2 = field_of_order(p + 2)
    group = AbelianGroup.product(AbelianGroup.of_field(f1), AbelianGroup.of_field(f2))
    sq1, sq2 = set(_squares(f1)), set(_squares(f2))
    nz1, nz2 = set(range(1, p)), set(range(1, p + 2))
    ds = {group.pack(a, b) for a in sq1 for b in sq2}
    ds |= {group.pack(a, b) for a in nz1 - sq1 for b in nz2 - sq2}
    ds |= {group.pack(a, 0) for a in nz1 | {0}}
    comp = sorted(set(range(group.order)) - ds)
    block = tuple(sorted(comp * 2))
    v = p * (p + 2)
    return DesignFamily(SDF, group, v + 1, (block,), provenance="twinPrime(%d)" % p)


def singer(p: int, m: int) -> DesignFamily:
    """Singer difference multiset: p copies of the complement of the classical
    Singer difference set on Z_{(p^m-1)/(p-1)}.

    The difference set is realized from the trace-zero hyperplane of
    GF(p^m): D = { i : Tr(w^i) = 0 } reduced mod (p^m-1)/(p-1); any correct
    model is acceptable since verify_sdf certifies the result.
    """
    if m < 3:
        raise CatalogDataError("singer needs m >= 3")
    fld = make_field(p, m)
    v = (p**m - 1) // (p - 1)
    group = AbelianGroup.cyclic(v)
    hyper = set()
    for i in range(p**m - 1):
        enc = fld.pow_generator(i)
        # absolute trace to GF(p): sum of Frobenius images
        tr = 0
        x = enc
        for _ in range(m):
            tr = fld.add(tr, x)
            x = _frob(fld, x)
        if tr == 0:
            hyper.add(i % v)
    ds = sorted(hyper)
    if len(ds) != (p ** (m - 1) - 1) // (p - 1):
        raise CatalogDataError("trace hyperplane did not give a Singer difference set")
    comp = sorted(set(range(v)) - set(ds))
    block = tuple(sorted(comp * p))
    return DesignFamily(SDF, group, p**m * (p - 1), (block,),
                        provenance="singer(%d,%d)" % (p, m))


def _frob(fld: FiniteField, enc: int) -> int:
    out = enc
    for _ in range(fld.p - 1):
        out = int(fld.mul(out, enc))
    return out


# ---------------------------------------------------------------------------
# Verbatim SDF tables


def z7_8_8() -> DesignFamily:
    return DesignFamily(SDF, AbelianGroup.cyclic(7), 8,
                        ((0, 0, 1, 1, 2, 2, 4, 4),), provenance="z7_8_8")


_Z63_ROWS = [
    [20, 20, -20, -20, 29, 29, -29, -29],
    [0, 1, 3, 7, 19, 34, 42, 53],
    [0, 1, 4, 6, 26, 36, 43, 51],
]

_Z119_ROWS = [
    [20, 20, -20, -20, 29, 29, -29, -29],
    [0, 1, 42, 28, 101, 97, 94, 114],
    [0, 1, 12, 23, 41, 85, 104, 106],
    [0, 2, 5, 17, 37, 47, 68, 76],
    [0, 4, 10, 38, 54, 62, 86, 93],
]


def _norm(row, mod):
    return tuple(x % mod for x in row)


def z63_8_8() -> DesignFamily:
    blocks = [_norm(_Z63_ROWS[0], 63)]
    blocks += [_norm(_Z63_ROWS[1], 63)] * 4
    blocks += [_norm(_Z63_ROWS[2], 63)] * 4
    return DesignFamily(SDF, AbelianGroup.cyclic(63), 8, tuple(blocks), provenance="z63_8_8")


def z119_8_8() -> DesignFamily:
    blocks = [_norm(_Z119_ROWS[0], 119)]
    for row in _Z119_ROWS[1:]:
        blocks += [_norm(row, 119)] * 4
    return DesignFamily(SDF, AbelianGroup.cyclic(119), 8, tuple(blocks), provenance="z119_8_8")


_Z125_ROWS = {
    1: [0, 0, 19, 19, 71, 71],
    2: [0, 10, 28, 51, 78, 97],
    4: [0, 3, 62, 75, 86, 110],
    6: [0, 5, 12, 58, 70, 112],
    8: [0, 7, 27, 44, 70, 96],
    10: [0, 1, 42, 93, 85, 45],
    12: [0, 1, 100, 104, 109, 88],
    14: [0, 1, 90, 81, 21, 32],
    16: [0, 3, 16, 40, 46, 50],
    18: [0, 2, 7, 29, 35, 68],
    20: [0, 2, 8, 57, 102, 116],
    22: [0, 2, 22, 32, 36, 96],
    24: [0, 8, 23, 38, 72, 86],
}


def z125_6_6() -> DesignFamily:
    blocks = [_norm(_Z125_ROWS[1], 125)]
    for i in range(2, 26, 2):
        blocks += [_norm(_Z125_ROWS[i], 125)] * 2
    return DesignFamily(SDF, AbelianGroup.cyclic(125), 6, tuple(blocks), provenance="z125_6_6")


# ---------------------------------------------------------------------------
# Verbatim lifting data


def lifting_z7xF89() -> LiftingData:
    """Unique base block over Z7 zipped with eight nonzero residues of GF(89)."""
    fld = make_field(89)
    phi = ((1, 20, 14, 58, 18, 61, 26, 73),)
    return LiftingData(z7_8_8(), fld, e=88, d=8, lam=1, phi=phi,
                       partition=((0,),), provenance="fdf_z7xF89")


def lifting_z63xF25() -> LiftingData:
    """Verbatim z63 x GF(25) data; note the zero second coordinates in the
    rows for the second and sixth base blocks (and their scaled copies)."""
    fld = field_of_order(25)
    w = fld.pow_generator
    xi = w(6)
    neg = fld.neg
    mulv = lambda row, m: tuple(int(fld.mul(v, m)) for v in row)
    b1 = (w(0), neg(w(0)), xi, neg(xi), w(1), neg(w(1)),
          int(fld.mul(w(1), xi)), neg(int(fld.mul(w(1), xi))))
    b2 = (0, w(2), w(18), w(13), w(4), w(9), w(6), w(0))
    b6 = (0, w(9), w(13), w(18), w(4), w(6), w(2), w(0))
    orbit = (neg(w(0)), xi, neg(xi))
    phi = [b1, b2] + [mulv(b2, m) for m in orbit] + [b6] + [mulv(b6, m) for m in orbit]
    return LiftingData(z63_8_8(), fld, e=6, d=2, lam=1, phi=tuple(phi),
                       partition=tuple((i,) for i in range(9)), provenance="fdf_z63xF25")


def lifting_z119xF25() -> LiftingData:
    fld = field_of_order(25)
    w = fld.pow_generator
    xi = w(6)
    neg = fld.neg
    mulv = lambda row, m: tuple(int(fld.mul(v, m)) for v in row)
    b1 = (w(0), neg(w(0)), xi, neg(xi), w(1), neg(w(1)),
          int(fld.mul(w(1), xi)), neg(int(fld.mul(w(1), xi))))
    rows = {
        2: (w(1), w(7), w(0), w(6), w(18), w(13), w(12), w(19)),
        6: (w(0), w(12), w(1), w(18), w(13), w(7), w(6), w(19)),
        10: (w(1), w(7), w(12), w(6), w(19), w(18), w(0), w(13)),
        14: (w(1), w(4), w(10), w(7), w(22), w(19), w(16), w(13)),
    }
    orbit = (neg(w(0)), xi, neg(xi))
    phi = [b1]
    for lead in (2, 6, 10, 14):
        phi.append(rows[lead])
        phi += [mulv(rows[lead], m) for m in orbit]
    return LiftingData(z119_8_8(), fld, e=6, d=2, lam=1, phi=tuple(phi),
                       partition=tuple((i,) for i in range(17)), provenance="fdf_z119xF25")


_Z125_F67_C = {
    1: [1, -1, 6, -6, 7, -7],
    2: [1, -1, 2, -2, 4, 20],
    4: [1, -1, 2, -2, 4, 11],
    6: [1, -1, 17, -17, 12, 29],
    8: [2, -2, 1, -1, 4, 32],
    10: [1, -1, 30, -30, 12, 35],
    12: [2, -2, 5, -5, 20, 4],
    14: [1, 43, 13, 19, 4, 46],
    16: [1, 5, 13, 16, 31, 36],
    18: [1, 3, 10, 44, 46, 33],
    20: [1, 53, 17, 50, 63, 21],
    22: [2, 37, 63, 4, 42, 9],
    24: [2, 6, 53, 1, 35, 12],
}


def lifting_z125xF67() -> LiftingData:
    fld = make_field(67)
    phi = [_norm(_Z125_F67_C[1], 67)]
    for i in range(2, 26, 2):
        row = _norm(_Z125_F67_C[i], 67)
        phi.append(row)
        phi.append(tuple((-x) % 67 for x in row))
    return LiftingData(z125_6_6(), fld, e=66, d=6, lam=1, phi=tuple(phi),
                       partition=tuple((i,) for i in range(25)), provenance="fdf_z125xF67")


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class _Entry:
    builder: Callable
    provenance: str
    lifting: bool = False

    @property
    def arity(self) -> int:
        return len(inspect.signature(self.builder).parameters)


_REGISTRY: dict[str, _Entry] = {
    "paley2": _Entry(paley2, "Paley difference multiset of the second type"),
    "paley3": _Entry(paley3, "Paley strong difference family of the third type"),
    "twinPrime": _Entry(twin_prime, "twin prime power difference multiset"),
    "singer": _Entry(singer, "Singer difference multiset"),
    "z7_8_8": _Entry(z7_8_8, "single-block (Z7,8,8) table"),
    "z63_8_8": _Entry(z63_8_8, "(Z63,8,8) table"),
    "z119_8_8": _Entry(z119_8_8, "(Z119,8,8) table"),
    "z125_6_6": _Entry(z125_6_6, "(Z125,6,6) table, 25 blocks"),
    "fdf_z7xF89": _Entry(lifting_z7xF89, "Z7 x GF(89) lifting datum", lifting=True),
    "fdf_z63xF25": _Entry(lifting_z63xF25, "Z63 x GF(25) lifting datum (printed zeros)",
                          lifting=True),
    "fdf_z119xF25": _Entry(lifting_z119xF25, "Z119 x GF(25) lifting datum", lifting=True),
    "fdf_z125xF67": _Entry(lifting_z125xF67, "Z125 x GF(67) lifting datum", lifting=True),
}


def catalog_names() -> list[str]:
    return sorted(_REGISTRY)


def entry_info(name: str) -> dict:
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog entry {name!r}")
    e = _REGISTRY[name]
    return {"name": name, "provenance": e.provenance,
            "kind": "lifting" if e.lifting else "sdf",
            "parametrized": e.arity > 0}


def lifting_datum(name: str) -> LiftingData:
    """The verbatim lifting datum for an fdf_* entry (no repair applied)."""
    e = _REGISTRY.get(name)
    if e is None or not e.lifting:
        raise KeyError(f"{name!r} is not a lifting-data entry")
    return e.builder()


def family(name: str, *params) -> DesignFamily:
    """Catalog family by name.  SDF entries return the family directly;
    fdf_* entries lift their datum and fail loudly if its conditions do not
    hold as printed (see search.repair_block for the recovery path)."""
    e = _REGISTRY.get(name)
    if e is None:
        raise KeyError(f"unknown catalog entry {name!r}")
    if len(params) != e.arity:
        raise CatalogDataError(f"catalog entry {name!r} takes {e.arity} parameter(s), "
                               f"got {len(params)}")
    if e.lifting:
        data = e.builder()
        report = check_lifting_conditions(data)
        if not report.ok:
            raise CatalogDataError(
                f"catalog entry {name!r} fails its lifting conditions as printed "
                f"({report.detail or 'see report'}); repair it explicitly with "
                "framedf.search.repair_block")
        return lift_sdf(data).with_provenance(name)
    try:
        fam = e.builder(*params)
    except ValueError as exc:       # e.g. an order that is not a prime power
        raise CatalogDataError(str(exc)) from exc
    return fam.with_provenance("%s(%s)" % (name, ",".join(map(str, params))) if params else name)
