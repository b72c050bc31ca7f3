"""Built-in catalog of strong difference families and lifting data.

Printed tables are stated once, as printed, and each kind is expanded by
one rule.  An SDF table gives its first row once and each later row
`copies` times, residues mod n.  A lifting table gives its first row once
and each later row followed by its copies times a fixed list of
multipliers, one part per block; its GF(25) rows are exponents of the
field's generator w.  The z63xF25 lifting datum contains two second
coordinates equal to zero (and their scaled copies), so its conditions
fail as printed: family() refuses to lift it and points at
search.repair_block.  Nothing in here silently alters ingested values.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from .fields import FiniteField, field_of_order, make_field
from .groups import AbelianGroup
from .families import SDF, DesignFamily
from .lifting import LiftingData, lift_sdf

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
    block = tuple(sorted(([0] + _squares(fld)) * 2))
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
        # absolute trace to GF(p): Tr(w^i) is the sum of the Frobenius images w^(i p^j)
        tr = 0
        for j in range(m):
            tr = fld.add(tr, fld.pow_generator(i * p**j))
        if tr == 0:
            hyper.add(i % v)
    ds = sorted(hyper)
    if len(ds) != (p ** (m - 1) - 1) // (p - 1):
        raise CatalogDataError("trace hyperplane did not give a Singer difference set")
    comp = sorted(set(range(v)) - set(ds))
    block = tuple(sorted(comp * p))
    return DesignFamily(SDF, group, p**m * (p - 1), (block,),
                        provenance="singer(%d,%d)" % (p, m))


# ---------------------------------------------------------------------------
# Verbatim SDF tables


def _sdf_table(name: str, n: int, lam: int, rows, copies: int) -> DesignFamily:
    blocks = [tuple(x % n for x in rows[0])]
    for row in rows[1:]:
        blocks += [tuple(x % n for x in row)] * copies
    return DesignFamily(SDF, AbelianGroup.cyclic(n), lam, tuple(blocks), provenance=name)


def z7_8_8() -> DesignFamily:
    return _sdf_table("z7_8_8", 7, 8, [[0, 0, 1, 1, 2, 2, 4, 4]], 0)


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

# the rows of blocks 1, 2, 4, ..., 24
_Z125_ROWS = [
    [0, 0, 19, 19, 71, 71],
    [0, 10, 28, 51, 78, 97],
    [0, 3, 62, 75, 86, 110],
    [0, 5, 12, 58, 70, 112],
    [0, 7, 27, 44, 70, 96],
    [0, 1, 42, 93, 85, 45],
    [0, 1, 100, 104, 109, 88],
    [0, 1, 90, 81, 21, 32],
    [0, 3, 16, 40, 46, 50],
    [0, 2, 7, 29, 35, 68],
    [0, 2, 8, 57, 102, 116],
    [0, 2, 22, 32, 36, 96],
    [0, 8, 23, 38, 72, 86],
]


def z63_8_8() -> DesignFamily:
    return _sdf_table("z63_8_8", 63, 8, _Z63_ROWS, 4)


def z119_8_8() -> DesignFamily:
    return _sdf_table("z119_8_8", 119, 8, _Z119_ROWS, 4)


def z125_6_6() -> DesignFamily:
    return _sdf_table("z125_6_6", 125, 6, _Z125_ROWS, 2)


# ---------------------------------------------------------------------------
# Verbatim lifting data


def _lifting_table(name: str, sdf: DesignFamily, fld: FiniteField, e: int, d: int, rows,
                   multipliers=()) -> LiftingData:
    phi = [rows[0]]
    for row in rows[1:]:
        phi += [row] + [tuple(int(fld.mul(v, m)) for v in row) for m in multipliers]
    return LiftingData(sdf, fld, e=e, d=d, lam=1, phi=tuple(phi),
                       partition=tuple((i,) for i in range(len(phi))), provenance=name)


def _powers(fld: FiniteField, logs) -> tuple[int, ...]:
    """The encodings of w^i for the exponents i, None standing for 0."""
    return tuple(0 if i is None else fld.pow_generator(i) for i in logs)


def lifting_z7xF89() -> LiftingData:
    """Unique base block over Z7 zipped with eight nonzero residues of GF(89)."""
    return _lifting_table("fdf_z7xF89", z7_8_8(), make_field(89), 88, 8,
                          [(1, 20, 14, 58, 18, 61, 26, 73)])


# GF(25) rows as exponents of its generator w, None for a printed 0; every
# later row is followed by its copies times w^12, w^6, w^18 = -1, xi, -xi
_F25_ROW1 = (0, 12, 6, 18, 1, 13, 7, 19)
_F25_MULTIPLIERS = (12, 6, 18)

# the rows of blocks 1, 2 and 6
_Z63_F25_LOGS = [_F25_ROW1, (None, 2, 18, 13, 4, 9, 6, 0), (None, 9, 13, 18, 4, 6, 2, 0)]

# the rows of blocks 1, 2, 6, 10 and 14
_Z119_F25_LOGS = [
    _F25_ROW1,
    (1, 7, 0, 6, 18, 13, 12, 19),
    (0, 12, 1, 18, 13, 7, 6, 19),
    (1, 7, 12, 6, 19, 18, 0, 13),
    (1, 4, 10, 7, 22, 19, 16, 13),
]


def _f25_table(name: str, sdf: DesignFamily, logs) -> LiftingData:
    fld = field_of_order(25)
    return _lifting_table(name, sdf, fld, 6, 2, [_powers(fld, row) for row in logs],
                          _powers(fld, _F25_MULTIPLIERS))


def lifting_z63xF25() -> LiftingData:
    """Verbatim z63 x GF(25) data; note the zero second coordinates in the
    rows for the second and sixth base blocks (and their scaled copies)."""
    return _f25_table("fdf_z63xF25", z63_8_8(), _Z63_F25_LOGS)


def lifting_z119xF25() -> LiftingData:
    return _f25_table("fdf_z119xF25", z119_8_8(), _Z119_F25_LOGS)


# the rows of blocks 1, 2, 4, ..., 24; every later row is followed by its negative
_Z125_F67_ROWS = [
    [1, -1, 6, -6, 7, -7],
    [1, -1, 2, -2, 4, 20],
    [1, -1, 2, -2, 4, 11],
    [1, -1, 17, -17, 12, 29],
    [2, -2, 1, -1, 4, 32],
    [1, -1, 30, -30, 12, 35],
    [2, -2, 5, -5, 20, 4],
    [1, 43, 13, 19, 4, 46],
    [1, 5, 13, 16, 31, 36],
    [1, 3, 10, 44, 46, 33],
    [1, 53, 17, 50, 63, 21],
    [2, 37, 63, 4, 42, 9],
    [2, 6, 53, 1, 35, 12],
]


def lifting_z125xF67() -> LiftingData:
    fld = make_field(67)
    return _lifting_table("fdf_z125xF67", z125_6_6(), fld, 66, 6,
                          [tuple(x % 67 for x in row) for row in _Z125_F67_ROWS],
                          (fld.neg(1),))


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
    try:
        return lift_sdf(e.builder()) if e.lifting else e.builder(*params)
    except ValueError as exc:       # conditions that fail, an order that is not a prime power
        if e.lifting:
            raise CatalogDataError(
                f"catalog entry {name!r} fails its lifting conditions as printed ({exc}); "
                "repair it explicitly with framedf.search.repair_block") from exc
        raise CatalogDataError(str(exc)) from exc
