"""Lifting strong difference families over finite fields into frame
difference families, plus the difference-matrix recursion and the
partitioned-family construction.

The testable normal form of the two lifting conditions: a multiset M of
nonzero field elements equals C_0^{e,q} * T for a lam-transversal T of the
d-classes iff (a) within every cyclotomic e-class the multiplicity of M is
a multiple of (q-1)/e, and (b) every d-class receives exactly
lam*(q-1)/e elements in total.  (a) makes M a union of full e-class
orbits with multiplicities, (b) makes the orbit representatives a
lam-transversal; both are primitive-element independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FiniteField
from .groups import AbelianGroup
from .families import (DesignFamily, DifferenceMatrix, FDF, PDF, SDF,
                       is_homogeneous)

__all__ = [
    "LiftingData",
    "LiftReport",
    "check_lifting_conditions",
    "d_set",
    "lift_sdf",
    "mul_table_dm",
    "homogenize",
    "compose_fdf_dm",
    "fdf_to_pdf",
]


@dataclass(frozen=True)
class LiftingData:
    """An SDF over G, a field GF(q), class parameters e | q-1 and d | e, one
    ordered tuple of field encodings 0..q-1 per SDF block (positionally
    aligned; a valid datum has them all nonzero), and a partition of block
    indices into parts of size t = d(q-1)/(ek)."""

    sdf: DesignFamily
    field: FiniteField
    e: int
    d: int
    lam: int
    phi: tuple[tuple[int, ...], ...]
    partition: tuple[tuple[int, ...], ...]
    provenance: str = ""

    def __post_init__(self):
        if self.sdf.kind != SDF:
            raise ValueError("lifting data requires an SDF")
        q = self.field.q
        if (q - 1) % self.e or self.e % self.d:
            raise ValueError("need d | e and e | q-1")
        k = len(self.sdf.blocks[0])
        if len(self.phi) != len(self.sdf.blocks):
            raise ValueError("phi rows must align with SDF blocks")
        if any(len(row) != k for row in self.phi):
            raise ValueError("each phi row must have block length")
        for i, row in enumerate(self.phi):
            for a, v in enumerate(row):
                if not 0 <= v < q:
                    raise ValueError(f"phi entry ({i}, {a}) = {v} lies outside 0..{q - 1}")
        if (self.d * (q - 1)) % (self.e * k):
            raise ValueError("d(q-1) must be divisible by ek")
        if (self.lam * self.sdf.group.order) % (k - 1):
            raise ValueError("lambda|G| must be divisible by k-1")
        idx = sorted(i for p in self.partition for i in p)
        if idx != list(range(len(self.phi))):
            raise ValueError("partition must cover block indices exactly once")
        mu = self.lam * k * self.t
        if self.sdf.lam != mu:
            raise ValueError(f"SDF index {self.sdf.lam} != k*t*lambda = {mu}")

    @property
    def k(self) -> int:
        return len(self.sdf.blocks[0])

    @property
    def t(self) -> int:
        return self.d * (self.field.q - 1) // (self.e * self.k)

    def zero_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, a) for i, row in enumerate(self.phi)
                     for a, v in enumerate(row) if v == 0)

    def replace_phi(self, phi) -> "LiftingData":
        return LiftingData(self.sdf, self.field, self.e, self.d, self.lam,
                           tuple(tuple(int(v) for v in row) for row in phi),
                           self.partition, self.provenance)


@dataclass(frozen=True)
class LiftReport:
    ok: bool
    cond1: dict
    cond2: dict
    zero_positions: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.ok


def _slot_multisets(data: LiftingData) -> dict[int, list[int]]:
    """M_h: the phi differences whose SDF differences equal h, over all blocks."""
    G = data.sdf.group
    fld = data.field
    slots: dict[int, list[int]] = {h: [] for h in range(G.order)}
    for frow, prow in zip(data.sdf.blocks, data.phi):
        k = len(frow)
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                h = int(G.sub(frow[a], frow[b]))
                slots[h].append(int(fld.sub(prow[a], prow[b])))
    return slots


def _orbit_normal_form_ok(fld: FiniteField, elems: Sequence[int], e: int, d: int,
                          lam: int) -> bool:
    """elems == C_0^{e,q} * (lam-transversal of d-classes)?  See module docstring."""
    per_orbit = (fld.q - 1) // e
    if len(elems) != lam * d * per_orbit:
        return False
    arr = np.asarray(elems, dtype=np.int64)
    if np.any(arr == 0):
        return False
    logs = fld._log[arr]
    ecounts = np.bincount(logs % e, minlength=e)
    if np.any(ecounts % per_orbit):
        return False
    dcounts = np.bincount(logs % d, minlength=d)
    return bool(np.all(dcounts == lam * per_orbit))


def check_lifting_conditions(data: LiftingData) -> LiftReport:
    """Both lifting conditions, choice-independently.

    cond1[h]: the difference multiset for slot h is C_0^{e,q} times a
    lam-transversal of the d-classes.  cond2[part]: the phi values of the
    part's blocks form C_0^{e,q} times a representative system of the
    d-classes.  Zero phi entries are reported with their block/position so
    repair flows can target them.
    """
    fld = data.field
    zeros = data.zero_positions()
    slots = _slot_multisets(data)
    cond1 = {}
    for h, elems in slots.items():
        cond1[h] = _orbit_normal_form_ok(fld, elems, data.e, data.d, data.lam)
    cond2 = {}
    for pi, part in enumerate(data.partition):
        vals = [v for i in part for v in data.phi[i]]
        cond2[pi] = _orbit_normal_form_ok(fld, vals, data.e, data.d, 1)
    ok = not zeros and all(cond1.values()) and all(cond2.values())
    detail = ""
    if zeros:
        detail = f"zero phi entries at {zeros}"
    elif not ok:
        bad1 = [h for h, v in cond1.items() if not v]
        bad2 = [p for p, v in cond2.items() if not v]
        detail = f"cond1 fails at h={bad1[:8]}, cond2 fails at parts={bad2[:8]}"
    return LiftReport(ok, cond1, cond2, zeros, detail)


def d_set(data: LiftingData, h: int) -> tuple[int, ...]:
    """A canonical transversal witness D_h: minimal encoding of each occupied
    e-class orbit in slot h, with orbit multiplicity.  With e = q-1 this is
    just the difference multiset itself."""
    fld = data.field
    elems = _slot_multisets(data)[int(h)]
    per_orbit = (fld.q - 1) // data.e
    arr = np.asarray(elems, dtype=np.int64)
    logs = fld._log[arr]
    reps: dict[int, list[int]] = {}
    for enc, lg in zip(arr, logs):
        reps.setdefault(int(lg) % data.e, []).append(int(enc))
    out = []
    for cls, members in reps.items():
        mult, rem = divmod(len(members), per_orbit)
        if rem:
            raise ValueError(f"slot {h} is not orbit-closed; no transversal witness")
        orbit_members = fld._exp[(cls + data.e * np.arange(per_orbit)) % (fld.q - 1)]
        out.extend([int(orbit_members.min())] * mult)
    return tuple(sorted(out))


def canonical_reps(data: LiftingData) -> np.ndarray:
    """S: the fixed representative system gen^(d*j), j < e/d, for the cosets
    of C_0^{e,q} in C_0^{d,q}."""
    fld = data.field
    return np.array([fld.pow_generator(data.d * j) for j in range(data.e // data.d)],
                    dtype=np.int64)


def lift_sdf(data: LiftingData) -> DesignFamily:
    """Assemble the frame difference family over G x F_q^+ relative to G x {0}.

    Blocks are B_i * (1, s) for each SDF block index i and each s in the
    canonical S, ordered (i asc, s asc); the frame partition groups all
    blocks whose i lies in the same part.
    """
    report = check_lifting_conditions(data)
    if not report.ok:
        raise ValueError(f"lifting conditions fail: {report.detail}")
    G = data.sdf.group
    fld = data.field
    prod = AbelianGroup.product(G, AbelianGroup.additive(fld) if fld.m > 1
                                else AbelianGroup.cyclic(fld.q))
    S = canonical_reps(data)
    blocks = []
    for frow, prow in zip(data.sdf.blocks, data.phi):
        prow_arr = np.asarray(prow, dtype=np.int64)
        for s in S:
            second = fld.mul(prow_arr, int(s))
            blocks.append(tuple(int(prod.pack(f, v)) for f, v in zip(frow, second)))
    ns = len(S)
    partition = tuple(tuple(i * ns + j for i in part for j in range(ns))
                      for part in data.partition)
    subgroup = tuple(int(x) for x in prod.factor_slice_subgroup(0))
    return DesignFamily(FDF, prod, data.lam, tuple(blocks), subgroup=subgroup,
                        frame_partition=partition,
                        provenance=data.provenance or "lifted")


def mul_table_dm(field: FiniteField) -> DifferenceMatrix:
    """The q x q multiplication table: an (F_q^+, q, 1) difference matrix."""
    group = AbelianGroup.additive(field) if field.m > 1 else AbelianGroup.cyclic(field.q)
    encs = np.arange(field.q, dtype=np.int64)
    rows = tuple(tuple(int(x) for x in field.mul(np.full(field.q, r, dtype=np.int64), encs))
                 for r in range(field.q))
    return DifferenceMatrix(group, rows)


def homogenize(dm: DifferenceMatrix, lam: int = 1) -> DifferenceMatrix:
    """Normalize (column operations zeroing row 0), then delete row 0.

    Requires lam = 1; the result has each row a permutation of the group.
    """
    if lam != 1:
        raise ValueError("homogenization needs lambda = 1")
    group = dm.group
    row0 = np.asarray(dm.rows[0], dtype=np.int64)
    rows = tuple(tuple(int(x) for x in group.sub(np.asarray(r, dtype=np.int64), row0))
                 for r in dm.rows[1:])
    out = DifferenceMatrix(group, rows)
    if not is_homogeneous(out):
        raise ValueError("normalization did not produce a homogeneous matrix")
    return out


def compose_fdf_dm(fdf: DesignFamily, dm: DifferenceMatrix) -> DesignFamily:
    """Difference-matrix recursion: a (G,N,k,1)-FDF and a homogeneous (H,>=k,1)-DM
    give a (G x H, N x H, k, 1)-FDF.  Extra DM rows are truncated to k."""
    if fdf.kind != FDF or fdf.lam != 1:
        raise ValueError("recursion needs a (G,N,k,1)-FDF")
    k = len(fdf.blocks[0])
    if dm.k < k:
        raise ValueError(f"difference matrix needs at least {k} rows")
    rows = dm.rows[:k]
    if not is_homogeneous(DifferenceMatrix(dm.group, rows)):
        raise ValueError("difference matrix (truncated) is not homogeneous")
    H = dm.group
    prod = AbelianGroup.product(fdf.group, H)
    blocks = []
    ncols = dm.ncols
    for blk in fdf.blocks:
        for j in range(ncols):
            blocks.append(tuple(int(prod.pack(b, rows[a][j])) for a, b in enumerate(blk)))
    # a block's coset pattern does not depend on the column, so taking one
    # column of every block of an original frame class again covers each
    # nontrivial coset of N x H exactly once
    partition = None
    if fdf.frame_partition is not None:
        partition = tuple(tuple(i * ncols + j for i in part)
                          for part in fdf.frame_partition for j in range(ncols))
    sub = np.asarray(fdf.subgroup, dtype=np.int64)
    hs = np.arange(H.order, dtype=np.int64)
    subgroup = tuple(int(prod.pack(int(n), int(h))) for n in sub for h in hs)
    return DesignFamily(FDF, prod, 1, tuple(blocks), subgroup=tuple(sorted(subgroup)),
                        frame_partition=partition,
                        provenance=(fdf.provenance + " (x) DM") if fdf.provenance else "DM recursion")


def fdf_to_pdf(fdf: DesignFamily) -> DesignFamily:
    """Partitioned family from an elementary FDF with |N| = k-1: the blocks
    are every N-translate of every base block, plus N itself; the result is
    a (G, [(k-1)^1 k^s], k-1) partitioned difference family."""
    if fdf.kind != FDF:
        raise ValueError("input must be an FDF")
    k = len(fdf.blocks[0])
    n = len(fdf.subgroup)
    if fdf.lam * n != k - 1:
        raise ValueError("FDF is not elementary")
    if n != k - 1:
        raise ValueError("construction needs |N| = k-1")
    G = fdf.group
    sub = np.asarray(fdf.subgroup, dtype=np.int64)
    translated = []
    for blk in fdf.blocks:
        arr = np.asarray(blk, dtype=np.int64)
        for h in sub:
            translated.append(tuple(int(x) for x in np.sort(G.add(arr, int(h)))))
    translated.sort(key=lambda b: b[0])
    blocks = (tuple(int(x) for x in np.sort(sub)),) + tuple(translated)
    return DesignFamily(PDF, G, k - 1, blocks, subgroup=None,
                        provenance=(fdf.provenance + " -> PDF") if fdf.provenance else "PDF")
