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
from .families import (DesignFamily, DifferenceMatrix, FDF, PDF, SDF, Report,
                       _n_translates, is_homogeneous)

__all__ = [
    "LiftingData",
    "check_lifting_conditions",
    "in_orbit_normal_form",
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
        if not self.sdf.blocks:
            raise ValueError("lifting data needs an SDF with at least one block")
        k = len(self.sdf.blocks[0])
        if k < 2:
            raise ValueError(f"SDF block 0 has {k} point(s); lifting needs blocks of at least 2")
        if len(self.phi) != len(self.sdf.blocks):
            raise ValueError("phi rows must align with SDF blocks")
        if any(len(row) != k for row in self.phi):
            raise ValueError("each phi row must have block length")
        n = self.sdf.group.order
        for i, block in enumerate(self.sdf.blocks):
            if len(block) != k:
                raise ValueError(f"SDF block {i} has {len(block)} entries, block 0 has {k}")
            for a, x in enumerate(block):
                if not 0 <= x < n:
                    raise ValueError(f"SDF block {i} entry {a} = {x} lies outside 0..{n - 1}")
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


def _slot_multisets(data: LiftingData) -> dict[int, list[int]]:
    """M_h: the phi differences whose SDF differences equal h, over all blocks."""
    G = data.sdf.group
    fld = data.field
    slots: dict[int, list[int]] = {h: [] for h in range(G.order)}
    for frow, prow in zip(data.sdf.blocks, data.phi):
        f, v = np.asarray(frow, dtype=np.int64), np.asarray(prow, dtype=np.int64)
        off = ~np.eye(len(frow), dtype=bool)        # the pairs a != b, a-major
        for h, x in zip(G.sub(f[:, None], f)[off].tolist(),
                        fld.sub(v[:, None], v)[off].tolist()):
            slots[h].append(x)
    return slots


def in_orbit_normal_form(logs: Sequence[int], q1: int, e: int, d: int, lam: int) -> bool:
    """Are these the discrete logs of a multiset C_0^{e,q} * T of GF(q),
    q1 = q - 1, for a lam-transversal T of the d-classes?  See the module
    docstring.  The log -1 stands for 0, which fails."""
    orbit = q1 // e
    if len(logs) != lam * d * orbit or min(logs, default=0) < 0:
        return False
    dcounts = [0] * d
    for lg in logs:
        dcounts[lg % d] += 1
    if any(c != lam * orbit for c in dcounts):
        return False
    if orbit == 1:
        return True
    ecounts = [0] * e
    for lg in logs:
        ecounts[lg % e] += 1
    return all(c % orbit == 0 for c in ecounts)


def check_lifting_conditions(data: LiftingData) -> Report:
    """Both lifting conditions, choice-independently.

    cond1 at h: the difference multiset for slot h is C_0^{e,q} times a
    lam-transversal of the d-classes.  cond2 at a part: the phi values of
    the part's blocks form C_0^{e,q} times a representative system of the
    d-classes.  Zero phi entries fail first, with their (block, position)
    as witnesses so repair flows can target them; otherwise the witnesses
    are ("cond1", h) and ("cond2", part).
    """
    zeros = data.zero_positions()
    if zeros:
        return Report(False, f"zero phi entries at {zeros}", zeros)
    log, q1 = data.field._log.tolist(), data.field.q - 1
    bad1 = [h for h, elems in _slot_multisets(data).items()
            if not in_orbit_normal_form([log[x] for x in elems], q1, data.e, data.d, data.lam)]
    bad2 = [pi for pi, part in enumerate(data.partition)
            if not in_orbit_normal_form([log[v] for i in part for v in data.phi[i]],
                                        q1, data.e, data.d, 1)]
    if not bad1 and not bad2:
        return Report(True)
    return Report(False, f"cond1 fails at h={bad1[:8]}, cond2 fails at parts={bad2[:8]}",
                  [("cond1", h) for h in bad1] + [("cond2", pi) for pi in bad2])


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
    prod = AbelianGroup.product(G, AbelianGroup.of_field(fld))
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
    group = AbelianGroup.of_field(field)
    encs = np.arange(field.q, dtype=np.int64)
    rows = tuple(tuple(int(x) for x in field.mul(np.full(field.q, r, dtype=np.int64), encs))
                 for r in range(field.q))
    return DifferenceMatrix(group, rows)


def homogenize(dm: DifferenceMatrix) -> DifferenceMatrix:
    """Normalize (column operations zeroing row 0), then delete row 0.

    The result of a (G, k, 1) matrix has each row a permutation of the group.
    """
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
    blocks = (tuple(sorted(int(x) for x in fdf.subgroup)),) + \
        tuple(tuple(row.tolist()) for row in _n_translates(fdf))
    return DesignFamily(PDF, fdf.group, k - 1, blocks, subgroup=None,
                        provenance=(fdf.provenance + " -> PDF") if fdf.provenance else "PDF")
