"""Difference-family data model and verification.

Families hold base blocks as tuples of group-element encodings.  Blocks
are position-ordered internally even though families are multisets: the
verifiers ignore order, the lifting construction pairs positions.
Multiplicity bookkeeping is exact integer counting over encodings
(np.bincount), never hashing of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .groups import AbelianGroup

__all__ = [
    "DesignFamily",
    "relabel_family",
    "DifferenceMatrix",
    "delta_block",
    "delta_counts",
    "verify_sdf",
    "verify_relative_df",
    "verify_fdf",
    "verify_pdf",
    "verify_dm",
    "coset_labels",
]

SDF = "SDF"
RELATIVE_DF = "RelativeDF"
FDF = "FDF"
PDF = "PDF"


@dataclass(frozen=True)
class DesignFamily:
    kind: str
    group: AbelianGroup
    lam: int
    blocks: tuple[tuple[int, ...], ...]
    subgroup: Optional[tuple[int, ...]] = None   # sorted element encodings of N
    frame_partition: Optional[tuple[tuple[int, ...], ...]] = None  # parts of block indices
    provenance: str = ""

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]

    def with_provenance(self, text: str) -> "DesignFamily":
        return DesignFamily(self.kind, self.group, self.lam, self.blocks,
                            self.subgroup, self.frame_partition, text)


def relabel_family(fam: DesignFamily, iso) -> DesignFamily:
    """The image of a family under a group isomorphism (e.g. crt_iso onto
    the cyclic group): blocks and subgroup mapped elementwise, block order
    and frame partition kept."""
    blocks = tuple(tuple(int(iso.apply(x)) for x in b) for b in fam.blocks)
    sub = tuple(sorted(int(iso.apply(x)) for x in fam.subgroup)) if fam.subgroup else None
    return DesignFamily(fam.kind, iso.target, fam.lam, blocks, subgroup=sub,
                        frame_partition=fam.frame_partition,
                        provenance=fam.provenance + " (cyclic relabel)")


@dataclass(frozen=True)
class DifferenceMatrix:
    group: AbelianGroup
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) != 1:
            raise ValueError("ragged difference matrix")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])


def delta_block(group: AbelianGroup, elems: Sequence[int]) -> np.ndarray:
    """All k(k-1) ordered-pair differences x - y over distinct positions.

    Positions, not values: repeated elements each contribute (a block with
    two equal entries yields zeros).
    """
    elems = np.asarray(elems, dtype=np.int64)
    k = len(elems)
    if k < 2:
        raise ValueError("delta of a singleton block is empty")
    ai, bi = np.nonzero(~np.eye(k, dtype=bool))
    return group.sub(elems[ai], elems[bi])


def delta_counts(group: AbelianGroup, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Multiplicity of every group element in the full difference list.
    Singleton blocks contribute nothing (families with size-1 blocks occur
    among partitioned families)."""
    diffs = [delta_block(group, blk) for blk in blocks if len(blk) >= 2]
    if not diffs:
        return np.zeros(group.order, dtype=np.int64)
    return np.bincount(np.concatenate(diffs), minlength=group.order)


@dataclass(frozen=True)
class Report:
    ok: bool
    violations: tuple = ()
    detail: str = ""

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SdfReport(Report):
    mu: int = 0
    parity_ok: bool = True
    count_ok: bool = True


@dataclass(frozen=True)
class FdfReport(Report):
    partition_ok: bool = True


def verify_sdf(fam: DesignFamily) -> SdfReport:
    """Delta(S) must cover every group element (0 included) exactly mu times.

    Also checks the necessary conditions: mu even and mu|G| = 0 mod k(k-1).
    Mixed block sizes and block elements outside the group are reported,
    not raised; `detail` then names the first offender.
    """
    if fam.kind != SDF:
        raise ValueError("verify_sdf expects an SDF family")
    sizes = set(fam.block_sizes())
    if len(sizes) != 1:
        return SdfReport(False, detail="mixed block sizes %s" % sorted(sizes))
    error = _outside(_flat(fam.blocks), fam.group.order, "block element")
    if error:
        return SdfReport(False, detail=error, mu=fam.lam)
    k = sizes.pop()
    mu = fam.lam
    counts = delta_counts(fam.group, fam.blocks)
    bad = np.nonzero(counts != mu)[0]
    parity_ok = mu % 2 == 0
    count_ok = (mu * fam.group.order) % (k * (k - 1)) == 0
    violations = tuple((int(x), int(counts[x])) for x in bad[:32])
    ok = len(bad) == 0 and parity_ok and count_ok
    return SdfReport(ok, violations, mu=mu, parity_ok=parity_ok, count_ok=count_ok)


def _flat(seqs) -> np.ndarray:
    return np.fromiter(chain.from_iterable(seqs), dtype=np.int64)


def _outside(arr: np.ndarray, n: int, what: str) -> str:
    """Names the first entry of `arr` outside 0..n-1; "" when there is none."""
    bad = np.flatnonzero((arr < 0) | (arr >= n))
    return f"{what} {arr[bad[0]]} lies outside 0..{n - 1}" if len(bad) else ""


def _subgroup_error(group: AbelianGroup, subgroup: Sequence[int]) -> str:
    """Why the in-range elements `subgroup` are not a subgroup of `group`,
    naming the first offending element; "" when they are one (a nonempty
    finite set closed under the group law is a subgroup)."""
    sub = np.asarray(subgroup, dtype=np.int64)
    if len(sub) == 0:
        return "designated subgroup is empty"
    listed = np.bincount(sub, minlength=group.order)
    twice = np.flatnonzero(listed[sub] > 1)
    if len(twice):
        return f"subgroup element {sub[twice[0]]} is listed twice"
    table = group.add(sub[:, None], sub[None, :]).ravel()
    out = np.flatnonzero(listed[table] == 0)
    if len(out):
        a, b = divmod(int(out[0]), len(sub))
        return (f"designated subgroup is not closed: {sub[a]} + {sub[b]} = "
                f"{table[out[0]]} lies outside it")
    return ""


def _relative_input_error(fam: DesignFamily) -> str:
    """Why the subgroup or the block elements of a relative family are
    malformed, naming the first offending element; "" when well formed."""
    order = fam.group.order
    if fam.subgroup is None:
        return "relative family without subgroup"
    return (_outside(np.asarray(fam.subgroup, dtype=np.int64), order, "subgroup element")
            or _outside(_flat(fam.blocks), order, "block element")
            or _subgroup_error(fam.group, fam.subgroup))


def verify_relative_df(fam: DesignFamily) -> Report:
    """Delta(B) = lambda * (G \\ N): exact multiplicity lambda off N, zero on N.

    A missing, out-of-range or non-closed subgroup, or a block element
    outside the group, fails the report; only then is `detail` set, naming
    the first offending element."""
    if fam.kind not in (RELATIVE_DF, FDF):
        raise ValueError("verify_relative_df expects a relative DF or FDF")
    error = _relative_input_error(fam)
    if error:
        return Report(False, detail=error)
    group = fam.group
    nmask = np.zeros(group.order, dtype=bool)
    nmask[np.asarray(fam.subgroup, dtype=np.int64)] = True
    counts = delta_counts(group, fam.blocks) if fam.blocks else np.zeros(group.order, dtype=np.int64)
    want = np.where(nmask, 0, fam.lam)
    bad = np.nonzero(counts != want)[0]
    violations = tuple((int(x), int(counts[x])) for x in bad[:32])
    return Report(len(bad) == 0, violations)


def _partition_error(partition, nblocks: int) -> str:
    """Why a frame partition does not cover the block indices 0..nblocks-1
    exactly once, naming the first offending index; "" when it does."""
    idx = _flat(partition)
    error = _outside(idx, nblocks, "frame partition block index")
    if error:
        return error
    counts = np.bincount(idx, minlength=nblocks)
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        return (f"block index {bad[0]} appears {counts[bad[0]]} times in the frame "
                "partition, not once")
    return ""


def coset_labels(group: AbelianGroup, subgroup: Sequence[int]) -> np.ndarray:
    """label[x] = a canonical member of x + N, constant exactly on cosets.

    When N is a digit slice (each mixed-radix leaf either free or pinned to
    zero across N, as with the N x H subgroups of lifted and composed
    families), the label zeroes the free digits in O(order).  Otherwise the
    minimal element of each coset is found by chunked translation.
    """
    sub = np.asarray(subgroup, dtype=np.int64)
    digits = group._digits(sub)
    free = []
    is_slice = True
    for j, r in enumerate(group._radices):
        col = np.unique(digits[:, j])
        if len(col) == r:
            free.append(j)
        elif not (len(col) == 1 and col[0] == 0):
            is_slice = False
            break
    if is_slice and math.prod(group._radices[j] for j in free) == len(sub):
        alldig = group._digits(np.arange(group.order, dtype=np.int64))
        alldig[:, free] = 0
        return group._undigits(alldig)
    labels = np.empty(group.order, dtype=np.int64)
    chunk = max(1, 16_000_000 // max(1, len(sub)))
    for lo in range(0, group.order, chunk):
        rows = np.arange(lo, min(lo + chunk, group.order), dtype=np.int64)
        labels[lo:lo + chunk] = group.add(rows[:, None], sub[None, :]).min(axis=1)
    return labels


def verify_fdf(fam: DesignFamily) -> FdfReport:
    """Relative-DF check plus the frame property: the partition must have
    lambda*n/(k-1) parts of (g-n)/(nk) blocks each, and each part's blocks
    jointly meet every nontrivial coset of N exactly once."""
    if fam.kind != FDF:
        raise ValueError("verify_fdf expects an FDF family")
    if fam.frame_partition is None:
        return FdfReport(False, partition_ok=False, detail="missing frame partition")
    base = verify_relative_df(fam)
    error = base.detail or _partition_error(fam.frame_partition, len(fam.blocks))
    if error:
        return FdfReport(False, partition_ok=False, detail=error)
    g = fam.group.order
    n = len(fam.subgroup)
    k = len(fam.blocks[0]) if fam.blocks else 0
    expected_parts = fam.lam * n // (k - 1) if k > 1 else 0
    expected_size = (g - n) // (n * k) if n * k else 0
    partition_ok = len(fam.frame_partition) == expected_parts and all(
        len(p) == expected_size for p in fam.frame_partition
    )
    labels = coset_labels(fam.group, fam.subgroup)
    # labels[0] is the coset of 0, i.e. N itself
    nontrivial = np.setdiff1d(np.unique(labels), [labels[0]])
    for part in fam.frame_partition:
        elems = np.concatenate([np.asarray(fam.blocks[i], dtype=np.int64) for i in part]) \
            if part else np.array([], dtype=np.int64)
        got = np.sort(labels[elems])
        if len(got) != len(nontrivial) or not np.array_equal(got, nontrivial):
            partition_ok = False
            break
    ok = base.ok and partition_ok
    return FdfReport(ok, base.violations, partition_ok=partition_ok)


def verify_pdf(fam: DesignFamily) -> Report:
    """Blocks must partition G (or G \\ N when a subgroup is designated) exactly,
    with the delta condition at index lambda.  A subgroup or block element
    outside the group fails the report, and `detail` names it."""
    if fam.kind != PDF:
        raise ValueError("verify_pdf expects a PDF family")
    group = fam.group
    sub = fam.subgroup or ()
    everything = _flat(fam.blocks)
    error = (_outside(np.asarray(sub, dtype=np.int64), group.order, "subgroup element")
             or _outside(everything, group.order, "block element"))
    if error:
        return Report(False, detail=error)
    counts = np.bincount(everything, minlength=group.order)
    want = np.ones(group.order, dtype=np.int64)
    if sub:
        want[np.asarray(sub, dtype=np.int64)] = 0
    if not np.array_equal(counts, want):
        return Report(False, detail="blocks do not partition the point set")
    dcounts = delta_counts(group, fam.blocks)
    nmask = np.zeros(group.order, dtype=bool)
    nmask[0] = True
    if sub:
        nmask[np.asarray(sub, dtype=np.int64)] = True
    wantd = np.where(nmask, 0, fam.lam)
    bad = np.nonzero(dcounts != wantd)[0]
    return Report(len(bad) == 0, tuple((int(x), int(dcounts[x])) for x in bad[:32]))


def verify_dm(dm: DifferenceMatrix, lam: Optional[int] = None) -> Report:
    """Every row pair's entrywise difference list must cover each group
    element exactly lam times (inferred from the column count when not
    given); reports homogeneity (each row a permutation)."""
    group = dm.group
    if lam is None:
        if dm.ncols % group.order:
            return Report(False, detail="column count is not a multiple of |H|")
        lam = dm.ncols // group.order
    rows = [np.asarray(r, dtype=np.int64) for r in dm.rows]
    ok = True
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            diffs = group.sub(rows[i], rows[j])
            counts = np.bincount(diffs, minlength=group.order)
            if not np.all(counts == lam):
                ok = False
    homogeneous = lam == 1 and all(
        len(np.unique(r)) == group.order and len(r) == group.order for r in rows
    )
    return Report(ok, detail="homogeneous" if homogeneous else "")


def is_homogeneous(dm: DifferenceMatrix) -> bool:
    rep = verify_dm(dm, 1)
    return rep.ok and rep.detail == "homogeneous"
