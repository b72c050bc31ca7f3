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
from itertools import chain, combinations
from typing import Optional, Sequence

import numpy as np

from .groups import AbelianGroup

__all__ = [
    "Report",
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


def relabel_family(fam: DesignFamily, iso) -> DesignFamily:
    """The image of a family under a group isomorphism (e.g. crt_iso onto
    the cyclic group): blocks and subgroup mapped elementwise, block order
    and frame partition kept.  An element outside the source group raises
    ValueError, naming it."""
    error = _outside(_flat((*fam.blocks, fam.subgroup or ())), fam.group.order, "element")
    if error:
        raise ValueError(error[0])
    blocks = tuple(tuple(int(iso.apply(x)) for x in b) for b in fam.blocks)
    sub = tuple(sorted(int(iso.apply(x)) for x in fam.subgroup)) if fam.subgroup else None
    return DesignFamily(fam.kind, iso.target, fam.lam, blocks, subgroup=sub,
                        frame_partition=fam.frame_partition,
                        provenance=fam.provenance + " (cyclic relabel)")


def _n_translates(fam: DesignFamily) -> list[np.ndarray]:
    """Every translate B + h, h in N, of every base block B of a frame, each
    sorted, in ascending order of least element (ties in block order, then
    subgroup order): the parts that fdf_to_pdf and fhs_from_elementary_fdf
    read beside N."""
    G, sub = fam.group, np.asarray(fam.subgroup, dtype=np.int64)
    parts = [row for blk in fam.blocks
             for row in np.sort(G.add(np.asarray(blk, dtype=np.int64), sub[:, None]), axis=1)]
    parts.sort(key=lambda a: int(a[0]))
    return parts


@dataclass(frozen=True)
class DifferenceMatrix:
    group: AbelianGroup
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("difference matrix has no rows")
        if len({len(r) for r in self.rows}) != 1:
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
    if len(elems) < 2:
        raise ValueError("delta of a singleton block is empty")
    return _row_differences(group, elems[None, :])


def _row_differences(group: AbelianGroup, rows: np.ndarray) -> np.ndarray:
    """delta_block of each row of the (blocks, k) array `rows`, k >= 2, in
    row order, as one flat array made by one group.sub call."""
    ai, bi = np.nonzero(~np.eye(rows.shape[1], dtype=bool))
    return group.sub(rows[:, ai], rows[:, bi]).ravel()


def delta_counts(group: AbelianGroup, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Multiplicity of every group element in the full difference list.
    The blocks of each length are stacked and differenced together
    (_row_differences), then all differences are counted by one bincount.
    Singleton blocks contribute nothing (families with size-1 blocks occur
    among partitioned families)."""
    by_length: dict[int, list] = {}
    for blk in blocks:
        if len(blk) >= 2:
            by_length.setdefault(len(blk), []).append(blk)
    diffs = [_row_differences(group, np.array(rows, dtype=np.int64))
             for rows in by_length.values()]
    if not diffs:
        return np.zeros(group.order, dtype=np.int64)
    return np.bincount(np.concatenate(diffs), minlength=group.order)


WITNESSES = 32

# sums per step of _subgroup_error's closure scan: |N| <= 128 takes one step
_CLOSURE_CELLS = 1 << 14


@dataclass(frozen=True)
class Report:
    """What a verifier found.  `detail` is "" exactly when `ok`; a failing
    `detail` names the first offender, and `witnesses` holds up to
    WITNESSES offenders in the order `detail` names them."""
    ok: bool
    detail: str = ""
    witnesses: tuple = ()

    def __post_init__(self):
        witnesses = tuple(self.witnesses)[:WITNESSES]
        if self.ok == bool(self.detail) or self.ok == bool(witnesses):
            raise ValueError("a report has a detail and witnesses exactly when it fails")
        object.__setattr__(self, "witnesses", witnesses)

    def __bool__(self):
        return self.ok


def verify_sdf(fam: DesignFamily) -> Report:
    """Delta(S) must cover every group element (0 included) exactly lam times.

    Block sizes and elements are checked first, then the necessary
    conditions lam even, lam|G| = 0 mod k(k-1) and b*k(k-1) = lam|G| for b
    blocks, then the counts.
    """
    if fam.kind != SDF:
        raise ValueError("verify_sdf expects an SDF family")
    k = len(fam.blocks[0]) if fam.blocks else 0
    odd = [i for i, blk in enumerate(fam.blocks) if len(blk) != k]
    if odd:
        return Report(False, f"block {odd[0]} does not have the {k} elements of block 0", odd)
    error = _outside(_flat(fam.blocks), fam.group.order, "block element")
    if error:
        return Report(False, *error)
    if k < 2:
        return Report(False, f"block size {k} < 2 covers no differences", [("k", k)])
    lam, lam_g = fam.lam, fam.lam * fam.group.order
    if lam % 2:
        return Report(False, f"lam = {lam} is odd", [("lam", lam)])
    if lam_g % (k * (k - 1)):
        return Report(False, f"lam|G| = {lam_g} is not divisible by k(k-1) = {k * (k - 1)}",
                      [("lam", lam)])
    error = _total_error(len(fam.blocks) * k * (k - 1), lam_g, "differences", "lam|G|")
    if error:
        return Report(False, *error)
    return _count_report(delta_counts(fam.group, fam.blocks), lam, "difference")


def _count_report(counts: np.ndarray, want, what: str) -> Report:
    """Passes when `counts` equals `want` (an array or a scalar) everywhere;
    otherwise names the first element whose count is off, with
    (element, count) witnesses."""
    want = np.broadcast_to(want, counts.shape)
    bad = np.flatnonzero(counts != want)[:WITNESSES]
    if not len(bad):
        return Report(True)
    x = bad[0]
    return Report(False, f"{what} {x} occurs {counts[x]} times, not {want[x]}",
                  [(int(y), int(counts[y])) for y in bad])


def _flat(seqs) -> np.ndarray:
    return np.fromiter(chain.from_iterable(seqs), dtype=np.int64)


# The input checks below return a failure as a (detail, witnesses) pair,
# and () when there is none, so that they chain with `or`.

def _outside(arr: np.ndarray, n: int, what: str) -> tuple:
    """The entries of `arr` outside 0..n-1, naming the first."""
    bad = arr[(arr < 0) | (arr >= n)][:WITNESSES]
    return (f"{what} {bad[0]} lies outside 0..{n - 1}", bad.tolist()) if len(bad) else ()


def _total_error(have: int, want: int, what: str, formula: str) -> tuple:
    """The blocks' `have` differences or points against the `want`, that is
    `formula`, of a valid family: an identity on the input alone, checked
    before any array sized by |G|, so that a family on a huge group fails
    at once."""
    return (f"the blocks hold {have} {what}, not {formula} = {want}",
            [(what, have), (formula, want)]) if have != want else ()


def _digit_slice(group: AbelianGroup, sub: np.ndarray) -> Optional[list[int]]:
    """The mixed-radix leaves that the in-range elements `sub` leave free,
    when `sub` is a digit slice: each leaf takes all of its values across
    `sub` or is 0 throughout, and the free leaves' radices multiply to
    |sub|.  Then distinct elements are exactly the elements that are 0 on
    the other leaves, a subgroup (the N x H subgroups of lifted and
    composed families).  Otherwise None."""
    digits = group._digits(sub)
    free = []
    for j, r in enumerate(group._radices):
        col = np.unique(digits[:, j])
        if len(col) == r:
            free.append(j)
        elif len(col) != 1 or col[0]:
            return None
    return free if math.prod(group._radices[j] for j in free) == len(sub) else None


def _subgroup_error(group: AbelianGroup, subgroup: Sequence[int]) -> tuple:
    """Why the in-range elements `subgroup` are not a subgroup of `group`,
    naming the first offending element (a nonempty finite set closed under
    the group law is a subgroup).  Distinct elements that form a digit
    slice (_digit_slice) are a subgroup without further work; any other
    set has its addition table scanned in chunks of about _CLOSURE_CELLS
    sums, row by row; witnesses are (a, b, a + b) in row-major order.
    Nothing it holds is sized by |G|."""
    sub = np.asarray(subgroup, dtype=np.int64)
    if len(sub) == 0:
        return "designated subgroup is empty", [("subgroup", ())]
    members, at, listed = np.unique(sub, return_inverse=True, return_counts=True)
    twice = sub[listed[at] > 1]
    if len(twice):
        return f"subgroup element {twice[0]} is listed twice", twice.tolist()
    if _digit_slice(group, sub) is not None:
        return ()
    sums: list[tuple[int, int, int]] = []
    step = max(1, _CLOSURE_CELLS // len(sub))
    for lo in range(0, len(sub), step):
        table = group.add(sub[lo:lo + step, None], sub[None, :])
        rows, cols = np.nonzero(np.isin(table, members, invert=True))
        rows, cols = rows[:WITNESSES - len(sums)], cols[:WITNESSES - len(sums)]
        sums += zip(sub[lo + rows].tolist(), sub[cols].tolist(), table[rows, cols].tolist())
        if len(sums) == WITNESSES:
            break
    if sums:
        a, b, c = sums[0]
        return f"designated subgroup is not closed: {a} + {b} = {c} lies outside it", sums
    return ()


def _relative_input_error(fam: DesignFamily) -> tuple:
    """Why the subgroup or the block elements of a relative family are
    malformed, naming the first offending element, or why the blocks'
    sum of |B|(|B| - 1) differences is not lam(|G| - |N|)."""
    order = fam.group.order
    if fam.subgroup is None:
        return "relative family without subgroup", [("subgroup", None)]
    sub = np.asarray(fam.subgroup, dtype=np.int64)
    return (_outside(sub, order, "subgroup element")
            or _outside(_flat(fam.blocks), order, "block element")
            or _subgroup_error(fam.group, sub)
            or _total_error(sum(len(b) * (len(b) - 1) for b in fam.blocks),
                            fam.lam * (order - len(sub)), "differences", "lam(|G| - |N|)"))


def verify_relative_df(fam: DesignFamily) -> Report:
    """Delta(B) = lambda * (G \\ N): exact multiplicity lambda off N, zero on N.

    A missing, out-of-range or non-closed subgroup, a block element outside
    the group, or a number of differences other than lam(|G| - |N|) fails
    the report before any difference is counted; with lam = 0 the blocks
    then have no difference and the report passes."""
    if fam.kind not in (RELATIVE_DF, FDF):
        raise ValueError("verify_relative_df expects a relative DF or FDF")
    error = _relative_input_error(fam)
    if error:
        return Report(False, *error)
    if not fam.lam:                    # then no block has two elements
        return Report(True)
    group = fam.group
    want = np.full(group.order, fam.lam, dtype=np.int64)
    want[np.asarray(fam.subgroup, dtype=np.int64)] = 0
    return _count_report(delta_counts(group, fam.blocks), want, "difference")


def _partition_error(idx: np.ndarray, nblocks: int, what: str) -> tuple:
    """Why the block indices `idx` of a partition (the `what`), listed part
    by part, do not cover 0..nblocks-1 exactly once, naming the first
    offending index."""
    error = _outside(idx, nblocks, f"{what} block index")
    if error:
        return error
    counts = np.bincount(idx, minlength=nblocks)
    bad = np.flatnonzero(counts != 1)[:WITNESSES]
    if len(bad):
        return (f"block index {bad[0]} appears {counts[bad[0]]} times in the {what}, "
                "not once", [(int(i), int(counts[i])) for i in bad])
    return ()


def coset_labels(group: AbelianGroup, subgroup: Sequence[int]) -> np.ndarray:
    """label[x] = a canonical member of x + N, constant exactly on cosets.

    When N is a digit slice (_digit_slice, the test _subgroup_error uses),
    the label zeroes the free digits in O(order).  Otherwise the minimal
    element of each coset is found by chunked translation.
    """
    sub = np.asarray(subgroup, dtype=np.int64)
    free = _digit_slice(group, sub)
    if free is not None:
        alldig = group._digits(np.arange(group.order, dtype=np.int64))
        alldig[:, free] = 0
        return group._undigits(alldig)
    labels = np.empty(group.order, dtype=np.int64)
    chunk = max(1, 16_000_000 // max(1, len(sub)))
    for lo in range(0, group.order, chunk):
        rows = np.arange(lo, min(lo + chunk, group.order), dtype=np.int64)
        labels[lo:lo + chunk] = group.add(rows[:, None], sub[None, :]).min(axis=1)
    return labels


def verify_fdf(fam: DesignFamily) -> Report:
    """Relative-DF check plus the frame property: every block must have the
    k elements of block 0, the partition must have lambda*n/(k-1) parts of
    (g-n)/(nk) blocks each, and each part's blocks jointly meet every
    nontrivial coset of N exactly once."""
    if fam.kind != FDF:
        raise ValueError("verify_fdf expects an FDF family")
    parts = fam.frame_partition
    if parts is None:
        return Report(False, "missing frame partition", [("frame_partition", None)])
    error = _partition_error(_flat(parts), len(fam.blocks), "frame partition")
    if error:
        return Report(False, *error)
    base = verify_relative_df(fam)
    if not base.ok:
        return base
    g = fam.group.order
    n = len(fam.subgroup)
    k = len(fam.blocks[0]) if fam.blocks else 0
    odd = [i for i, blk in enumerate(fam.blocks) if len(blk) != k]
    if odd:
        return Report(False, f"block {odd[0]} does not have the {k} elements of block 0", odd)
    expected_parts = fam.lam * n // (k - 1) if k > 1 else 0
    if len(parts) != expected_parts:
        return Report(False, f"frame partition has {len(parts)} parts, expected "
                             f"{expected_parts}", [("parts", len(parts))])
    if not parts:                      # (lam = 0, or N = G) no part to check
        return Report(True)
    expected_size = (g - n) // (n * k) if n * k else 0
    labels = coset_labels(fam.group, fam.subgroup)
    # labels[0] is the coset of 0, i.e. N itself
    nontrivial = np.setdiff1d(np.unique(labels), [labels[0]])
    bad = []
    for pi, part in enumerate(parts):
        elems = np.concatenate([np.asarray(fam.blocks[i], dtype=np.int64) for i in part]) \
            if part else np.array([], dtype=np.int64)
        got = np.sort(labels[elems])
        if len(part) != expected_size or not np.array_equal(got, nontrivial):
            bad.append(pi)
            if len(bad) == WITNESSES:
                break
    if bad:
        return Report(False, f"frame part {bad[0]} does not meet each nontrivial coset of N "
                             f"exactly once in {expected_size} blocks", bad)
    return Report(True)


def verify_pdf(fam: DesignFamily) -> Report:
    """Blocks must partition G (or G \\ N when a subgroup is designated) exactly,
    with the delta condition at index lambda.  A subgroup or block element
    outside the group fails the report, and `detail` names it; so does a
    number of points other than |G| - |N|, before any point is counted."""
    if fam.kind != PDF:
        raise ValueError("verify_pdf expects a PDF family")
    group = fam.group
    sub = np.asarray(fam.subgroup or (), dtype=np.int64)
    everything = _flat(fam.blocks)
    error = (_outside(sub, group.order, "subgroup element")
             or _outside(everything, group.order, "block element")
             or _total_error(len(everything), group.order - len(np.unique(sub)), "points",
                             "|G| - |N|"))
    if error:
        return Report(False, *error)
    want = np.ones(group.order, dtype=np.int64)
    want[sub] = 0
    covered = _count_report(np.bincount(everything, minlength=group.order), want, "point")
    if not covered.ok:
        return covered
    want[0] = 0
    return _count_report(delta_counts(group, fam.blocks), want * fam.lam, "difference")


def verify_dm(dm: DifferenceMatrix, lam: Optional[int] = None) -> Report:
    """Every row pair's entrywise difference list must cover each group
    element exactly lam times (inferred from the column count when not
    given).  A matrix without columns fails: lam >= 1.  Witnesses are
    (row, row, difference, count)."""
    group = dm.group
    rows = np.asarray(dm.rows, dtype=np.int64)
    error = _outside(rows.ravel(), group.order, "entry")
    if error:
        return Report(False, *error)
    if not dm.ncols:
        return Report(False, "the matrix has no columns", [("ncols", 0)])
    if lam is None:
        if dm.ncols % group.order:
            return Report(False, f"{dm.ncols} columns are not a multiple of |H| = "
                                 f"{group.order}", [("ncols", dm.ncols)])
        lam = dm.ncols // group.order
    for i, j in combinations(range(dm.k), 2):
        counts = np.bincount(group.sub(rows[i], rows[j]), minlength=group.order)
        rep = _count_report(counts, lam, f"rows {i} and {j}: difference")
        if not rep.ok:
            return Report(False, rep.detail, [(i, j, *w) for w in rep.witnesses])
    return Report(True)


def is_homogeneous(dm: DifferenceMatrix) -> bool:
    """A (H, k, 1) difference matrix whose every row is a permutation of H."""
    n = dm.group.order
    return verify_dm(dm, 1).ok and all(len(r) == n and len(np.unique(r)) == n
                                       for r in dm.rows)
