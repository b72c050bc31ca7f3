"""Constant composition codes from partitioned families and strictly optimal
frequency hopping sequences from elementary frames.

All bound arithmetic is exact (Fraction / integer ceilings); correlation
scans are exact counts vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import DesignFamily, PDF, Report, _n_translates, verify_fdf, verify_pdf

# shifts per step of the window scan in fhs_correlations: (batch, n, n) cells
_SHIFT_BATCH = 8

__all__ = [
    "CCC",
    "FHS",
    "ccc_from_pdf",
    "ccc_bound",
    "fhs_from_elementary_fdf",
    "partial_hamming",
    "fhs_correlations",
    "fhs_bound",
    "verify_strictly_optimal",
]


@dataclass(frozen=True)
class CCC:
    n: int
    codewords: np.ndarray          # (M, n) symbol matrix
    composition: tuple[int, ...]   # sorted symbol counts, one per alphabet symbol
    provenance: str = ""

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    def min_distance(self) -> int:
        """Exhaustive pairwise Hamming distance: the length less the most
        positions any two codewords agree on (n for fewer than two).
        Integer symbols are compared in the narrowest dtype that holds their
        range, and agreements are counted in at least 16 bits, enough for n."""
        X = self.codewords
        if X.shape[0] < 2:
            return self.n
        if X.dtype.kind in "iu":
            narrow = np.promote_types(np.min_scalar_type(X.min()), np.min_scalar_type(X.max()))
            if narrow.kind in "iu":     # not float64, the promotion of int64 with uint64
                X = X.astype(narrow)
        count = np.promote_types(np.min_scalar_type(X.shape[1]), np.uint16)
        most = max(int((X[i + 1:] == X[i]).sum(axis=1, dtype=count).max())
                   for i in range(X.shape[0] - 1))
        return X.shape[1] - most


@dataclass(frozen=True)
class FHS:
    seq: np.ndarray
    alphabet_size: int
    provenance: str = ""

    def __post_init__(self):
        s = np.asarray(self.seq)
        if not s.size:
            raise ValueError("the hopping sequence is empty")
        if s.ndim != 1 or s.dtype.kind not in "iu":
            raise ValueError("the hopping sequence is not a list of integer symbols")
        if s.min() < 0 or s.max() >= self.alphabet_size:
            raise ValueError("symbols out of range")
        if len(np.unique(s)) != self.alphabet_size:
            raise ValueError("every symbol must be used at least once")

    @property
    def n(self) -> int:
        return len(self.seq)


def ccc_from_pdf(pdf: DesignFamily) -> CCC:
    """One codeword per group element g: position t carries the index of the
    block containing t - g.  |G| codewords of length |G| whose composition
    is the block-size multiset."""
    if pdf.kind != PDF:
        raise ValueError("need a PDF")
    rep = verify_pdf(pdf)
    if not rep.ok:
        raise ValueError("family fails verify_pdf: " + rep.detail)
    G = pdf.group
    label = np.empty(G.order, dtype=np.int64)
    for bi, blk in enumerate(pdf.blocks):
        label[np.asarray(blk, dtype=np.int64)] = bi
    elems = G.enumerate()
    rows = []
    for g in elems:
        rows.append(label[G.sub(elems, int(g))])
    codewords = np.stack(rows)
    composition = tuple(sorted(len(b) for b in pdf.blocks))
    return CCC(G.order, codewords, composition,
               provenance=(pdf.provenance + " -> CCC") if pdf.provenance else "CCC")


def ccc_bound(n: int, d: int, composition: Sequence[int]) -> Fraction:
    """Exact rational size bound n*d / (n*d - n^2 + sum(w_i^2)); the
    denominator must be positive for the bound to apply."""
    denom = n * d - n * n + sum(w * w for w in composition)
    if denom <= 0:
        raise ValueError("bound inapplicable: nonpositive denominator")
    return Fraction(n * d, denom)


def fhs_from_elementary_fdf(fdf: DesignFamily) -> FHS:
    """Frequency hopping sequence from an elementary frame over a cyclic
    group: partition Z_kv into N and all N-translates of the base blocks,
    then let x(t) be the index of the part containing t.  N gets symbol 0;
    translated blocks are indexed by ascending minimum element.  A family
    that fails verify_fdf raises ValueError with its detail."""
    if fdf.group.kind != "cyclic":
        raise ValueError("need a cyclic group; apply crt_iso to the family first")
    rep = verify_fdf(fdf)
    if not rep.ok:
        raise ValueError("family fails verify_fdf: " + rep.detail)
    k = len(fdf.blocks[0])
    n = len(fdf.subgroup)
    if fdf.lam * n != k - 1:
        raise ValueError("FDF is not elementary")
    if (fdf.group.order + 1) % (n + 1):
        raise ValueError("alphabet size (kv+1)/(k+1) is not integral")
    parts = _n_translates(fdf)
    seq = np.empty(fdf.group.order, dtype=np.int64)
    seq[np.asarray(fdf.subgroup, dtype=np.int64)] = 0
    for idx, part in enumerate(parts, start=1):
        seq[part] = idx
    return FHS(seq, len(parts) + 1,
               provenance=(fdf.provenance + " -> FHS") if fdf.provenance else "FHS")


def partial_hamming(x: FHS, tau: int, j: int, L: int) -> int:
    """Window coincidence count sum_{t=j}^{j+L-1} [x(t) == x(t+tau)], mod-n indices."""
    n = x.n
    if not (1 <= L <= n):
        raise ValueError("window length out of range")
    if not (0 <= tau < n and 0 <= j < n):
        raise ValueError("shift and start must lie in [0, n)")
    s = np.asarray(x.seq)
    idx = (j + np.arange(L)) % n
    return int((s[idx] == s[(idx + tau) % n]).sum())


def fhs_correlations(x: FHS) -> np.ndarray:
    """H(X;L) for L = 1..n (entry L-1): the maximum windowed coincidence
    count over all shifts tau >= 1 and all starts.  Shifts are scanned
    _SHIFT_BATCH at a time: each window sum is a difference of two prefix
    sums of the doubled coincidence row, in the narrowest dtype that holds
    2n.  Shift n - tau sees the coincidences of shift tau rotated by tau,
    so it has the same window sums and only tau <= n/2 is scanned."""
    s = np.asarray(x.seq)
    n = x.n
    out = np.zeros(n, dtype=np.int64)
    dtype = np.min_scalar_type(2 * n)
    t = np.arange(n)
    for lo in range(1, n // 2 + 1, _SHIFT_BATCH):
        taus = np.arange(lo, min(lo + _SHIFT_BATCH, n // 2 + 1))
        hits = s == s[(t + taus[:, None]) % n]            # (shift, t)
        sums = np.zeros((len(taus), 2 * n), dtype=dtype)
        np.cumsum(np.tile(hits, 2)[:, :-1], axis=1, dtype=dtype, out=sums[:, 1:])
        # windows[b, j, L] = sums[b, j + L] for starts j < n and L = 0..n
        windows = sliding_window_view(sums, n + 1, axis=1)[:, :n]
        np.maximum(out, (windows[:, :, 1:] - windows[:, :, :1]).max(axis=(0, 1)), out=out)
    return out


def fhs_bound(n: int, l: int, L: int) -> int:
    """ceil((L/n) * ceil((n-e)(n+e-l)/(l(n-1)))) with e = n mod l, in exact
    integer arithmetic."""
    if l < 2:
        raise ValueError("alphabet size must be >= 2")
    eps = n % l
    inner = -((-(n - eps) * (n + eps - l)) // (l * (n - 1)))
    return -((-L * inner) // n)


def verify_strictly_optimal(x: FHS) -> Report:
    """Full scan: the windowed maximum must meet the lower bound at every
    window length L in [1, n]; the failing lengths are the witnesses."""
    n, l = x.n, x.alphabet_size
    maxima = fhs_correlations(x)
    failing = [L for L in range(1, n + 1) if maxima[L - 1] != fhs_bound(n, l, L)]
    if not failing:
        return Report(True)
    L = failing[0]
    return Report(False, f"H(X;{L}) = {maxima[L - 1]}, bound {fhs_bound(n, l, L)}", failing)
