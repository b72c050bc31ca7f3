"""Constant composition codes from partitioned families and strictly optimal
frequency hopping sequences from elementary frames.

All bound arithmetic is exact (Fraction / integer ceilings), and every
count is exact.  The verifiers cost what the structure costs: a hopping
sequence's correlations are counted from its coincidences, O(K^2) per
shift with K <= n/2 the most that any shift has (of coincidences, or of
non-coincidences where those are fewer), not O(n^2); a code built by
ccc_from_pdf records its group, and its distance is read off the pairs
with codeword 0 once the other codewords are checked to be its
translates, O(Mn), where any other code is compared pair by pair,
O(M^2 n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .groups import AbelianGroup
from .families import DesignFamily, PDF, Report, _n_translates, verify_fdf, verify_pdf

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
    group: AbelianGroup | None = None   # ccc_from_pdf's: codeword g is codeword 0 moved by g

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    def min_distance(self) -> int:
        """Pairwise Hamming distance: the length less the most positions any
        two codewords agree on (n for fewer than two).  When `group` is set,
        the codewords X are first checked to be its translates, as
        ccc_from_pdf builds them: X[g+gamma, t] = X[g, t-gamma] for each
        generator gamma, O(Mn) each.  Then codewords g and h agree where
        codewords 0 and h-g do, so only the pairs with codeword 0 are
        compared.  Any other code, or one that fails the check, is compared
        pair by pair, O(M^2 n).  Integer symbols are compared in the
        narrowest dtype that holds their range, and agreements are counted
        in at least 16 bits, enough for n."""
        X = self.codewords
        if X.shape[0] < 2:
            return self.n
        if X.dtype.kind in "iu":
            narrow = np.promote_types(np.min_scalar_type(X.min()), np.min_scalar_type(X.max()))
            if narrow.kind in "iu":     # not float64, the promotion of int64 with uint64
                X = X.astype(narrow)
        count = np.promote_types(np.min_scalar_type(X.shape[1]), np.uint16)
        pairs = range(1 if self._translates(X) else X.shape[0] - 1)
        most = max(int((X[i + 1:] == X[i]).sum(axis=1, dtype=count).max()) for i in pairs)
        return X.shape[1] - most

    def _translates(self, X: np.ndarray) -> bool:
        """Whether X's rows are the translates of row 0 under `group`, as
        ccc_from_pdf builds them: X[g, t] = X[0, t-g] for every g and t."""
        G = self.group
        if G is None or X.shape != (G.order, G.order):
            return False
        elems = G.enumerate()
        return all(np.array_equal(X[G.add(elems, gamma)], X[:, G.sub(elems, gamma)])
                   for gamma in G.generators())


@dataclass(frozen=True)
class FHS:
    seq: np.ndarray
    alphabet_size: int

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


# ccc_from_pdf subtracts at most this many cells at once: one chunk up to
# n = 724, so the n = 623 codes take one subtraction
_CCC_CELLS = 1 << 19


def ccc_from_pdf(pdf: DesignFamily) -> CCC:
    """One codeword per group element g: position t carries the index of the
    block containing t - g.  |G| codewords of length |G| whose composition
    is the block-size multiset, built by one broadcast subtraction per
    chunk of rows of at most _CCC_CELLS cells; the code records G, so
    min_distance can use the translates."""
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
    rows = max(1, _CCC_CELLS // G.order)
    codewords = np.empty((G.order, G.order), dtype=np.int64)
    for lo in range(0, G.order, rows):
        codewords[lo:lo + rows] = label[G.sub(elems[None, :], elems[lo:lo + rows, None])]
    composition = tuple(sorted(len(b) for b in pdf.blocks))
    return CCC(G.order, codewords, composition,
               provenance=(pdf.provenance + " -> CCC") if pdf.provenance else "CCC", group=G)


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
    return FHS(seq, len(parts) + 1)


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
    count over all shifts tau >= 1 and all starts, counted from the
    coincidences x(t) = x(t+tau).  Shift n - tau sees the coincidences of
    shift tau rotated by tau, so only tau <= n/2 is read.

    A shift with at most n/2 coincidences marks them: w_m is the least
    cyclic span (last position less first) of m consecutive ones, W_m the
    least w_m over such shifts, and a window of length L holds m of them
    iff W_m <= L-1; W_m grows with m, so that gives #{m : W_m <= L-1}.  A
    denser shift marks its non-coincidences: G_j is the longest window
    holding at most j of them, longest over such shifts, and a window of
    length L holds L - min{j : G_j >= L} coincidences or fewer.  H(X;L) is
    the larger of the two counts.  With K <= n/2 the most positions a
    shift marks, each shift costs K cells for each span of j = 1..K
    steps, in the narrowest signed dtype that holds 4n: K^2 cells, where a
    scan of every window costs n^2.  K is 7 on the shipped length-623
    sequence, and 0 on a constant one."""
    s = np.asarray(x.seq)
    n = x.n
    hits = sliding_window_view(np.concatenate([s, s]), n)[1:n // 2 + 1] == s    # (tau - 1, t)
    c = np.count_nonzero(hits, axis=1)
    dense = 2 * c > n
    hits ^= dense[:, None]                         # a dense shift marks the others
    k = np.where(dense, n - c, c)
    shift, pos = np.divmod(np.flatnonzero(hits), n)
    col = np.arange(len(pos)) - (np.cumsum(k) - k)[shift]
    # each shift's marked positions, then again one turn on, a dense
    # shift's negated so that its least span is -G; the pads -2n and 2n
    # make every span that reads one the longest of its row
    sign = np.where(dense[shift], -1, 1)
    width = int(k.max(initial=0))
    dtype = np.min_scalar_type(-4 * n - 1)
    first = np.full((len(k), width), -2 * n, dtype=dtype)
    twice = np.full((len(k), 2 * width), 2 * n, dtype=dtype)
    first[shift, col] = twice[shift, col] = sign * pos
    twice[shift, col + k[shift]] = sign * (pos + n)
    least = np.full(n + 1, n)                      # least[m] = W_m, n if none
    least[1] = 0 if (k[~dense] > 0).any() else n
    longest = np.zeros(n + 1, dtype=np.int64)      # longest[j] = G_j, n from j = k
    longest[k[dense].min(initial=n + 1):] = n
    for j in range(1, width + 1):
        # spans of j steps: a whole turn, n, at j = k, which leaves least as
        # it is and makes G_{k-1} = n - 1; more past k, where G_{j-1} is n
        span = (twice[:, j:j + width] - first).min(axis=1)
        least[j + 1] = span[~dense].min(initial=n)
        longest[j - 1] = max(longest[j - 1], -span[dense].min(initial=0) - 1)
    L = np.arange(1, n + 1)
    return np.maximum(np.searchsorted(least[1:], L - 1, side="right"),
                      L - np.searchsorted(longest, L))


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
    window length L in [1, n]; the failing lengths are the witnesses, and a
    one-symbol sequence, which has no bound, fails with ("alphabet", 1)."""
    n, l = x.n, x.alphabet_size
    if l < 2:
        return Report(False, f"alphabet size {l} < 2 has no bound", [("alphabet", l)])
    maxima = fhs_correlations(x)
    failing = [L for L in range(1, n + 1) if maxima[L - 1] != fhs_bound(n, l, L)]
    if not failing:
        return Report(True)
    L = failing[0]
    return Report(False, f"H(X;{L}) = {maxima[L - 1]}, bound {fhs_bound(n, l, L)}", failing)
