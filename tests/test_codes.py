import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from framedf import catalog, codes
from framedf.codes import (FHS, ccc_bound, ccc_from_pdf, fhs_bound,
                           fhs_correlations, fhs_from_elementary_fdf,
                           partial_hamming, verify_strictly_optimal)
from framedf.families import PDF, DesignFamily
from framedf.groups import AbelianGroup, crt_iso
from framedf.lifting import fdf_to_pdf, lift_sdf


def cyclic_fdf_623():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    iso = crt_iso(fdf.group)
    blocks = tuple(tuple(int(iso.apply(x)) for x in b) for b in fdf.blocks)
    sub = tuple(sorted(int(iso.apply(x)) for x in fdf.subgroup))
    return DesignFamily("FDF", iso.target, 1, blocks, subgroup=sub,
                        frame_partition=fdf.frame_partition)


def naive_max_correlation(seq, L):
    n = len(seq)
    best = 0
    for tau in range(1, n):
        for j in range(n):
            c = sum(1 for t in range(j, j + L)
                    if seq[t % n] == seq[(t + tau) % n])
            best = max(best, c)
    return best


def window_scan_correlations(seq):
    """H(X;L) as the window scan first computed it, shift by shift: each
    window sum is a difference of two prefix sums of the doubled
    coincidence row, for every start and length, at every shift tau <= n/2
    (shift n - tau has the same sums)."""
    s = np.asarray(seq)
    n = len(s)
    out = np.zeros(n, dtype=np.int64)
    dtype = np.min_scalar_type(2 * n)
    t = np.arange(n)
    for tau in range(1, n // 2 + 1):
        sums = np.zeros(2 * n, dtype=dtype)
        np.cumsum(np.tile(s == s[(t + tau) % n], 2)[:-1], dtype=dtype, out=sums[1:])
        windows = sliding_window_view(sums, n + 1)[:n]     # windows[j, L] = sums[j + L]
        np.maximum(out, (windows[:, 1:] - windows[:, :1]).max(axis=0), out=out)
    return out


def test_trivial_pdf_to_ccc():
    pdf = DesignFamily(PDF, AbelianGroup.cyclic(2), 0, ((0,), (1,)))
    ccc = ccc_from_pdf(pdf)
    assert ccc.codewords.tolist() == [[0, 1], [1, 0]]
    assert ccc.min_distance() == 2
    assert ccc.composition == (1, 1)


def test_ccc_bound_values():
    assert ccc_bound(623, 616, [7] + [8] * 77) == Fraction(383768, 616) == 623
    assert ccc_bound(10, 10, [10]) == 1
    with pytest.raises(ValueError):
        ccc_bound(10, 1, [1] * 10)


def test_partial_hamming_examples():
    x = FHS(np.array([0, 1, 0, 1]), 2)
    assert partial_hamming(x, 0, 2, 3) == 3
    assert partial_hamming(x, 2, 0, 4) == 4
    const = FHS(np.array([0, 0, 0, 0, 1]), 2)    # symbol 1 used once
    assert partial_hamming(const, 0, 0, 5) == 5
    with pytest.raises(ValueError):
        partial_hamming(x, 0, 0, 5)


def test_max_correlation_matches_naive_oracle():
    # odd and even n, at every window length
    rng = np.random.default_rng(4)
    sizes = [2, 3, 4, 5] + [int(n) for n in rng.integers(6, 40, size=12)]
    for n in sizes:
        l = int(rng.integers(2, min(6, n) + 1))
        seq = rng.integers(0, l, size=n)
        while len(np.unique(seq)) < l:
            seq = rng.integers(0, l, size=n)
        x = FHS(seq, l)
        want = [naive_max_correlation(seq.tolist(), L) for L in range(1, n + 1)]
        assert fhs_correlations(x).tolist() == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=16))
@example([0])
@example([0, 0])
@example([0, 1])
@example([0] * 11)                  # constant: every shift dense
@example(list(range(11)))           # all symbols distinct: no coincidence
@example([0] * 10 + [1])            # one symbol used once
@example([0, 1] * 6)                # shifts of 0 and of n coincidences
@example([1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0])   # n = 32: spans reach 4n = 128
def test_fhs_correlations_match_the_window_scan_and_the_naive_count(symbols):
    seq = np.unique(symbols, return_inverse=True)[1].astype(np.int64)   # every symbol used
    n = len(seq)
    got = fhs_correlations(FHS(seq, int(seq.max()) + 1)).tolist()
    assert got == window_scan_correlations(seq).tolist()
    assert got == [naive_max_correlation(seq.tolist(), L) for L in range(1, n + 1)]


def dense_sequences_623():
    """The n = 623 sequences whose shifts hold more coincidences than not,
    or about as many: constant, one symbol used once, random binary."""
    near = np.zeros(623, dtype=np.int64)
    near[311] = 1
    return {"constant": np.zeros(623, dtype=np.int64), "near-constant": near,
            "binary": np.random.default_rng(17).integers(0, 2, size=623)}


@pytest.mark.parametrize("name", ["constant", "near-constant", "binary"])
def test_dense_shifts_match_the_window_scan_at_623(name):
    seq = dense_sequences_623()[name]
    x = FHS(seq, int(seq.max()) + 1)
    assert fhs_correlations(x).tolist() == window_scan_correlations(seq).tolist()


def test_fhs_bound_examples_and_monotonicity():
    # n=623, l=78: inner ceiling is 7, so the bound is ceil(7L/623)
    assert all(fhs_bound(623, 78, L) == -((-7 * L) // 623) for L in range(1, 624))
    assert fhs_bound(623, 78, 623) == 7
    assert fhs_bound(623, 78, 89) == 1
    assert fhs_bound(10, 10, 1) == 0
    vals = [fhs_bound(623, 78, L) for L in range(1, 624)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_fhs_from_fdf_and_strict_optimality():
    fdf = cyclic_fdf_623()
    x = fhs_from_elementary_fdf(fdf)
    assert x.n == 623 and x.alphabet_size == 78
    rep = verify_strictly_optimal(x)
    assert rep.ok
    # correlations exceed the lower bound nowhere and meet it everywhere
    correlations = fhs_correlations(x)
    for L in (1, 89, 623):
        assert correlations[L - 1] == fhs_bound(623, 78, L)
    assert correlations.tolist() == window_scan_correlations(x.seq).tolist()


def test_fhs_perturbation_fails_with_witness():
    fdf = cyclic_fdf_623()
    x = fhs_from_elementary_fdf(fdf)
    seq = x.seq.copy()
    seq[5] = seq[4]
    rep = verify_strictly_optimal(FHS(seq, int(seq.max()) + 1))
    assert not rep.ok and len(rep.witnesses) > 0
    # the window scan gives the same correlations, so the same witnesses
    assert fhs_correlations(FHS(seq, int(seq.max()) + 1)).tolist() == \
        window_scan_correlations(seq).tolist()


def test_fhs_rejects_wrong_shapes():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    with pytest.raises(ValueError):
        fhs_from_elementary_fdf(fdf)            # not cyclic
    z125 = lift_sdf(catalog.lifting_datum("fdf_z125xF67"))
    iso = crt_iso(z125.group)
    blocks = tuple(tuple(int(iso.apply(v)) for v in b) for b in z125.blocks)
    sub = tuple(sorted(int(iso.apply(v)) for v in z125.subgroup))
    cyc = DesignFamily("FDF", iso.target, 1, blocks, subgroup=sub,
                       frame_partition=z125.frame_partition)
    with pytest.raises(ValueError):
        fhs_from_elementary_fdf(cyc)            # |N| = 125 != k-1


def test_bound_is_true_lower_bound():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(6, 30))
        l = int(rng.integers(2, min(6, n)))
        seq = rng.integers(0, l, size=n)
        while len(np.unique(seq)) < l:
            seq = rng.integers(0, l, size=n)
        maxima = fhs_correlations(FHS(seq, l))
        for L in range(1, n + 1):
            assert maxima[L - 1] >= fhs_bound(n, l, L)


def test_ccc_pairwise_distance_uniform():
    pdf = fdf_to_pdf(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))
    ccc = ccc_from_pdf(pdf)
    assert ccc.size == 623
    X = ccc.codewords
    rng = np.random.default_rng(1)
    for _ in range(100):
        i, j = rng.integers(0, 623, size=2)
        if i != j:
            assert int((X[i] != X[j]).sum()) == 616
    assert ccc.min_distance() == 616
    # from the translates of codeword 0 over Z7 x GF(89), and pair by pair
    assert ccc.group.kind == "product"
    assert dataclasses.replace(ccc, group=None).min_distance() == 616


def test_ccc_codewords_are_cyclic_shifts_on_cyclic_groups():
    pdf_product = fdf_to_pdf(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))
    iso = crt_iso(pdf_product.group)
    blocks = tuple(tuple(sorted(int(iso.apply(x)) for x in b))
                   for b in pdf_product.blocks)
    pdf = DesignFamily(PDF, iso.target, pdf_product.lam, blocks)
    ccc = ccc_from_pdf(pdf)
    base = ccc.codewords[0]
    for g in (1, 2, 77, 622):
        assert np.array_equal(ccc.codewords[g], np.roll(base, g))


def naive_min_distance(rows, n):
    best = n
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            best = min(best, sum(a != b for a, b in zip(rows[i], rows[j])))
    return best


def test_min_distance_matches_double_loop():
    """Exhaustive against a plain double loop, whatever dtype the symbols
    narrow to: small, negative, wider than 16 bits, at the int64 extremes,
    and codes of zero, one and two codewords."""
    rng = np.random.default_rng(7)
    cases = [(0, 5, 0, 3), (1, 5, 0, 3), (2, 5, 0, 3), (2, 1, -1, 1)]
    cases += [(int(rng.integers(3, 40)), int(rng.integers(1, 30)), lo, hi)
              for lo, hi in ((0, 2), (0, 300), (-5, 5), (-70000, 70000), (2**40, 2**40 + 3))
              for _ in range(4)]
    for M, n, lo, hi in cases:
        X = rng.integers(lo, hi, size=(M, n), endpoint=True)
        ccc = codes.CCC(n, X, ())
        assert ccc.min_distance() == naive_min_distance(X.tolist(), n), (M, n, lo, hi)
    ends = np.array([[-2**63, 2**63 - 1, 0], [2**63 - 1, 2**63 - 1, 0], [-2**63, 0, 0]])
    assert codes.CCC(3, ends, ()).min_distance() == naive_min_distance(ends.tolist(), 3) == 1


def odd_order_pdf(group):
    """{0} and the pairs {a, -a}: a PDF with lambda 1 over any group of odd
    order, since a block {a, -a} has the differences 2a and -2a."""
    elems = group.enumerate()
    pairs = sorted({tuple(sorted((int(a), int(group.neg(int(a)))))) for a in elems[1:]})
    return DesignFamily(PDF, group, 1, ((0,),) + tuple(pairs))


def small_pdfs():
    z7 = AbelianGroup.cyclic(7)
    squares = DesignFamily(PDF, z7, 2, ((0,), (1, 2, 4), (3, 5, 6)))
    z3 = AbelianGroup.cyclic(3)
    return [squares, odd_order_pdf(z7), odd_order_pdf(AbelianGroup.cyclic(15)),
            odd_order_pdf(AbelianGroup.product(z3, z3)),
            odd_order_pdf(AbelianGroup.product(z3, AbelianGroup.cyclic(5)))]


def test_min_distance_of_translates_matches_double_loop():
    for pdf in small_pdfs():
        ccc = ccc_from_pdf(pdf)
        assert ccc.group == pdf.group
        assert ccc.min_distance() == naive_min_distance(ccc.codewords.tolist(), ccc.n), pdf


def row_by_row_codewords(pdf, rows=None):
    """Codeword g position t: the index of the block holding t - g, one
    group subtraction per cell; every codeword, or those of `rows`."""
    G = pdf.group
    block_of = {int(x): bi for bi, blk in enumerate(pdf.blocks) for x in blk}
    return [[block_of[int(G.sub(t, g))] for t in range(G.order)]
            for g in (range(G.order) if rows is None else rows)]


@pytest.mark.parametrize("cells", [1, 20, 100, None])
def test_ccc_chunks_match_the_row_by_row_build(monkeypatch, cells):
    """Row chunks of one row, of a few rows with a short last chunk, and
    the whole code at once give the same codewords."""
    if cells is not None:
        monkeypatch.setattr(codes, "_CCC_CELLS", cells)
    for pdf in small_pdfs():
        ccc = ccc_from_pdf(pdf)
        assert ccc.codewords.dtype == np.int64 and ccc.codewords.flags.c_contiguous
        assert ccc.codewords.tolist() == row_by_row_codewords(pdf), (cells, pdf.group)


def test_ccc_at_2191_builds_in_bounded_memory():
    """n = 2191 (Z7 x Z313, the size of the q = 313 CCC) takes ten row
    chunks: the peak is the 38 MB of codewords and one chunk's digits,
    where one subtraction over all n^2 cells held about 115 MB."""
    pdf = odd_order_pdf(AbelianGroup.product(AbelianGroup.cyclic(7), AbelianGroup.cyclic(313)))
    tracemalloc.start()
    try:
        ccc = ccc_from_pdf(pdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ccc.codewords.shape == (2191, 2191)
    rows = [0, 238, 239, 1095, 2190]                 # 239 rows per chunk
    assert ccc.codewords[rows].tolist() == row_by_row_codewords(pdf, rows)
    assert peak < 74_000_000, peak


def test_min_distance_falls_back_to_pairs_when_a_symbol_changes():
    """One symbol of codeword 3 becomes codeword 4's there.  The rows are
    no longer translates, and codewords 3 and 4 may agree more than any
    pair with codeword 0 does, so only the pairwise scan gets d."""
    ccc = ccc_from_pdf(small_pdfs()[0])
    X = ccc.codewords
    for t in np.flatnonzero(X[3] != X[4]):
        Y = X.copy()
        Y[3, t] = X[4, t]
        with_row_0 = ccc.n - int((Y[1:] == Y[0]).sum(axis=1).max())
        want = naive_min_distance(Y.tolist(), ccc.n)
        if want != with_row_0:
            break
    else:
        pytest.fail("no change of one symbol tells the two scans apart")
    assert dataclasses.replace(ccc, codewords=Y).min_distance() == want
