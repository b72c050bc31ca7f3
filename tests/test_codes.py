from fractions import Fraction

import numpy as np
import pytest

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
    # shifts are scanned codes._SHIFT_BATCH at a time, and only up to n/2:
    # n runs past both, odd and even, and every window length is checked
    rng = np.random.default_rng(4)
    sizes = [2, 3, 4, 5] + [int(n) for n in rng.integers(6, 40, size=12)]
    assert max(sizes) // 2 > 2 * codes._SHIFT_BATCH
    for n in sizes:
        l = int(rng.integers(2, min(6, n) + 1))
        seq = rng.integers(0, l, size=n)
        while len(np.unique(seq)) < l:
            seq = rng.integers(0, l, size=n)
        x = FHS(seq, l)
        want = [naive_max_correlation(seq.tolist(), L) for L in range(1, n + 1)]
        assert fhs_correlations(x).tolist() == want


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


def test_fhs_perturbation_fails_with_witness():
    fdf = cyclic_fdf_623()
    x = fhs_from_elementary_fdf(fdf)
    seq = x.seq.copy()
    seq[5] = seq[4]
    rep = verify_strictly_optimal(FHS(seq, int(seq.max()) + 1))
    assert not rep.ok and len(rep.witnesses) > 0


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
