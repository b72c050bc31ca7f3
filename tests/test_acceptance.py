"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime.  Tolerances are exact unless a criterion states printed
precision; runtime ceilings are asserted."""

import hashlib
import json
import time
from fractions import Fraction

import numpy as np
from framedf import catalog, codes, designs, families, lifting, search, serialize
from framedf.designs import RotationalStructure
from framedf.fields import field_of_order, make_field
from framedf.groups import crt_iso


def _stamp(name, t0, limit):
    dt = time.time() - t0
    print(f"PASS {name} ({dt:.1f}s, limit {limit}s)")
    assert dt < limit, f"{name} exceeded its runtime ceiling"


def _prime_powers(lo, hi):
    out = []
    for q in range(lo, hi + 1):
        try:
            field_of_order(q)
        except ValueError:
            continue
        out.append(q)
    return out


_repaired_cache = {}


def repaired_z63():
    if "z63" not in _repaired_cache:
        d63 = catalog.lifting_datum("fdf_z63xF25")
        _repaired_cache["z63"] = search.repair_block(d63, d63.zero_positions())
    return _repaired_cache["z63"]


def test_criterion_1_sdf_catalog():
    t0 = time.time()
    for name, mu in (("z7_8_8", 8), ("z63_8_8", 8), ("z119_8_8", 8), ("z125_6_6", 6)):
        fam = catalog.family(name)
        assert families.verify_sdf(fam).ok and fam.lam == mu, name
    for p in _prime_powers(3, 50):
        if p % 4 == 3:
            fam = catalog.family("paley2", p)
            assert families.verify_sdf(fam).ok and fam.lam == p + 1, ("paley2", p)
        if p % 2 == 1:
            fam = catalog.family("paley3", p)
            assert families.verify_sdf(fam).ok and fam.lam == 2 * p + 2, ("paley3", p)
    for p in (3, 5):
        fam = catalog.family("twinPrime", p)
        assert families.verify_sdf(fam).ok and fam.lam == p * (p + 2) + 1, ("twinPrime", p)
    for m in (3, 4, 5):
        fam = catalog.family("singer", 2, m)
        assert families.verify_sdf(fam).ok and fam.lam == 2 ** m, ("singer", m)
    _stamp("criterion 1 (SDF catalog)", t0, 10)


def test_criterion_2_lemma_2_2_end_to_end():
    t0 = time.time()
    data = catalog.lifting_datum("fdf_z7xF89")
    assert lifting.check_lifting_conditions(data).ok
    assert lifting.d_set(data, 0) == (19, 42, 43, 44, 45, 46, 47, 70)
    fdf = lifting.lift_sdf(data)
    assert len(fdf.blocks) == 11
    assert families.verify_fdf(fdf).ok
    ing, ing_res = designs.trivial_rbibd(8)
    design, res, rot = designs.rbibd_from_fdf(fdf, ing, ing_res)
    assert len(design.blocks) == 6942
    assert len(res.classes) == 89
    rep = designs.verify_bibd(design)
    assert rep.ok and design.v * (design.v - 1) // 2 == 194376
    assert designs.verify_resolution(design, res).ok
    iso = crt_iso(fdf.group)
    action = tuple(int(iso.invert(z)) for z in range(623))
    assert designs.verify_one_rotational(design, res,
                                         RotationalStructure(iso.target, action)).ok
    _stamp("criterion 2 (624-point chain)", t0, 30)


def test_criterion_3_q_bound_reproduction():
    t0 = time.time()
    for d, m, mant, expo, digits in ((3, 7, "6.43306", 7, 6),
                                     (6, 6, "3.4829", 10, 5),
                                     (6, 11, "8.77844", 18, 6),
                                     (12, 12, "7.94968", 27, 6)):
        val = search.q_bound(d, m)
        got = f"%.{digits - 1}E" % val
        assert got == f"{mant}E+{expo:02d}", (d, m, got)
    _stamp("criterion 3 (Q bound values)", t0, 10)


def test_criterion_4_z125_lifting_and_fresh_search():
    t0 = time.time()
    data = catalog.lifting_datum("fdf_z125xF67")
    assert lifting.check_lifting_conditions(data).ok
    fdf = lifting.lift_sdf(data)
    assert len(fdf.blocks) == 275
    assert families.verify_fdf(fdf).ok
    res = search.solve(search.z125_system(79), seed=0)
    assert res.status == "sat"
    sysm = search.z125_system(79)
    fresh = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert lifting.check_lifting_conditions(fresh).ok
    assert families.verify_fdf(lifting.lift_sdf(fresh)).ok
    _stamp("criterion 4 (q=67 data, fresh q=79 search)", t0, 300)


def test_criterion_5_z63_repair_and_1576_assembly():
    t0 = time.time()
    d119 = catalog.lifting_datum("fdf_z119xF25")
    assert lifting.check_lifting_conditions(d119).ok
    d63 = catalog.lifting_datum("fdf_z63xF25")
    as_printed = lifting.check_lifting_conditions(d63)
    repaired = d63 if as_printed.ok else repaired_z63()
    assert lifting.check_lifting_conditions(repaired).ok
    fdf = lifting.lift_sdf(repaired)
    assert families.verify_fdf(fdf).ok
    ing, ing_res = designs.affine_plane(8)
    design, res, _ = designs.rbibd_from_fdf(fdf, ing, ing_res)
    assert design.v == 1576
    rep = designs.verify_bibd(design)
    assert rep.ok
    # full scan covers all C(1576,2) = 1,241,100 point pairs exactly once
    assert design.v * (design.v - 1) // 2 == 1241100
    assert designs.verify_resolution(design, res).ok
    # the design as assembled one block tuple at a time, before whole-array assembly
    blob = json.dumps(serialize.design_to_dict(design, res), sort_keys=True,
                      default=np.ndarray.tolist).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "733689f75c42e7ebf9ef77a11d22aa8cca5d912f5349ffebad82522ad14b8166"
    _stamp("criterion 5 (z63 repair, 1576-point chain)", t0, 120)


def test_criterion_6_dm_recursion():
    t0 = time.time()
    fdf = lifting.lift_sdf(repaired_z63())
    dm = lifting.homogenize(lifting.mul_table_dm(make_field(3, 2)))
    comp = lifting.compose_fdf_dm(fdf, dm)
    assert comp.group.order == 63 * 25 * 9
    assert len(comp.subgroup) == 63 * 9
    assert len(comp.blocks) == 243
    assert families.verify_fdf(comp).ok
    _stamp("criterion 6 (difference-matrix recursion)", t0, 120)


def test_criterion_7_ccc_chain():
    t0 = time.time()
    fdf = lifting.lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    pdf = lifting.fdf_to_pdf(fdf)
    assert families.verify_pdf(pdf).ok
    assert sorted(len(b) for b in pdf.blocks) == [7] + [8] * 77
    ccc = codes.ccc_from_pdf(pdf)
    assert ccc.size == 623
    d = ccc.min_distance()
    assert d == 616
    assert codes.ccc_bound(623, d, ccc.composition) == Fraction(623, 1)
    _stamp("criterion 7 (constant composition code chain)", t0, 60)


def test_criterion_8_fhs_chain():
    t0 = time.time()
    fdf = lifting.lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    x = codes.fhs_from_elementary_fdf(families.relabel_family(fdf, crt_iso(fdf.group)))
    assert x.n == 623 and x.alphabet_size == 78
    assert codes.verify_strictly_optimal(x).ok
    correlations = codes.fhs_correlations(x)
    for L in range(1, 624):
        assert correlations[L - 1] == -((-7 * L) // 623)
    _stamp("criterion 8 (frequency hopping chain)", t0, 120)


def test_criterion_9_property_suites():
    t0 = time.time()
    from framedf.families import delta_block
    from framedf.groups import AbelianGroup

    rng = np.random.default_rng(0)
    # delta lists against a hand loop (1000 random blocks, orders <= 200)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        g = AbelianGroup.cyclic(n)
        k = int(rng.integers(2, 7))
        blk = tuple(int(v) for v in rng.integers(0, n, size=k))
        expect = sorted((blk[a] - blk[b]) % n
                        for a in range(k) for b in range(k) if a != b)
        assert sorted(delta_block(g, blk).tolist()) == expect

    # transversality is primitive-element independent (20 fields)
    checked = 0
    for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97,
              101, 109, 113, 137, 149, 157, 173, 181, 193, 197):
        e = max(d for d in (2, 4) if (p - 1) % d == 0)
        fld = make_field(p)
        other = next(g for g in range(fld.generator + 1, p)
                     if _order(g, p) == p - 1)
        table = {}
        x = 1
        for i in range(p - 1):
            table[x] = i
            x = x * other % p
        for _ in range(5):
            sample = [int(v) for v in rng.integers(1, p, size=e)]
            mine = lifting.in_orbit_normal_form([fld.dlog(s) for s in sample],
                                                p - 1, p - 1, e, 1)
            theirs = sorted(table[s] % e for s in sample) == list(range(e))
            assert mine == theirs
        checked += 1
    assert checked == 20

    # sliding-window scan equals the naive triple loop (random, n <= 200)
    for _ in range(6):
        n = int(rng.integers(8, 201))
        l = int(rng.integers(2, 7))
        seq = rng.integers(0, l, size=n)
        while len(np.unique(seq)) < l:
            seq = rng.integers(0, l, size=n)
        x = codes.FHS(seq, l)
        L = int(rng.integers(1, n + 1))
        naive = max(sum(1 for t in range(j, j + L) if seq[t % n] == seq[(t + tau) % n])
                    for tau in range(1, n) for j in range(n))
        assert codes.fhs_correlations(x)[L - 1] == naive

    # verify_sdf against dictionary counting on the whole catalog
    for name in ("z7_8_8", "z63_8_8", "z119_8_8", "z125_6_6"):
        fam = catalog.family(name)
        counts = {}
        for blk in fam.blocks:
            for a in range(len(blk)):
                for b in range(len(blk)):
                    if a != b:
                        h = int(fam.group.sub(blk[a], blk[b]))
                        counts[h] = counts.get(h, 0) + 1
        uniform = all(counts.get(h, 0) == fam.lam for h in range(fam.group.order))
        assert uniform and families.verify_sdf(fam).ok

    # verify_bibd against dictionary counting (small design)
    design, res = designs.affine_plane(7)
    cover = {}
    for blk in design.blocks:
        for i in range(len(blk)):
            for j in range(i + 1, len(blk)):
                cover[(blk[i], blk[j])] = cover.get((blk[i], blk[j]), 0) + 1
    assert all(v == 1 for v in cover.values()) and len(cover) == 49 * 48 // 2
    assert designs.verify_bibd(design).ok

    # solver determinism under fixed seeds
    sys_a = search.paired_pattern_system(catalog.family("twinPrime", 3), 17)
    r1 = search.solve(sys_a, seed=11)
    sys_b = search.paired_pattern_system(catalog.family("twinPrime", 3), 17)
    r2 = search.solve(sys_b, seed=11)
    assert r1.status == "sat" and r1.assignment == r2.assignment
    _stamp("criterion 9 (property suites)", t0, 120)


def _order(g, p):
    x, cnt = g % p, 1
    while x != 1:
        x = x * g % p
        cnt += 1
    return cnt


def test_criterion_10_recursion_arithmetic():
    t0 = time.time()
    got = {designs.recursion_params("aGreBis", 2, 6)["v"],
           designs.recursion_params("aGre", 11, 4)["v"],
           designs.recursion_params("aGre", 19, 11)["v"],
           designs.recursion_params("aGre", 48, 5)["v"]}
    assert got == {5720, 5776, 10200, 24480}
    _stamp("criterion 10 (recursion arithmetic)", t0, 10)
