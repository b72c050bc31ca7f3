"""Codes out of families: an optimal constant composition code and a
strictly optimal frequency hopping sequence, both fully certified.
"""

import numpy as np

from framedf import catalog, codes, families, lifting
from framedf.groups import crt_iso

fdf = lifting.lift_sdf(catalog.lifting_datum("fdf_z7xF89"))

print("=== constant composition code ===")
pdf = lifting.fdf_to_pdf(fdf)
sizes = sorted(len(b) for b in pdf.blocks)
print(f"  partitioned family: {len(pdf.blocks)} cells, sizes "
      f"7^{sizes.count(7)} 8^{sizes.count(8)}, verified={families.verify_pdf(pdf).ok}")
ccc = codes.ccc_from_pdf(pdf)
d = ccc.min_distance()
bound = codes.ccc_bound(ccc.n, d, ccc.composition)
print(f"  code: ({ccc.n}, {ccc.size}, {d}) over {len(ccc.composition)} symbols")
print(f"  size bound: {bound}  -> optimal: {bound == ccc.size}")

print("\n=== frequency hopping sequence ===")
cyclic = families.relabel_family(fdf, crt_iso(fdf.group))
x = codes.fhs_from_elementary_fdf(cyclic)
print(f"  sequence length {x.n} over {x.alphabet_size} symbols")
print("  first 25 symbols:", x.seq[:25].tolist())
rep = codes.verify_strictly_optimal(x)
print(f"  strictly optimal at every window length: {rep.ok}")
correlations = codes.fhs_correlations(x)
for L in (1, 89, 312, 623):
    print(f"    H(X;{L:3d}) = {correlations[L - 1]}  "
          f"(bound {codes.fhs_bound(x.n, x.alphabet_size, L)})")
