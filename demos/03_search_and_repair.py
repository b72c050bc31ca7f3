"""Computer search: the existence threshold, a fresh lifting datum found at
q = 79, and the repair of the garbled GF(25) table.

Runs the two heavier code paths of the package: about 35 s on a 2-core
machine, split about evenly between the q = 79 search and the repair.
"""

import time

from framedf import catalog, families, lifting, search

print("=== the explicit existence threshold ===")
for d, m in ((3, 7), (6, 6), (6, 11), (12, 12)):
    print(f"  Q({d},{m}) = {search.q_bound(d, m):.6E}")

print("\n=== fresh search at q = 79 ===")
t0 = time.time()
sysm = search.z125_system(79)
print(f"  system: {len(sysm.unknowns)} unknowns, "
      f"{sum(1 for g in sysm.groups if g.modulus == 3)} slot groups")
res = search.solve(sysm, seed=0)
print(f"  solve: {res.status} in {res.nodes} nodes ({time.time() - t0:.1f}s)")
datum = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
fdf = lifting.lift_sdf(datum)
print(f"  lifted: {len(fdf.blocks)} blocks over {fdf.group!r}, "
      f"verified={families.verify_fdf(fdf).ok}")

print("\n=== repairing the z63 x GF(25) table ===")
data = catalog.lifting_datum("fdf_z63xF25")
rep = lifting.check_lifting_conditions(data)
print("  as printed:", rep.detail)
t0 = time.time()
try:
    search.repair_block(data, data.zero_positions(), widen=False)
except search.RepairError as exc:
    print("  narrow repair:", exc)
fixed = search.repair_block(data, data.zero_positions())
print(f"  widened repair in {time.time() - t0:.1f}s; "
      f"conditions now pass: {lifting.check_lifting_conditions(fixed).ok}")
fdf63 = lifting.lift_sdf(fixed)
print(f"  lifted: {len(fdf63.blocks)} blocks, verified={families.verify_fdf(fdf63).ok}")
