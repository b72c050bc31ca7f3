"""Tour of the built-in family catalog.

Every entry is verified on the spot: strong difference families by exact
difference counting, lifting data by the two cyclotomic conditions.
"""

from framedf import catalog, families, lifting

print("=== catalog entries ===")
for name in catalog.catalog_names():
    print(f"  {name:16s} {catalog.entry_info(name)['provenance']}")

print("\n=== strong difference families ===")
for name in ("z7_8_8", "z63_8_8", "z119_8_8", "z125_6_6"):
    fam = catalog.family(name)
    rep = families.verify_sdf(fam)
    print(f"  {name:10s} over {fam.group!r:6} blocks={len(fam.blocks):3d} "
          f"mu={fam.lam:2d} verified={rep.ok}")

print("\n=== parametrized constructions ===")
for label, fam in (
    ("paley2(7)", catalog.family("paley2", 7)),
    ("paley2(27)", catalog.family("paley2", 27)),
    ("paley3(9)", catalog.family("paley3", 9)),
    ("twinPrime(5)", catalog.family("twinPrime", 5)),
    ("singer(2,5)", catalog.family("singer", 2, 5)),
):
    rep = families.verify_sdf(fam)
    print(f"  {label:14s} order={fam.group.order:4d} mu={fam.lam:3d} verified={rep.ok}")

print("\n=== lifting data ===")
for name in ("fdf_z7xF89", "fdf_z63xF25", "fdf_z119xF25", "fdf_z125xF67"):
    data = catalog.lifting_datum(name)
    rep = lifting.check_lifting_conditions(data)
    note = "" if rep.ok else f"  <- fails as printed: {rep.detail[:60]}"
    print(f"  {name:14s} q={data.field.q:3d} e={data.e:2d} d={data.d} ok={rep.ok}{note}")

print("\nThe z63 datum is repaired in demo 03.")
