import pytest

from framedf import catalog
from framedf.families import verify_sdf
from framedf.lifting import check_lifting_conditions


def test_listing_and_info():
    names = catalog.catalog_names()
    assert len(names) >= 10
    info = catalog.entry_info("z125_6_6")
    assert info["kind"] == "sdf"
    with pytest.raises(KeyError):
        catalog.entry_info("nonexistent")


def test_paley2_block_mod7():
    fam = catalog.family("paley2", 7)
    assert fam.blocks == ((0, 0, 1, 1, 2, 2, 4, 4),)
    assert fam.lam == 8


def test_z125_first_block_verbatim():
    fam = catalog.family("z125_6_6")
    assert fam.blocks[0] == (0, 0, 19, 19, 71, 71)
    assert len(fam.blocks) == 25


def test_singer_parameters():
    fam = catalog.family("singer", 2, 3)
    assert fam.group.order == 7
    assert len(fam.blocks[0]) == 8 and fam.lam == 8
    assert verify_sdf(fam).ok


def test_congruence_errors():
    with pytest.raises(catalog.CatalogDataError):
        catalog.family("paley2", 5)
    with pytest.raises(catalog.CatalogDataError):
        catalog.family("singer", 2, 2)
    with pytest.raises(catalog.CatalogDataError):
        catalog.family("paley3", 8)
    with pytest.raises(catalog.CatalogDataError, match="odd prime powers"):
        catalog.family("twinPrime", 2)


@pytest.mark.parametrize("name,params", [
    ("z7_8_8", (5,)), ("fdf_z7xF89", (89,)), ("twinPrime", ()), ("twinPrime", (3, 5)),
    ("singer", (2,))])
def test_family_takes_exactly_its_entrys_parameters(name, params):
    with pytest.raises(catalog.CatalogDataError, match="parameter"):
        catalog.family(name, *params)


def test_lifting_data_zero_flagging():
    data = catalog.lifting_datum("fdf_z63xF25")
    rep = check_lifting_conditions(data)
    assert not rep.ok
    assert rep.witnesses == tuple((i, 0) for i in range(1, 9))
    with pytest.raises(catalog.CatalogDataError):
        catalog.family("fdf_z63xF25")


def test_lifting_entries_verbatim_pass():
    for name in ("fdf_z7xF89", "fdf_z119xF25", "fdf_z125xF67"):
        assert check_lifting_conditions(catalog.lifting_datum(name)).ok, name


def test_twin_prime_is_difference_multiset():
    fam = catalog.family("twinPrime", 3)
    assert fam.group.order == 15
    assert len(fam.blocks) == 1 and len(fam.blocks[0]) == 16
    assert verify_sdf(fam).ok


# parameters of every parametrized entry, negative and non-prime-power ones included
SWEEP = {"paley2": [(p,) for p in range(-2, 40)], "paley3": [(p,) for p in range(-2, 40)],
         "twinPrime": [(p,) for p in range(-2, 40)],
         "singer": [(p, m) for p in range(-1, 8) for m in range(-1, 5)]}


@pytest.mark.parametrize("name", [n for n in catalog.catalog_names()
                                  if catalog.entry_info(n)["parametrized"]])
def test_a_parametrized_entry_builds_a_verified_family_or_refuses(name):
    built = 0
    for params in SWEEP[name]:
        try:
            fam = catalog.family(name, *params)
        except catalog.CatalogDataError:
            continue
        rep = verify_sdf(fam)
        assert rep.ok, (name, params, rep.detail)
        built += 1
    assert built > 0
