import hashlib
import json

import pytest

from framedf import catalog
from framedf.families import verify_sdf
from framedf.lifting import check_lifting_conditions
from framedf.serialize import family_to_dict, lifting_to_dict


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


# sha256 of json.dumps(family_to_dict(...) or lifting_to_dict(...), sort_keys=True):
# every entry without parameters (a lifting entry's datum, and its lifted
# family where it lifts as printed) and four parametrized ones
CATALOG_SHA256 = {
    "fdf_z119xF25": "a96a5de767b6452c455d583e088d5541921c29c3ffa271a88381f6f4a90d98c9",
    "fdf_z119xF25 lifted": "1ffc92b7a65669e3b430ee2d82da6e4856b0b9610f4e24e9ba483ed7a73ae71e",
    "fdf_z125xF67": "a8e812612801e4c034ff8b9787cd13a5959265a653da4ec3cfeca5ef92d98181",
    "fdf_z125xF67 lifted": "19fae79393abb4d6639d91786b99ed115cabac3e80bb8627f2ea3b917bf0c97a",
    "fdf_z63xF25": "106cd30d8bdd4d62db41d886ec525bbbffebaa804ea28433801157f9495eb71c",
    "fdf_z7xF89": "a1e220a0eff760045e99752330eae04d6435b536721b7b78ec75e8369e322528",
    "fdf_z7xF89 lifted": "915c5c1f1caee162cd90ab54c8a07e4544dcc4d1cef12429a52756f13ff12300",
    "z119_8_8": "f89d76b977741d6ccf2d1cb17bb7a77a4a071eaf310a702d2e9d872520b39dcd",
    "z125_6_6": "6df5f2a3bf8217d2b36e44dc63e226a0ddde762cbefd65cdcd6dcea9f4806da2",
    "z63_8_8": "49b9e9fd4112aac60f484e1d26c0ddd6d1a18eb4783d2e97c7222cdf1cf9d48c",
    "z7_8_8": "b9b14f1c0b4bbc83ac5806d581d708a07d6ac59b1c61d5f6a189c7dcc06dffde",
    "paley2:7": "c9c44b8b0f9ac53ebe0bd23d21437e7a6881e6307ac6393b9604371b8ee79f63",
    "paley3:5": "0241da0b657465e9f159d0c152a0388edf01c88e5d5548f02795624585a8947a",
    "twinPrime:3": "e7e145ac9f65de80775268dc4fef8121efbf32c3017b8b227fb167fb6754954d",
    "singer:2,3": "c7844215b22096d15ab33cccf98d165c9df8a12883931d7df49896acaa699002",
}


def _entry_dict(key):
    """The dict a CATALOG_SHA256 key names: 'name', 'name:p,m' or 'name lifted'."""
    spec, _, lifted = key.partition(" ")
    name, _, params = spec.partition(":")
    if catalog.entry_info(name)["kind"] == "lifting" and not lifted:
        return lifting_to_dict(catalog.lifting_datum(name))
    return family_to_dict(catalog.family(name, *(int(x) for x in params.split(",") if x)))


def test_entries_are_pinned():
    unpinned = [n for n in catalog.catalog_names()
                if not catalog.entry_info(n)["parametrized"] and n not in CATALOG_SHA256]
    assert not unpinned
    for key, digest in CATALOG_SHA256.items():
        blob = json.dumps(_entry_dict(key), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, key
