"""Group-spec parsing and the standard constructions."""

import math

import pytest

from vangraph.catalog import (SpecError, alternating_group, catalog_group,
                              cyclic_group, dihedral_group, direct_product,
                              psl2, symmetric_group)
from vangraph.perms import cycle_perm


def test_cyclic_groups():
    for n in range(1, 13):
        g = cyclic_group(n)
        assert g.order == n
    assert cyclic_group(1).degree == 1
    assert cyclic_group(1).generators == ()


def test_symmetric_and_alternating():
    for n in range(1, 8):
        assert symmetric_group(n).order == math.factorial(n)
    # PermGroup drops the identity and repeated generators: S1 has none,
    # and the 2-cycle of S2 repeats its transposition
    assert symmetric_group(1).generators == ()
    assert symmetric_group(1).degree == 1
    assert symmetric_group(2).generators == (cycle_perm((0, 1), 2),)
    for n in range(3, 8):
        g = alternating_group(n)
        assert g.order == math.factorial(n) // 2
        assert all(x.sign() == 1 for x in g.generators)
    # the n-cycle of A3 is its 3-cycle, dropped as a duplicate
    assert len(alternating_group(3).generators) == 1


def test_dihedral():
    assert dihedral_group(4).order == 4
    for order in (6, 8, 10, 12, 16):
        g = dihedral_group(order)
        assert g.order == order
    with pytest.raises(SpecError):
        dihedral_group(7)
    with pytest.raises(SpecError):
        dihedral_group(2)


def test_psl2():
    g5 = psl2(5)
    assert g5.order == 60 and g5.degree == 6
    g7 = psl2(7)
    assert g7.order == 168 and g7.degree == 8
    g11 = psl2(11)
    assert g11.order == 660 and g11.degree == 12
    with pytest.raises(SpecError):
        psl2(4)
    with pytest.raises(SpecError):
        psl2(2)


def test_direct_product_disjoint_support():
    s3 = symmetric_group(3)
    a5 = alternating_group(5)
    g = direct_product([s3, a5])
    assert g.order == 360
    assert g.degree == 8
    # factors act on disjoint point ranges
    for x in g.generators:
        moved = [i for i in range(8) if x.images[i] != i]
        assert set(moved) <= set(range(3)) or set(moved) <= set(range(3, 8))


def test_catalog_expressions():
    cases = {
        "C6": 6,
        "S4": 24,
        "A7": 2520,
        "D12": 12,
        "PSL(2,7)": 168,
        "S3 x A5": 360,
        "C2 x C2": 4,
        "C2 x C3 x C2": 12,
        "A5 x A5": 3600,
    }
    for spec, order in cases.items():
        assert catalog_group(spec).order == order, spec
    assert catalog_group("  S3   x  A5 ").order == 360


def test_spec_errors():
    for bad in ("S3 y A5", "PSL(2,4)", "PSL(2, 7)", "D7", "X5", "C0", "S",
                "S3 x", "x S3", "", "A2 +"):
        with pytest.raises(SpecError):
            catalog_group(bad)


def test_file_atom(tmp_path):
    path = tmp_path / "klein.grp"
    path.write_text("degree: 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    g = catalog_group(f"file:{path}")
    assert g.order == 4
    combined = catalog_group(f"C3 x file:{path}")
    assert combined.order == 12
    with pytest.raises(SpecError):
        catalog_group(f"file:{tmp_path / 'missing.grp'}")
