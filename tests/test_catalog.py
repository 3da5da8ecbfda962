import random
from fractions import Fraction

import pytest

from z2lie.algebra import graded_norm, is_alternative, is_associative, random_element
from z2lie.catalog import (
    CATALOG_NAMES,
    CatalogName,
    IllegalName,
    NotClosed,
    catalog_algebra,
    composition_check,
    division_check,
    expected_properties,
    octonion_type_def,
    subalgebra_restrict,
)

EXPECTED_DIMS = {
    "R": 1,
    "C": 2,
    "H": 4,
    "R2": 2,
    "C2": 4,
    "C-2": 4,
    "H2": 8,
    "H-2": 8,
    "O2": 16,
    "O-2": 16,
}

ASSOCIATIVE_EIGHT = ("R", "C", "H", "R2", "C2", "C-2", "H2", "H-2")


def test_catalog_dimensions():
    for name in CATALOG_NAMES:
        assert catalog_algebra(name).dim == EXPECTED_DIMS[name]


def test_illegal_names():
    for bad in ("Q", "R-2", "O", "C+2", ""):
        with pytest.raises(IllegalName):
            catalog_algebra(bad)
    with pytest.raises(IllegalName):
        CatalogName("O", None)
    with pytest.raises(IllegalName):
        CatalogName("R", -1)


def test_catalog_name_roundtrip():
    for name in CATALOG_NAMES:
        assert str(CatalogName.from_string(name)) == name


def test_octonion_table_spot_checks():
    o2 = catalog_algebra("O2")
    e = o2.basis
    assert e(4) * e(1) == -1 * e(5)      # e05*e02 = -e06
    om2 = catalog_algebra("O-2")
    f = om2.basis
    assert f(12) * f(4) == f(8)          # e15*e05 = -lambda*e11 = +e11 at -1
    assert e(12) * e(4) == -1 * e(8)     # and -e11 at +1


def test_r_is_trivial():
    alg = catalog_algebra("R")
    assert alg.dim == 1
    assert alg.unit == alg.basis(0)


def test_transcription_integrity():
    # identity on the even part, and every imaginary even unit squares to -1
    for name in ("O2", "O-2"):
        alg = catalog_algebra(name)
        one = alg.basis(0)
        for j in range(8):
            assert one * alg.basis(j) == alg.basis(j)
            assert alg.basis(j) * one == alg.basis(j)
        for j in range(1, 8):
            assert alg.basis(j) * alg.basis(j) == -1 * one


def test_even_odd_table_mirrors_even_even():
    # left multiplication by an even unit acts identically on the odd copy
    entries = {(i, j, k): c for i, j, k, c in octonion_type_def(1).structconst}
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert entries.get((i, j, k)) == entries.get((i, 8 + j, 8 + k))


def test_twist_difference_locality():
    plus = set(octonion_type_def(1).structconst)
    minus = set(octonion_type_def(-1).structconst)
    differing = {(i, j) for i, j, _k, _c in plus ^ minus}
    # all twisted entries sit in the odd*even table, columns e05..e08,
    # and every one of those columns actually differs
    assert differing == {(8 + s, t) for s in range(8) for t in range(4, 8)}


def test_restriction_to_dual_numbers():
    for parent_name in ("O2", "O-2"):
        parent = catalog_algebra(parent_name)
        sub = subalgebra_restrict(parent, [0], [8], name="sub")
        assert sub.dim == 2
        assert sub.parity == (0, 1)
        eps = sub.basis(1)
        assert (eps * eps).is_zero()
    # the twist cancels at this level: both restrictions agree
    a = subalgebra_restrict(catalog_algebra("O2"), [0], [8], name="s").defn
    b = subalgebra_restrict(catalog_algebra("O-2"), [0], [8], name="s").defn
    assert a == b


def test_restriction_twist_in_complex_case():
    c2 = catalog_algebra("C2")
    cm2 = catalog_algebra("C-2")
    # basis order [e01, e05 | e11, e15]: i = index 1, odd units 2, 3
    i_plus, v_plus = c2.basis(1), c2.basis(3)
    assert i_plus * v_plus == v_plus * i_plus  # twist +1 commutes
    i_minus, v_minus = cm2.basis(1), cm2.basis(3)
    assert i_minus * v_minus == -1 * (v_minus * i_minus)  # twist -1 conjugates


def test_restriction_not_closed():
    parent = catalog_algebra("O2")
    with pytest.raises(NotClosed) as err:
        subalgebra_restrict(parent, [0, 1, 2], [])
    # e02 * e03 = e04 escapes the span
    assert err.value.witness == (1, 2, 3)


def test_restriction_parity_checked():
    parent = catalog_algebra("O2")
    with pytest.raises(ValueError):
        subalgebra_restrict(parent, [8], [])
    with pytest.raises(ValueError):
        subalgebra_restrict(parent, [0], [1])


def test_associativity_classification():
    for name in ASSOCIATIVE_EIGHT:
        assert is_associative(catalog_algebra(name)), name
    assert not is_associative(catalog_algebra("O2"))
    assert not is_associative(catalog_algebra("O-2"))


def test_alternative_classification():
    assert is_alternative(catalog_algebra("O2"))
    for name in ASSOCIATIVE_EIGHT:
        assert is_alternative(catalog_algebra(name)), name
    # The twist -1 tables are not alternative, despite the stated claim:
    # with x = e05 + e12 and y = e03 the law x(xy) = (xx)y fails.  The
    # exhaustive basis-triple check is the oracle here; see the acceptance
    # suite for the corresponding (honestly failing) criterion.
    alg = catalog_algebra("O-2")
    assert not is_alternative(alg)
    x = alg.basis(4) + alg.basis(9)
    y = alg.basis(2)
    assert x * (x * y) != (x * x) * y


def test_norm_values():
    alg = catalog_algebra("O2")
    assert graded_norm(alg.basis(0)) == 1.0
    assert graded_norm(alg.basis(0) + alg.basis(8)) == 2.0
    assert graded_norm(3 * alg.basis(1) + 4 * alg.basis(2)) == 5.0


def test_norm_zero_iff_zero():
    alg = catalog_algebra("C-2")
    assert graded_norm(alg.zero()) == 0.0
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(alg, rng)
        assert (graded_norm(a) == 0.0) == a.is_zero()


def test_composition_check_all_catalog():
    for name in CATALOG_NAMES:
        report = composition_check(catalog_algebra(name), trials=150, seed=0)
        assert report.passed, (name, [c.name for c in report.checks if not c.passed])


def test_composition_check_zero_inputs():
    from z2lie.algebra import part_norms_squared

    alg = catalog_algebra("C2")
    zero = alg.zero()
    x = random_element(alg, random.Random(1))
    for a, b in ((zero, x), (x, zero), (zero, zero)):
        a0, b0, b1 = a.even_part(), b.even_part(), b.odd_part()
        assert part_norms_squared(a0 * b0)[0] == (
            part_norms_squared(a0)[0] * part_norms_squared(b0)[0]
        )
        assert part_norms_squared(a0 * b1)[1] == (
            part_norms_squared(a0)[0] * part_norms_squared(b1)[1]
        )
        assert part_norms_squared(b1 * a0)[1] == (
            part_norms_squared(a0)[0] * part_norms_squared(b1)[1]
        )
        assert graded_norm(a * b) <= graded_norm(a) * graded_norm(b) + 1e-12


def test_division_check_eight():
    for name in ASSOCIATIVE_EIGHT:
        report = division_check(catalog_algebra(name), trials=120, seed=0)
        assert report.passed, name
        odd_check = report.find("pure_odd_not_invertible")
        if catalog_algebra(name).odd_indices:
            assert odd_check.trials > 0
        else:
            assert odd_check.trials == 0
            assert "vacuous" in odd_check.note


def test_division_zero_divisor_witness():
    alg = catalog_algebra("R2")
    report = division_check(alg, trials=50, seed=0)
    witness_check = report.find("pure_odd_two_sided_zero_divisor")
    assert witness_check.passed
    assert "e_1" in witness_check.note


def test_expected_properties_table():
    for name in ASSOCIATIVE_EIGHT:
        props = expected_properties(name)
        assert props["associative"] and props["division"]
    for name in ("O2", "O-2"):
        props = expected_properties(name)
        assert not props["associative"] and not props["division"]
        assert props["alternative"] and props["composition"]
