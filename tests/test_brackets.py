import random
from fractions import Fraction

import pytest

from z2lie.algebra import Element, random_element
from z2lie.blockmodel import BlockShape, block_matrix_algebra, block_matrix_element
from z2lie.brackets import (
    angle,
    generate_subalgebra,
    square,
    verify_identities,
)
from z2lie.catalog import catalog_algebra

ASSOCIATIVE_EIGHT = ("R", "C", "H", "R2", "C2", "C-2", "H2", "H-2")


def test_angle_ignores_odd_second_argument():
    alg = catalog_algebra("H2")
    rng = random.Random(0)
    x = random_element(alg, rng)
    odd = alg.basis(alg.odd_indices[1])
    assert angle(x, odd).is_zero()


def test_angle_in_commutative_algebra():
    alg = catalog_algebra("R2")
    eps = alg.basis(1)
    assert angle(eps, alg.unit).is_zero()


def test_self_angle_of_pure_odd_vanishes():
    alg = catalog_algebra("O2")
    x = alg.basis(9) + 2 * alg.basis(13)
    assert angle(x, x).is_zero()
    assert square(angle(x, x), alg.basis(3)).is_zero()


def test_angle_twist_example():
    # basis order [e01, e02, e05, e06 | e11, e12, e15, e16]
    h2 = catalog_algebra("H2")
    assert angle(h2.basis(4), h2.basis(2)).is_zero()
    hm2 = catalog_algebra("H-2")
    assert angle(hm2.basis(4), hm2.basis(2)) == -2 * hm2.basis(6)


def test_square_examples():
    h = catalog_algebra("H")
    i, j, k = h.basis(1), h.basis(2), h.basis(3)
    assert square(i, j) == 2 * k
    assert square(i, i).is_zero()
    r2 = catalog_algebra("R2")
    for a in range(2):
        for b in range(2):
            assert square(r2.basis(a), r2.basis(b)).is_zero()


def test_angle_depends_on_even_component_only():
    alg = catalog_algebra("C-2")
    rng = random.Random(7)
    for _ in range(25):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert angle(x, y) == angle(x, y.even_part())


def test_angle_equals_square_for_even_second_argument():
    alg = catalog_algebra("H-2")
    rng = random.Random(9)
    for _ in range(25):
        x = random_element(alg, rng)
        y = random_element(alg, rng).even_part()
        assert angle(x, y) == square(x, y)


def test_identities_hold_on_associative_catalog():
    for name in ASSOCIATIVE_EIGHT:
        report = verify_identities(catalog_algebra(name), trials=40, seed=0)
        assert report.passed, (name, [c.name for c in report.checks if not c.passed])


def test_identities_on_octonion_type():
    # non-associative tables: the report names exactly which identities
    # fail; the even-part structure keeps the other four exact
    for name in ("O2", "O-2"):
        report = verify_identities(catalog_algebra(name), trials=10, seed=0)
        status = {c.name: c.passed for c in report.checks}
        assert status == {
            "leibniz": False,
            "huliu_1": True,
            "huliu_2": True,
            "huliu_3": False,
            "huliu_4": True,
            "jacobi": False,
            "antisymmetry": True,
        }
        failing = report.find("leibniz")
        assert failing.failures, "failures must carry witnesses"
        assert "residual" in failing.failures[0]


def test_identity_report_serializes():
    report = verify_identities(catalog_algebra("C"), trials=5, seed=1)
    doc = report.to_json_dict()
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"leibniz", "jacobi"}


def test_generate_subalgebra_single_even_element():
    h = catalog_algebra("H")
    basis = generate_subalgebra([h.basis(1)])
    assert basis.dim == 1
    assert basis.contains(h.basis(1))


def test_generate_subalgebra_full_basis():
    alg = catalog_algebra("C-2")
    basis = generate_subalgebra([alg.basis(i) for i in range(alg.dim)])
    assert basis.dim == alg.dim


def test_generate_subalgebra_block_odd_unit():
    alg = block_matrix_algebra(1, 1)
    shape = BlockShape(1, 1)
    odd_unit = block_matrix_element(alg, shape, [[0, 1], [0, 0]])
    basis = generate_subalgebra([odd_unit])
    assert basis.dim == 1


def test_generate_subalgebra_closure_and_idempotence():
    alg = catalog_algebra("H2")
    rng = random.Random(2)
    seeds = [random_element(alg, rng) for _ in range(2)]
    basis = generate_subalgebra(seeds)
    for s in seeds:
        assert basis.contains(s)
    for a in basis.vectors:
        for b in basis.vectors:
            assert basis.contains(angle(a, b))
            assert basis.contains(square(a, b))
    again = generate_subalgebra(list(basis.vectors))
    assert again.dim == basis.dim
    assert [v.coeffs for v in again.vectors] == [v.coeffs for v in basis.vectors]


def test_generate_subalgebra_requires_seeds():
    with pytest.raises(ValueError):
        generate_subalgebra([])
