import random
from fractions import Fraction
from itertools import product

import pytest

from z2lie.algebra import Element, random_element, validate_z2
from z2lie.blockmodel import BlockShape, block_matrix_algebra, block_matrix_element
from z2lie.brackets import (
    IDENTITIES,
    _bracket_tables,
    angle,
    generate_subalgebra,
    square,
    verify_identities,
)
from z2lie.catalog import CATALOG_NAMES, catalog_algebra
from z2lie.linalg import divided
from z2lie.report import VerificationReport, element_witness

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


# failures of verify_identities(alg, trials=0) on basis arguments; every
# identity not listed has none, on every catalog algebra
EXHAUSTIVE_FAILURES = {
    "O2": {"leibniz": 336, "huliu_3": 504, "jacobi": 672},
    "O-2": {"leibniz": 240, "huliu_3": 312, "jacobi": 384},
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exhaustive_counts_are_pinned(name):
    alg = catalog_algebra(name)
    report = verify_identities(alg, trials=0)
    assert [c.name for c in report.checks] == [entry[0] for entry in IDENTITIES]
    for check in report.checks:
        # triples and polarized pairs: dim^3 tuples; antisymmetry: dim^2 pairs
        assert check.trials == alg.dim ** (2 if check.name == "antisymmetry" else 3)
        assert check.failure_count == EXHAUSTIVE_FAILURES.get(name, {}).get(check.name, 0)


def _element_loop_report(alg):
    """verify_identities(alg, trials=0) as a plain loop over basis Elements."""
    basis = [alg.basis(i) for i in range(alg.dim)]
    arguments = {
        "triple": list(product(basis, repeat=3)),
        "pair": list(product(basis, repeat=2)),
        # x = e_i + e_j, which is 2 e_i when i == j
        "polarized_pair": [(x + y, z) for x, y, z in product(basis, repeat=3)],
    }
    report = VerificationReport(subject=f"bracket-identities:{alg.name}")
    for name, func, pattern, _depth in IDENTITIES:
        check = report.check(name)
        for args in arguments[pattern]:
            check.record_trial()
            residual = func(angle, square, *args)
            if not residual.is_zero():
                check.record_failure(element_witness(*zip("xyz", args), ("residual", residual)))
    return report.to_json_dict()


@pytest.mark.parametrize("name", ["C-2", "O-2", "blockmat(2,1)", "O-2 rescaled"])
def test_bracket_tables_agree_with_elements(name, rescaled_o_minus_2):
    if name == "blockmat(2,1)":
        alg = block_matrix_algebra(2, 1)
    elif name == "O-2 rescaled":
        alg = validate_z2(rescaled_o_minus_2)
    else:
        alg = catalog_algebra(name)
    table_angle, table_square, den = _bracket_tables(alg)
    # the rescaled basis gives fractional constants; the others are integral
    assert (den > 1) == (name == "O-2 rescaled")
    for i, j in product(range(alg.dim), repeat=2):
        e_i, e_j = alg.basis(i), alg.basis(j)
        assert divided(table_angle({i: 1}, {j: 1}), den) == angle(e_i, e_j).terms
        assert divided(table_square({i: 1}, {j: 1}), den) == square(e_i, e_j).terms
    assert verify_identities(alg, trials=0).to_json_dict() == _element_loop_report(alg)


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
