import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2lie.algebra import (
    AlgebraDef,
    AlgebraFormatError,
    AlgebraMismatch,
    Element,
    NoUnit,
    NonEvenUnit,
    NotInvertible,
    OddOddNonzero,
    ParityViolation,
    ScalarKindMismatch,
    graded_norm,
    is_associative,
    part_norms_squared,
    random_element,
    validate_z2,
)
from z2lie.catalog import catalog_algebra


def dual_numbers_def():
    # basis {1, eps}, eps odd, eps^2 = 0
    return AlgebraDef(
        "dual",
        2,
        (0, 1),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        (1, 0),
    )


def test_validate_dual_numbers():
    alg = validate_z2(dual_numbers_def())
    assert alg.even_indices == (0,)
    assert alg.odd_indices == (1,)
    assert is_associative(alg)


def test_validate_octonion_type_table():
    alg = catalog_algebra("O2")
    assert alg.dim == 16
    assert alg.even_indices == tuple(range(8))


def test_odd_odd_nonzero_rejected():
    defn = AlgebraDef(
        "bad",
        2,
        (0, 1),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)],
        (1, 0),
    )
    with pytest.raises(OddOddNonzero) as err:
        validate_z2(defn)
    assert err.value.indices == (1, 1)


def test_parity_violation_rejected():
    # even * odd landing on an even vector
    defn = AlgebraDef(
        "bad",
        2,
        (0, 1),
        [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 1)],
        (1, 0),
    )
    with pytest.raises(ParityViolation) as err:
        validate_z2(defn)
    assert err.value.indices == (0, 1, 0)


def test_no_unit_rejected():
    defn = AlgebraDef(
        "bad",
        2,
        (0, 1),
        [(0, 1, 1, 1), (1, 0, 1, 1)],
        (1, 0),
    )
    with pytest.raises(NoUnit):
        validate_z2(defn)


def test_non_even_unit_rejected():
    defn = AlgebraDef(
        "bad",
        2,
        (0, 1),
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        (1, 1),
    )
    with pytest.raises(NonEvenUnit):
        validate_z2(defn)


def test_table_products():
    o2 = catalog_algebra("O2")
    # indices: e_{0j} -> j-1, e_{1j} -> 7+j
    e = o2.basis
    assert e(1) * e(4) == e(5)          # e02*e05 = e06
    assert e(8) * e(4) == e(12)         # e11*e05 = +e15 at twist +1
    assert (e(9) * e(10)).is_zero()     # e12*e13 = 0 (odd*odd)
    om2 = catalog_algebra("O-2")
    f = om2.basis
    assert f(8) * f(4) == -1 * f(12)    # e11*e05 = -e15 at twist -1


def test_unit_is_identity():
    alg = catalog_algebra("H2")
    rng = random.Random(3)
    a = random_element(alg, rng)
    assert alg.unit * a == a
    assert a * alg.unit == a


def test_even_odd_split():
    alg = catalog_algebra("O2")
    a = alg.basis(0) + alg.basis(8)
    assert a.even_part() == alg.basis(0)
    assert a.odd_part() == alg.basis(8)
    assert a.even_part() + a.odd_part() == a
    assert alg.basis(3).odd_part().is_zero()


def test_odd_times_odd_vanishes():
    alg = catalog_algebra("O-2")
    rng = random.Random(11)
    for _ in range(20):
        coeffs_a = [Fraction(0)] * 8 + [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        coeffs_b = [Fraction(0)] * 8 + [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        a = Element(alg, coeffs_a)
        b = Element(alg, coeffs_b)
        assert (a * b).is_zero()


def test_invert_dual_numbers():
    alg = validate_z2(dual_numbers_def())
    a = alg.element([2, 3])
    # oracle: eliminate by hand on the left-multiplication system
    # [[2, 0], [3, 2]] y = [1, 0]  =>  y0 = 1/2, y1 = -3/4
    inv = a.invert()
    assert inv.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    assert a * inv == alg.unit
    assert inv * a == alg.unit


def test_invert_pure_odd_fails():
    for name in ("R2", "H2", "O2"):
        alg = catalog_algebra(name)
        with pytest.raises(NotInvertible):
            alg.basis(alg.odd_indices[0]).invert()


def test_invert_unit():
    for name in ("C", "C-2", "O-2"):
        alg = catalog_algebra(name)
        assert alg.unit.invert() == alg.unit


def test_invert_unipotent():
    alg = catalog_algebra("H-2")
    odd = alg.basis(alg.odd_indices[2])
    a = alg.unit + odd
    assert a.invert() == alg.unit - odd


def test_algebra_mismatch():
    a = catalog_algebra("C").unit
    b = catalog_algebra("H").unit
    with pytest.raises(AlgebraMismatch):
        a * b


def test_scalar_kind_mismatch():
    alg = catalog_algebra("C")
    exact = alg.element([1, 2])
    numeric = alg.element([1.0, 2.0])
    with pytest.raises(ScalarKindMismatch):
        exact * numeric
    with pytest.raises(ScalarKindMismatch):
        exact.scale(0.5)
    assert numeric.scale(0.5).coeffs == (0.5, 1.0)


def test_json_roundtrip(tmp_path):
    defn = catalog_algebra("C-2").defn
    text = defn.to_json()
    back = AlgebraDef.from_json(text)
    assert back == defn
    # omitted triples mean zero and rationals parse from p/q strings
    data = json.loads(text)
    assert all(isinstance(row[3], str) for row in data["structconst"])


def test_file_roundtrip(tmp_path):
    from z2lie.algebra import load_algebra, save_algebra

    defn = catalog_algebra("H-2").defn
    path = tmp_path / "h-2.json"
    save_algebra(defn, path)
    assert load_algebra(path) == defn


_coefficients = st.one_of(
    st.integers(-2, 2),
    st.fractions(-2, 2, max_denominator=3),
    st.fractions(-2, 2, max_denominator=3).map(str),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.lists(
                st.tuples(*[st.integers(0, dim - 1)] * 3, _coefficients), max_size=20
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_triples_canonicalize_and_roundtrip(dim_triples, rnd):
    # duplicates, explicit zeros and any order all land on one canonical form
    dim, triples = dim_triples
    unit = [1] + [0] * (dim - 1)
    defn = AlgebraDef("t", dim, [0] * dim, triples, unit)
    summed = {}
    for i, j, k, c in triples:
        summed[i, j, k] = summed.get((i, j, k), 0) + Fraction(c)
    assert defn.structconst == tuple(
        (*ijk, c) for ijk, c in sorted(summed.items()) if c
    )
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    assert AlgebraDef("t", dim, [0] * dim, shuffled, unit) == defn
    text = defn.to_json()
    back = AlgebraDef.from_json(text)
    assert back == defn
    assert back.to_json() == text


def test_json_malformed():
    with pytest.raises(AlgebraFormatError):
        AlgebraDef.from_json("{not json")
    with pytest.raises(AlgebraFormatError):
        AlgebraDef.from_json(json.dumps({"name": "x", "dim": 1}))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_product_respects_grading(coeffs_a, coeffs_b):
    alg = catalog_algebra("C-2")
    a = Element(alg, [Fraction(c) for c in coeffs_a])
    b = Element(alg, [Fraction(c) for c in coeffs_b])
    a0, a1 = a.even_part(), a.odd_part()
    b0, b1 = b.even_part(), b.odd_part()
    assert (a0 * b0).odd_part().is_zero()
    assert (a0 * b1).even_part().is_zero()
    assert (a1 * b0).even_part().is_zero()
    assert (a1 * b1).is_zero()
    assert a * b == a0 * b0 + a0 * b1 + a1 * b0


def test_norm_helpers():
    alg = catalog_algebra("O2")
    a = 3 * alg.basis(1) + 4 * alg.basis(2)
    assert graded_norm(a) == 5.0
    assert part_norms_squared(a) == (Fraction(25), Fraction(0))
