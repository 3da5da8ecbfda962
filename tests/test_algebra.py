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
    graded_norm,
    is_associative,
    part_norms_squared,
    random_element,
    validate_z2,
)
from z2lie.bch import Series
from z2lie.blockmodel import block_matrix_algebra
from z2lie.catalog import CATALOG_NAMES, catalog_algebra
from z2lie.linalg import divided


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
    assert alg.parity == (0, 1)
    assert alg.odd_indices == (1,)
    assert is_associative(alg)


def test_validate_octonion_type_table():
    alg = catalog_algebra("O2")
    assert alg.dim == 16
    assert alg.parity == (0,) * 8 + (1,) * 8


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


@pytest.mark.parametrize("index", [-1, 2, 5, True, 1.0])
def test_basis_index_out_of_range(index):
    # True and 1.0 equal 1, but only an int indexes the basis
    alg = catalog_algebra("C")
    with pytest.raises(IndexError, match=r"range\(2\)"):
        alg.basis(index)


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
    a = Element(alg, [2, 3])
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


# one exactness rule for both kinds of exact vector: (c0, c1) -> vector
_VECTOR_KINDS = {
    "Element": lambda c0, c1: Element(catalog_algebra("C"), [c0, c1]),
    "Series": lambda c0, c1: Series(1, {(0,): c0, (1,): c1}),
}


@pytest.mark.parametrize("kind", sorted(_VECTOR_KINDS))
def test_float_scalars_rejected(kind):
    make = _VECTOR_KINDS[kind]
    with pytest.raises(TypeError):
        make(1.0, 2)
    with pytest.raises(TypeError):
        make(1, True)
    a = make(1, 2)
    with pytest.raises(TypeError):
        a.scale(0.5)
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        0.5 * a
    # integral scalars keep int coefficients, strings parse exactly
    assert all(type(c) is int for c in (3 * a - a).terms.values())
    assert make("1/3", "0.5") == make(Fraction(1, 3), Fraction(1, 2))


def test_int_coefficients_match_their_fraction_twin():
    alg = catalog_algebra("H-2")
    ints = Element(alg, [(-1) ** i * i for i in range(alg.dim)])
    fracs = Element(alg, [Fraction((-1) ** i * i) for i in range(alg.dim)])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert repr(ints) == repr(fracs)
    assert ints * fracs == fracs * fracs
    assert ints.invert() == fracs.invert()


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "O-2 rescaled"])
def test_left_columns_match_element_products(name, rescaled_o_minus_2):
    alg = validate_z2(rescaled_o_minus_2) if name == "O-2 rescaled" else catalog_algebra(name)
    rng = random.Random(name)
    for el in (random_element(alg, rng), alg.unit, alg.basis(alg.dim - 1)):
        columns, den = el._left_columns()
        assert [divided(col, den) for col in columns] == [
            (el * alg.basis(j)).terms for j in range(alg.dim)
        ]


def test_json_roundtrip(tmp_path):
    defn = catalog_algebra("C-2").defn
    text = defn.to_json()
    back = AlgebraDef.from_json(text)
    assert back == defn
    # omitted triples mean zero and rationals parse from p/q strings
    data = json.loads(text)
    assert all(isinstance(row[3], str) for row in data["structconst"])


def test_file_roundtrip(tmp_path):
    from z2lie.algebra import load_algebra

    defn = catalog_algebra("H-2").defn
    path = tmp_path / "h-2.json"
    path.write_text(defn.to_json(), encoding="utf-8")
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
            st.lists(st.integers(0, 1), min_size=dim, max_size=dim),
            st.lists(
                st.tuples(*[st.integers(0, dim - 1)] * 3, _coefficients), max_size=20
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_triples_canonicalize_and_roundtrip(dim_parity_triples, rnd):
    # duplicates, explicit zeros and any order all land on one canonical form;
    # the parities are drawn too, so graded definitions round-trip as well
    dim, parity, triples = dim_parity_triples
    unit = [1] + [0] * (dim - 1)
    defn = AlgebraDef("t", dim, parity, triples, unit)
    summed = {}
    for i, j, k, c in triples:
        summed[i, j, k] = summed.get((i, j, k), 0) + Fraction(c)
    assert defn.structconst == tuple(
        (*ijk, c) for ijk, c in sorted(summed.items()) if c
    )
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    assert AlgebraDef("t", dim, parity, shuffled, unit) == defn
    text = defn.to_json()
    back = AlgebraDef.from_json(text)
    assert back == defn
    assert back.to_json() == text


def test_json_malformed():
    with pytest.raises(AlgebraFormatError):
        AlgebraDef.from_json("{not json")
    with pytest.raises(AlgebraFormatError):
        AlgebraDef.from_json(json.dumps({"name": "x", "dim": 1}))


def _dense_product(alg, a, b):
    """Reference product read straight off the structure-constant triples."""
    out = [Fraction(0)] * alg.dim
    for i, j, k, c in alg.defn.structconst:
        out[k] += a.coeffs[i] * b.coeffs[j] * c
    return tuple(out)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
)
def test_product_respects_grading(coeffs_a, coeffs_b):
    for alg in (catalog_algebra("C-2"), catalog_algebra("O-2"), block_matrix_algebra(2, 1)):
        a = Element(alg, [Fraction(c) for c in coeffs_a[: alg.dim]])
        b = Element(alg, [Fraction(c) for c in coeffs_b[: alg.dim]])
        ab = a * b
        assert ab.coeffs == _dense_product(alg, a, b)
        # canonical sparse form: no stored zeros, equal vectors hash equally
        zero = Element(alg, [0] * alg.dim)
        assert (a - a).is_zero() and a - a == zero and hash(a - a) == hash(zero)
        for v in (a, ab):
            assert Element(alg, v.coeffs) == v and hash(Element(alg, v.coeffs)) == hash(v)
        a0, a1 = a.even_part(), a.odd_part()
        b0, b1 = b.even_part(), b.odd_part()
        assert (a0 * b0).odd_part().is_zero()
        assert (a0 * b1).even_part().is_zero()
        assert (a1 * b0).even_part().is_zero()
        assert (a1 * b1).is_zero()
        assert ab == a0 * b0 + a0 * b1 + a1 * b0


def test_norm_helpers():
    alg = catalog_algebra("O2")
    a = 3 * alg.basis(1) + 4 * alg.basis(2)
    assert graded_norm(a) == 5.0
    assert part_norms_squared(a) == (Fraction(25), Fraction(0))
