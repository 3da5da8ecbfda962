import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from support import find_check
from z2lie import brackets
from z2lie.algebra import AlgebraDef, Element, associator_tensor, random_element, validate_z2
from z2lie.blockmodel import block_matrix_algebra
from z2lie.brackets import (
    IDENTITIES,
    angle,
    associator_terms,
    generate_subalgebra,
    square,
    verify_identities,
)
from z2lie.catalog import CATALOG_NAMES, catalog_algebra, composition_check, division_check
from z2lie.linalg import FractionSpan, divided, vec_add
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
        failing = find_check(report, "leibniz")
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


def _basis_tuples(dim, pattern):
    """The basis tuples of ``pattern`` in product order; a polarized pair has three letters."""
    return product(range(dim), repeat=2 if pattern == "pair" else 3)


def _arguments(alg, pattern, basis_tuple):
    """The identity's arguments at a basis tuple: ``(e_i + e_j, e_k)`` for a polarized pair,
    which is ``(2 e_i, e_k)`` when i == j."""
    args = [alg.basis(i) for i in basis_tuple]
    return [args[0] + args[1], args[2]] if pattern == "polarized_pair" else args


@functools.lru_cache(maxsize=None)
def _direct_residuals(defn, identity):
    """The residual ``terms`` of ``identity`` on every basis tuple, in product
    order, evaluated by ``angle``/``square`` on Elements."""
    alg = validate_z2(defn)
    _name, func, pattern = identity
    return tuple(
        func(angle, square, *_arguments(alg, pattern, t)).terms
        for t in _basis_tuples(alg.dim, pattern)
    )


def _element_loop_report(alg, trials, seed, identities=IDENTITIES):
    """verify_identities(alg, trials, seed) as a plain loop over Elements.

    The samples are drawn as verify_identities draws them: ``trials``
    triples of ``random_element`` from one ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    samples = [tuple(random_element(alg, rng) for _ in range(3)) for _ in range(trials)]
    report = VerificationReport(subject=f"bracket-identities:{alg.name}")
    for identity in identities:
        name, func, pattern = identity
        check = report.check(name)
        on_basis = zip(_basis_tuples(alg.dim, pattern), _direct_residuals(alg.defn, identity))
        for basis_tuple, terms in on_basis:
            check.record_trial()
            if terms:
                args = _arguments(alg, pattern, basis_tuple)
                residual = Element._from_terms(alg, terms)
                check.record_failure(element_witness(*zip("xyz", args), ("residual", residual)))
        for args in samples:
            check.record_trial()
            residual = func(angle, square, *args)
            if not residual.is_zero():
                check.record_failure(element_witness(*zip("xyz", args), ("residual", residual)))
    return report.to_json_dict()


def _one_off_algebra():
    """A 4-dim algebra whose Leibniz identity fails on two basis triples.

    ``e0`` is the unit, ``e3`` is odd, ``e1 e2 = e2`` and ``e3 e2 = (2/3) e3``.
    The report keeps five witnesses, so random-phase witnesses enter it.
    """
    structconst = [(0, j, j, 1) for j in range(4)] + [(j, 0, j, 1) for j in range(1, 4)]
    structconst += [(1, 2, 2, 1), (3, 2, 3, Fraction(2, 3))]
    return validate_z2(
        AlgebraDef(name="one-off", dim=4, parity=(0, 0, 0, 1), structconst=structconst,
                   unit=[1, 0, 0, 0])
    )


def _named_algebra(name, rescaled_o_minus_2):
    if name == "blockmat(2,1)":
        return block_matrix_algebra(2, 1)
    if name == "O-2 rescaled":
        return validate_z2(rescaled_o_minus_2)
    if name == "one-off":
        return _one_off_algebra()
    return catalog_algebra(name)


@pytest.mark.parametrize("name", ["C-2", "O-2", "blockmat(2,1)", "O-2 rescaled", "one-off"])
def test_verify_identities_agrees_with_element_loop(name, rescaled_o_minus_2):
    alg = _named_algebra(name, rescaled_o_minus_2)
    # fractional constants give a common denominator above 1
    assert (alg._den > 1) == (name in ("O-2 rescaled", "one-off"))
    for seed in (0, 3):
        expected = _element_loop_report(alg, trials=12, seed=seed)
        assert verify_identities(alg, trials=12, seed=seed).to_json_dict() == expected


def _random_phase_products(alg, monkeypatch, trials):
    """``Element`` products of ``verify_identities(alg, trials)`` beyond its basis phase."""
    products = 0
    multiply = Element.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return multiply(a, b)

    monkeypatch.setattr(Element, "__mul__", counted)
    verify_identities(alg, trials=0)
    basis_phase, products = products, 0
    verify_identities(alg, trials=trials)
    return products - basis_phase


@pytest.mark.parametrize("name", ["O2", "O-2", "C-2"])
def test_a_random_trial_computes_each_bracket_once(name, monkeypatch):
    # the seven identities make 35 brackets of 2 products each, 25 of them distinct
    assert _random_phase_products(catalog_algebra(name), monkeypatch, trials=20) == 50 * 20


def _faulty_shared_brackets(key_of):
    """``brackets._shared_brackets`` with the memo key ``key_of(bracket, a, b)``."""

    def shared_brackets():
        memo = {}

        def shared(bracket):
            def evaluate(a, b):
                key = key_of(bracket, a, b)
                if key not in memo:
                    memo[key] = (a, b, bracket(a, b))
                return memo[key][2]

            return evaluate

        return shared(angle), shared(square)

    return shared_brackets


@pytest.mark.parametrize(
    "key_of",
    [
        lambda bracket, a, b: (id(a), id(b)),
        lambda bracket, a, b: (bracket, frozenset((id(a), id(b)))),
    ],
    ids=["without the bracket", "without the order"],
)
@pytest.mark.parametrize("name", ["O-2", "C-2"])
def test_a_memo_that_confuses_brackets_disagrees_with_the_element_loop(name, key_of, monkeypatch):
    # negative control for the agreement test above: the random phase sees the memo
    monkeypatch.setattr(brackets, "_shared_brackets", _faulty_shared_brackets(key_of))
    alg = catalog_algebra(name)
    expected = _element_loop_report(alg, trials=12, seed=0)
    assert verify_identities(alg, trials=12, seed=0).to_json_dict() != expected


def test_associator_term_counts_are_pinned():
    counts = {identity[0]: len(associator_terms(identity)) for identity in IDENTITIES}
    assert counts == {
        "leibniz": 12,
        "huliu_1": 0,
        "huliu_2": 0,
        "huliu_3": 18,
        "huliu_4": 0,
        "jacobi": 24,
        "antisymmetry": 0,
    }


def _mispredicted(alg, identity, terms):
    """Basis tuples where the sum of ``terms`` over the associator tensor differs
    from the direct Element residual; the sum is gathered tuple by tuple here,
    not scattered as the verifier does."""
    tensor, parity = associator_tensor(alg), alg.parity
    wrong = []
    tuples = _basis_tuples(alg.dim, identity[2])
    for basis_tuple, direct in zip(tuples, _direct_residuals(alg.defn, identity)):
        predicted = {}
        for letters, parities, alpha in terms:
            slots = tuple(basis_tuple[letter] for letter in letters)
            if tuple(parity[s] for s in slots) == parities:
                predicted = vec_add(predicted, tensor.get(slots, {}), alpha)
        if divided(predicted, alg._den**2) != direct:
            wrong.append(basis_tuple)
    return wrong


@pytest.mark.parametrize(
    "name", [*CATALOG_NAMES, "O-2 rescaled", "blockmat(2,1)", "one-off"]
)
def test_associator_terms_predict_every_basis_residual(name, rescaled_o_minus_2):
    alg = _named_algebra(name, rescaled_o_minus_2)
    for identity in IDENTITIES:
        assert _mispredicted(alg, identity, associator_terms(identity)) == [], identity[0]


def _changed_alpha(terms):
    (letters, parities, alpha), *rest = terms
    return [(letters, parities, alpha + 1), *rest]


@pytest.mark.parametrize("change", [_changed_alpha, lambda terms: terms[:-1]], ids=["alpha", "dropped"])
@pytest.mark.parametrize("name", ["leibniz", "huliu_3", "jacobi"])
def test_a_changed_or_dropped_term_mispredicts(name, change):
    # negative control for the agreement test above
    identity = next(entry for entry in IDENTITIES if entry[0] == name)
    terms = change(list(associator_terms(identity)))
    assert _mispredicted(catalog_algebra("O2"), identity, terms)


def _square_alone(angle, square, x, y, z):
    return square(x, y)


def _right_product_alone(angle, square, x, y, z):
    return x * (y * z)


@pytest.mark.parametrize("func", [_square_alone, _right_product_alone])
def test_a_residual_that_is_not_an_associator_sum_raises(func):
    with pytest.raises(ValueError, match="not a combination of associators"):
        associator_terms(("not-an-identity", func, "triple"))


def _left_alternative(angle, square, x, y, _z=None):
    return (x * x) * y - x * (x * y)


@pytest.mark.parametrize("name", ["O2", "O-2"])
def test_basis_phase_scatters_a_repeated_letter(name, monkeypatch):
    # the left alternative law polarized: its terms (x, x, z) and (y, y, z)
    # use one letter twice and leave the other free over the basis
    identity = ("left_alternative", _left_alternative, "polarized_pair")
    assert {letters for letters, _, _ in associator_terms(identity)} == {
        (0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)
    }
    monkeypatch.setattr(brackets, "IDENTITIES", (identity,))
    alg = catalog_algebra(name)
    report = verify_identities(alg, trials=3, seed=1)
    assert report.to_json_dict() == _element_loop_report(alg, 3, 1, identities=(identity,))
    assert report.checks[0].passed == (name == "O2")


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
@pytest.mark.parametrize("check", [verify_identities, composition_check, division_check])
def test_bad_seeds_are_refused(check, seed):
    # random.Random(-1) would repeat the stream of seed 1, Random(True) that of 1
    with pytest.raises(ValueError, match="seed must be a nonnegative int"):
        check(catalog_algebra("C"), trials=1, seed=seed)


def test_random_phase_witnesses_follow_the_basis_ones():
    report = verify_identities(_one_off_algebra(), trials=12, seed=0)
    leibniz = find_check(report, "leibniz")
    assert leibniz.trials == 4**3 + 12
    # two basis triples fail, then at least three of the random ones
    assert leibniz.failure_count >= 5
    assert [w["residual"] for w in leibniz.failures[:2]] == [
        ["0", "0", "0", "-2/3"],
        ["0", "0", "0", "2/3"],
    ]
    assert any("/" in c for w in leibniz.failures[2:] for c in w["x"])


def test_random_phase_memory_does_not_grow_with_trials():
    # the triples are drawn one at a time and dropped; only witnesses are kept
    alg = catalog_algebra("C")
    verify_identities(alg, trials=1)
    peaks = {}
    for trials in (200, 2000):
        tracemalloc.start()
        try:
            verify_identities(alg, trials=trials, seed=1)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # storing the triples would take about 1 KB each; allocator free lists
    # may hold some 100 KB of recently freed small objects
    assert peaks[2000] < peaks[200] + 256 * 1024, peaks


def test_identity_report_serializes():
    report = verify_identities(catalog_algebra("C"), trials=5, seed=1)
    doc = report.to_json_dict()
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"leibniz", "jacobi"}


def _closure(seeds):
    """The closure of the span of ``seeds``, Elements of one algebra, grown in place."""
    span = FractionSpan()
    for v in seeds:
        span.add(v.terms)
    assert generate_subalgebra(seeds[0].algebra, span) is span
    return span


def test_generate_subalgebra_single_even_element():
    h = catalog_algebra("H")
    span = _closure([h.basis(1)])
    assert span.dim == 1
    assert not span.reduce(h.basis(1).terms)[0]


def test_generate_subalgebra_full_basis():
    alg = catalog_algebra("C-2")
    span = _closure([alg.basis(i) for i in range(alg.dim)])
    assert span.dim == alg.dim


def test_generate_subalgebra_block_odd_unit():
    alg = block_matrix_algebra(1, 1)
    (odd_unit,) = alg.odd_indices
    span = _closure([alg.basis(odd_unit)])
    assert span.dim == 1


def test_generate_subalgebra_closure_and_idempotence():
    alg = catalog_algebra("H2")
    rng = random.Random(2)
    seeds = [random_element(alg, rng) for _ in range(2)]
    span = _closure(seeds)
    for s in seeds:
        assert not span.reduce(s.terms)[0]
    vectors = [Element._from_terms(alg, row) for row in span.integer_rows()]
    for a in vectors:
        for b in vectors:
            assert not span.reduce(angle(a, b).terms)[0]
            assert not span.reduce(square(a, b).terms)[0]
    again = _closure(vectors)
    assert again.dim == span.dim
    assert again.integer_rows() == span.integer_rows()


def _closure_by_elements(seeds):
    """Brute-force closure: bracket every pair of a spanning set of Elements
    until the span stops growing.  Returns the span and the growing rounds."""
    span, spanning = FractionSpan(), []
    for v in seeds:
        if span.add(v.terms):
            spanning.append(v)
    rounds = 0
    while True:
        brackets = [f(a, b) for a in spanning for b in spanning for f in (angle, square)]
        grown = [v for v in brackets if span.add(v.terms)]
        if not grown:
            return span, rounds
        spanning += grown
        rounds += 1


@pytest.mark.parametrize(
    "name, seeds",
    [
        (
            "blockmat(2,1)",
            [{1: Fraction(-5, 7), 2: Fraction(2, 3)}, {0: Fraction(2, 7), 1: Fraction(-5, 2)}],
        ),
        (
            "O2",
            [{12: Fraction(3, 2), 15: Fraction(-2, 7)}, {6: Fraction(-2, 7), 15: Fraction(-2, 3)}],
        ),
    ],
    ids=["blockmat(2,1)", "O2"],
)
def test_generate_subalgebra_matches_element_closure(name, seeds):
    # the closure brackets integer echelon rows; the reference brackets
    # Fraction Elements, and both need more than one round here
    alg = block_matrix_algebra(2, 1) if name == "blockmat(2,1)" else catalog_algebra(name)
    seeds = [Element._from_terms(alg, terms) for terms in seeds]
    expected, rounds = _closure_by_elements(seeds)
    assert rounds > 1 and expected.dim < alg.dim
    span = _closure(seeds)
    assert span.dim == expected.dim
    assert all(not span.reduce(row)[0] for row in expected.integer_rows())
    assert all(not expected.reduce(row)[0] for row in span.integer_rows())


def test_generate_subalgebra_leaves_the_empty_span_empty():
    assert generate_subalgebra(catalog_algebra("H"), FractionSpan()).dim == 0


@pytest.mark.parametrize(
    "alg",
    [block_matrix_algebra(2, 1), block_matrix_algebra(3, 2), catalog_algebra("C-2")],
    ids=lambda alg: alg.name,
)
def test_generate_subalgebra_on_tables_matches_element_closure_at_random(alg):
    # sparse random seeds with small fractional coefficients: some close to
    # a proper subalgebra, some to everything
    rng = random.Random(20)
    proper = 0
    for _ in range(12):
        seeds = []
        for _ in range(rng.randint(1, 2)):
            keys = rng.sample(range(alg.dim), rng.randint(1, 2))
            seeds.append({k: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for k in keys})
        seeds = [Element._from_terms(alg, terms) for terms in seeds]
        expected, _ = _closure_by_elements(seeds)
        span = _closure(seeds)
        assert span.dim == expected.dim
        assert all(not expected.reduce(row)[0] for row in span.integer_rows())
        proper += expected.dim < alg.dim
    assert proper
