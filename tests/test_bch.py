import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import classical_bch_words, graded_expansion, poly_exp, poly_log, poly_mul
from support import bracket_expand, degree_component, substitute_zero, word_terms
from z2lie.bch import (
    MAX_TRUNCATION,
    BadConstantTerm,
    InconsistentSystem,
    LostRank,
    Series,
    TruncationMismatch,
    _decode,
    _encode,
    _expansions,
    _fit_degree,
    _grouped,
    _is_odd,
    _lift,
    _liftable,
    _lyndon_monomials,
    angle_term,
    bracket_basis_fit,
    bracket_string,
    bracket_value,
    compare_printed_series,
    extended_bch,
    format_bracket_series,
    gen,
    printed_series_terms,
    square_term,
    word_length,
    word_name,
)
from z2lie.linalg import FractionSpan

X0, X1, Y0, Y1, U0, U1, W0, W1 = range(8)


def s(n, terms):
    return Series(n, {tuple(w): Fraction(c) for w, c in terms.items()})


def test_odd_odd_words_vanish():
    x1, y1, y0, u1 = (s(4, {(letter,): 1}) for letter in (X1, Y1, Y0, U1))
    assert (x1 * y1).is_zero()
    assert (x1 * y0 * u1).is_zero()


def test_even_concatenation():
    x0, y0 = s(4, {(X0,): 1}), s(4, {(Y0,): 1})
    assert word_terms(x0 * y0) == {(X0, Y0): Fraction(1)}


def test_constructor_applies_quotient_and_truncation():
    raw = {
        (X1, Y1): Fraction(1),      # two odd letters
        (X0,) * 9: Fraction(1),     # beyond truncation
        (X0,): Fraction(0),         # explicit zero
        (Y0,): Fraction(2),
    }
    out = Series(4, raw)
    assert word_terms(out) == {(Y0,): Fraction(2)}


def test_constructor_refuses_unknown_letters():
    with pytest.raises(ValueError, match="letter 8"):
        Series(3, {(X0, 8): 1})


def test_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        Series.one(3) * Series.one(4)


def test_exp_log_preconditions():
    with pytest.raises(BadConstantTerm):
        Series.one(3).exp()
    with pytest.raises(BadConstantTerm):
        Series(3).log()
    with pytest.raises(BadConstantTerm):
        Series(3).inverse()


def test_exp_of_zero():
    assert Series(5).exp() == Series.one(5)


def test_exp_log_roundtrip_generators():
    for n in range(1, 7):
        x = Series.full_generator("x", n)
        assert x.exp().log() == x


def test_log_exp_roundtrip_other_direction():
    t = s(5, {(X0,): 1, (Y1,): Fraction(1, 2), (U0, X0): Fraction(-1, 3)})
    one = Series.one(5)
    assert (one + t).log().exp() == one + t


def _quotient(poly):
    """The words of a tuple-word polynomial with at most one odd letter."""
    return {w: c for w, c in poly.items() if sum(l & 1 for l in w) < 2}


def _check_code(word):
    code = _encode(word)
    assert _decode(code) == word
    assert word_length(code) == len(word)
    assert _is_odd(code) == any(l & 1 for l in word)
    assert list(_grouped({code: 1})) == [(len(word), any(l & 1 for l in word))]


def test_codes_round_trip_every_short_word():
    words = [w for n in range(6) for w in product(range(8), repeat=n)]
    for word in words:
        _check_code(word)
    # codes sort as (length, word)
    assert sorted(words, key=_encode) == sorted(words, key=lambda w: (len(w), w))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 7), min_size=6, max_size=MAX_TRUNCATION).map(tuple))
def test_codes_round_trip_long_words(word):
    _check_code(word)


_WORD_SERIES = st.dictionaries(
    st.lists(st.integers(0, 7), max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=4,
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, MAX_TRUNCATION), _WORD_SERIES, _WORD_SERIES)
def test_products_match_the_tuple_word_oracle(n, a, b):
    a, b = Series(n, a), Series(n, b)
    expected = _quotient(poly_mul(word_terms(a), word_terms(b), n))
    assert word_terms(a * b) == expected


_NO_CONSTANT = st.dictionaries(
    st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=4,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, MAX_TRUNCATION), _NO_CONSTANT)
def test_exp_log_roundtrip_random(n, terms):
    # exp against the tuple-word oracle, which works in the free algebra:
    # the words with two odd letters span an ideal, so it may drop them last
    series = Series(n, terms)
    exp = series.exp()
    assert word_terms(exp) == _quotient(poly_exp(word_terms(series), n))
    assert exp.log() == series


@pytest.mark.parametrize("n", range(1, MAX_TRUNCATION + 1))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(terms=_NO_CONSTANT)
def test_log_and_inverse_match_the_oracle_at_every_truncation(n, terms):
    # Horner keeps the n-th inner sum only through degree N - n: one degree
    # short and the top-degree words of log and inverse go wrong
    one = Series.one(n)
    shifted = one + Series(n, terms)
    assert word_terms(shifted.log()) == _quotient(poly_log(word_terms(shifted), n))
    doubled = one + shifted
    assert doubled * doubled.inverse() == one
    assert doubled.inverse() * doubled == one


def test_mul_associative_and_unital():
    rng = random.Random(0)
    letters = (X0, X1, Y0, U0, W1)
    for _ in range(15):
        parts = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                terms[word] = terms.get(word, 0) + Fraction(rng.randint(-2, 2))
            parts.append(Series(5, terms))
        a, b, c = parts
        assert (a * b) * c == a * (b * c)
        assert Series.one(5) * a == a
        assert a * Series.one(5) == a


def test_even_part_of_exp_is_exp_of_even_part():
    for n in (3, 6):
        v = Series.full_generator("u", n)
        assert v.exp().even_part() == v.even_part().exp()


def test_series_split_into_even_and_odd():
    z = extended_bch(3)
    assert z.even_part() + z.odd_part() == z
    for word in word_terms(z.odd_part()):
        assert sum(l & 1 for l in word) == 1


def test_bracket_expand_angle():
    expanded = bracket_expand(angle_term(gen("x"), gen("u")), 2)
    assert word_terms(expanded) == {
        (X0, U0): Fraction(1),
        (X1, U0): Fraction(1),
        (U0, X0): Fraction(-1),
        (U0, X1): Fraction(-1),
    }


def test_bracket_expand_square_even_projection():
    expanded = bracket_expand(square_term(gen("x"), gen("y")), 2).even_part()
    assert word_terms(expanded) == {
        (X0, Y0): Fraction(1),
        (Y0, X0): Fraction(-1),
    }


def test_integer_coefficients_stay_ints_and_compare_as_fractions():
    # the fit's columns: bracket expansions are integer and stay Python ints
    for degree in range(1, 6):
        for term in _lyndon_monomials(degree):
            assert all(type(c) is int for c in _even_expansion(term, 5).values())
    ints = bracket_expand(square_term(gen("x"), angle_term(gen("y"), gen("w"))), 4)
    fracs = Series(4, {w: Fraction(c) for w, c in word_terms(ints).items()})
    assert all(type(c) is Fraction for c in fracs.terms.values())
    assert ints == fracs and fracs == ints
    assert repr(ints) == repr(fracs)
    assert ints * fracs == fracs * fracs
    assert ints.scale(Fraction(1, 3)) == fracs.scale(Fraction(1, 3))


def test_extended_bch_degree_one():
    z = extended_bch(1)
    assert word_terms(z) == {
        (X0,): Fraction(1),
        (X1,): Fraction(1),
        (Y0,): Fraction(1),
        (Y1,): Fraction(1),
    }


def test_extended_bch_degree_two_bracket_form():
    x, y, u, w = gen("x"), gen("y"), gen("u"), gen("w")
    expected = (
        bracket_expand(x, 2)
        + bracket_expand(y, 2)
        + bracket_expand(square_term(x, y), 2).scale(Fraction(1, 2))
        - bracket_expand(angle_term(x, u), 2)
        - bracket_expand(angle_term(y, w), 2)
    )
    assert extended_bch(2) == expected


def test_extended_bch_degree_three_wrapped_component():
    # the x-u-u multidegree component is (1/2)<<x,u>,u>
    z3 = degree_component(extended_bch(3), 3)
    expected = bracket_expand(
        angle_term(angle_term(gen("x"), gen("u")), gen("u")), 3
    ).scale(Fraction(1, 2))
    symbols = lambda word: sorted(l >> 1 for l in word)
    got = {w: c for w, c in word_terms(z3).items() if symbols(w) == [0, 2, 2]}
    assert got == word_terms(expected)


def test_oracle_self_check():
    # frozen classical word coefficients at low degree
    words = classical_bch_words(3)
    assert words[("x",)] == 1
    assert words[("y",)] == 1
    assert words[("x", "y")] == Fraction(1, 2)
    assert words[("y", "x")] == Fraction(-1, 2)
    assert ("x", "x") not in words
    assert words[("x", "x", "y")] == Fraction(1, 12)
    assert words[("x", "y", "x")] == Fraction(-1, 6)
    assert words[("y", "x", "x")] == Fraction(1, 12)
    assert words[("y", "y", "x")] == Fraction(1, 12)
    assert words[("y", "x", "y")] == Fraction(-1, 6)
    assert words[("x", "y", "y")] == Fraction(1, 12)


def test_extended_bch_reduces_to_classical_oracle():
    for n in (2, 3, 4, 5):
        specialized = substitute_zero(extended_bch(n), "u", "w")
        assert word_terms(specialized) == graded_expansion(classical_bch_words(n), n)
        # and no u/w letter survives the substitution
        for word in word_terms(specialized):
            assert all(l < 4 for l in word)


def _classical_bch(truncation):
    """log(exp(x) * exp(y)) in the same engine."""
    x = Series.full_generator("x", truncation)
    y = Series.full_generator("y", truncation)
    return (x.exp() * y.exp()).log()


def test_engine_classical_matches_conjugated_route():
    for n in (3, 5):
        assert substitute_zero(extended_bch(n), "u", "w") == _classical_bch(n)


def test_degree_four_pure_component_is_the_printed_term():
    z4 = degree_component(substitute_zero(extended_bch(4), "u", "w"), 4)
    term = square_term(gen("y"), square_term(gen("x"), square_term(gen("y"), gen("x"))))
    assert z4 == degree_component(bracket_expand(term, 4).scale(Fraction(1, 24)), 4)


def test_bracket_basis_fit_low_degrees():
    fit1 = bracket_basis_fit(1)
    assert [(bracket_string(t), c) for t, c in fit1] == [
        ("x", Fraction(1)),
        ("y", Fraction(1)),
    ]
    fit2 = dict(
        (bracket_string(t), c) for t, c in bracket_basis_fit(2) if t.degree() == 2
    )
    assert fit2 == {
        "[x,y]": Fraction(1, 2),
        "<x,u>": Fraction(-1),
        "<y,w>": Fraction(-1),
    }


def test_bracket_basis_fit_degree_three():
    fit3 = {
        bracket_string(t): c for t, c in bracket_basis_fit(3) if t.degree() == 3
    }
    assert fit3 == {
        "[x,[x,y]]": Fraction(1, 12),
        "[[x,y],y]": Fraction(1, 12),
        "<<x,u>,u>": Fraction(1, 2),
        "<<y,w>,w>": Fraction(1, 2),
        "[x,<y,w>]": Fraction(-1, 2),
        "[<x,u>,y]": Fraction(-1, 2),
    }


def test_bracket_fit_reexpands_to_series():
    for n in (2, 3, 4):
        fit = bracket_basis_fit(n)
        total = Series(n)
        for term, coeff in fit:
            total = total + bracket_expand(term, n).scale(coeff)
        assert total == extended_bch(n)


def test_printed_listing_shape():
    listing = printed_series_terms()
    forms = [bracket_string(t) for _, t in listing]
    # the two degree-3 terms appear twice, verbatim
    assert forms.count("[x,[x,y]]") == 2
    assert forms.count("[y,[y,x]]") == 2
    assert forms[-1] == "[y,[x,[y,x]]]"


def test_compare_printed_series_degrees_one_two_clean():
    comparison = compare_printed_series(2)
    assert comparison["exact_match"]
    assert comparison["clean_degrees"] == [1, 2]


def test_compare_printed_series_documents_duplicates():
    comparison = compare_printed_series(3)
    assert comparison["clean_degrees"] == [1, 2]
    assert not comparison["exact_match"]
    dup = {d["form"]: d for d in comparison["duplicate_terms"]}
    for form in ("[x,[x,y]]", "[y,[y,x]]"):
        assert dup[form]["occurrences"] == 2
        assert dup[form]["listed_total"] == "1/6"
        assert dup[form]["computed_coefficient"] == "1/12"
    # the word diffs show exactly the 1/12-vs-1/6 surplus at degree 3
    assert all(d["degree"] == 3 for d in comparison["word_diffs"])


@pytest.mark.parametrize("n", range(1, 5))
def test_printed_series_diff_matches_the_eight_letter_reference(n):
    # the package lifts the even expansions' sum once; the reference sums
    # the full expansions of the printed terms, repeats included
    listing = [bracket_expand(t, n).scale(c) for c, t in printed_series_terms() if t.degree() <= n]
    listed, computed = sum(listing, Series(n)).terms, extended_bch(n).terms
    expected = [
        {"degree": word_length(w), "word": word_name(_decode(w)),
         "listed": str(listed.get(w, 0)), "computed": str(computed.get(w, 0))}
        for w in sorted(listed.keys() | computed.keys())
        if listed.get(w, 0) != computed.get(w, 0)
    ]
    assert bool(expected) == (n >= 3)
    assert compare_printed_series(n)["word_diffs"] == expected


def test_format_bracket_series_readable():
    text = format_bracket_series(bracket_basis_fit(2))
    assert "[x,y]" in text
    assert "⟨x,u⟩" in text


def test_inconsistent_fit_is_surfaced(monkeypatch):
    import z2lie.bch as bch_mod

    # a symmetric word like x0 x0 lies outside every commutator span, so a
    # series engine producing it must be reported, not papered over
    fake = Series(2, {(X0, X0): Fraction(1)})
    monkeypatch.setattr(bch_mod, "extended_bch", lambda n: fake)
    with pytest.raises(bch_mod.InconsistentSystem):
        bch_mod.bracket_basis_fit(2)


@pytest.mark.parametrize("degree", range(1, MAX_TRUNCATION + 1))
def test_even_words_keep_the_rank_of_the_lyndon_monomials(degree):
    # with the odd letters set to zero the wrapped letters become
    # ad_{u0}^k x0 and ad_{w0}^k y0, free generators of a free Lie
    # subalgebra, so the even fit of bracket_basis_fit is unique
    terms = _lyndon_monomials(degree)
    span = FractionSpan()
    for term in terms:
        span.add(bracket_expand(term, degree).even_part().terms)
    assert span.dim == len(terms)


def test_fit_refuses_terms_dependent_on_the_even_words():
    # <x,u> and [x,u] differ only on words with u1, so the even solve
    # cannot tell them apart: even a target in their span is no verdict
    x, u = gen("x"), gen("u")
    terms = [angle_term(x, u), square_term(x, u)]
    target = _grouped(bracket_expand(square_term(x, u), 2).terms)
    with pytest.raises(LostRank, match="rank 1 of the 2"):
        _fit_degree(terms, target, 2)


def _perturbed_bch_7(odd):
    """extended_bch(7) with 1 added to the coefficient of its first degree-7
    word of the given parity, as a fresh Series."""
    terms = word_terms(extended_bch(7))
    word = min(w for w in terms if len(w) == 7 and sum(l & 1 for l in w) == odd)
    return Series(7, {**terms, word: terms[word] + 1})


@pytest.mark.parametrize("odd", [True, False], ids=["odd-word", "even-word"])
def test_fit_checks_every_word(monkeypatch, odd):
    # an odd word leaves the even solve unchanged: only the check on every
    # word of the degree can see the changed coefficient
    import z2lie.bch as bch_mod

    perturbed = _perturbed_bch_7(odd)
    monkeypatch.setattr(bch_mod, "extended_bch", lambda n: perturbed)
    with pytest.raises(InconsistentSystem, match="degree 7"):
        bracket_basis_fit(7)


def _even_expansion(term, truncation):
    return bracket_value(term, _expansions(truncation)).terms


@pytest.mark.parametrize("n", range(1, MAX_TRUNCATION + 1))
def test_series_odd_words_are_the_lift_of_its_even_words(n):
    # E0(u) = exp(u0), so no u1 or w1 occurs, and x1, y1 enter only as
    # the first-order lift x0 -> x0 + x1, y0 -> y0 + y1 of the even words
    z = extended_bch(n)
    assert not any(l in (U1, W1) for word in word_terms(z) for l in word)
    assert _lift(z.even_part().terms) == z.terms


def test_lift_of_even_expansions_is_the_full_expansion():
    terms = [t for d in range(1, MAX_TRUNCATION + 1) for t in _lyndon_monomials(d)]
    terms += [t for _, t in printed_series_terms()]
    for term in terms:
        n = term.degree()
        assert _liftable(term), str(term)
        assert _lift(_even_expansion(term, n)) == bracket_expand(term, n).terms, str(term)


def test_lift_refuses_terms_it_does_not_map_onto_their_expansion(monkeypatch):
    import z2lie.bch as bch_mod

    x, u = gen("x"), gen("u")
    for term in (square_term(x, u), angle_term(x, x)):
        assert not _liftable(term)
        assert _lift(_even_expansion(term, 2)) != bracket_expand(term, 2).terms
    # full rank on the even words, but [x,u] has u1 words the lift cannot make
    target = _grouped(bracket_expand(square_term(x, u), 2).terms)
    with pytest.raises(ValueError, match=r"\[x,u\] does not lift"):
        _fit_degree([square_term(x, u)], target, 2)
    # and the printed-series diff refuses such a term the same way
    monkeypatch.setattr(bch_mod, "printed_series_terms", lambda: ((1, square_term(x, u)),))
    with pytest.raises(ValueError, match=r"\[x,u\] does not lift"):
        compare_printed_series(2)
