import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import classical_bch_words, graded_expansion
from z2lie.algebra import Element, random_element
from z2lie.bch import (
    BadConstantTerm,
    Series,
    TruncationMismatch,
    angle_term,
    bracket_basis_fit,
    bracket_expand,
    bracket_string,
    classical_bch,
    compare_printed_series,
    extended_bch,
    format_bracket_series,
    gen,
    printed_series_terms,
    square_term,
)

X0, X1, Y0, Y1, U0, U1, W0, W1 = range(8)


def s(n, terms):
    return Series(n, {tuple(w): Fraction(c) for w, c in terms.items()})


def test_odd_odd_words_vanish():
    x1 = Series.generator("x1", 4)
    y1 = Series.generator("y1", 4)
    assert (x1 * y1).is_zero()
    y0 = Series.generator("y0", 4)
    u1 = Series.generator("u1", 4)
    assert (x1 * y0 * u1).is_zero()


def test_even_concatenation():
    x0 = Series.generator("x0", 4)
    y0 = Series.generator("y0", 4)
    assert (x0 * y0).terms == {(X0, Y0): Fraction(1)}


def test_constructor_applies_quotient_and_truncation():
    raw = {
        (X1, Y1): Fraction(1),      # two odd letters
        (X0,) * 9: Fraction(1),     # beyond truncation
        (X0,): Fraction(0),         # explicit zero
        (Y0,): Fraction(2),
    }
    out = Series(4, raw)
    assert out.terms == {(Y0,): Fraction(2)}


def test_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        Series.one(3) * Series.one(4)


def test_exp_log_preconditions():
    with pytest.raises(BadConstantTerm):
        Series.one(3).exp()
    with pytest.raises(BadConstantTerm):
        Series.zero(3).log()
    with pytest.raises(BadConstantTerm):
        Series.zero(3).inverse()


def test_exp_of_zero():
    assert Series.zero(5).exp() == Series.one(5)


def test_exp_log_roundtrip_generators():
    for n in range(1, 7):
        x = Series.full_generator("x", n)
        assert x.exp().log() == x


def test_log_exp_roundtrip_other_direction():
    t = s(5, {(X0,): 1, (Y1,): Fraction(1, 2), (U0, X0): Fraction(-1, 3)})
    one = Series.one(5)
    assert (one + t).log().exp() == one + t


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.lists(st.sampled_from([X0, Y0, U1, W0]), min_size=1, max_size=2).map(tuple),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4,
    )
)
def test_exp_log_roundtrip_random(terms):
    series = Series(4, {w: c for w, c in terms.items()})
    assert series.exp().log() == series


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
    for word in z.odd_part().terms:
        assert sum(l & 1 for l in word) == 1


def test_bracket_expand_angle():
    expanded = bracket_expand(angle_term(gen("x"), gen("u")), 2)
    assert expanded.terms == {
        (X0, U0): Fraction(1),
        (X1, U0): Fraction(1),
        (U0, X0): Fraction(-1),
        (U0, X1): Fraction(-1),
    }


def test_bracket_expand_square_even_projection():
    expanded = bracket_expand(square_term(gen("x"), gen("y")), 2).even_part()
    assert expanded.terms == {
        (X0, Y0): Fraction(1),
        (Y0, X0): Fraction(-1),
    }


def test_extended_bch_degree_one():
    z = extended_bch(1)
    assert z.terms == {
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
    z3 = extended_bch(3).degree_component(3)
    expected = bracket_expand(
        angle_term(angle_term(gen("x"), gen("u")), gen("u")), 3
    ).scale(Fraction(1, 2))
    symbols = lambda word: sorted(l >> 1 for l in word)
    got = {w: c for w, c in z3.terms.items() if symbols(w) == [0, 2, 2]}
    assert got == expected.terms


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
        specialized = extended_bch(n).substitute_zero("u", "w")
        assert specialized.terms == graded_expansion(classical_bch_words(n), n)
        # and no u/w letter survives the substitution
        for word in specialized.terms:
            assert all(l < 4 for l in word)


def test_engine_classical_matches_conjugated_route():
    for n in (3, 5):
        assert extended_bch(n).substitute_zero("u", "w") == classical_bch(n)


def test_degree_four_pure_component_is_the_printed_term():
    z4 = extended_bch(4).substitute_zero("u", "w").degree_component(4)
    term = square_term(gen("y"), square_term(gen("x"), square_term(gen("y"), gen("x"))))
    assert z4 == bracket_expand(term, 4).scale(Fraction(1, 24)).degree_component(4)


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
        total = Series.zero(n)
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
    assert comparison.exact_match
    assert comparison.clean_degrees == [1, 2]


def test_compare_printed_series_documents_duplicates():
    comparison = compare_printed_series(3)
    assert comparison.clean_degrees == [1, 2]
    assert not comparison.exact_match
    dup = {d["form"]: d for d in comparison.duplicates}
    for form in ("[x,[x,y]]", "[y,[y,x]]"):
        assert dup[form]["occurrences"] == 2
        assert dup[form]["listed_total"] == "1/6"
        assert dup[form]["computed_coefficient"] == "1/12"
    # the word diffs show exactly the 1/12-vs-1/6 surplus at degree 3
    assert all(d["degree"] == 3 for d in comparison.word_diffs)


def test_series_evaluation_is_multiplicative():
    # substituting exact elements with matching parity is a homomorphism
    from z2lie.catalog import catalog_algebra

    alg = catalog_algebra("C-2")
    rng = random.Random(4)
    env = {}
    for symbol in "xyuw":
        full = random_element(alg, rng)
        env[f"{symbol}0"] = full.even_part()
        env[f"{symbol}1"] = full.odd_part()

    def ev(series):
        return series.evaluate(
            env,
            one=alg.unit,
            scale=lambda c, v: v.scale(c),
        )

    a = s(4, {(X0,): 1, (Y1,): 2, (U0, W0): Fraction(1, 3)})
    b = s(4, {(W0,): 1, (X1,): Fraction(-1, 2)})
    assert ev(a * b) == ev(a) * ev(b)
    assert ev(a + b) == ev(a) + ev(b)
    assert ev(Series.one(4)) == alg.unit


def test_format_bracket_series_readable():
    text = format_bracket_series(bracket_basis_fit(2))
    assert "[x,y]" in text
    assert "<x,u>" in text


def test_inconsistent_fit_is_surfaced(monkeypatch):
    import z2lie.bch as bch_mod

    # a symmetric word like x0 x0 lies outside every commutator span, so a
    # series engine producing it must be reported, not papered over
    fake = Series(2, {(X0, X0): Fraction(1)})
    monkeypatch.setattr(bch_mod, "extended_bch", lambda n: fake)
    with pytest.raises(bch_mod.InconsistentSystem):
        bch_mod.bracket_basis_fit(2)
