from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2lie.linalg import FractionSpan, exact, solve_columns, vec_add


@pytest.mark.parametrize("text", ["1e9999999", "1E3", "2.5e-1", "-1e0"])
def test_exact_refuses_exponent_notation(text):
    # Fraction would expand "1e9999999" for many seconds
    with pytest.raises(ValueError, match="exponent"):
        exact(text)


def test_vec_add_drops_zeros():
    a = {0: Fraction(1), 1: Fraction(2)}
    b = {1: Fraction(-2), 2: Fraction(3)}
    assert vec_add(a, b) == {0: Fraction(1), 2: Fraction(3)}


def test_span_membership():
    span = FractionSpan()
    assert span.add({0: Fraction(1), 1: Fraction(1)})
    assert span.add({1: Fraction(1)})
    assert not span.add({0: Fraction(2), 1: Fraction(5)})
    assert span.dim == 2
    assert not span.reduce({0: Fraction(7)})[0]
    assert span.reduce({2: Fraction(1)})[0]


def test_reduce_returns_canonical_residual():
    span = FractionSpan()
    span.add({0: Fraction(1), 2: Fraction(1)})
    residual, _ = span.reduce({0: Fraction(3), 1: Fraction(1)})
    # the pivot coordinate 0 is eliminated, 2 is introduced, 1 survives
    assert residual == {1: Fraction(1), 2: Fraction(-3)}


def test_solve_columns_exact():
    cols = [
        {0: Fraction(2), 1: Fraction(3)},
        {1: Fraction(2)},
    ]
    target = {0: Fraction(1)}
    solution = solve_columns(cols, target)
    assert solution == [Fraction(1, 2), Fraction(-3, 4)]


def test_solve_columns_inconsistent():
    cols = [{0: Fraction(1)}]
    assert solve_columns(cols, {1: Fraction(1)}) is None


def test_solve_columns_deterministic_witness():
    # dependent columns: the witness must not use the dependent one
    cols = [
        {0: Fraction(1)},
        {0: Fraction(2)},
        {1: Fraction(1)},
    ]
    target = {0: Fraction(4), 1: Fraction(5)}
    assert solve_columns(cols, target) == [
        Fraction(4),
        Fraction(0),
        Fraction(5),
    ]


def _plain_rank(vectors, keys):
    """Rank by textbook Fraction Gaussian elimination on dense rows."""
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_KEY_KINDS = {
    # basis indices and word tuples, each in their own order
    "ints": st.integers(0, 5),
    "words": st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
}


@st.composite
def _systems(draw):
    keys = _KEY_KINDS[draw(st.sampled_from(sorted(_KEY_KINDS)))]
    vectors = st.dictionaries(keys, _RATIONALS, max_size=5).map(
        lambda v: {k: c for k, c in v.items() if c}
    )
    columns = draw(st.lists(vectors, min_size=1, max_size=6))
    if draw(st.booleans()):
        # a combination of the columns, so the system is solvable
        target = {}
        for col in columns:
            target = vec_add(target, col, draw(_RATIONALS))
    else:
        target = draw(vectors)
    return columns, target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems())
def test_fraction_free_span_matches_plain_elimination(system):
    columns, target = system
    keys = sorted({k for v in [*columns, target] for k in v})
    solution = solve_columns(columns, target)
    solvable = _plain_rank(columns, keys) == _plain_rank([*columns, target], keys)
    assert (solution is None) == (not solvable)
    if solution is not None:
        total = {}
        for c, col in zip(solution, columns):
            total = vec_add(total, col, c)
        assert total == target

    span = FractionSpan(track=True)
    for col in columns:
        span.add(col)
    assert span.dim == _plain_rank(columns, keys)
    rows = span.integer_rows()
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots))
    for pivot, row in zip(pivots, rows):
        assert row[pivot] > 0
        assert all(type(c) is int and c for c in row.values())
    residual, combo = span.reduce(target)
    assert not set(residual) & set(pivots)
    rebuilt = dict(residual)
    for i, c in combo.items():
        rebuilt = vec_add(rebuilt, columns[i], c)
    assert rebuilt == target
