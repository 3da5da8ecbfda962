"""Small helpers shared by the test modules, kept out of the package."""

from functools import lru_cache

from z2lie.bch import SYMBOLS, Series, _decode, bracket_value, gen, word_length


def find_check(report, name):
    """The check called ``name`` in a ``VerificationReport``."""
    for check in report.checks:
        if check.name == name:
            return check
    raise KeyError(name)


def degree_component(series, degree):
    """The words of ``series`` of length ``degree``, as a Series."""
    return series._select(lambda code: word_length(code) == degree)


def word_terms(series):
    """The terms of ``series`` keyed by tuple words."""
    return {_decode(code): c for code, c in series.terms.items()}


def substitute_zero(series, *symbols):
    """``series`` with whole generators set to zero, e.g. ``"u", "w"``."""
    drop = {2 * SYMBOLS.index(s) + parity for s in symbols for parity in (0, 1)}
    return series._select(lambda code: drop.isdisjoint(_decode(code)))


@lru_cache(maxsize=None)
def _full_expansions(truncation):
    return {gen(s): Series.full_generator(s, truncation) for s in SYMBOLS}


def bracket_expand(term, truncation):
    """The reference evaluator: ``term`` on all eight letters, each symbol
    the sum of its even and odd letters.  The Series is shared: do not mutate."""
    return bracket_value(term, _full_expansions(truncation))
