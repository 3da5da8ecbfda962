"""Small helpers shared by the test modules, kept out of the package."""

from z2lie.bch import word_length


def find_check(report, name):
    """The check called ``name`` in a ``VerificationReport``."""
    for check in report.checks:
        if check.name == name:
            return check
    raise KeyError(name)


def degree_component(series, degree):
    """The words of ``series`` of length ``degree``, as a Series."""
    return series._select(lambda code: word_length(code) == degree)
