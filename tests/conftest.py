"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from z2lie.algebra import AlgebraDef
from z2lie.catalog import catalog_algebra


@pytest.fixture
def rescaled_o_minus_2():
    """O-2 on the basis f_i = s_i e_i with s_i = (1 + i%3)/(1 + i%4).

    The structure constants become c * s_i * s_j / s_k: fractional, so the
    bracket tables have a common denominator above 1.
    """
    defn = catalog_algebra("O-2").defn
    s = [Fraction(1 + i % 3, 1 + i % 4) for i in range(defn.dim)]
    return AlgebraDef(
        name=f"{defn.name} rescaled",
        dim=defn.dim,
        parity=defn.parity,
        structconst=[(i, j, k, c * s[i] * s[j] / s[k]) for i, j, k, c in defn.structconst],
        unit=[u / s[i] for i, u in enumerate(defn.unit)],
    )
