"""Exact rational linear algebra over sparse vectors with arbitrary keys.

Vectors are ``dict[key, value]`` mappings with no explicit zeros; values are
ints or ``Fraction``s, admitted by :func:`exact`.  Keys can be basis indices
(small ints) or word tuples; the pivot of a vector is its smallest key,
which makes every elimination deterministic: repeated runs produce
identical spans, witnesses and reports.  :class:`ExactVector` gives the
algebra ``Element`` and the word ``Series`` their one linear structure.

:class:`FractionSpan` eliminates fraction-free (Bareiss, Math. Comp. 22
(1968) 565-578): rows and witnesses are integer vectors, and a step scales
the working vector by the pivot instead of dividing by it.  Each step is a
scalar multiple of the rational one, so the ``Fraction`` results are equal.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


def exact(value):
    """An int or Fraction as given, a string parsed; floats and bools raise.

    A binary float is rarely the rational meant (0.1 is not 1/10), and True
    is not the number 1 in a definition.  A string in exponent notation
    raises ValueError: ``Fraction("1e9999999")`` builds a ten-million-digit
    integer, which takes seconds.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        if "e" in value.lower():
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def vec_add(a, b, scale=1):
    """a + scale*b with exact zeros dropped; int values stay ints for an int scale."""
    scale = scale if type(scale) is int else exact(scale)
    out = dict(a)
    for k, v in b.items():
        # a Fraction product or sum normalizes by gcd: skip the ones that change nothing
        if scale != 1:
            v = -v if scale == -1 else scale * v
        s = out[k] + v if k in out else v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def clear_denominators(vec):
    """Integers ``(numerators, den)`` with ``vec == numerators / den``, den > 0."""
    den = lcm(*[c.denominator for c in vec.values()])
    if den == 1:
        return {k: c.numerator for k, c in vec.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}, den


def bilinear(table, u, v):
    """The integer vector ``sum(u[i] * v[j] * table[i][j])``, zeros dropped.

    ``table[i][j]`` is a sparse row ``((k, int), ...)``, as in ``Z2Algebra._rows``.
    """
    out = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            ab = a * b
            for k, c in row[j]:
                out[k] = out.get(k, 0) + ab * c
    return {k: c for k, c in out.items() if c}


def divided(numerators, den):
    """The vector ``numerators / den`` as ``Fraction``s, zeros dropped.

    Each distinct value is built once and shared by its keys (a long
    series carries few distinct coefficients); ``Fraction``s are immutable.
    """
    shared = {v: Fraction(v, den) for v in set(numerators.values()) if v}
    return {k: shared[v] for k, v in numerators.items() if v}


class ExactVector:
    """Sums, scalar multiples and even/odd parts of the sparse vector ``terms``.

    A subclass supplies three hooks: ``_like(terms)`` builds a vector of the
    same space, ``_compatible(other)`` raises unless ``other`` is one, and
    ``_odd(key)`` gives the parity of a basis key.
    """

    __slots__ = ()

    def __add__(self, other):
        self._compatible(other)
        return self._like(vec_add(self.terms, other.terms))

    def __sub__(self, other):
        self._compatible(other)
        return self._like(vec_add(self.terms, other.terms, -1))

    def scale(self, scalar):
        """``scalar * self``; an integral scalar acts as an int, keeping int vectors."""
        scalar = exact(scalar)
        scalar = scalar.numerator if scalar.denominator == 1 else scalar
        terms = {k: scalar * c for k, c in self.terms.items()} if scalar else {}
        return self._like(terms)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def is_zero(self):
        return not self.terms

    def _select(self, keep):
        return self._like({k: c for k, c in self.terms.items() if keep(k)})

    def even_part(self):
        odd = self._odd
        return self._select(lambda k: not odd(k))

    def odd_part(self):
        return self._select(self._odd)


class FractionSpan:
    """A linear span kept in echelon form, pivoting on the smallest key.

    Rows are integer vectors with a positive pivot coefficient.  With
    ``track=True`` every row also remembers its integer expression over the
    inserted vectors cleared of denominators, so :meth:`reduce` can return
    an exact witness combination for membership.
    """

    def __init__(self, track=False):
        self._rows: dict = {}    # pivot key -> integer vector
        self._combos: dict = {}  # pivot key -> {insertion index: int}
        self._dens: list = []    # the denominator cleared from each inserted vector
        self._track = track

    @property
    def dim(self):
        return len(self._rows)

    def integer_rows(self):
        """Echelon rows in pivot order, integer vectors with a positive pivot.

        A row is primitive unless the span tracks combinations, which share
        its divisor.  They are the span's own dicts: read, do not mutate.
        """
        rows = self._rows
        return [rows[p] for p in sorted(rows)]

    def _eliminate(self, work, scale):
        """Reduce the integer vector ``work``, standing for ``work / scale``.

        Returns integers ``(residual, combo, scale)`` with ``scale * vec =
        residual + sum(combo[i] * inserted_i * self._dens[i])``.
        """
        order = sorted(work)
        pos, residual, combo = 0, {}, {}
        while pos < len(order):
            key = order[pos]
            pos += 1
            coeff = work.pop(key, 0)
            if not coeff:
                continue
            row = self._rows.get(key)
            if row is None:
                residual[key] = coeff
                continue
            # work := lead * work - coeff * row, with gcd(lead, coeff) divided out
            g = gcd(coeff, row[key])
            coeff, lead = coeff // g, row[key] // g
            if lead != 1:
                scale *= lead
                work, residual, combo = (
                    {k: v * lead for k, v in d.items()} for d in (work, residual, combo)
                )
            for k, v in row.items():
                if k != key:
                    if k not in work:
                        # introduced keys are strictly larger than `key`
                        insort(order, k, lo=pos)
                    work[k] = work.get(k, 0) - coeff * v
            if self._track:
                for idx, v in self._combos[key].items():
                    combo[idx] = combo.get(idx, 0) + coeff * v
        return residual, combo, scale

    def reduce(self, vec):
        """Fully reduce ``vec`` against the span.

        Returns ``(residual, combo)`` of ``Fraction``s with ``vec =
        sum(combo[i] * inserted_i) + residual`` exactly; ``combo`` is empty
        unless tracking is on.  The residual is canonical: it has no support
        on any pivot key.
        """
        residual, combo, scale = self._eliminate(*clear_denominators(vec))
        combo = {i: v * self._dens[i] for i, v in combo.items()}
        return divided(residual, scale), divided(combo, scale)

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        work, den = clear_denominators(vec)
        self._dens.append(den)
        residual, combo, scale = self._eliminate(work, 1)
        if not residual:
            return False
        pivot = min(residual)
        # residual = scale * cleared_new - sum(combo[i] * cleared_i)
        combo = {i: -v for i, v in combo.items()}
        if self._track:
            combo[len(self._dens) - 1] = scale
        g = gcd(*residual.values(), *combo.values())
        g = g if residual[pivot] > 0 else -g
        self._rows[pivot] = {k: v // g for k, v in residual.items()}
        if self._track:
            self._combos[pivot] = {i: v // g for i, v in combo.items() if v}
        return True


def solve_columns(columns, target):
    """Solve ``sum_j c_j * columns[j] = target`` exactly.

    Returns the coefficient list (one deterministic witness when the
    system is underdetermined) or None when no exact solution exists.
    """
    span = FractionSpan(track=True)
    for col in columns:
        span.add(col)
    residual, combo = span.reduce(target)
    if residual:
        return None
    return [combo.get(j, Fraction(0)) for j in range(len(columns))]
