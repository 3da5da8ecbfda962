"""Angle and square brackets on Z2-graded algebras, with identity checks.

On an associative Z2-graded algebra the two brackets

    angle(x, y)  = x*y0 - y0*x      (y0 the even component of y)
    square(x, y) = x*y  - y*x

make the underlying space a Hu-Liu Leibniz algebra: the square bracket is
a Lie bracket, the angle bracket satisfies the Leibniz identity

    angle(angle(x,y), z) = angle(x, angle(y,z)) + angle(angle(x,z), y),

and the two brackets are tied together by the four Hu-Liu identities

    angle(x, square(y,z)) = angle(x, angle(y,z)),
    square(angle(x,x), y) = angle(angle(x,x), y),
    angle(square(x,y), z) + square(angle(y,z), x) + square(y, angle(x,z)) = 0,
    square(angle(x,y), z) + square(z, square(x,y))
        + square(z, angle(y,x)) + angle(z, angle(x,y)) = 0.

The verifier below evaluates every identity exhaustively over basis
arguments and over seeded random exact triples, recording counterexample
witnesses instead of raising.  Nothing is assumed about associativity; on
a non-associative algebra the report simply shows which identities fail.

The basis phase reads two integer tables, ``angle(e_i, e_j)`` and
``square(e_i, e_j)``, read off ``Z2Algebra._rows`` once per call over its
denominator and kept in the same sparse row format; both brackets are
bilinear, so the identities are evaluated on integer vectors through them.
Every identity is linear in its last argument, so it is called once per
head (the arguments before the last) on a batch of all ``e_l``, which the
tables bracket pointwise; a bracket of the head alone is made once per
head, not once per tuple.  The random phase draws one triple at a time,
clears it of its denominators and multiplies through ``Z2Algebra._rows``
itself, so it checks the tables against the multiplication table.
Subalgebra generation brackets the integer echelon rows of its span
through the same tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .algebra import Element, Z2Algebra, random_element
from .linalg import FractionSpan, bilinear, clear_denominators, divided, vec_add
from .report import VerificationReport, element_witness


def angle(x, y):
    """x*y0 - y0*x; depends on y only through its even component.

    The operands may be algebra ``Element``s or word ``Series``: only
    ``*``, ``-`` and ``even_part()`` are used.
    """
    y0 = y.even_part()
    return x * y0 - y0 * x


def square(x, y):
    """The commutator x*y - y*x, of two ``Element``s or two ``Series``."""
    return x * y - y * x


def _leibniz(angle, square, x, y, z):
    return angle(angle(x, y), z) - angle(x, angle(y, z)) - angle(angle(x, z), y)


def _huliu_1(angle, square, x, y, z):
    return angle(x, square(y, z)) - angle(x, angle(y, z))


def _huliu_2(angle, square, x, y, _z=None):
    a = angle(x, x)
    return square(a, y) - angle(a, y)


def _huliu_3(angle, square, x, y, z):
    return angle(square(x, y), z) + square(angle(y, z), x) + square(y, angle(x, z))


def _huliu_4(angle, square, x, y, z):
    return (
        square(angle(x, y), z)
        + square(z, square(x, y))
        + square(z, angle(y, x))
        + angle(z, angle(x, y))
    )


def _jacobi(angle, square, x, y, z):
    return square(square(x, y), z) + square(square(y, z), x) + square(square(z, x), y)


def _antisymmetry(angle, square, x, y, _z=None):
    return square(x, y) + square(y, x)


# name, residual over a bracket pair, basis argument pattern, bracket depth
IDENTITIES = (
    ("leibniz", _leibniz, "triple", 2),
    ("huliu_1", _huliu_1, "triple", 2),
    ("huliu_2", _huliu_2, "polarized_pair", 2),
    ("huliu_3", _huliu_3, "triple", 2),
    ("huliu_4", _huliu_4, "triple", 2),
    ("jacobi", _jacobi, "triple", 2),
    ("antisymmetry", _antisymmetry, "pair", 1),
)


class _Batch(dict):
    """An expression's values at every last argument: ``l`` to its integer vector at ``e_l``.

    Every identity is linear in its last argument, so an index whose value
    is zero stays zero in every bracket and sum; it is left out.
    """

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def _combined(self, other, scale):
        out = _Batch(self)
        for l, v in other.items():
            w = vec_add(out.get(l, {}), v, scale)
            if w:
                out[l] = w
            else:
                del out[l]
        return out


class _RowVector(dict):
    """An integer vector of ``algebra``, multiplied through ``Z2Algebra._rows``."""

    __slots__ = ("algebra",)

    def _like(self, terms):
        return _row_vector(self.algebra, terms)

    def __add__(self, other):
        return self._like(vec_add(self, other))

    def __sub__(self, other):
        return self._like(vec_add(self, other, -1))

    def __mul__(self, other):
        return self._like(bilinear(self.algebra._rows, self, other))

    def even_part(self):
        parity = self.algebra.parity
        return self._like({k: c for k, c in self.items() if not parity[k]})


def _row_vector(algebra, terms):
    """The integer vector ``terms`` of ``algebra``, as a :class:`_RowVector`."""
    vector = _RowVector(terms)
    vector.algebra = algebra
    return vector


def _table_bracket(table):
    """The bracket of ``table`` on integer vectors, pointwise on a :class:`_Batch`."""

    def bracket(u, v):
        if type(u) is _Batch:
            return _Batch((l, w) for l, a in u.items() if (w := bilinear(table, a, v)))
        if type(v) is _Batch:
            return _Batch((l, w) for l, b in v.items() if (w := bilinear(table, u, b)))
        return bilinear(table, u, v)

    return bracket


def _bracket_tables(alg):
    """``(angle, square, den)``: the brackets of integer vectors, times ``den``.

    ``square(e_i, e_j) = e_i e_j - e_j e_i``, and ``angle(e_i, e_j)`` is the
    same for an even ``e_j`` and zero for an odd one, so both tables are
    read off ``Z2Algebra._rows`` over its denominator ``den = alg._den``.
    """
    rows, dim = alg._rows, alg.dim
    square_rows = [
        [tuple(vec_add(dict(rows[i][j]), dict(rows[j][i]), -1).items()) for j in range(dim)]
        for i in range(dim)
    ]
    angle_rows = [[() if alg.parity[j] else row[j] for j in range(dim)] for row in square_rows]
    return _table_bracket(angle_rows), _table_bracket(square_rows), alg._den


def _heads(dim, pattern):
    """The arguments before the last one, in product order."""
    units = [{i: 1} for i in range(dim)]
    if pattern == "triple":
        return product(units, repeat=2)
    if pattern == "polarized_pair":
        # quadratic in the first argument: checking x = e_i + e_j over all
        # pairs covers the bilinear polarization, so this is complete
        return ((vec_add(x, y),) for x, y in product(units, repeat=2))
    return ((x,) for x in units)


def _witness(args, residual):
    return element_witness(*zip("xyz", args), ("residual", residual))


def _basis_phase(alg, check, func, pattern, depth, tables):
    """Record ``func`` on every basis tuple: one call per head, the last argument batched."""
    table_angle, table_square, den = tables
    last = _Batch((l, {l: 1}) for l in range(alg.dim))
    for head in _heads(alg.dim, pattern):
        residuals = func(table_angle, table_square, *head, last)
        for l in range(alg.dim):
            check.record_trial()
            residual = residuals.get(l)
            if residual:
                witness = None
                if check.witness_wanted:
                    args = [*head, {l: 1}]
                    elements = [Element._from_terms(alg, divided(v, 1)) for v in args]
                    residual = Element._from_terms(alg, divided(residual, den**depth))
                    witness = _witness(elements, residual)
                check.record_failure(witness)


def verify_identities(alg: Z2Algebra, trials=200, seed=0) -> VerificationReport:
    """Evaluate every bracket identity exactly and report failures.

    Each identity runs over all basis arguments (complete for multilinear
    identities, and polarization-complete for the quadratic one) and then
    over ``trials`` seeded random dense triples, the same triples for every
    identity.

    The basis phase runs on the integer bracket tables, one call per head
    (the arguments before the last) with the last argument batched over
    every ``e_l``; each identity is homogeneous in bracket depth, so its
    residual is an integer vector over ``den**depth``.  The random phase
    draws one triple at a time, clears it of its denominators and runs
    ``angle``/``square`` on integer vectors multiplied through
    ``Z2Algebra._rows``, not the tables, so it cross-checks them.  The
    terms of an identity share one denominator, so the integer residual
    is zero exactly when the rational one is; a failure rebuilds the
    ``Fraction`` residual from Elements while witness slots remain.
    """
    report = VerificationReport(subject=f"bracket-identities:{alg.name}")
    tables = _bracket_tables(alg)
    checks = []
    for name, func, pattern, depth in IDENTITIES:
        check = report.check(name)
        _basis_phase(alg, check, func, pattern, depth, tables)
        checks.append((check, func))
    rng = random.Random(seed)
    for _ in range(trials):
        sample = tuple(random_element(alg, rng) for _ in range(3))
        cleared = tuple(_row_vector(alg, clear_denominators(v.terms)[0]) for v in sample)
        for check, func in checks:
            check.record_trial()
            if func(angle, square, *cleared):
                witness = None
                if check.witness_wanted:
                    witness = _witness(sample, func(angle, square, *sample))
                check.record_failure(witness)
    return report


@dataclass
class SubalgebraBasis:
    """A subspace closed under both brackets, kept as one echelon span."""

    algebra: Z2Algebra
    span: FractionSpan

    @property
    def vectors(self):
        """The echelon rows as Elements, in pivot order."""
        return tuple(Element._from_terms(self.algebra, row) for row in self.span.rows())

    @property
    def dim(self):
        return self.span.dim

    def contains(self, element: Element) -> bool:
        return self.span.contains(element.terms)


def generate_subalgebra(seed_vectors) -> SubalgebraBasis:
    """Smallest subspace containing the seeds and closed under both brackets.

    Iteratively adjoins all pairwise angle and square brackets, keeping an
    echelon basis (pivot = first nonzero coordinate in basis order) until
    nothing new appears.  Terminates because the ambient dimension bounds
    the span.  Each round brackets the span's integer echelon rows, in
    pivot order, through the verifier's integer bracket tables, one
    ``bilinear`` per bracket: every row and bracket is a positive multiple
    of its rational counterpart, so the span grows exactly as it would on
    ``Element``s.
    """
    seed_vectors = list(seed_vectors)
    if not seed_vectors:
        raise ValueError("need at least one seed vector")
    alg = seed_vectors[0].algebra
    for v in seed_vectors:
        if v.algebra is not alg:
            raise ValueError("seed vectors must share one algebra")
    span = FractionSpan()
    for v in seed_vectors:
        span.add(v.terms)

    table_angle, table_square, _ = _bracket_tables(alg)
    changed = True
    while changed and span.dim < alg.dim:
        changed = False
        basis = span.integer_rows()
        for a in basis:
            for b in basis:
                for bracket in (table_angle, table_square):
                    new = bracket(a, b)
                    if new and span.add(new):
                        changed = True
    return SubalgebraBasis(algebra=alg, span=span)
