"""Exact structure-constant arithmetic for finite-dimensional Z2-graded algebras.

An algebra is specified by a basis ``e_0 .. e_{dim-1}``, a parity bit per
basis vector (0 even, 1 odd), sparse rational structure constants
``(i, j, k, c)`` with ``e_i * e_j`` the sum of ``c e_k`` over the rows
for ``(i, j)``, and the coefficient vector of a two-sided identity
element.  The grading obeys

    even * even  in  even,
    even * odd   in  odd,     odd * even  in  odd,
    odd  * odd   =   0,

and the identity element is required to be purely even.  Violations are
reported index by index rather than as a bare boolean, since the point of
this module is machine verification.

All arithmetic is exact over ints and ``Fraction``s (:func:`linalg.exact`).
An :class:`Element` is a :class:`linalg.ExactVector` (``{index: int or
Fraction}`` with no zeros), so products, spans and the inverse's linear
system share one format; its dense ``coeffs`` view serves reports and the
CLI.  A product sums Python ints (factors and structure constants with
cleared denominators).
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import sqrt

from .linalg import (
    ExactVector, bilinear, clear_denominators, divided, exact, solve_columns, vec_add
)


class AlgebraError(Exception):
    """Base class for structural and arithmetic violations."""


class ParityViolation(AlgebraError):
    def __init__(self, i, j, k):
        super().__init__(
            f"e_{i}*e_{j} has a component on e_{k} whose parity does not "
            f"match the sum of the factor parities"
        )
        self.indices = (i, j, k)


class OddOddNonzero(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"product of odd basis vectors e_{i}*e_{j} is nonzero")
        self.indices = (i, j)


class NoUnit(AlgebraError):
    pass


class NonEvenUnit(AlgebraError):
    pass


class AlgebraMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class AlgebraFormatError(AlgebraError):
    """Raised when a definition file cannot be parsed."""


# Z2Algebra allocates dim^2 multiplication rows; larger definitions are refused
MAX_DIM = 64


class AlgebraDef(namedtuple("AlgebraDef", "name dim parity structconst unit")):
    """Plain definition data: basis size, parities, structure constants, unit.

    ``structconst`` is sparse: ``(i, j, k, c)`` rows with ``c`` the nonzero
    rational coefficient of ``e_k`` in ``e_i * e_j``.  Construction puts
    any iterable of such rows into canonical form (repeated index triples
    summed, zero coefficients dropped, sorted by ``(i, j, k)``), so equal
    algebras compare equal.  Use :func:`validate_z2` to obtain an
    operational handle; nothing here is checked beyond shapes and indices.
    """

    __slots__ = ()

    def __new__(cls, name, dim, parity, structconst, unit):
        if type(dim) is not int or not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be an int in 1..{MAX_DIM}")
        if len(parity) != dim or any(type(p) is not int or p not in (0, 1) for p in parity):
            raise ValueError("parity must list one bit per basis vector")
        if len(unit) != dim:
            raise ValueError("unit vector length must equal dim")
        coeffs = {}
        for i, j, k, c in structconst:
            if not all(type(n) is int and 0 <= n < dim for n in (i, j, k)):
                raise AlgebraFormatError(
                    f"structure constant index ({i!r}, {j!r}, {k!r}) is not "
                    f"an int triple in range({dim})"
                )
            coeffs[i, j, k] = coeffs.get((i, j, k), 0) + exact(c)
        triples = tuple((*ijk, c) for ijk, c in sorted(coeffs.items()) if c)
        unit = tuple(exact(c) for c in unit)
        return super().__new__(cls, name, dim, tuple(parity), triples, unit)

    def to_json_dict(self):
        return {
            "name": self.name,
            "dim": self.dim,
            "parity": list(self.parity),
            "unit": [str(c) for c in self.unit],
            "structconst": [[i, j, k, str(c)] for i, j, k, c in self.structconst],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data):
        try:
            name = data["name"]
            dim = data["dim"]
            parity = data["parity"]
            unit = data["unit"]
            triples = data["structconst"]
            if not isinstance(name, str):
                raise TypeError("name must be a string")
            # a string would pass as a sequence of one-character entries;
            # structconst is checked to be a list before its rows are read
            if not (
                all(isinstance(v, list) for v in (parity, unit, triples))
                and all(isinstance(row, list) for row in triples)
            ):
                raise TypeError("parity, unit, structconst and its rows must be lists")
            return cls(name, dim, parity, triples, unit)
        except AlgebraFormatError:
            raise
        except Exception as exc:
            raise AlgebraFormatError(f"malformed algebra definition: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer over the digit limit, too deep nesting
            raise AlgebraFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise AlgebraFormatError("top-level JSON value must be an object")
        return cls.from_json_dict(data)


def load_algebra(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return AlgebraDef.from_json(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise AlgebraFormatError(f"not UTF-8 text: {exc}") from exc


class Z2Algebra:
    """Validated algebra handle with cached sparse multiplication rows.

    Immutable after construction; all operations are pure, so handles can
    be shared freely across threads.
    """

    def __init__(self, defn: AlgebraDef):
        self.defn = defn
        self.name = defn.name
        self.dim = defn.dim
        self.parity = defn.parity
        self.odd_indices = tuple(i for i, p in enumerate(defn.parity) if p == 1)
        # integer structure constants over one common denominator
        numerators, self._den = clear_denominators(
            {(i, j, k): c for i, j, k, c in defn.structconst}
        )
        rows = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), c in numerators.items():
            rows[i][j].append((k, c))
        self._rows = tuple(tuple(map(tuple, row)) for row in rows)
        self._check_grading()
        self.unit = Element(self, defn.unit)
        self._check_unit()

    # -- validation -------------------------------------------------------

    def _check_grading(self):
        # the triples are sorted, so the first violation in (i, j, k) order
        # is the one reported
        parity = self.parity
        for i, j, k, _ in self.defn.structconst:
            if parity[i] == 1 and parity[j] == 1:
                raise OddOddNonzero(i, j)
            if parity[k] != (parity[i] + parity[j]) % 2:
                raise ParityViolation(i, j, k)

    def _check_unit(self):
        for i in self.odd_indices:
            if i in self.unit.terms:
                raise NonEvenUnit(f"unit has odd component on e_{i}")
        for j in range(self.dim):
            e_j = self.basis(j)
            if self.unit * e_j != e_j or e_j * self.unit != e_j:
                raise NoUnit(f"unit vector is not a two-sided identity at e_{j}")

    # -- constructors -----------------------------------------------------

    def basis(self, i):
        # type, not range membership: True == 1 and 1.0 == 1 are in range(2)
        if type(i) is not int or not 0 <= i < self.dim:
            raise IndexError(f"basis index {i!r} is outside range({self.dim})")
        return Element._from_terms(self, {i: 1})

    def __repr__(self):
        return f"Z2Algebra({self.name!r}, dim={self.dim})"


def validate_z2(defn: AlgebraDef) -> Z2Algebra:
    """Check every grading and unit invariant exhaustively over basis pairs.

    Raises ParityViolation, OddOddNonzero, NoUnit or NonEvenUnit with the
    offending indices; returns an operational handle on success.
    """
    return Z2Algebra(defn)


class Element(ExactVector):
    """Exact rational vector over an algebra basis.

    ``terms`` is the :class:`linalg.ExactVector` (basis index to nonzero int
    or ``Fraction``, never mutated), and ``coeffs`` a read-only dense view
    for reports and the CLI.  The constructor validates a dense coefficient
    sequence from outside; canonical results skip it via :meth:`_from_terms`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, coeffs):
        coeffs = [exact(c) for c in coeffs]
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient vector length must equal dim")
        self.algebra = algebra
        self.terms = {i: c for i, c in enumerate(coeffs) if c}

    @classmethod
    def _from_terms(cls, algebra, terms):
        """An Element taking ``terms`` as is: int or Fraction values, no zeros."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.terms = terms
        return out

    @property
    def coeffs(self):
        """Dense coefficient tuple, one int or Fraction per basis vector."""
        return tuple(self.terms.get(i, 0) for i in range(self.algebra.dim))

    # -- ExactVector hooks ---------------------------------------------------

    def _like(self, terms):
        return Element._from_terms(self.algebra, terms)

    def _compatible(self, other):
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch(
                f"elements of {self.algebra.name} and {other.algebra.name}"
            )

    def _odd(self, i):
        return self.algebra.parity[i]

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._compatible(other)
        alg = self.algebra
        left, den_a = clear_denominators(self.terms)
        right, den_b = clear_denominators(other.terms)
        out = bilinear(alg._rows, left, right)
        return Element._from_terms(alg, divided(out, den_a * den_b * alg._den))

    # -- inversion ----------------------------------------------------------

    def invert(self):
        """Two-sided inverse, or NotInvertible.

        Solves the left-multiplication system ``self * y = unit`` exactly
        and then checks ``y * self = unit`` as well; the right-hand check
        is not redundant because non-associative algebras are admitted.
        """
        alg = self.algebra
        # the columns are cleared of one denominator, so the target is too
        columns, den = self._left_columns()
        target = {k: den * c for k, c in alg.unit.terms.items()}
        solution = solve_columns(columns, target)
        if solution is None:
            raise NotInvertible("left-multiplication system is singular")
        candidate = Element(alg, solution)
        if candidate * self != alg.unit:
            raise NotInvertible("left inverse fails the right product check")
        return candidate

    def _left_columns(self):
        """Integer columns ``(self * e_j) * den`` for every j, and ``den``.

        One pass over ``Z2Algebra._rows`` with ``self`` cleared once, in
        place of ``dim`` Element products that each clear and restore
        denominators.
        """
        alg = self.algebra
        left, den = clear_denominators(self.terms)
        columns = [bilinear(alg._rows, left, {j: 1}) for j in range(alg.dim)]
        return columns, den * alg._den

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Element({self.algebra.name}, [{body}])"


@lru_cache(maxsize=1)
def associator_tensor(alg: Z2Algebra):
    """Every nonzero basis associator ``(e_i e_j) e_k - e_i (e_j e_k)``.

    ``{(i, j, k): row}`` in product order, each ``row`` an integer vector over
    ``alg._den ** 2`` read off ``Z2Algebra._rows``.  One ``verify`` run builds
    it once: the cache keeps the last algebra's.  Read it, do not mutate it.
    """
    rows, tensor = alg._rows, {}
    for i, j, k in product(range(alg.dim), repeat=3):
        out = {}
        for m, c in rows[i][j]:
            for n, d in rows[m][k]:
                out[n] = out.get(n, 0) + c * d
        for m, c in rows[j][k]:
            for n, d in rows[i][m]:
                out[n] = out.get(n, 0) - c * d
        if out := {n: c for n, c in out.items() if c}:
            tensor[i, j, k] = out
    return tensor


def is_associative(alg: Z2Algebra) -> bool:
    """Associativity over all dim^3 basis triples: the associator tensor is empty."""
    return not associator_tensor(alg)


def is_alternative(alg: Z2Algebra) -> bool:
    """Check both alternative laws x(xy)=(xx)y and (yx)x=y(xx).

    Each law is quadratic in one argument, so it is checked through its
    bilinear polarization over all basis triples, which is equivalent in
    characteristic zero: ``(e_i, e_j, e_k) + (e_j, e_i, e_k)`` and ``(e_i,
    e_j, e_k) + (e_i, e_k, e_j)`` vanish, read off :func:`associator_tensor`
    (a sum is nonzero only where one of its associators is).
    """
    tensor = associator_tensor(alg)
    return not any(
        vec_add(row, tensor.get(twin, {}))
        for (i, j, k), row in tensor.items()
        for twin in ((j, i, k), (i, k, j))
    )


def part_norms_squared(a: Element):
    """Exact squared Euclidean norms of the even and odd components."""
    sums = [Fraction(0), Fraction(0)]
    for i, c in a.terms.items():
        sums[a.algebra.parity[i]] += c * c
    return tuple(sums)


def graded_norm(a: Element) -> float:
    """Euclidean norm of the even part plus Euclidean norm of the odd part.

    The two parts are combined additively so that norm multiplicativity on
    even*even and even*odd products can be checked exactly in squared form.
    """
    even, odd = part_norms_squared(a)
    return sqrt(even) + sqrt(odd)


def require_nonnegative_int(name, value):
    # guards the seeds too: random.Random(-1) would silently repeat seed 1's stream
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative int, not {value!r}")


def random_rational(rng):
    """A numerator in -3..3 over a denominator in 1, 2, 3."""
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def random_element(alg, rng):
    """Dense random exact element with small numerators and denominators."""
    return Element(alg, [random_rational(rng) for _ in range(alg.dim)])


def random_element_nonzero_even(alg, rng):
    while True:
        a = random_element(alg, rng)
        if not a.even_part().is_zero():
            return a


def random_pure_odd_element(alg, rng):
    """Random nonzero purely odd element; None when the odd part is trivial."""
    if not alg.odd_indices:
        return None
    while True:
        coeffs = [Fraction(0)] * alg.dim
        for i in alg.odd_indices:
            coeffs[i] = random_rational(rng)
        a = Element(alg, coeffs)
        if not a.is_zero():
            return a
