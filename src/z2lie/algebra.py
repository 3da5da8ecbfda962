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

All identity checking runs over ``fractions.Fraction``; elements may also
carry double-precision coefficients for numeric experiments, but the two
scalar kinds never mix inside one operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .linalg import solve_columns, vec_add


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


class ScalarKindMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class AlgebraFormatError(AlgebraError):
    """Raised when a definition file cannot be parsed."""


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class AlgebraDef:
    """Plain definition data: basis size, parities, structure constants, unit.

    ``structconst`` is sparse: ``(i, j, k, c)`` rows with ``c`` the nonzero
    rational coefficient of ``e_k`` in ``e_i * e_j``.  Construction puts
    any iterable of such rows into canonical form (repeated index triples
    summed, zero coefficients dropped, sorted by ``(i, j, k)``), so equal
    algebras compare equal.  Use :func:`validate_z2` to obtain an
    operational handle; nothing here is checked beyond shapes and indices.
    """

    name: str
    dim: int
    parity: tuple
    structconst: tuple
    unit: tuple

    def __post_init__(self):
        dim = self.dim
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.parity) != dim or any(p not in (0, 1) for p in self.parity):
            raise ValueError("parity must list one bit per basis vector")
        if len(self.unit) != dim:
            raise ValueError("unit vector length must equal dim")
        coeffs = {}
        for i, j, k, c in self.structconst:
            if not all(type(n) is int and 0 <= n < dim for n in (i, j, k)):
                raise AlgebraFormatError(
                    f"structure constant index ({i!r}, {j!r}, {k!r}) is not "
                    f"an int triple in range({dim})"
                )
            coeffs[i, j, k] = coeffs.get((i, j, k), 0) + _as_fraction(c)
        triples = tuple((*ijk, c) for ijk, c in sorted(coeffs.items()) if c)
        object.__setattr__(self, "parity", tuple(self.parity))
        object.__setattr__(self, "structconst", triples)
        object.__setattr__(self, "unit", tuple(_as_fraction(c) for c in self.unit))

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
            if not isinstance(name, str) or not isinstance(dim, int):
                raise TypeError("bad name/dim")
            return cls(name, dim, parity, triples, unit)
        except AlgebraFormatError:
            raise
        except Exception as exc:
            raise AlgebraFormatError(f"malformed algebra definition: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise AlgebraFormatError("top-level JSON value must be an object")
        return cls.from_json_dict(data)


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return AlgebraDef.from_json(fh.read())


def save_algebra(defn, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(defn.to_json())


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
        self.even_indices = tuple(i for i, p in enumerate(defn.parity) if p == 0)
        self.odd_indices = tuple(i for i, p in enumerate(defn.parity) if p == 1)
        rows = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for i, j, k, c in defn.structconst:
            rows[i][j].append((k, c))
        self._rows = tuple(tuple(map(tuple, row)) for row in rows)
        self._check_grading()
        self.unit = Element(self, defn.unit, exact=True)
        self._check_unit()
        self._associative = None
        self._alternative = None

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
            if self.unit.coeffs[i]:
                raise NonEvenUnit(f"unit has odd component on e_{i}")
        for j in range(self.dim):
            e_j = self.basis(j)
            if self.unit * e_j != e_j or e_j * self.unit != e_j:
                raise NoUnit(f"unit vector is not a two-sided identity at e_{j}")

    # -- constructors -----------------------------------------------------

    def element(self, coeffs, exact=None):
        return Element(self, coeffs, exact=exact)

    def basis(self, i):
        coeffs = [Fraction(0)] * self.dim
        coeffs[i] = Fraction(1)
        return Element(self, coeffs, exact=True)

    def zero(self, exact=True):
        if exact:
            return Element(self, [Fraction(0)] * self.dim, exact=True)
        return Element(self, [0.0] * self.dim, exact=False)

    # -- structure queries --------------------------------------------------

    def mul_row(self, i, j):
        """Sparse expansion of ``e_i * e_j`` as ``((k, coeff), ...)``."""
        return self._rows[i][j]

    def __repr__(self):
        return f"Z2Algebra({self.name!r}, dim={self.dim})"


def validate_z2(defn: AlgebraDef) -> Z2Algebra:
    """Check every grading and unit invariant exhaustively over basis pairs.

    Raises ParityViolation, OddOddNonzero, NoUnit or NonEvenUnit with the
    offending indices; returns an operational handle on success.
    """
    return Z2Algebra(defn)


class Element:
    """Coefficient vector over an algebra basis, exact or double precision."""

    __slots__ = ("algebra", "coeffs", "exact")

    def __init__(self, algebra, coeffs, exact=None):
        coeffs = list(coeffs)
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient vector length must equal dim")
        if exact is None:
            exact = not any(isinstance(c, float) for c in coeffs)
        if exact:
            coeffs = [_as_fraction(c) for c in coeffs]
        else:
            coeffs = [float(c) for c in coeffs]
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self.exact = exact

    # -- helpers ----------------------------------------------------------

    def _compatible(self, other):
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch(
                f"elements of {self.algebra.name} and {other.algebra.name}"
            )
        if other.exact != self.exact:
            raise ScalarKindMismatch("cannot mix exact and numeric coefficients")

    def _zero_scalar(self):
        return Fraction(0) if self.exact else 0.0

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        return Element(
            self.algebra,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            exact=self.exact,
        )

    def __sub__(self, other):
        self._compatible(other)
        return Element(
            self.algebra,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            exact=self.exact,
        )

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coeffs], exact=self.exact)

    def scale(self, scalar):
        if self.exact:
            if isinstance(scalar, float):
                raise ScalarKindMismatch("float scalar on an exact element")
            scalar = _as_fraction(scalar)
        else:
            scalar = float(scalar)
        return Element(
            self.algebra, [scalar * a for a in self.coeffs], exact=self.exact
        )

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._compatible(other)
        alg = self.algebra
        out = [self._zero_scalar()] * alg.dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            rows_i = alg._rows[i]
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                ab = a * b
                for k, c in rows_i[j]:
                    out[k] += ab * c
        return Element(alg, out, exact=self.exact)

    # -- grading ------------------------------------------------------------

    def even_part(self):
        coeffs = [
            c if self.algebra.parity[i] == 0 else self._zero_scalar()
            for i, c in enumerate(self.coeffs)
        ]
        return Element(self.algebra, coeffs, exact=self.exact)

    def odd_part(self):
        coeffs = [
            c if self.algebra.parity[i] == 1 else self._zero_scalar()
            for i, c in enumerate(self.coeffs)
        ]
        return Element(self.algebra, coeffs, exact=self.exact)

    def is_zero(self):
        return not any(self.coeffs)

    # -- inversion ----------------------------------------------------------

    def invert(self):
        """Two-sided inverse, or NotInvertible.

        Solves the left-multiplication system ``self * y = unit`` exactly
        and then checks ``y * self = unit`` as well; the right-hand check
        is not redundant because non-associative algebras are admitted.
        """
        if not self.exact:
            raise ValueError("inversion requires exact coefficients")
        alg = self.algebra
        columns = []
        for j in range(alg.dim):
            col = {}
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for k, c in alg._rows[i][j]:
                    s = col.get(k, 0) + a * c
                    if s:
                        col[k] = s
                    else:
                        col.pop(k, None)
            columns.append(col)
        target = {k: c for k, c in enumerate(alg.unit.coeffs) if c}
        solution = solve_columns(columns, target)
        if solution is None:
            raise NotInvertible("left-multiplication system is singular")
        candidate = Element(alg, solution, exact=True)
        if candidate * self != alg.unit:
            raise NotInvertible("left inverse fails the right product check")
        return candidate

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.exact == other.exact
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), self.exact, self.coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Element({self.algebra.name}, [{body}])"


def _associator(alg, i, j, k):
    """(e_i e_j) e_k - e_i (e_j e_k) as a sparse vector."""
    rows = alg._rows
    out = {}
    for l, c in rows[i][j]:
        out = vec_add(out, dict(rows[l][k]), c)
    for l, c in rows[j][k]:
        out = vec_add(out, dict(rows[i][l]), -c)
    return out


def is_associative(alg: Z2Algebra) -> bool:
    """Brute-force associativity over all dim^3 basis triples (no sampling)."""
    if alg._associative is None:
        alg._associative = all(
            not _associator(alg, i, j, k)
            for i in range(alg.dim)
            for j in range(alg.dim)
            for k in range(alg.dim)
        )
    return alg._associative


def _alternative_at(alg, i, j, k):
    a = _associator(alg, i, j, k)
    return not vec_add(a, _associator(alg, j, i, k)) and not vec_add(
        a, _associator(alg, i, k, j)
    )


def is_alternative(alg: Z2Algebra) -> bool:
    """Check both alternative laws x(xy)=(xx)y and (yx)x=y(xx).

    Each law is quadratic in one argument, so it is checked through its
    bilinear polarization over all basis triples, which is equivalent in
    characteristic zero and exhaustive at these dimensions.
    """
    if alg._alternative is None:
        alg._alternative = all(
            _alternative_at(alg, i, j, k)
            for i in range(alg.dim)
            for j in range(alg.dim)
            for k in range(alg.dim)
        )
    return alg._alternative


def part_norms_squared(a: Element):
    """Exact squared Euclidean norms of the even and odd components."""
    if not a.exact:
        raise ValueError("exact norms require exact coefficients")
    even = Fraction(0)
    odd = Fraction(0)
    for i, c in enumerate(a.coeffs):
        if a.algebra.parity[i] == 0:
            even += c * c
        else:
            odd += c * c
    return even, odd


def graded_norm(a: Element) -> float:
    """Euclidean norm of the even part plus Euclidean norm of the odd part.

    The two parts are combined additively so that norm multiplicativity on
    even*even and even*odd products can be checked exactly in squared form.
    """
    even = 0.0
    odd = 0.0
    for i, c in enumerate(a.coeffs):
        if a.algebra.parity[i] == 0:
            even += float(c) * float(c)
        else:
            odd += float(c) * float(c)
    return sqrt(even) + sqrt(odd)


def random_rational(rng, max_num=3, denominators=(1, 2, 3)):
    return Fraction(rng.randint(-max_num, max_num), rng.choice(denominators))


def random_element(alg, rng, max_num=3, denominators=(1, 2, 3)):
    """Dense random exact element with small numerators and denominators."""
    return Element(
        alg,
        [random_rational(rng, max_num, denominators) for _ in range(alg.dim)],
        exact=True,
    )


def random_element_nonzero_even(alg, rng, **kw):
    while True:
        a = random_element(alg, rng, **kw)
        if not a.even_part().is_zero():
            return a


def random_pure_odd_element(alg, rng, **kw):
    """Random nonzero purely odd element; None when the odd part is trivial."""
    if not alg.odd_indices:
        return None
    while True:
        coeffs = [Fraction(0)] * alg.dim
        for i in alg.odd_indices:
            coeffs[i] = random_rational(rng, **kw)
        a = Element(alg, coeffs, exact=True)
        if not a.is_zero():
            return a
