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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Element, Z2Algebra, random_element
from .linalg import FractionSpan
from .report import VerificationReport, element_witness


def angle(x: Element, y: Element) -> Element:
    """x*y0 - y0*x; depends on y only through its even component."""
    y0 = y.even_part()
    return x * y0 - y0 * x


def square(x: Element, y: Element) -> Element:
    """The commutator x*y - y*x."""
    return x * y - y * x


def _leibniz(x, y, z):
    return angle(angle(x, y), z) - angle(x, angle(y, z)) - angle(angle(x, z), y)


def _huliu_1(x, y, z):
    return angle(x, square(y, z)) - angle(x, angle(y, z))


def _huliu_2(x, y, _z=None):
    a = angle(x, x)
    return square(a, y) - angle(a, y)


def _huliu_3(x, y, z):
    return angle(square(x, y), z) + square(angle(y, z), x) + square(y, angle(x, z))


def _huliu_4(x, y, z):
    return (
        square(angle(x, y), z)
        + square(z, square(x, y))
        + square(z, angle(y, x))
        + angle(z, angle(x, y))
    )


def _jacobi(x, y, z):
    return square(square(x, y), z) + square(square(y, z), x) + square(square(z, x), y)


def _antisymmetry(x, y, _z=None):
    return square(x, y) + square(y, x)


# name, residual function, exhaustive argument pattern
IDENTITIES = (
    ("leibniz", _leibniz, "triple"),
    ("huliu_1", _huliu_1, "triple"),
    ("huliu_2", _huliu_2, "polarized_pair"),
    ("huliu_3", _huliu_3, "triple"),
    ("huliu_4", _huliu_4, "triple"),
    ("jacobi", _jacobi, "triple"),
    ("antisymmetry", _antisymmetry, "pair"),
)

IDENTITY_NAMES = tuple(name for name, _, _ in IDENTITIES)


def _exhaustive_arguments(alg, pattern):
    basis = [alg.basis(i) for i in range(alg.dim)]
    if pattern == "triple":
        for x in basis:
            for y in basis:
                for z in basis:
                    yield x, y, z
    elif pattern == "pair":
        for x in basis:
            for y in basis:
                yield x, y, None
    elif pattern == "polarized_pair":
        # quadratic in the first argument: checking x = e_i + e_j over all
        # pairs covers the bilinear polarization, so this is complete
        for i in range(alg.dim):
            for j in range(alg.dim):
                x = basis[i] + basis[j]
                for z in basis:
                    yield x, z, None
    else:
        raise ValueError(pattern)


def verify_identities(
    alg: Z2Algebra, trials=200, seed=0, exhaustive=True, max_witnesses=5
) -> VerificationReport:
    """Evaluate every bracket identity exactly and report failures.

    Runs two phases: an exhaustive pass over basis arguments (complete for
    multilinear identities, and polarization-complete for the quadratic
    one) and ``trials`` seeded random dense triples.  Residuals are exact;
    any nonzero residual stores the offending arguments.
    """
    report = VerificationReport(subject=f"bracket-identities:{alg.name}")
    checks = {
        name: report.check(name, max_witnesses=max_witnesses)
        for name, _, _ in IDENTITIES
    }
    if exhaustive:
        for name, func, pattern in IDENTITIES:
            check = checks[name]
            for x, y, z in _exhaustive_arguments(alg, pattern):
                check.record_trial()
                residual = func(x, y, z)
                if not residual.is_zero():
                    witness = element_witness(("x", x), ("y", y))
                    if z is not None:
                        witness["z"] = [str(c) for c in z.coeffs]
                    witness["residual"] = [str(c) for c in residual.coeffs]
                    check.record_failure(witness)
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        z = random_element(alg, rng)
        for name, func, _pattern in IDENTITIES:
            check = checks[name]
            check.record_trial()
            residual = func(x, y, z)
            if not residual.is_zero():
                witness = element_witness(("x", x), ("y", y), ("z", z))
                witness["residual"] = [str(c) for c in residual.coeffs]
                check.record_failure(witness)
    return report


@dataclass
class SubalgebraBasis:
    """Echelonized basis of a subspace closed under both brackets."""

    algebra: Z2Algebra
    vectors: tuple

    def __post_init__(self):
        self._span = FractionSpan()
        for v in self.vectors:
            self._span.add({i: c for i, c in enumerate(v.coeffs) if c})

    @property
    def dim(self):
        return len(self.vectors)

    def contains(self, element: Element) -> bool:
        return self._span.contains(
            {i: c for i, c in enumerate(element.coeffs) if c}
        )


def generate_subalgebra(seed_vectors) -> SubalgebraBasis:
    """Smallest subspace containing the seeds and closed under both brackets.

    Iteratively adjoins all pairwise angle and square brackets, keeping a
    reduced echelon basis (pivot = first nonzero coordinate in basis
    order) until nothing new appears.  Terminates because the ambient
    dimension bounds the span.
    """
    seed_vectors = list(seed_vectors)
    if not seed_vectors:
        raise ValueError("need at least one seed vector")
    alg = seed_vectors[0].algebra
    for v in seed_vectors:
        if v.algebra is not alg:
            raise ValueError("seed vectors must share one algebra")
        if not v.exact:
            raise ValueError("subalgebra generation requires exact coefficients")
    span = FractionSpan()
    for v in seed_vectors:
        span.add({i: c for i, c in enumerate(v.coeffs) if c})

    def current_basis():
        out = []
        for row in span.rows():
            coeffs = [row.get(i, 0) for i in range(alg.dim)]
            out.append(Element(alg, coeffs, exact=True))
        return out

    changed = True
    while changed and span.dim < alg.dim:
        changed = False
        basis = current_basis()
        for a in basis:
            for b in basis:
                for new in (angle(a, b), square(a, b)):
                    vec = {i: c for i, c in enumerate(new.coeffs) if c}
                    if vec and span.add(vec):
                        changed = True
    return SubalgebraBasis(algebra=alg, vectors=tuple(current_basis()))
