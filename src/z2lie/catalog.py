"""The ten named Z2-graded algebras and their property test suites.

The catalog covers the classical real division algebras R, C, H, the dual
numbers R2, the graded extensions C2, C-2, H2, H-2, and the two
16-dimensional octonion-type algebras O2 and O-2.  The octonion-type
tables are transcribed verbatim below; the five graded extensions are cut
out of them as closed sub-tables (even span plus the matching odd copy),
which reproduces the expected twist behaviour: with twist -1 the odd
vectors anti-commute with the imaginary even units, giving the
conjugation rule v*z = conj(z)*v in the complex case, and at the
one-even-dimension level the twist cancels entirely, so there is a single
R2.

The norm used throughout is the Euclidean norm of the even component plus
the Euclidean norm of the odd component.  Its multiplicativity on
even*even and even*odd products is checked exactly in squared form
(squared Euclidean norms of rational vectors are rational); global
submultiplicativity is checked numerically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    AlgebraDef,
    AlgebraError,
    NotInvertible,
    Z2Algebra,
    graded_norm,
    part_norms_squared,
    random_element,
    random_element_nonzero_even,
    random_pure_odd_element,
    validate_z2,
)
from .report import VerificationReport, element_witness


class IllegalName(AlgebraError):
    pass


class NotClosed(AlgebraError):
    def __init__(self, i, j, k):
        super().__init__(
            f"product e_{i}*e_{j} leaves the selected span through e_{k}"
        )
        self.witness = (i, j, k)


CATALOG_NAMES = ("R", "C", "H", "R2", "C2", "C-2", "H2", "H-2", "O2", "O-2")

_LEGAL = {
    "R": ("R", None),
    "C": ("C", None),
    "H": ("H", None),
    "R2": ("R", 1),
    "C2": ("C", 1),
    "C-2": ("C", -1),
    "H2": ("H", 1),
    "H-2": ("H", -1),
    "O2": ("O", 1),
    "O-2": ("O", -1),
}


@dataclass(frozen=True)
class CatalogName:
    """Validated catalog key: base algebra plus optional twist sign."""

    base: str
    twist: int | None

    def __post_init__(self):
        if (self.base, self.twist) not in _LEGAL.values():
            raise IllegalName(f"no catalog algebra for ({self.base}, {self.twist})")

    def __str__(self):
        if self.twist is None:
            return self.base
        if self.base == "R":
            return "R2"
        return f"{self.base}2" if self.twist == 1 else f"{self.base}-2"

    @classmethod
    def from_string(cls, name):
        try:
            base, twist = _LEGAL[name]
        except KeyError:
            raise IllegalName(
                f"unknown algebra {name!r}; expected one of {', '.join(CATALOG_NAMES)}"
            ) from None
        return cls(base, twist)


# Multiplication tables for the 16-dimensional octonion-type algebras.
# Entries are signed basis numbers 1..8; rows are left factors.  The even
# basis is e_{01}..e_{08} (indices 0..7), the odd basis e_{11}..e_{18}
# (indices 8..15), and odd*odd vanishes identically.

# even * even -> even
_EVEN_EVEN = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, -1, 4, -3, 6, -5, -8, 7),
    (3, -4, -1, 2, 7, 8, -5, -6),
    (4, 3, -2, -1, 8, -7, 6, -5),
    (5, -6, -7, -8, -1, 2, 3, 4),
    (6, 5, -8, 7, -2, -1, -4, 3),
    (7, 8, 5, -6, -3, 4, -1, -2),
    (8, -7, 6, 5, -4, -3, 2, -1),
)

# even * odd -> odd (row e_{0s}, column e_{1t}, entry names e_{1k})
_EVEN_ODD = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, -1, 4, -3, 6, -5, -8, 7),
    (3, -4, -1, 2, 7, 8, -5, -6),
    (4, 3, -2, -1, 8, -7, 6, -5),
    (5, -6, -7, -8, -1, 2, 3, 4),
    (6, 5, -8, 7, -2, -1, -4, 3),
    (7, 8, 5, -6, -3, 4, -1, -2),
    (8, -7, 6, 5, -4, -3, 2, -1),
)

# odd * even -> odd; the second flag marks entries carrying the twist
# factor (they sit exactly in columns e_{05}..e_{08})
_ODD_EVEN = (
    ((1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1), (8, 1)),
    ((2, 0), (-1, 0), (4, 0), (-3, 0), (6, 1), (-5, 1), (-8, 1), (7, 1)),
    ((3, 0), (-4, 0), (-1, 0), (2, 0), (7, 1), (8, 1), (-5, 1), (-6, 1)),
    ((4, 0), (3, 0), (-2, 0), (-1, 0), (8, 1), (-7, 1), (6, 1), (-5, 1)),
    ((5, 0), (-6, 0), (-7, 0), (-8, 0), (-1, 1), (2, 1), (3, 1), (4, 1)),
    ((6, 0), (5, 0), (-8, 0), (7, 0), (-2, 1), (-1, 1), (-4, 1), (3, 1)),
    ((7, 0), (8, 0), (5, 0), (-6, 0), (-3, 1), (4, 1), (-1, 1), (-2, 1)),
    ((8, 0), (-7, 0), (6, 0), (5, 0), (-4, 1), (-3, 1), (2, 1), (-1, 1)),
)

# quaternion block (also the top-left corner of _EVEN_EVEN)
_QUATERNION = (
    (1, 2, 3, 4),
    (2, -1, 4, -3),
    (3, -4, -1, 2),
    (4, 3, -2, -1),
)

_COMPLEX = ((1, 2), (2, -1))


def _signed(entry):
    return (abs(entry) - 1, Fraction(1 if entry > 0 else -1))


def octonion_type_def(twist: int) -> AlgebraDef:
    """Definition of the 16-dimensional octonion-type algebra."""
    if twist not in (1, -1):
        raise IllegalName(f"twist must be +1 or -1, got {twist}")
    triples = []
    for i, row in enumerate(_EVEN_EVEN):
        for j, entry in enumerate(row):
            k, sign = _signed(entry)
            triples.append((i, j, k, sign))
    for i, row in enumerate(_EVEN_ODD):
        for j, entry in enumerate(row):
            k, sign = _signed(entry)
            triples.append((i, 8 + j, 8 + k, sign))
    for i, row in enumerate(_ODD_EVEN):
        for j, (entry, has_twist) in enumerate(row):
            k, sign = _signed(entry)
            coeff = sign * twist if has_twist else sign
            triples.append((8 + i, j, 8 + k, coeff))
    unit = [Fraction(0)] * 16
    unit[0] = Fraction(1)
    return AlgebraDef(
        name="O2" if twist == 1 else "O-2",
        dim=16,
        parity=(0,) * 8 + (1,) * 8,
        structconst=triples,
        unit=unit,
    )


def _table_def(name, table, parity=None):
    dim = len(table)
    triples = []
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            k, sign = _signed(entry)
            triples.append((i, j, k, sign))
    unit = [Fraction(0)] * dim
    unit[0] = Fraction(1)
    return AlgebraDef(
        name=name,
        dim=dim,
        parity=parity if parity is not None else (0,) * dim,
        structconst=triples,
        unit=unit,
    )


def subalgebra_restrict(alg: Z2Algebra, even_idx, odd_idx, name=None) -> Z2Algebra:
    """Restrict to the span of the given basis indices.

    The even and odd index lists must carry the stated parities, the span
    must be closed under multiplication (otherwise NotClosed names a
    witness product), and it must contain the unit.
    """
    even_idx = list(even_idx)
    odd_idx = list(odd_idx)
    for i in even_idx:
        if alg.parity[i] != 0:
            raise ValueError(f"index {i} is not even")
    for i in odd_idx:
        if alg.parity[i] != 1:
            raise ValueError(f"index {i} is not odd")
    keep = even_idx + odd_idx
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate basis index in restriction")
    pos = {orig: new for new, orig in enumerate(keep)}
    triples = []
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            for k, c in alg.mul_row(i, j):
                if k not in pos:
                    raise NotClosed(i, j, k)
                triples.append((a, b, pos[k], c))
    for k, c in enumerate(alg.unit.coeffs):
        if c and k not in pos:
            raise NotClosed(0, 0, k)
    defn = AlgebraDef(
        name=name or f"{alg.name}|{len(keep)}",
        dim=len(keep),
        parity=tuple(alg.parity[i] for i in keep),
        structconst=triples,
        unit=tuple(alg.unit.coeffs[i] for i in keep),
    )
    return validate_z2(defn)


@lru_cache(maxsize=None)
def catalog_algebra(name: str) -> Z2Algebra:
    """Construct and validate one of the ten catalog algebras by name."""
    if isinstance(name, CatalogName):
        name = str(name)
    if name not in _LEGAL:
        raise IllegalName(
            f"unknown algebra {name!r}; expected one of {', '.join(CATALOG_NAMES)}"
        )
    if name == "R":
        return validate_z2(_table_def("R", ((1,),)))
    if name == "C":
        return validate_z2(_table_def("C", _COMPLEX))
    if name == "H":
        return validate_z2(_table_def("H", _QUATERNION))
    if name in ("O2", "O-2"):
        return validate_z2(octonion_type_def(1 if name == "O2" else -1))
    twist = _LEGAL[name][1]
    parent = catalog_algebra("O2" if twist == 1 else "O-2")
    if name == "R2":
        return subalgebra_restrict(parent, [0], [8], name="R2")
    if name in ("C2", "C-2"):
        return subalgebra_restrict(parent, [0, 4], [8, 12], name=name)
    return subalgebra_restrict(parent, [0, 1, 4, 5], [8, 9, 12, 13], name=name)


def expected_properties(name: str) -> dict:
    """Which properties each catalog algebra is asserted to have."""
    if name not in _LEGAL:
        raise IllegalName(name)
    octonion_type = name in ("O2", "O-2")
    return {
        "associative": not octonion_type,
        "alternative": True,
        "division": not octonion_type,
        "composition": True,
    }


def composition_check(alg: Z2Algebra, trials=1000, seed=0, tol=1e-12) -> VerificationReport:
    """Norm multiplicativity and submultiplicativity over random samples.

    The even*even and even*odd multiplicativity laws are checked exactly
    in squared form; submultiplicativity is checked in floating point
    within ``tol``.
    """
    rng = random.Random(seed)
    report = VerificationReport(subject=f"composition:{alg.name}")
    even_even = report.check("even_even_multiplicative_sq")
    even_odd = report.check("even_odd_multiplicative_sq")
    odd_even = report.check("odd_even_multiplicative_sq")
    submult = report.check("submultiplicative_numeric", note=f"tol={tol!r}")
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        x0 = x.even_part()
        y0 = y.even_part()
        y1 = y.odd_part()
        x0_sq = part_norms_squared(x0)[0]
        y0_sq = part_norms_squared(y0)[0]
        y1_sq = part_norms_squared(y1)[1]

        even_even.record_trial()
        prod = x0 * y0
        lhs = part_norms_squared(prod)[0]
        if lhs != x0_sq * y0_sq or not prod.odd_part().is_zero():
            even_even.record_failure(element_witness(("x0", x0), ("y0", y0)))

        even_odd.record_trial()
        prod = x0 * y1
        lhs = part_norms_squared(prod)[1]
        if lhs != x0_sq * y1_sq or not prod.even_part().is_zero():
            even_odd.record_failure(element_witness(("x0", x0), ("y1", y1)))

        odd_even.record_trial()
        prod = y1 * x0
        lhs = part_norms_squared(prod)[1]
        if lhs != x0_sq * y1_sq or not prod.even_part().is_zero():
            odd_even.record_failure(element_witness(("y1", y1), ("x0", x0)))

        submult.record_trial()
        if graded_norm(x * y) > graded_norm(x) * graded_norm(y) + tol:
            submult.record_failure(element_witness(("x", x), ("y", y)))
    return report


def division_check(alg: Z2Algebra, trials=500, seed=0) -> VerificationReport:
    """Invertibility with nonzero even part; odd elements as zero divisors.

    Elements whose even component is nonzero must have an exact two-sided
    inverse.  Purely odd nonzero elements must fail to invert and must
    annihilate every odd element from both sides; the first odd basis
    vector is recorded as the explicit zero-divisor witness.
    """
    rng = random.Random(seed)
    report = VerificationReport(subject=f"division:{alg.name}")
    invertible = report.check("even_part_nonzero_invertible")
    not_invertible = report.check("pure_odd_not_invertible")
    zero_divisor = report.check("pure_odd_two_sided_zero_divisor")
    if not alg.odd_indices:
        not_invertible.note = "vacuous: no odd basis vectors"
        zero_divisor.note = "vacuous: no odd basis vectors"
    else:
        witness = alg.basis(alg.odd_indices[0])
        zero_divisor.note = f"witness = e_{alg.odd_indices[0]}"
    for _ in range(trials):
        a = random_element_nonzero_even(alg, rng)
        invertible.record_trial()
        try:
            inv = a.invert()
        except NotInvertible:
            invertible.record_failure(element_witness(("a", a)))
        else:
            if a * inv != alg.unit or inv * a != alg.unit:
                invertible.record_failure(element_witness(("a", a), ("inv", inv)))

        odd = random_pure_odd_element(alg, rng)
        if odd is None:
            continue
        not_invertible.record_trial()
        try:
            odd.invert()
        except NotInvertible:
            pass
        else:
            not_invertible.record_failure(element_witness(("a", odd)))

        zero_divisor.record_trial()
        if not (odd * witness).is_zero() or not (witness * odd).is_zero():
            zero_divisor.record_failure(element_witness(("a", odd), ("w", witness)))
    return report
