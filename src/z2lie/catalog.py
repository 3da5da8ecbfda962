"""The ten named Z2-graded algebras and their property test suites.

The catalog covers the classical real division algebras R, C, H, the dual
numbers R2, the graded extensions C2, C-2, H2, H-2, and the two
16-dimensional octonion-type algebras O2 and O-2.  Their one 8 x 8 table,
the octonion product of the even units, is transcribed verbatim below; it
gives the even*even, even*odd and odd*even products alike, the last with
the twist on the columns e05..e08.  Every other catalog algebra is cut out
of O2 or O-2 as a closed sub-table.  R, C and H are the spans of the first
one, two and four even units; the five graded extensions add the matching
odd copy of an even span, which reproduces the expected twist behaviour:
with twist -1 the odd vectors anti-commute with the imaginary even units,
giving the conjugation rule v*z = conj(z)*v in the complex case, and at
the one-even-dimension level the twist cancels entirely, so there is a
single R2.

The norm used throughout is the Euclidean norm of the even component plus
the Euclidean norm of the odd component.  Its multiplicativity on
even*even and even*odd products is checked exactly in squared form
(squared Euclidean norms of rational vectors are rational); global
submultiplicativity is checked numerically.
"""

from __future__ import annotations

import random
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
    require_nonnegative_int,
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


# name -> (twist of the octonion-type parent, even indices, odd indices);
# None keeps the whole 16-dimensional table
_CUTS = {
    "R": (1, [0], []),
    "C": (1, [0, 1], []),
    "H": (1, [0, 1, 2, 3], []),
    "R2": (1, [0], [8]),
    "C2": (1, [0, 4], [8, 12]),
    "C-2": (-1, [0, 4], [8, 12]),
    "H2": (1, [0, 1, 4, 5], [8, 9, 12, 13]),
    "H-2": (-1, [0, 1, 4, 5], [8, 9, 12, 13]),
    "O2": (1, None, None),
    "O-2": (-1, None, None),
}

CATALOG_NAMES = tuple(_CUTS)


# Multiplication table of the 16-dimensional octonion-type algebras.
# Entries are signed basis numbers 1..8; rows are left factors.  The even
# basis is e_{01}..e_{08} (indices 0..7), the odd basis e_{11}..e_{18}
# (indices 8..15), and odd*odd vanishes identically.  The one table gives
# the other three products: even * even -> even, even * odd -> odd (row
# e_{0s}, column e_{1t}, entry names e_{1k}) and odd * even -> odd (row
# e_{1s}, column e_{0t}), whose entries in columns e_{05}..e_{08} carry the
# twist factor.
_OCTONION = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, -1, 4, -3, 6, -5, -8, 7),
    (3, -4, -1, 2, 7, 8, -5, -6),
    (4, 3, -2, -1, 8, -7, 6, -5),
    (5, -6, -7, -8, -1, 2, 3, 4),
    (6, 5, -8, 7, -2, -1, -4, 3),
    (7, 8, 5, -6, -3, 4, -1, -2),
    (8, -7, 6, 5, -4, -3, 2, -1),
)


def octonion_type_def(twist: int) -> AlgebraDef:
    """Definition of the 16-dimensional octonion-type algebra."""
    if twist not in (1, -1):
        raise IllegalName(f"twist must be +1 or -1, got {twist}")
    triples = []
    # index offsets of the left factor, the right factor and the product
    for left, right, out in ((0, 0, 0), (0, 8, 8), (8, 0, 8)):
        for i, row in enumerate(_OCTONION):
            for j, entry in enumerate(row):
                sign = 1 if entry > 0 else -1
                if left and j >= 4:
                    sign *= twist
                triples.append((left + i, right + j, out + abs(entry) - 1, sign))
    return AlgebraDef(
        name="O2" if twist == 1 else "O-2",
        dim=16,
        parity=(0,) * 8 + (1,) * 8,
        structconst=triples,
        unit=[1] + [0] * 15,
    )


def subalgebra_restrict(alg: Z2Algebra, even_idx, odd_idx, name) -> Z2Algebra:
    """Restrict to the span of the given basis indices, named ``name``.

    Every index must be an int (not a bool) in ``range(alg.dim)``, else
    ValueError names it.  The even and odd index lists must carry the
    stated parities, the span must be closed under multiplication
    (otherwise NotClosed names a witness product), and it must contain
    the unit.
    """
    even_idx = list(even_idx)
    odd_idx = list(odd_idx)
    for i in even_idx + odd_idx:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < alg.dim:
            raise ValueError(f"index {i!r} is not a basis index of {alg.name}")
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
    for i, j, k, c in alg.defn.structconst:
        if i in pos and j in pos:
            if k not in pos:
                raise NotClosed(i, j, k)
            triples.append((pos[i], pos[j], pos[k], c))
    for k in alg.unit.terms:
        if k not in pos:
            raise NotClosed(0, 0, k)
    defn = AlgebraDef(
        name=name,
        dim=len(keep),
        parity=tuple(alg.parity[i] for i in keep),
        structconst=triples,
        unit=tuple(alg.unit.terms.get(i, 0) for i in keep),
    )
    return validate_z2(defn)


@lru_cache(maxsize=None)
def catalog_algebra(name: str) -> Z2Algebra:
    """Construct and validate one of the ten catalog algebras by name."""
    if name not in _CUTS:
        raise IllegalName(
            f"unknown algebra {name!r}; expected one of {', '.join(CATALOG_NAMES)}"
        )
    twist, even_idx, odd_idx = _CUTS[name]
    if even_idx is None:
        return validate_z2(octonion_type_def(twist))
    parent = catalog_algebra("O2" if twist == 1 else "O-2")
    return subalgebra_restrict(parent, even_idx, odd_idx, name=name)


def expected_properties(name: str) -> dict:
    """Which properties each catalog algebra is asserted to have."""
    if name not in _CUTS:
        raise IllegalName(name)
    octonion_type = name in ("O2", "O-2")
    return {
        "associative": not octonion_type,
        "alternative": True,
        "division": not octonion_type,
        "composition": True,
    }


# report check, left and right factor (x0, y0 the even parts of the samples
# x, y; y1 the odd part of y), and the part (0 even, 1 odd) of their product
_COMPOSITION_LAWS = (
    ("even_even_multiplicative_sq", "x0", "y0", 0),
    ("even_odd_multiplicative_sq", "x0", "y1", 1),
    ("odd_even_multiplicative_sq", "y1", "x0", 1),
)

# floating-point slack of the numeric submultiplicativity check
_SUBMULT_TOL = 1e-12


def composition_check(alg: Z2Algebra, trials=1000, seed=0) -> VerificationReport:
    """Norm multiplicativity and submultiplicativity over random samples.

    The even*even, even*odd and odd*even multiplicativity laws are checked
    exactly in squared form: the product's squared norm sits in the
    expected part and equals the product of the factors' squared norms.
    Submultiplicativity is checked in floating point.
    """
    require_nonnegative_int("seed", seed)
    rng = random.Random(seed)
    report = VerificationReport(subject=f"composition:{alg.name}")
    laws = [(report.check(name), *rest) for name, *rest in _COMPOSITION_LAWS]
    submult = report.check("submultiplicative_numeric", note=f"tol={_SUBMULT_TOL!r}")
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        factors = {"x0": x.even_part(), "y0": y.even_part(), "y1": y.odd_part()}
        for check, left, right, part in laws:
            a, b = factors[left], factors[right]
            check.record_trial()
            norms = part_norms_squared(a * b)
            expected = sum(part_norms_squared(a)) * sum(part_norms_squared(b))
            if norms[part] != expected or norms[1 - part]:
                check.record_failure(element_witness((left, a), (right, b)))

        submult.record_trial()
        if graded_norm(x * y) > graded_norm(x) * graded_norm(y) + _SUBMULT_TOL:
            submult.record_failure(element_witness(("x", x), ("y", y)))
    return report


def division_check(alg: Z2Algebra, trials=500, seed=0) -> VerificationReport:
    """Invertibility with nonzero even part; odd elements as zero divisors.

    Elements whose even component is nonzero must have an exact two-sided
    inverse.  Purely odd nonzero elements must fail to invert and must
    annihilate every odd element from both sides; the first odd basis
    vector is recorded as the explicit zero-divisor witness.
    """
    require_nonnegative_int("seed", seed)
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
