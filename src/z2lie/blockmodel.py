"""Numeric block upper-triangular model of a Banach Z2-graded algebra.

Matrices of shape (p+q) x (p+q) with an identically zero lower-left q x p
block form an associative algebra; the block-diagonal part is the even
subspace and the upper-right block the odd one.  Odd * odd lands in the
lower-left and therefore vanishes, so the grading holds by block
multiplication alone, which makes this the standard desk-scale model for
numeric experiments: matrix exp/log, residuals of the combined-exponential
series, conjugation-closure of sampled groups, and tangent-space recovery.

Block structure is preserved exactly, not within tolerance: no operation
ever writes into the lower-left block, and constructors reject matrices
with nonzero entries there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isfinite, log2

import numpy as np

from .algebra import AlgebraDef, Element, Z2Algebra, validate_z2
from .report import VerificationReport

EXP_SERIES_TOL = 1e-14
DEFAULT_SPAN_TOL = 1e-8


class LogOutOfDomain(Exception):
    pass


@dataclass(frozen=True)
class BlockShape:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("block dimensions must be positive")

    @property
    def n(self):
        return self.p + self.q


class BlockMatElement:
    """Double-precision matrix with an exactly zero lower-left block."""

    __slots__ = ("shape", "mat")

    def __init__(self, shape: BlockShape, mat):
        mat = np.array(mat, dtype=float)
        if mat.shape != (shape.n, shape.n):
            raise ValueError(f"matrix must be {shape.n} x {shape.n}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.any(mat[shape.p :, : shape.p] != 0.0):
            raise ValueError("lower-left block must be exactly zero")
        self.shape = shape
        self.mat = mat
        self.mat.flags.writeable = False

    @classmethod
    def zero(cls, shape):
        return cls(shape, np.zeros((shape.n, shape.n)))

    @classmethod
    def identity(cls, shape):
        return cls(shape, np.eye(shape.n))

    def even(self):
        out = self.mat.copy()
        out[: self.shape.p, self.shape.p :] = 0.0
        return BlockMatElement(self.shape, out)

    def odd(self):
        out = np.zeros_like(self.mat)
        out[: self.shape.p, self.shape.p :] = self.mat[: self.shape.p, self.shape.p :]
        return BlockMatElement(self.shape, out)

    def opnorm(self):
        return float(np.linalg.norm(self.mat, 2))

    def __add__(self, other):
        self._check(other)
        return BlockMatElement(self.shape, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return BlockMatElement(self.shape, self.mat - other.mat)

    def __neg__(self):
        return BlockMatElement(self.shape, -self.mat)

    def scale(self, scalar):
        return BlockMatElement(self.shape, float(scalar) * self.mat)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __matmul__(self, other):
        self._check(other)
        return BlockMatElement(self.shape, self.mat @ other.mat)

    def _check(self, other):
        if not isinstance(other, BlockMatElement) or other.shape != self.shape:
            raise ValueError("block shapes must match")

    def __repr__(self):
        return f"BlockMatElement(p={self.shape.p}, q={self.shape.q})"


def even_inverse(el: BlockMatElement) -> BlockMatElement:
    """Inverse of a purely even element, block by block (structure exact)."""
    p = el.shape.p
    if np.any(el.mat[:p, p:] != 0.0):
        raise ValueError("even_inverse expects a purely even element")
    out = np.zeros_like(el.mat)
    out[:p, :p] = np.linalg.inv(el.mat[:p, :p])
    out[p:, p:] = np.linalg.inv(el.mat[p:, p:])
    return BlockMatElement(el.shape, out)


def mat_exp(a: BlockMatElement) -> BlockMatElement:
    """Matrix exponential by scaling and squaring with a series kernel."""
    norm = a.opnorm()
    squarings = max(0, int(ceil(log2(norm / 0.5))) if norm > 0.5 else 0)
    t = a.mat / (2.0 ** squarings)
    acc = np.eye(a.shape.n)
    term = np.eye(a.shape.n)
    for k in range(1, 80):
        term = term @ t / k
        acc = acc + term
        if np.linalg.norm(term, 2) < EXP_SERIES_TOL:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return BlockMatElement(a.shape, acc)


def mat_log(g: BlockMatElement, max_terms=600) -> BlockMatElement:
    """Principal matrix logarithm via the series on g - I.

    Requires the operator norm of g - I to be below 1; raises
    LogOutOfDomain otherwise (or when the series fails to converge to the
    kernel tolerance within the term budget).
    """
    d = g.mat - np.eye(g.shape.n)
    dnorm = np.linalg.norm(d, 2)
    if dnorm >= 1.0:
        raise LogOutOfDomain(f"norm of g - I is {dnorm:.3f}, must be < 1")
    acc = np.zeros_like(d)
    power = np.eye(g.shape.n)
    for k in range(1, max_terms + 1):
        power = power @ d
        term = power / k if k % 2 else -power / k
        acc = acc + term
        if np.linalg.norm(power, 2) / k < EXP_SERIES_TOL:
            return BlockMatElement(g.shape, acc)
    raise LogOutOfDomain("log series did not converge within the term budget")


def evaluate_series(series, x, y, u, w) -> BlockMatElement:
    """Substitute block matrices for the generators of a word series."""
    shape = x.shape
    env = {
        "x0": x.even().mat,
        "x1": x.odd().mat,
        "y0": y.even().mat,
        "y1": y.odd().mat,
        "u0": u.even().mat,
        "u1": u.odd().mat,
        "w0": w.even().mat,
        "w1": w.odd().mat,
    }
    mat = series.evaluate(
        env,
        one=np.eye(shape.n),
        mul=np.matmul,
        scale=lambda c, v: float(c) * v,
    )
    return BlockMatElement(shape, mat)


def _group_product(x, y, u, w):
    e0u = mat_exp(u).even()
    e0w = mat_exp(w).even()
    return (
        e0u
        @ mat_exp(x)
        @ even_inverse(e0u)
        @ e0w
        @ mat_exp(y)
        @ even_inverse(e0w)
    )


def bch_residual(x, y, u, w, degree: int) -> float:
    """Operator-norm gap between the truncated series and the true product.

    Evaluates the degree-``degree`` combined-exponential series at the
    given matrices, exponentiates, and measures the distance to
    E0(exp u) exp(x) E0(exp u)^-1 E0(exp w) exp(y) E0(exp w)^-1.
    """
    from .bch import extended_bch

    for el in (x, y, u, w):
        if el.opnorm() > 0.2 + 1e-12:
            raise ValueError("inputs must have operator norm at most 0.2")
    z = evaluate_series(extended_bch(degree), x, y, u, w)
    lhs = _group_product(x, y, u, w)
    return (lhs - mat_exp(z)).opnorm()


def bch_log_residual(x, y, u, w, degree: int) -> float:
    """Distance in log coordinates: series value vs direct mat_log of the product."""
    from .bch import extended_bch

    z = evaluate_series(extended_bch(degree), x, y, u, w)
    lhs = _group_product(x, y, u, w)
    return (z - mat_log(lhs)).opnorm()


def fit_convergence(norms, residuals):
    """Least-squares exponent and constant of residual ~ const * norm^k."""
    logs = np.log(np.asarray(norms, dtype=float))
    vals = np.maximum(np.asarray(residuals, dtype=float), 1e-300)
    slope, intercept = np.polyfit(logs, np.log(vals), 1)
    return float(slope), float(np.exp(intercept))


# -- random sampling -----------------------------------------------------------


def random_block(shape, rng, norm=0.1):
    """Random block element scaled to the requested operator norm."""
    mat = rng.uniform(-1.0, 1.0, size=(shape.n, shape.n))
    mat[shape.p :, : shape.p] = 0.0
    current = np.linalg.norm(mat, 2)
    if current > 0:
        mat *= norm / current
    return BlockMatElement(shape, mat)


# -- xi-group sampling and tangent recovery -------------------------------------


@dataclass
class XiGroupSample:
    """Sampled elements of the group generated by exponentials of a basis.

    Every stored element must have an invertible even part and stay within
    the configured operator-norm bound (so logs remain in domain).
    """

    generators: list
    elements: list
    norm_bound: float = 3.0

    def __post_init__(self):
        p = None
        for el in self.elements:
            p = el.shape.p
            if el.opnorm() > self.norm_bound:
                raise ValueError("sample element exceeds the norm bound")
            even = el.even().mat
            if (
                abs(np.linalg.det(even[:p, :p])) < 1e-12
                or abs(np.linalg.det(even[p:, p:])) < 1e-12
            ):
                raise ValueError("sample element has a singular even part")


def sample_xi_group(generators, budget, rng, step=0.12, log_margin=0.6):
    """Products of small exponentials of the basis plus xi-conjugations.

    Samples stay in the identity component by construction and inside the
    log domain (norm of element - identity below ``log_margin``).
    """
    if not generators:
        raise ValueError("no generators; use trivial_sample for the trivial group")
    shape = generators[0].shape
    identity = BlockMatElement.identity(shape)
    elements = [identity]
    attempts = 0
    while len(elements) < budget and attempts < 20 * budget:
        attempts += 1
        kind = int(rng.integers(0, 3))
        if kind == 0 or len(elements) < 3:
            coeffs = rng.uniform(-1.0, 1.0, size=len(generators)) * step
            a = BlockMatElement.zero(shape)
            for c, g in zip(coeffs, generators):
                a = a + g.scale(c)
            candidate = mat_exp(a)
        elif kind == 1:
            i = int(rng.integers(0, len(elements)))
            j = int(rng.integers(0, len(elements)))
            candidate = elements[i] @ elements[j]
        else:
            i = int(rng.integers(0, len(elements)))
            j = int(rng.integers(0, len(elements)))
            g0 = elements[i].even()
            candidate = g0 @ elements[j] @ even_inverse(g0)
        if (candidate - identity).opnorm() < log_margin:
            elements.append(candidate)
    return XiGroupSample(generators=list(generators), elements=elements)


def trivial_sample(shape):
    """The sample of the trivial group: just the identity."""
    return XiGroupSample(generators=[], elements=[BlockMatElement.identity(shape)])


def _vec(el):
    return el.mat.reshape(-1)


def _orthonormal_columns(elements):
    if not elements:
        return None
    a = np.stack([_vec(el) for el in elements], axis=1)
    q, r = np.linalg.qr(a)
    keep = np.abs(np.diag(r)) > 1e-12
    return q[:, keep]


def tangent_basis(sample: XiGroupSample, tol=DEFAULT_SPAN_TOL):
    """Orthonormal basis of the span of the logs of the sampled elements.

    Singular directions below ``tol`` are treated as numerical noise and
    dropped; the returned matrices have their (noise-level) lower-left
    entries forced back to exact zero.
    """
    if not sample.elements:
        return []
    shape = sample.elements[0].shape
    rows = np.stack([_vec(mat_log(el)) for el in sample.elements])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    basis = []
    for i, sigma in enumerate(s):
        if sigma <= tol:
            continue
        mat = vt[i].reshape(shape.n, shape.n).copy()
        noise = np.abs(mat[shape.p :, : shape.p]).max() if shape.q else 0.0
        if noise > 1e-9:
            raise AssertionError("tangent vector leaked into the lower-left block")
        mat[shape.p :, : shape.p] = 0.0
        basis.append(BlockMatElement(shape, mat))
    return basis


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two spans of block elements."""
    qa = _orthonormal_columns(basis_a)
    qb = _orthonormal_columns(basis_b)
    if qa is None or qb is None or qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    cosines = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return np.arccos(cosines)


def xi_closure_check(sample: XiGroupSample, trials=100, tol=DEFAULT_SPAN_TOL, seed=0):
    """Conjugate sampled elements by even parts; logs must stay in span(L).

    Membership in the sampled group is operationalized near the identity
    as "the log lies in the span of the generating basis within tol",
    which is exactly what the tangent correspondence predicts locally.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport(subject="xi-closure")
    check = report.check("xi_conjugate_log_in_span", note=f"tol={tol!r}")
    q = _orthonormal_columns(sample.generators)
    skipped = 0
    for _ in range(trials):
        i = int(rng.integers(0, len(sample.elements)))
        j = int(rng.integers(0, len(sample.elements)))
        g0 = sample.elements[i].even()
        conj = g0 @ sample.elements[j] @ even_inverse(g0)
        if (conj - BlockMatElement.identity(conj.shape)).opnorm() >= 1.0:
            skipped += 1
            continue
        check.record_trial()
        v = _vec(mat_log(conj))
        if q is None:
            residual = float(np.linalg.norm(v))
        else:
            residual = float(np.linalg.norm(v - q @ (q.T @ v)))
        if residual > tol:
            check.record_failure({"pair": [i, j], "residual": residual})
    if skipped:
        check.note += f"; skipped {skipped} out-of-domain conjugates"
    return report


def correspondence_roundtrip(
    exact_generators,
    shape: BlockShape,
    budget=60,
    tol=1e-6,
    closure_tol=DEFAULT_SPAN_TOL,
    seed=0,
    step=0.12,
) -> VerificationReport:
    """Round trip: exponentiate a bracket-closed basis, recover its tangent span.

    ``exact_generators`` are rational matrices; closure under both
    brackets is verified exactly on the rational shadow of the block
    algebra before the numeric experiment runs.  The numeric side samples
    the generated group, takes logs, and asserts that the recovered span
    matches span(L): dimension never exceeds dim(L) and all principal
    angles stay within ``tol``.  Conjugation closure is checked within
    ``closure_tol``.
    """
    from .brackets import generate_subalgebra

    if not all(isfinite(t) and t >= 0 for t in (tol, closure_tol)):
        raise ValueError("tolerances must be finite and nonnegative")
    report = VerificationReport(
        subject=f"correspondence:p={shape.p},q={shape.q}"
    )
    closure = report.check("bracket_closure_exact")
    alg = block_matrix_algebra(shape.p, shape.q)
    exact_elements = [block_matrix_element(alg, shape, m) for m in exact_generators]
    if exact_elements:
        span_dim = generate_subalgebra(exact_elements).dim
        input_rank = _exact_rank(exact_elements)
        closure.record_trial()
        if span_dim != input_rank:
            closure.record_failure(
                {"input_rank": input_rank, "closure_dim": span_dim}
            )
        dim_l = input_rank
    else:
        closure.note = "vacuous: empty basis"
        dim_l = 0

    float_gens = [
        BlockMatElement(
            shape, np.array([[float(c) for c in row] for row in m])
        )
        for m in exact_generators
    ]
    if float_gens:
        rng = np.random.default_rng(seed)
        sample = sample_xi_group(float_gens, budget, rng, step=step)
    else:
        sample = trivial_sample(shape)

    basis = tangent_basis(sample, tol=closure_tol)
    dims = report.check("tangent_dim_bounded", note=f"dim(L)={dim_l}")
    dims.record_trial()
    if len(basis) > dim_l:
        dims.record_failure({"tangent_dim": len(basis), "dim_l": dim_l})

    span = report.check("tangent_span_matches", note=f"tol={tol!r}")
    span.record_trial()
    if dim_l == 0:
        if basis:
            span.record_failure({"tangent_dim": len(basis)})
    else:
        angles = principal_angles(basis, float_gens)
        max_angle = float(angles.max()) if angles.size else 0.0
        if len(basis) != dim_l or max_angle > tol:
            span.record_failure(
                {"tangent_dim": len(basis), "dim_l": dim_l, "max_angle": max_angle}
            )
        else:
            span.note += f"; max principal angle {max_angle:.3e}"

    closure_report = xi_closure_check(
        sample, trials=50, tol=closure_tol, seed=seed + 1
    )
    report.checks.extend(closure_report.checks)
    return report


def _exact_rank(elements):
    from .linalg import FractionSpan

    span = FractionSpan()
    for el in elements:
        span.add({i: c for i, c in enumerate(el.coeffs) if c})
    return span.dim


# -- exact rational shadow -------------------------------------------------------


def block_matrix_units(p, q):
    """Basis positions: diagonal P block, diagonal R block, then upper-right."""
    units = [(a, b) for a in range(p) for b in range(p)]
    units += [(p + a, p + b) for a in range(q) for b in range(q)]
    units += [(a, p + b) for a in range(p) for b in range(q)]
    return units


def unit_matrices(shape: BlockShape, positions):
    """Rational matrix units: a 1 at each ``(row, column)`` position."""
    out = []
    for r, c in positions:
        mat = [[Fraction(0)] * shape.n for _ in range(shape.n)]
        mat[r][c] = Fraction(1)
        out.append(mat)
    return out


def block_matrix_algebra(p, q) -> Z2Algebra:
    """Exact structure-constant form of the block-triangular matrix algebra."""
    units = block_matrix_units(p, q)
    index = {rc: i for i, rc in enumerate(units)}
    parity = tuple(0 if (r < p) == (c < p) else 1 for r, c in units)
    triples = []
    for i, (r, c) in enumerate(units):
        for j, (r2, c2) in enumerate(units):
            if c == r2:
                triples.append((i, j, index[(r, c2)], Fraction(1)))
    n = p + q
    unit = [Fraction(0)] * len(units)
    for a in range(n):
        unit[index[(a, a)]] = Fraction(1)
    defn = AlgebraDef(
        name=f"blockmat({p},{q})",
        dim=len(units),
        parity=parity,
        structconst=triples,
        unit=unit,
    )
    return validate_z2(defn)


def block_matrix_element(alg: Z2Algebra, shape: BlockShape, matrix) -> Element:
    """Exact Element from a rational matrix with zero lower-left block."""
    units = block_matrix_units(shape.p, shape.q)
    index = {rc: i for i, rc in enumerate(units)}
    coeffs = [Fraction(0)] * len(units)
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            value = Fraction(value)
            if not value:
                continue
            if (r, c) not in index:
                raise ValueError(f"entry ({r},{c}) lies in the forbidden block")
            coeffs[index[(r, c)]] = value
    return Element(alg, coeffs, exact=True)


def element_to_matrix(el: Element, shape: BlockShape):
    units = block_matrix_units(shape.p, shape.q)
    out = [[Fraction(0)] * shape.n for _ in range(shape.n)]
    for (r, c), coeff in zip(units, el.coeffs):
        out[r][c] = coeff
    return out
