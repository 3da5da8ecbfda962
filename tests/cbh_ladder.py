"""Floating-point residual ladder of the extended CBH series on block matrices.

The degree-N bracket fit of :func:`z2lie.bch.bracket_basis_fit` is
evaluated at four block matrices x, y, u, w by the brackets themselves,
exponentiated, and compared with the group product
E0(exp u) exp(x) E0(exp u)^-1 E0(exp w) exp(y) E0(exp w)^-1.  Shrinking
the four inputs along a ladder of norms, the residual must fall like
norm^(N+1); the fitted exponent is the numeric check of the series order.
No command of the tool runs this ladder, so it lives with the tests.
"""

from math import isfinite

import numpy as np

from z2lie.bch import SYMBOLS, bracket_basis_fit, bracket_value, gen
from z2lie.blockmodel import BlockShape, _even_inverses, mat_exp, mat_log

LADDER_NORMS = (0.2, 0.1, 0.05, 0.025)


class BlockMat:
    """One float block matrix, with what the brackets and the ladder use of it."""

    def __init__(self, shape: BlockShape, mat):
        self.shape = shape
        self.mat = np.array(mat, dtype=float)

    @classmethod
    def zero(cls, shape):
        return cls(shape, np.zeros((shape.n, shape.n)))

    @classmethod
    def identity(cls, shape):
        return cls(shape, np.eye(shape.n))

    def even_part(self):
        out = self.mat.copy()
        out[: self.shape.p, self.shape.p :] = 0.0
        return BlockMat(self.shape, out)

    def odd_part(self):
        return self - self.even_part()

    def opnorm(self):
        return float(np.linalg.norm(self.mat, 2))

    def __add__(self, other):
        return BlockMat(self.shape, self.mat + other.mat)

    def __sub__(self, other):
        return BlockMat(self.shape, self.mat - other.mat)

    def scale(self, scalar):
        return BlockMat(self.shape, float(scalar) * self.mat)

    def __mul__(self, other):
        return BlockMat(self.shape, self.mat @ other.mat)


def block_exp(a: BlockMat) -> BlockMat:
    """The exponential of one block matrix: ``mat_exp`` on a stack of one."""
    return BlockMat(a.shape, mat_exp(a.mat[np.newaxis])[0])


def block_log(g: BlockMat) -> BlockMat:
    """The principal logarithm of one block matrix: ``mat_log`` on a stack of one."""
    return BlockMat(g.shape, mat_log(g.mat[np.newaxis])[0])


def even_inverse(el: BlockMat) -> BlockMat:
    """Inverse of a purely even element, block by block (structure exact)."""
    p = el.shape.p
    if np.any(el.mat[:p, p:] != 0.0):
        raise ValueError("even_inverse expects a purely even element")
    return BlockMat(el.shape, _even_inverses(el.mat, p))


def _group_product(x, y, u, w):
    e0u, e0w = block_exp(u).even_part(), block_exp(w).even_part()
    return e0u * block_exp(x) * even_inverse(e0u) * e0w * block_exp(y) * even_inverse(e0w)


def _bracket_series(x, y, u, w, degree):
    """The degree-``degree`` bracket fit of the series, evaluated at x, y, u, w.

    Each monomial of ``bracket_basis_fit`` is evaluated by the block
    brackets themselves, so the result tests the bracket form of the series.
    The fit is looked up in this module's namespace at each call, so a test
    can patch it here.
    """
    for el in (x, y, u, w):
        if el.opnorm() > 0.2 + 1e-12:
            raise ValueError("inputs must have operator norm at most 0.2")
    values = {gen(s): el for s, el in zip(SYMBOLS, (x, y, u, w))}
    z = BlockMat.zero(x.shape)
    for term, coeff in bracket_basis_fit(degree):
        z = z + bracket_value(term, values).scale(coeff)
    return z


def bch_residual(x, y, u, w, degree: int) -> float:
    """Operator-norm gap between the truncated series and the true product.

    Evaluates the degree-``degree`` bracket series at the given matrices,
    exponentiates, and measures the distance to
    E0(exp u) exp(x) E0(exp u)^-1 E0(exp w) exp(y) E0(exp w)^-1.
    """
    z = _bracket_series(x, y, u, w, degree)
    return (_group_product(x, y, u, w) - block_exp(z)).opnorm()


def bch_log_residual(x, y, u, w, degree: int) -> float:
    """Distance in log coordinates: series value vs the direct log of the product."""
    z = _bracket_series(x, y, u, w, degree)
    return (z - block_log(_group_product(x, y, u, w))).opnorm()


def fit_convergence(norms, residuals):
    """Least-squares exponent and constant of residual ~ const * norm^k.

    Norms must be finite and positive, with at least two distinct ones;
    residuals finite and nonnegative.  A zero residual is clipped to 1e-300
    so that its log is finite.
    """
    norms = np.asarray(norms, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError("norms must be finite and positive")
    if not np.all(np.isfinite(residuals) & (residuals >= 0)):
        raise ValueError("residuals must be finite and nonnegative")
    if len(np.unique(norms)) < 2:
        raise ValueError("a fit needs at least two distinct norms")
    vals = np.maximum(residuals, 1e-300)
    slope, intercept = np.polyfit(np.log(norms), np.log(vals), 1)
    return float(slope), float(np.exp(intercept))


def random_block(shape, rng, norm=0.1):
    """Random block element scaled to the requested operator norm."""
    if not (isfinite(norm) and norm >= 0):
        raise ValueError("norm must be finite and nonnegative")
    mat = rng.uniform(-1.0, 1.0, size=(shape.n, shape.n))
    mat[shape.p :, : shape.p] = 0.0
    current = np.linalg.norm(mat, 2)
    if current > 0:
        mat *= norm / current
    return BlockMat(shape, mat)


def ladder_inputs(norm):
    """x, y, u, w: four fixed random (2, 2) directions, each scaled to ``norm``."""
    rng = np.random.default_rng(7)
    base = [random_block(BlockShape(2, 2), rng, norm=1.0) for _ in range(4)]
    return tuple(b.scale(norm / b.opnorm()) for b in base)


def ladder(degree):
    """``LADDER_NORMS`` and the degree-``degree`` residual at each of them.

    Nothing is cached: every call evaluates the fit as it stands, so a
    patched ``bracket_basis_fit`` is always the one measured.
    """
    residuals = tuple(bch_residual(*ladder_inputs(t), degree) for t in LADDER_NORMS)
    return LADDER_NORMS, residuals
