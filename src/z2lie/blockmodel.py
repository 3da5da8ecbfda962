"""Numeric block upper-triangular model of a Banach Z2-graded algebra.

Matrices of shape (p+q) x (p+q) with an identically zero lower-left q x p
block form an associative algebra; the block-diagonal part is the even
subspace and the upper-right block the odd one.  Odd * odd lands in the
lower-left and therefore vanishes, so the grading holds by block
multiplication alone, which makes this the standard desk-scale model for
numeric experiments.  The one kept here is the correspondence experiment
of ``correspond``: matrix exp/log, conjugation-closure of sampled groups,
and tangent-space recovery, against the exact rational shadow
:func:`block_matrix_algebra`, whose ``Element``s are the generators.  The
residual ladder of the extended series on block matrices, which no
command runs, lives with the tests in ``tests/cbh_ladder.py``.

A generator set, a xi-group sample and a tangent basis are each one
(k, n, n) float stack, and :func:`mat_exp` and :func:`mat_log` take and
return such stacks.  The sample is drawn in rounds, each one stacked
matmul or ``mat_exp`` call per kind of candidate.  Every random draw
comes from a ``random.Random(seed)`` stream, the generator of the rest of
the package, so numpy's own random module is never loaded.  The tangent
span and its conjugation closure are judged at the one tolerance
``SPAN_TOL``, the closure on ``XI_CLOSURE_TRIALS`` conjugate pairs.

Block structure is preserved exactly, not within tolerance: no operation
ever writes into the lower-left block, and every stack from outside is
refused if it has nonzero entries there.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isfinite
from random import Random

import numpy as np

from .algebra import AlgebraDef, Element, Z2Algebra, require_nonnegative_int, validate_z2
from .brackets import generate_subalgebra
from .linalg import FractionSpan
from .report import VerificationReport

EXP_SERIES_TOL = 1e-14
# the tangent-span rank cutoff and closure residual bound, and the closure's pairs
SPAN_TOL = 1e-8
XI_CLOSURE_TRIALS = 50
LOG_MAX_TERMS = 600
# xi-group sampling: scale of the random exponents, the bound on the norm of
# (sample - identity) that keeps logs in domain, and the norm bound on samples
SAMPLE_STEP = 0.12
SAMPLE_LOG_MARGIN = 0.6
SAMPLE_NORM_BOUND = 3.0
# the exact shadow has dim p^2 + q^2 + pq and is built from all unit pairs
MAX_BLOCK_SIZE = 8
# the largest group sample: 10,000 matrices of at most 8 x 8 floats are 5 MB
MAX_BUDGET = 10_000


class LogOutOfDomain(Exception):
    pass


class BlockShape(namedtuple("BlockShape", "p q")):
    __slots__ = ()

    def __new__(cls, p, q):
        if p < 1 or q < 1:
            raise ValueError("block dimensions must be positive")
        if p + q > MAX_BLOCK_SIZE:
            raise ValueError(f"p + q must be at most {MAX_BLOCK_SIZE}")
        return super().__new__(cls, p, q)

    @property
    def n(self):
        return self.p + self.q


def _require_finite(stack):
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")


def _block_matrices(shape: BlockShape, mats):
    """Read-only float copy of a (k, n, n) stack of block matrices.

    Entries must be finite and the lower-left q x p block exactly zero.
    """
    mats = np.array(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[-2:] != (shape.n, shape.n):
        raise ValueError(f"matrix must be {shape.n} x {shape.n}")
    _require_finite(mats)
    if np.any(mats[..., shape.p :, : shape.p] != 0.0):
        raise ValueError("lower-left block must be exactly zero")
    mats.flags.writeable = False
    return mats


def _even_inverses(evens, p):
    """Blockwise inverses of one even matrix or a stack of them."""
    out = np.zeros_like(evens)
    out[..., :p, :p] = np.linalg.inv(evens[..., :p, :p])
    out[..., p:, p:] = np.linalg.inv(evens[..., p:, p:])
    return out


def mat_exp(xs):
    """Matrix exponentials of a stack ``xs`` (m, n, n) by scaling and squaring.

    Each member is scaled by 2^-s, with s the least count that brings its
    operator norm to at most 1/2 (one batched SVD for the stack), summed by
    its Taylor series and squared s times (Higham, SIAM J. Matrix Anal.
    Appl. 26 (2005)).  Each member's series stops at the first term whose
    Frobenius norm is below ``EXP_SERIES_TOL``, and its sum is frozen there,
    so a member gets exactly the terms it would get alone.  The Frobenius
    norm bounds the operator norm from above, so this stop is at least as
    strict as one on the operator norm, and it costs O(n^2) where the
    operator norm costs an SVD.  Powers of block upper-triangular matrices
    keep an exactly zero lower-left block, and so do the exponentials.
    Raises ValueError for a non-finite entry.
    """
    _require_finite(xs)
    norms = np.linalg.norm(xs, 2, axis=(1, 2))
    squarings = np.zeros(len(xs), dtype=int)
    big = norms > 0.5
    squarings[big] = np.ceil(np.log2(norms[big] / 0.5))
    t = np.ldexp(xs, -squarings[:, np.newaxis, np.newaxis])
    out = np.empty_like(t)
    live = np.arange(len(t))
    acc = np.broadcast_to(np.eye(xs.shape[-1]), t.shape).copy()
    term = acc.copy()
    for k in range(1, 80):
        term = term @ t / k
        acc += term
        done = np.linalg.norm(term, axis=(1, 2)) < EXP_SERIES_TOL
        if done.any():
            out[live[done]] = acc[done]
            live, t, acc, term = (x[~done] for x in (live, t, acc, term))
        if not live.size:
            break
    out[live] = acc
    for r in range(squarings.max(initial=0)):
        squared = squarings > r
        out[squared] = out[squared] @ out[squared]
    return out


def mat_log(gs):
    """Principal logarithms of a stack ``gs`` (m, n, n) by the series on g - I.

    Raises ValueError for a non-finite entry.  Requires the operator norm
    of every g - I to be below 1, checked by one batched SVD; raises
    LogOutOfDomain otherwise, or when a series fails to converge to the
    kernel tolerance within the term budget.

    Each member's series stops at the first term whose Frobenius norm is
    below ``EXP_SERIES_TOL``, and its sum is frozen there, so a member gets
    exactly the terms it would get alone.  The Frobenius norm bounds the
    operator norm from above, so this stop is at least as strict as one on
    the operator norm, and it costs O(n^2) where the operator norm costs an
    SVD.  Powers of block upper-triangular matrices keep an exactly zero
    lower-left block, and so do the logarithms.
    """
    _require_finite(gs)
    d = gs - np.eye(gs.shape[-1])
    dnorms = np.linalg.norm(d, 2, axis=(1, 2))
    if np.any(dnorms >= 1.0):
        raise LogOutOfDomain(f"norm of g - I is {dnorms.max():.3f}, must be < 1")
    out = np.empty_like(d)
    live = np.arange(len(d))
    acc = np.zeros_like(d)
    power = d
    for k in range(1, LOG_MAX_TERMS + 1):
        acc += power / k if k % 2 else -power / k
        done = np.linalg.norm(power, axis=(1, 2)) / k < EXP_SERIES_TOL
        if done.any():
            out[live[done]] = acc[done]
            live, d, acc, power = (x[~done] for x in (live, d, acc, power))
        if not live.size:
            return out
        power = power @ d
    raise LogOutOfDomain("log series did not converge within the term budget")


# -- xi-group sampling and tangent recovery -------------------------------------


def _randranges(rng, stop, count):
    """``count`` draws of ``rng.randrange(stop)``, in order, as an index array."""
    return np.array([rng.randrange(stop) for _ in range(count)], dtype=np.intp)


class XiGroupSample:
    """Sampled elements of the group generated by exponentials of a basis.

    ``generators`` (k, n, n) and ``mats`` (m >= 1, n, n) are stacks of block
    matrices of ``shape`` with finite entries and an exactly zero
    lower-left block.  Every sampled matrix must have an invertible even part and
    operator norm at most ``SAMPLE_NORM_BOUND``.
    """

    def __init__(self, shape: BlockShape, generators, mats):
        self.shape = shape
        self.generators = _block_matrices(shape, generators)
        self.mats = mats = _block_matrices(shape, mats)
        if not len(mats):
            raise ValueError("a sample holds at least one element")
        p = shape.p
        if np.any(np.linalg.norm(mats, 2, axis=(1, 2)) > SAMPLE_NORM_BOUND):
            raise ValueError("sample element exceeds the norm bound")
        # the diagonal blocks of an element are those of its even part
        dets = (np.linalg.det(mats[:, :p, :p]), np.linalg.det(mats[:, p:, p:]))
        if any(np.any(np.abs(det) < 1e-12) for det in dets):
            raise ValueError("sample element has a singular even part")


def sample_xi_group(shape: BlockShape, generators, budget, seed):
    """Products of small exponentials of the basis plus xi-conjugations.

    ``generators`` is a (k, n, n) stack of block matrices, refused as
    :class:`XiGroupSample` refuses one before anything is drawn; ``budget``
    is an int above k and at most ``MAX_BUDGET``, and ``seed`` a
    nonnegative int that seeds one ``random.Random`` stream for every draw.
    The sample starts at the identity and draws at most ``20 * budget``
    attempts, in rounds.  The first rounds draw only fresh exponentials of
    random combinations of the generators, until there are k of them, so a
    budget of dim(L) + 1 can span the tangent space.  Each later round
    draws every missing attempt at once: a fresh exponential, a product of
    two, or a xi-conjugate of one by the even part of another, both taken
    from earlier rounds.  A candidate is kept, in attempt order, when the
    norm of candidate - identity is below ``SAMPLE_LOG_MARGIN``, so samples
    stay in the identity component and inside the log domain.  With k = 0
    the group is trivial and the sample is the identity alone.

    Draw order: a round of ``count`` fresh exponentials draws ``count * k``
    values ``u = rng.random()`` in row-major order, each coefficient
    ``(2u - 1) * SAMPLE_STEP``.  A mixed round draws its ``count`` kinds
    with ``rng.randrange(3)``, then ``count`` first and ``count`` second
    indices with ``rng.randrange(len(mats))``, then the coefficients of its
    fresh members.
    """
    require_nonnegative_int("seed", seed)
    rng = Random(seed)
    generators = _block_matrices(shape, generators)
    p, n, k = shape.p, shape.n, len(generators)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget <= k:
        raise ValueError(f"budget must be an int greater than len(generators) = {k}")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be at most MAX_BUDGET = {MAX_BUDGET}")
    identity = np.eye(n)
    flat = generators.reshape(k, n * n)
    # every product keeps the lower-left block exactly zero
    mats = identity[np.newaxis]
    attempts, cap = 0, 20 * budget

    def fresh(count):
        u = np.array([rng.random() for _ in range(count * k)]).reshape(count, k)
        coeffs = (2.0 * u - 1.0) * SAMPLE_STEP
        return mat_exp((coeffs @ flat).reshape(count, n, n))

    def draw(target, candidates_of):
        # rounds of the missing attempts until ``target`` are kept or the cap is hit
        nonlocal mats, attempts
        while len(mats) < target and attempts < cap:
            count = min(target - len(mats), cap - attempts)
            attempts += count
            candidates = candidates_of(count)
            near = np.linalg.norm(candidates - identity, 2, axis=(1, 2)) < SAMPLE_LOG_MARGIN
            mats = np.concatenate([mats, candidates[near]])

    def mixed(count):
        kinds = _randranges(rng, 3, count)
        i, j = _randranges(rng, len(mats), 2 * count).reshape(2, count)
        out = np.empty((count, n, n))
        out[kinds == 0] = fresh(int(np.count_nonzero(kinds == 0)))
        product = kinds == 1
        out[product] = mats[i[product]] @ mats[j[product]]
        conjugate = kinds == 2
        evens = mats[i[conjugate]].copy()
        evens[:, :p, p:] = 0.0
        out[conjugate] = evens @ mats[j[conjugate]] @ _even_inverses(evens, p)
        return out

    if k:
        draw(min(budget, k + 1), fresh)
        draw(budget, mixed)
    return XiGroupSample(shape, generators, mats)


def _orthonormal_columns(stack):
    k, n, _ = stack.shape
    q, r = np.linalg.qr(stack.reshape(k, n * n).T)
    return q[:, np.abs(np.diag(r)) > 1e-12]


def tangent_basis(sample: XiGroupSample):
    """Orthonormal basis (a stack) of the span of the logs of the sample.

    Singular directions below ``SPAN_TOL`` are treated as numerical noise
    and dropped; the returned matrices have their (noise-level) lower-left
    entries forced back to exact zero.
    """
    n, p = sample.shape.n, sample.shape.p
    logs = mat_log(sample.mats)
    _, s, vt = np.linalg.svd(logs.reshape(len(logs), -1), full_matrices=False)
    basis = vt[s > SPAN_TOL].reshape(-1, n, n)
    if np.abs(basis[:, p:, :p]).max(initial=0.0) > 1e-9:
        raise AssertionError("tangent vector leaked into the lower-left block")
    basis[:, p:, :p] = 0.0
    return basis


def principal_angles(basis_a, basis_b):
    """Principal angles (radians, ascending) between the spans of two stacks.

    ``arccos`` of a cosine near 1 cannot resolve an angle below about
    sqrt(2 * eps) ~ 2e-8, so angles up to pi/4 are taken by ``arcsin`` of the
    sines, the singular values of ``Qb - Qa (Qa^T Qb)``, and the larger ones
    by ``arccos`` of the cosines, the singular values of ``Qa^T Qb``
    (Bjorck & Golub, Math. Comp. 27 (1973); Knyazev & Argentati, SIAM J.
    Sci. Comput. 23 (2002)).
    """
    qa = _orthonormal_columns(basis_a)
    qb = _orthonormal_columns(basis_b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    if qa.shape[1] < qb.shape[1]:
        # project the smaller span, so that its every direction has an angle
        qa, qb = qb, qa
    overlap = qa.T @ qb
    cosines = np.linalg.svd(overlap, compute_uv=False)
    sines = np.linalg.svd(qb - qa @ overlap, compute_uv=False)[::-1]
    return np.where(
        cosines**2 >= 0.5,
        np.arcsin(np.clip(sines, 0.0, 1.0)),
        np.arccos(np.clip(cosines, -1.0, 1.0)),
    )


def xi_closure_check(sample: XiGroupSample, seed=0):
    """Conjugate sampled elements by even parts; logs must stay in span(L).

    Membership in the sampled group is operationalized near the identity
    as "the log lies in the span of the generating basis within
    ``SPAN_TOL``", which is exactly what the tangent correspondence
    predicts locally.  ``seed`` is a nonnegative int; the
    ``XI_CLOSURE_TRIALS`` pairs are ``2 * XI_CLOSURE_TRIALS`` draws of
    ``randrange(len(sample.mats))`` from ``random.Random(seed)``, in
    row-major order.
    """
    require_nonnegative_int("seed", seed)
    rng = Random(seed)
    report = VerificationReport(subject="xi-closure")
    check = report.check("xi_conjugate_log_in_span", note=f"tol={SPAN_TOL!r}")
    q = _orthonormal_columns(sample.generators)
    shape, mats = sample.shape, sample.mats
    evens = mats.copy()
    evens[:, : shape.p, shape.p :] = 0.0
    # the loop draws nothing else from rng, so every pair can be drawn first
    pairs = _randranges(rng, len(mats), 2 * XI_CLOSURE_TRIALS).reshape(-1, 2)
    i, j = pairs.T
    conj = evens[i] @ mats[j] @ _even_inverses(evens, shape.p)[i]
    in_domain = np.linalg.norm(conj - np.eye(shape.n), 2, axis=(1, 2)) < 1.0
    skipped = XI_CLOSURE_TRIALS - int(in_domain.sum())
    vecs = mat_log(conj[in_domain]).reshape(-1, shape.n * shape.n)
    vecs = vecs - (vecs @ q) @ q.T
    residuals = np.linalg.norm(vecs, axis=1)
    for pair, residual in zip(pairs[in_domain].tolist(), residuals.tolist()):
        check.record_trial()
        if residual > SPAN_TOL:
            check.record_failure({"pair": pair, "residual": residual})
    if skipped:
        check.note += f"; skipped {skipped} out-of-domain conjugates"
    return report


def correspondence_roundtrip(
    generators,
    shape: BlockShape,
    budget=60,
    tol=1e-6,
    seed=0,
) -> VerificationReport:
    """Round trip: exponentiate a bracket-closed basis, recover its tangent span.

    ``generators`` are ``Element``s of ``block_matrix_algebra(shape.p,
    shape.q)``, the exact rational shadow of the block algebra; anything
    else raises ValueError.  Closure under both brackets is verified exactly
    on them before the numeric experiment runs.  The numeric side samples
    the generated group, takes logs, and asserts that the recovered span
    matches span(L): dimension never exceeds dim(L) and all principal
    angles stay within ``tol``, a finite nonnegative float.  The tangent
    span and conjugation closure are both taken within ``SPAN_TOL``, and
    the closure draws ``XI_CLOSURE_TRIALS`` pairs.  ``budget``, the size of the
    group sample, must be an int above dim(L) and at most ``MAX_BUDGET``,
    checked before any exact work: the identity has log 0, so spanning
    dim(L) tangent directions takes dim(L) + 1 samples.  The sample
    exponentiates the dim(L) generators that enlarge their span, in order.
    ``seed`` must be a nonnegative int; the sample draws from ``seed`` and
    the closure check from ``seed + 1``.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError("tolerances must be finite and nonnegative")
    require_nonnegative_int("seed", seed)
    if isinstance(budget, int) and budget > MAX_BUDGET:
        raise ValueError(f"budget must be at most MAX_BUDGET = {MAX_BUDGET}")
    alg = block_matrix_algebra(shape.p, shape.q)
    generators = list(generators)
    if not all(isinstance(g, Element) and g.algebra is alg for g in generators):
        raise ValueError(f"generators must be Elements of {alg.name}")
    span = FractionSpan()
    independent = [g for g in generators if span.add(g.terms)]
    dim_l = span.dim
    if isinstance(budget, bool) or not isinstance(budget, int) or budget <= dim_l:
        raise ValueError(f"budget must be an int greater than dim(L) = {dim_l}")
    report = VerificationReport(
        subject=f"correspondence:p={shape.p},q={shape.q}"
    )
    closure = report.check("bracket_closure_exact")
    if generators:
        generate_subalgebra(alg, span)
        closure.record_trial()
        if span.dim != dim_l:
            closure.record_failure({"input_rank": dim_l, "closure_dim": span.dim})
    else:
        closure.note = "vacuous: empty basis"

    units = block_matrix_units(shape.p, shape.q)
    float_gens = np.zeros((dim_l, shape.n, shape.n))
    for mat, el in zip(float_gens, independent):
        for i, value in el.terms.items():
            mat[units[i]] = float(value)
    sample = sample_xi_group(shape, float_gens, budget, seed)
    basis = tangent_basis(sample)
    dims = report.check("tangent_dim_bounded", note=f"dim(L)={dim_l}")
    dims.record_trial()
    if len(basis) > dim_l:
        dims.record_failure({"tangent_dim": len(basis), "dim_l": dim_l})

    span = report.check("tangent_span_matches", note=f"tol={tol!r}")
    span.record_trial()
    if dim_l == 0:
        if len(basis):
            span.record_failure({"tangent_dim": len(basis)})
    else:
        angles = principal_angles(basis, sample.generators)
        max_angle = float(angles.max()) if angles.size else 0.0
        if len(basis) != dim_l or max_angle > tol:
            span.record_failure(
                {"tangent_dim": len(basis), "dim_l": dim_l, "max_angle": max_angle}
            )
        else:
            span.note += f"; max principal angle {max_angle:.3e}"

    closure_report = xi_closure_check(sample, seed=seed + 1)
    report.checks.extend(closure_report.checks)
    return report


# -- exact rational shadow -------------------------------------------------------


def block_matrix_units(p, q):
    """Basis positions: diagonal P block, diagonal R block, then upper-right."""
    units = [(a, b) for a in range(p) for b in range(p)]
    units += [(p + a, p + b) for a in range(q) for b in range(q)]
    units += [(a, p + b) for a in range(p) for b in range(q)]
    return units


@lru_cache(maxsize=None)
def block_matrix_algebra(p, q, /) -> Z2Algebra:
    """Exact structure-constant form of the block-triangular matrix algebra.

    Basis vector i is the matrix unit at ``block_matrix_units(p, q)[i]``.
    Validated once per shape; the handle is immutable, so it is shared.
    The arguments are positional, so a shape has one cached handle, and
    ``correspondence_roundtrip`` takes the Elements of that one.
    """
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
