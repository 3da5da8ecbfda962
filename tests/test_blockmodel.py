from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import cbh_ladder
from cbh_ladder import (
    BlockMat,
    bch_log_residual,
    bch_residual,
    block_exp,
    block_log,
    even_inverse,
    fit_convergence,
    ladder,
    random_block,
)
from support import find_check
from z2lie import blockmodel
from z2lie.algebra import Element, is_associative
from z2lie.bch import bracket_basis_fit, bracket_value, gen, printed_series_terms
from z2lie.blockmodel import (
    BlockShape,
    MAX_BUDGET,
    SAMPLE_LOG_MARGIN,
    LogOutOfDomain,
    XiGroupSample,
    block_matrix_algebra,
    block_matrix_units,
    correspondence_roundtrip,
    mat_exp,
    mat_log,
    principal_angles,
    sample_xi_group,
    tangent_basis,
    xi_closure_check,
)

SHAPE22 = BlockShape(2, 2)
SHAPE11 = BlockShape(1, 1)


def element_to_matrix(el, shape):
    """The rational block matrix of an Element of ``block_matrix_algebra``."""
    out = [[Fraction(0)] * shape.n for _ in range(shape.n)]
    for (r, c), coeff in zip(block_matrix_units(shape.p, shape.q), el.coeffs):
        out[r][c] = coeff
    return out


def matrix_to_element(shape, matrix):
    """The Element of ``block_matrix_algebra`` holding ``matrix`` off its lower-left block."""
    alg = block_matrix_algebra(shape.p, shape.q)
    return Element(alg, [matrix[r][c] for r, c in block_matrix_units(shape.p, shape.q)])


# the exact (0, 0) matrix unit of blockmat(1,1), a one-generator suite
UNIT00 = [block_matrix_algebra(1, 1).basis(0)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(value):
    # refused first: the SVD of the norms fails on a NaN, and an infinite
    # g - I runs the whole log series before LogOutOfDomain
    bad = np.eye(4)[np.newaxis]
    bad[0, 0, 3] = value
    for kernel in (mat_exp, mat_log):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            kernel(bad)


def test_parity_projections():
    rng = np.random.default_rng(0)
    a = random_block(SHAPE22, rng, norm=1.0)
    assert np.array_equal(a.even_part().mat + a.odd_part().mat, a.mat)
    assert np.all(a.even_part().mat[:2, 2:] == 0.0)
    assert np.all(a.odd_part().mat[:2, :2] == 0.0)
    assert np.all(a.odd_part().mat[2:, 2:] == 0.0)


def test_mat_exp_identity_and_odd():
    assert np.array_equal(block_exp(BlockMat.zero(SHAPE22)).mat, np.eye(4))
    rng = np.random.default_rng(1)
    odd = random_block(SHAPE22, rng, norm=0.4).odd_part()
    expected = BlockMat.identity(SHAPE22) + odd
    assert np.array_equal(block_exp(odd).mat, expected.mat)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_block(SHAPE22, rng, norm=0.1)
        assert (block_log(block_exp(a)) - a).opnorm() <= 1e-10


def test_exp_log_against_scipy():
    rng = np.random.default_rng(3)
    for norm in (0.05, 0.3, 2.5):
        a = random_block(SHAPE22, rng, norm=norm)
        assert np.allclose(block_exp(a).mat, scipy.linalg.expm(a.mat), atol=1e-12)
    g = block_exp(random_block(SHAPE22, rng, norm=0.4))
    assert np.allclose(block_log(g).mat, scipy.linalg.logm(g.mat), atol=1e-10)
    # at the sampler's margin, where the logs are hardest: the Frobenius
    # stop of both series is not early
    for _ in range(5):
        g = BlockMat.identity(SHAPE22) + random_block(SHAPE22, rng, norm=0.59)
        log = block_log(g)
        assert np.allclose(log.mat, scipy.linalg.logm(g.mat), rtol=0, atol=1e-10)
        assert np.allclose(block_exp(log).mat, scipy.linalg.expm(log.mat), rtol=0, atol=1e-10)
        assert np.allclose(block_exp(log).mat, g.mat, rtol=0, atol=1e-10)


def test_exp_stack_members_match_mat_exp_and_scipy():
    # operator norms needing 0, 0, 1, 2, 3 and 5 squarings; a zero member
    rng = np.random.default_rng(15)
    norms = (0.0, 0.3, 0.8, 1.6, 3.5, 9.0)
    stack = np.stack([random_block(SHAPE22, rng, norm=t).mat for t in norms])
    exps = mat_exp(stack)
    assert np.array_equal(exps[0], np.eye(4))
    for x, e in zip(stack, exps):
        assert np.all(e[2:, :2] == 0.0)
        # each member gets exactly the terms and squarings it gets alone
        assert np.array_equal(e, mat_exp(x[np.newaxis])[0])
        expected = scipy.linalg.expm(x)
        assert np.abs(e - expected).max() <= 1e-13 * np.abs(expected).max()
    assert mat_exp(stack[:0]).shape == (0, 4, 4)


def _spectral_stop_log(mat):
    # the single-matrix series as it stopped before, on the operator norm
    d = mat - np.eye(len(mat))
    acc, power = np.zeros_like(d), np.eye(len(mat))
    for k in range(1, 601):
        power = power @ d
        acc = acc + (power / k if k % 2 else -power / k)
        if np.linalg.norm(power, 2) / k < 1e-14:
            return acc
    raise AssertionError("no convergence")


def test_log_stack_members_match_single_logs():
    # members that converge at very different terms of the series
    rng = np.random.default_rng(12)
    norms = (1e-3, 0.05, 0.3, 0.59, 0.0, 0.2)
    stack = np.stack([np.eye(4) + random_block(SHAPE22, rng, norm=t).mat for t in norms])
    logs = mat_log(stack)
    for g, log in zip(stack, logs):
        assert np.all(log[2:, :2] == 0.0)
        alone = mat_log(g[np.newaxis])[0]
        assert np.abs(log - alone).max() <= 1e-15
        assert np.abs(log - _spectral_stop_log(g)).max() <= 1e-14
    assert mat_log(stack[:0]).shape == (0, 4, 4)


def test_log_stack_out_of_domain_member_raises():
    rng = np.random.default_rng(13)
    stack = np.stack([block_exp(random_block(SHAPE22, rng, norm=0.1)).mat for _ in range(3)])
    stack[1] = 3.0 * np.eye(4)
    with pytest.raises(LogOutOfDomain):
        mat_log(stack)


def test_log_domain_enforced():
    with pytest.raises(LogOutOfDomain):
        mat_log(3.0 * np.eye(4)[np.newaxis])


def test_block_structure_preserved_exactly():
    rng = np.random.default_rng(4)
    a = random_block(SHAPE22, rng, norm=0.3)
    b = random_block(SHAPE22, rng, norm=0.3)
    for el in (a * b, block_exp(a), block_log(block_exp(b)), a + b, a.scale(0.7)):
        assert np.all(el.mat[2:, :2] == 0.0)


def test_even_part_multiplicative():
    rng = np.random.default_rng(5)
    g = random_block(SHAPE22, rng, norm=0.8)
    h = random_block(SHAPE22, rng, norm=0.8)
    assert np.array_equal((g * h).even_part().mat, (g.even_part() * h.even_part()).mat)


def test_exp_even_part_commutes():
    rng = np.random.default_rng(6)
    a = random_block(SHAPE22, rng, norm=0.7)
    lhs = block_exp(a).even_part().mat
    rhs = block_exp(a.even_part()).mat
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_even_inverse_structure():
    rng = np.random.default_rng(7)
    g = block_exp(random_block(SHAPE22, rng, norm=0.5)).even_part()
    inv = even_inverse(g)
    assert np.allclose((g * inv).mat, np.eye(4), atol=1e-12)
    assert np.all(inv.mat[:2, 2:] == 0.0)
    with pytest.raises(ValueError):
        even_inverse(g + random_block(SHAPE22, rng, norm=0.1).odd_part())


def _values(x, y, u, w):
    return {gen(s): el for s, el in zip("xyuw", (x, y, u, w))}


def test_evaluate_series_degree_one():
    rng = np.random.default_rng(8)
    x, y, u, w = (random_block(SHAPE22, rng, norm=0.1) for _ in range(4))
    values = _values(x, y, u, w)
    z = BlockMat.zero(SHAPE22)
    for term, coeff in bracket_basis_fit(1):
        z = z + bracket_value(term, values).scale(coeff)
    assert np.allclose(z.mat, (x + y).mat, atol=1e-15)


def test_bracket_value_agrees_on_exact_shadow():
    # one evaluator: exact Elements of the rational shadow and float block
    # matrices give the same value for every monomial of the degree-3 fit
    rng = np.random.default_rng(14)
    mats = [rng.integers(-3, 4, size=(4, 4)) for _ in range(4)]
    for m in mats:
        m[2:, :2] = 0
    exact = _values(*(matrix_to_element(SHAPE22, m.tolist()) for m in mats))
    floats = _values(*(BlockMat(SHAPE22, m) for m in mats))
    for term, _ in bracket_basis_fit(3):
        expected = np.array(element_to_matrix(bracket_value(term, exact), SHAPE22), dtype=float)
        assert np.array_equal(bracket_value(term, floats).mat, expected), str(term)


def test_bch_residual_commuting_even_case():
    # commuting even x, y with u = w = 0: z = x + y exactly at degree 1
    x = BlockMat(SHAPE22, np.diag([0.1, 0.05, -0.02, 0.08]))
    y = BlockMat(SHAPE22, np.diag([-0.03, 0.06, 0.11, -0.01]))
    zero = BlockMat.zero(SHAPE22)
    assert bch_residual(x, y, zero, zero, 1) <= 1e-12


def test_bch_residual_norm_precondition():
    rng = np.random.default_rng(9)
    big = random_block(SHAPE22, rng, norm=0.5)
    zero = BlockMat.zero(SHAPE22)
    for residual in (bch_residual, bch_log_residual):
        with pytest.raises(ValueError, match="norm"):
            residual(big, zero, zero, zero, 2)


def test_convergence_order():
    for degree in (1, 2, 3, 4):
        norms, residuals = ladder(degree)
        exponent, _ = fit_convergence(norms, residuals)
        assert exponent >= degree + 0.5, (degree, exponent)


def test_printed_listing_fails_the_order_check(monkeypatch):
    # the printed degree-3 terms doubled: the residual falls like t^3.2, not t^4
    listing = [(term, c) for c, term in printed_series_terms() if term.degree() <= 3]
    monkeypatch.setattr(cbh_ladder, "bracket_basis_fit", lambda degree: listing)
    exponent, _ = fit_convergence(*ladder(3))
    assert exponent < 3.5, exponent


def test_perturbed_fit_fails_the_order_check(monkeypatch):
    # any degree-2 or degree-3 coefficient off by 1/100 drops the degree-4
    # exponent to about 2 or 3 (measured 1.97 to 3.40)
    fit = bracket_basis_fit(4)
    for i, (term, coeff) in enumerate(fit):
        if term.degree() not in (2, 3):
            continue
        bumped = fit[:i] + [(term, coeff + Fraction(1, 100))] + fit[i + 1 :]
        monkeypatch.setattr(cbh_ladder, "bracket_basis_fit", lambda degree: bumped)
        exponent, _ = fit_convergence(*ladder(4))
        assert exponent < 4.5, (str(term), exponent)


def test_halving_the_norms_scales_the_residual():
    for degree in (1, 2, 3):
        norms, residuals = ladder(degree)
        for larger, smaller in zip(residuals, residuals[1:]):
            assert smaller <= larger * 1.5 * 2.0 ** -(degree + 1)


@pytest.mark.parametrize(
    "norms, residuals, message",
    [
        ([0.2, 0.1], [1e-3, np.inf], "residuals"),
        ([0.2, 0.1], [1e-3, np.nan], "residuals"),
        ([0.2, 0.1], [1e-3, -1e-9], "residuals"),
        ([0.2, np.nan], [1e-3, 1e-4], "norms"),
        ([0.2, np.inf], [1e-3, 1e-4], "norms"),
        ([0.2, 0.0], [1e-3, 1e-4], "norms"),
        ([0.2, -0.1], [1e-3, 1e-4], "norms"),
        ([0.2, 0.2], [1e-3, 1e-4], "two distinct norms"),
        ([0.2], [1e-3], "two distinct norms"),
    ],
)
def test_fit_convergence_refuses_bad_input(norms, residuals, message):
    with pytest.raises(ValueError, match=message):
        fit_convergence(norms, residuals)


def test_fit_convergence_clips_zero_residuals():
    exponent, const = fit_convergence([0.2, 0.1, 0.05], [0.0, 0.0, 0.0])
    assert exponent == pytest.approx(0.0, abs=1e-9)
    assert const == pytest.approx(1e-300, rel=1e-6)


@pytest.mark.parametrize("norm", [-1.0, np.nan, np.inf, -np.inf])
def test_random_block_refuses_bad_norm(norm):
    with pytest.raises(ValueError, match="norm"):
        random_block(SHAPE22, np.random.default_rng(0), norm=norm)
    assert random_block(SHAPE22, np.random.default_rng(0), norm=0.0).opnorm() == 0.0


def _trivial_sample(shape):
    """The sample of the trivial group, as ``sample_xi_group`` draws it."""
    return sample_xi_group(shape, np.zeros((0, shape.n, shape.n)), budget=10, seed=0)


def test_tangent_basis_identity_only():
    sample = _trivial_sample(SHAPE22)
    assert np.array_equal(sample.mats, np.eye(4)[np.newaxis])
    assert tangent_basis(sample).shape == (0, 4, 4)


def test_tangent_basis_one_parameter_curve():
    rng = np.random.default_rng(10)
    v = random_block(SHAPE22, rng, norm=1.0)
    mats = mat_exp(np.stack([t * v.mat for t in (0.02, 0.05, 0.08, 0.11)]))
    sample = XiGroupSample(SHAPE22, v.mat[np.newaxis], mats)
    basis = tangent_basis(sample)
    assert basis.shape == (1, 4, 4)
    angles = principal_angles(basis, sample.generators)
    assert float(angles.max()) <= 1e-8


def _units(*entry_lists):
    """A stack of 4 x 4 matrices, each given by its ``(row, column, value)`` entries."""
    out = np.zeros((len(entry_lists), 4, 4))
    for mat, entries in zip(out, entry_lists):
        for r, c, value in entries:
            mat[r, c] = value
    return out


def test_principal_angles_constructed():
    # each b_k turns a_k by t_k towards its own orthogonal direction; the
    # small angle is below what arccos of a cosine can resolve
    ts = (1e-10, 0.3, 1.2)
    a = _units(*([(k, k, 1.0)] for k in range(3)))
    b = _units(*([(k, k, np.cos(t)), (k, k + 1, np.sin(t))] for k, t in enumerate(ts)))
    assert np.allclose(principal_angles(a, b), ts, rtol=1e-3, atol=0)
    # spans of different dimension, either way round
    assert np.allclose(principal_angles(a, b[:2]), ts[:2], rtol=1e-3, atol=0)
    assert np.allclose(principal_angles(b[:2], a), ts[:2], rtol=1e-3, atol=0)


def _with_entry(r, c, value):
    mat = np.eye(4)
    mat[r, c] = value
    return mat


@pytest.mark.parametrize(
    "mat, message",
    [
        (_with_entry(0, 3, np.nan), "finite"),
        (_with_entry(0, 3, np.inf), "finite"),
        (_with_entry(3, 0, 1e-30), "lower-left"),
        (10.0 * np.eye(4), "norm bound"),
        (np.diag([1.0, 1.0, 0.0, 1.0]), "singular even part"),
    ],
    ids=["nan", "inf", "lower-left", "norm-bound", "singular-even"],
)
def test_xi_group_sample_invariants(mat, message, monkeypatch):
    # the sample stack is checked as a whole, and a malformed generator
    # stack is refused the same way, by the sampler before any draw: a NaN
    # would fail in numpy's SVD, and a lower-left entry would be drawn from
    with pytest.raises(ValueError, match=message):
        XiGroupSample(SHAPE22, np.zeros((0, 4, 4)), np.stack([np.eye(4), mat]))
    if message in ("finite", "lower-left"):
        with pytest.raises(ValueError, match=message):
            XiGroupSample(SHAPE22, mat[np.newaxis], np.eye(4)[np.newaxis])
        monkeypatch.setattr(blockmodel, "mat_exp", _no_draw)
        with pytest.raises(ValueError, match=message):
            sample_xi_group(SHAPE22, mat[np.newaxis], 5, 0)


def _no_draw(xs):
    raise AssertionError("an exponential was drawn before the generators were checked")


def test_xi_group_sample_shapes_checked(monkeypatch):
    with pytest.raises(ValueError, match="4 x 4"):
        XiGroupSample(SHAPE22, np.zeros((0, 4, 4)), np.eye(4))
    # the sampler checks the size before it reshapes the generators
    monkeypatch.setattr(blockmodel, "mat_exp", _no_draw)
    with pytest.raises(ValueError, match="4 x 4"):
        sample_xi_group(SHAPE22, np.zeros((1, 3, 3)), 5, 0)
    with pytest.raises(ValueError, match="4 x 4"):
        XiGroupSample(SHAPE22, np.zeros((0, 2, 2)), np.eye(4)[np.newaxis])
    with pytest.raises(ValueError, match="at least one"):
        XiGroupSample(SHAPE22, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)))


def _float_units(shape, positions):
    out = np.zeros((len(positions), shape.n, shape.n))
    for mat, rc in zip(out, positions):
        mat[rc] = 1.0
    return out


def _suite(shape, full):
    units = block_matrix_units(shape.p, shape.q)
    if not full:
        units = [rc for rc in units if (rc[0] < shape.p) == (rc[1] < shape.p)]
    return _float_units(shape, units)


@pytest.mark.parametrize("full", [False, True], ids=["even", "full"])
@pytest.mark.parametrize("shape", [SHAPE11, SHAPE22, BlockShape(3, 2), BlockShape(4, 4)], ids=str)
def test_sample_xi_group_invariants(shape, full):
    gens = _suite(shape, full)
    budget = len(gens) + 1
    for seed in range(3):
        sample = sample_xi_group(shape, gens, budget, seed)
        mats = sample.mats
        assert np.array_equal(mats[0], np.eye(shape.n))
        assert len(mats) == budget
        assert np.all(np.linalg.norm(mats - np.eye(shape.n), 2, axis=(1, 2)) < SAMPLE_LOG_MARGIN)
        again = sample_xi_group(shape, gens, budget, seed)
        assert np.array_equal(again.mats, mats)
        # a budget of dim(L) + 1 spans the tangent space
        basis = tangent_basis(sample)
        assert len(basis) == len(gens)
        assert principal_angles(basis, gens).max() <= 1e-12
    larger = sample_xi_group(shape, gens, 3 * budget, 0)
    assert len(larger.mats) == 3 * budget


def test_sample_xi_group_stops_at_the_attempt_cap():
    # every exponential of these generators leaves the margin: 20 * budget
    # attempts are drawn and none is kept
    gens = 1e3 * _suite(SHAPE11, full=False)
    sample = sample_xi_group(SHAPE11, gens, 5, 0)
    assert np.array_equal(sample.mats, np.eye(2)[np.newaxis])


def test_xi_closure_even_only_generators():
    units = block_matrix_units(1, 1)
    even_units = [rc for rc in units if (rc[0] < 1) == (rc[1] < 1)]
    sample = sample_xi_group(SHAPE11, _float_units(SHAPE11, even_units), budget=30, seed=0)
    report = xi_closure_check(sample, seed=1)
    assert report.passed


def _off_span_sample():
    """Random group elements against the even generators: most conjugates leave span(L)."""
    rng = np.random.default_rng(11)
    norms = (0.3, 0.5, 0.6, 0.7, 0.8, 0.9)
    mats = [np.eye(4)] + [block_exp(random_block(SHAPE22, rng, norm=t)).mat for t in norms]
    units = block_matrix_units(2, 2)
    even_units = [rc for rc in units if (rc[0] < 2) == (rc[1] < 2)]
    return XiGroupSample(SHAPE22, _float_units(SHAPE22, even_units), np.stack(mats))


def test_xi_closure_counts_pinned():
    # trial, skip and failure counts and witness pairs of one seed, as a
    # per-pair loop over random.Random(5) drew its 50 pairs (i, then j) and
    # judged them with scipy's logm
    check = xi_closure_check(_off_span_sample(), seed=5).checks[0]
    assert check.trials == 46
    assert check.note.endswith("skipped 4 out-of-domain conjugates")
    assert check.failure_count == 42
    assert [f["pair"] for f in check.failures] == [[4, 2], [5, 2], [5, 4], [0, 6], [3, 6]]


def test_xi_closure_identity_conjugation():
    sample = _trivial_sample(SHAPE11)
    report = xi_closure_check(sample)
    assert report.passed


def test_correspondence_trivial_group():
    report = correspondence_roundtrip([], SHAPE11, budget=10, seed=0)
    assert report.passed
    assert find_check(report, "tangent_span_matches").passed


@pytest.mark.parametrize("tols", [{"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}])
def test_correspondence_rejects_bad_tolerances(tols):
    with pytest.raises(ValueError, match="tolerances"):
        correspondence_roundtrip(UNIT00, SHAPE11, budget=10, seed=0, **tols)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12])
def test_span_tolerances_must_be_finite_and_nonnegative(tol):
    # three commuting diagonal generators: the logs have rank 3, so a basis
    # that kept the zero singular directions would have more members
    gens = _float_units(SHAPE22, [(0, 0), (1, 1), (2, 2)])
    rank3 = sample_xi_group(SHAPE22, gens, budget=12, seed=0)
    assert len(tangent_basis(rank3)) == 3
    # the conjugates of this sample fail the closure gate at SPAN_TOL
    assert not xi_closure_check(_off_span_sample()).passed
    # the principal-angle tolerance is the one span tolerance a caller sets
    with pytest.raises(ValueError, match="tolerances"):
        correspondence_roundtrip(UNIT00, SHAPE11, budget=10, seed=0, tol=tol)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"], ids=repr)
def test_bad_seeds_are_refused(seed):
    # random.Random(-1) is the stream of seed 1, so a negative seed is refused
    # rather than silently repeating another
    gens = _float_units(SHAPE11, [(0, 0)])
    with pytest.raises(ValueError, match="seed must be a nonnegative int"):
        sample_xi_group(SHAPE11, gens, 5, seed)
    with pytest.raises(ValueError, match="seed must be a nonnegative int"):
        xi_closure_check(_trivial_sample(SHAPE11), seed=seed)
    with pytest.raises(ValueError, match="seed must be a nonnegative int"):
        correspondence_roundtrip(UNIT00, SHAPE11, budget=5, seed=seed)


@pytest.mark.parametrize("budget", [0, 1, -5, 1.5, True, "2"])
def test_correspondence_refuses_a_budget_at_most_dim_l(budget):
    # one unit generator: dim(L) = 1, so the budget must be an int above 1
    with pytest.raises(ValueError, match="budget must be an int greater than dim"):
        correspondence_roundtrip(UNIT00, SHAPE11, budget=budget, seed=0)
    single = correspondence_roundtrip(UNIT00, SHAPE11, budget=2, seed=0)
    assert single.passed
    # a repeated generator adds nothing to dim(L), so nothing to the sample
    repeated = correspondence_roundtrip(UNIT00 * 2, SHAPE11, budget=2, seed=0)
    assert repeated.to_json_dict() == single.to_json_dict()


@pytest.mark.parametrize("budget", [-5, 0, 1, True], ids=repr)
def test_sampler_refuses_a_budget_at_most_its_generator_count(budget):
    # one generator takes two samples, the identity and one more, to span
    # its direction; these budgets used to return the identity alone
    gens = _float_units(SHAPE11, [(0, 0)])
    with pytest.raises(ValueError, match="budget must be an int greater than len"):
        sample_xi_group(SHAPE11, gens, budget, 0)
    assert len(tangent_basis(sample_xi_group(SHAPE11, gens, 2, 0))) == 1


def test_sampler_refuses_a_budget_above_the_maximum():
    # refused before any draw: no attempt array of the budget's size is made
    gens = _float_units(SHAPE11, [(0, 0)])
    with pytest.raises(ValueError, match=f"budget must be at most MAX_BUDGET = {MAX_BUDGET}"):
        sample_xi_group(SHAPE11, gens, MAX_BUDGET + 1, 0)


def test_correspondence_refuses_a_budget_above_the_maximum_before_exact_work(monkeypatch):
    # neither the rank of the generators nor their bracket closure is computed
    def exact_work(*args):
        raise AssertionError("exact work done before the budget was checked")

    monkeypatch.setattr(blockmodel, "FractionSpan", exact_work)
    monkeypatch.setattr(blockmodel, "generate_subalgebra", exact_work)
    with pytest.raises(ValueError, match=f"budget must be at most MAX_BUDGET = {MAX_BUDGET}"):
        correspondence_roundtrip(UNIT00, SHAPE11, budget=MAX_BUDGET + 1, seed=0)


_PADDED_5X5 = [[1, 0, 0, 0, 0]] + [[0] * 5 for _ in range(4)]


@pytest.mark.parametrize(
    "generator",
    [
        [[1]],
        _PADDED_5X5,
        [[1, 0, 0, 0], [0, 0], [0] * 4, [0] * 4],
        np.eye(4),
        block_matrix_algebra(1, 1).basis(0),
    ],
    ids=["1x1", "zero-padded-5x5", "ragged", "4x4", "blockmat(1,1)"],
)
def test_matrix_of_the_wrong_size_is_refused(generator):
    # the exact side takes Elements of blockmat(2,2) only: a raw matrix of any
    # size, or an Element of another shape, never reaches the sampler (the
    # first three once passed as a one-generator suite)
    with pytest.raises(ValueError, match=r"generators must be Elements of blockmat\(2,2\)"):
        correspondence_roundtrip([generator], SHAPE22, budget=5, seed=0)


def test_correspondence_single_even_generator():
    report = correspondence_roundtrip(UNIT00, SHAPE11, budget=30, seed=0)
    assert report.passed


def test_correspondence_full_suites():
    for shape in (SHAPE11, SHAPE22):
        alg = block_matrix_algebra(shape.p, shape.q)
        for parities in ([], [0], [0, 1]):
            gens = [alg.basis(i) for i in range(alg.dim) if alg.parity[i] in parities]
            report = correspondence_roundtrip(gens, shape, budget=50, seed=0)
            assert report.passed, (
                shape,
                len(gens),
                [c.name for c in report.checks if not c.passed],
            )


def test_block_matrix_algebra_exact_shadow():
    alg = block_matrix_algebra(2, 2)
    assert alg.dim == 12
    # one handle per shape: correspondence_roundtrip accepts its Elements only
    assert block_matrix_algebra(2, 2) is alg
    with pytest.raises(TypeError):
        block_matrix_algebra(p=2, q=2)
    assert is_associative(alg)
    shape = SHAPE22
    m = [[Fraction(1), 0, Fraction(1, 2), 0], [0, 0, 0, 0], [0, 0, Fraction(2), 0], [0, 0, 0, 0]]
    el = matrix_to_element(shape, m)
    assert element_to_matrix(el, shape) == [
        [Fraction(1), 0, Fraction(1, 2), 0],
        [0, 0, 0, 0],
        [0, 0, Fraction(2), 0],
        [0, 0, 0, 0],
    ]
    # no basis unit lies in the lower-left block, so no Element has an entry there
    cells = [(r, c) for r in range(4) for c in range(4) if not (r >= 2 and c < 2)]
    assert sorted(block_matrix_units(2, 2)) == cells
    with pytest.raises(TypeError):
        matrix_to_element(shape, [[0.5, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4])
