from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from z2lie.algebra import is_associative
from z2lie.bch import extended_bch
from z2lie.blockmodel import (
    BlockMatElement,
    BlockShape,
    LogOutOfDomain,
    XiGroupSample,
    bch_log_residual,
    bch_residual,
    block_matrix_algebra,
    block_matrix_element,
    block_matrix_units,
    correspondence_roundtrip,
    element_to_matrix,
    evaluate_series,
    even_inverse,
    fit_convergence,
    mat_exp,
    mat_log,
    principal_angles,
    random_block,
    sample_xi_group,
    tangent_basis,
    trivial_sample,
    unit_matrices,
    xi_closure_check,
)

SHAPE22 = BlockShape(2, 2)
SHAPE11 = BlockShape(1, 1)


def test_lower_left_block_rejected():
    bad = np.zeros((4, 4))
    bad[3, 0] = 1e-30
    with pytest.raises(ValueError):
        BlockMatElement(SHAPE22, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(value):
    bad = np.eye(4)
    bad[0, 3] = value
    with pytest.raises(ValueError, match="finite"):
        BlockMatElement(SHAPE22, bad)


def test_parity_projections():
    rng = np.random.default_rng(0)
    a = random_block(SHAPE22, rng, norm=1.0)
    assert np.array_equal(a.even().mat + a.odd().mat, a.mat)
    assert np.all(a.even().mat[:2, 2:] == 0.0)
    assert np.all(a.odd().mat[:2, :2] == 0.0)
    assert np.all(a.odd().mat[2:, 2:] == 0.0)


def test_mat_exp_identity_and_odd():
    assert np.array_equal(mat_exp(BlockMatElement.zero(SHAPE22)).mat, np.eye(4))
    rng = np.random.default_rng(1)
    odd = random_block(SHAPE22, rng, norm=0.4).odd()
    expected = BlockMatElement.identity(SHAPE22) + odd
    assert np.array_equal(mat_exp(odd).mat, expected.mat)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_block(SHAPE22, rng, norm=0.1)
        assert (mat_log(mat_exp(a)) - a).opnorm() <= 1e-10


def test_exp_log_against_scipy():
    rng = np.random.default_rng(3)
    for norm in (0.05, 0.3, 2.5):
        a = random_block(SHAPE22, rng, norm=norm)
        assert np.allclose(mat_exp(a).mat, scipy.linalg.expm(a.mat), atol=1e-12)
    g = mat_exp(random_block(SHAPE22, rng, norm=0.4))
    assert np.allclose(mat_log(g).mat, scipy.linalg.logm(g.mat), atol=1e-10)


def test_log_domain_enforced():
    g = BlockMatElement(SHAPE22, 3.0 * np.eye(4))
    with pytest.raises(LogOutOfDomain):
        mat_log(g)


def test_block_structure_preserved_exactly():
    rng = np.random.default_rng(4)
    a = random_block(SHAPE22, rng, norm=0.3)
    b = random_block(SHAPE22, rng, norm=0.3)
    for el in (a @ b, mat_exp(a), mat_log(mat_exp(b)), a + b, a.scale(0.7)):
        assert np.all(el.mat[2:, :2] == 0.0)


def test_even_part_multiplicative():
    rng = np.random.default_rng(5)
    g = random_block(SHAPE22, rng, norm=0.8)
    h = random_block(SHAPE22, rng, norm=0.8)
    assert np.array_equal((g @ h).even().mat, (g.even() @ h.even()).mat)


def test_exp_even_part_commutes():
    rng = np.random.default_rng(6)
    a = random_block(SHAPE22, rng, norm=0.7)
    lhs = mat_exp(a).even().mat
    rhs = mat_exp(a.even()).mat
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_even_inverse_structure():
    rng = np.random.default_rng(7)
    g = mat_exp(random_block(SHAPE22, rng, norm=0.5)).even()
    inv = even_inverse(g)
    assert np.allclose((g @ inv).mat, np.eye(4), atol=1e-12)
    assert np.all(inv.mat[:2, 2:] == 0.0)
    with pytest.raises(ValueError):
        even_inverse(g + random_block(SHAPE22, rng, norm=0.1).odd())


def test_evaluate_series_degree_one():
    rng = np.random.default_rng(8)
    x, y, u, w = (random_block(SHAPE22, rng, norm=0.1) for _ in range(4))
    z = evaluate_series(extended_bch(1), x, y, u, w)
    assert np.allclose(z.mat, (x + y).mat, atol=1e-15)


def test_bch_residual_commuting_even_case():
    # commuting even x, y with u = w = 0: z = x + y exactly at degree 1
    x = BlockMatElement(SHAPE22, np.diag([0.1, 0.05, -0.02, 0.08]))
    y = BlockMatElement(SHAPE22, np.diag([-0.03, 0.06, 0.11, -0.01]))
    zero = BlockMatElement.zero(SHAPE22)
    assert bch_residual(x, y, zero, zero, 1) <= 1e-12


def test_bch_residual_norm_precondition():
    rng = np.random.default_rng(9)
    big = random_block(SHAPE22, rng, norm=0.5)
    zero = BlockMatElement.zero(SHAPE22)
    with pytest.raises(ValueError):
        bch_residual(big, zero, zero, zero, 2)


def _ladder(degree, seed=7):
    rng = np.random.default_rng(seed)
    base = [random_block(SHAPE22, rng, norm=1.0) for _ in range(4)]
    norms = [0.2, 0.1, 0.05, 0.025]
    residuals = []
    for t in norms:
        x, y, u, w = (b.scale(t / b.opnorm()) for b in base)
        residuals.append(bch_residual(x, y, u, w, degree))
    return norms, residuals


def test_convergence_order():
    for degree in (1, 2, 3, 4):
        norms, residuals = _ladder(degree)
        exponent, _ = fit_convergence(norms, residuals)
        assert exponent >= degree + 0.5, (degree, exponent)


def test_halving_the_norms_scales_the_residual():
    for degree in (1, 2, 3):
        norms, residuals = _ladder(degree)
        for larger, smaller in zip(residuals, residuals[1:]):
            assert smaller <= larger * 1.5 * 2.0 ** -(degree + 1)


def test_log_vs_exp_residual_consistency():
    norms, residuals = _ladder(4)
    _, const = fit_convergence(norms, residuals)
    exponent, _ = fit_convergence(norms, residuals)
    bound = const * 0.1 ** exponent
    rng = np.random.default_rng(7)
    base = [random_block(SHAPE22, rng, norm=1.0) for _ in range(4)]
    x, y, u, w = (b.scale(0.1 / b.opnorm()) for b in base)
    assert bch_log_residual(x, y, u, w, 4) <= 5 * bound


def test_tangent_basis_identity_only():
    assert tangent_basis(trivial_sample(SHAPE22)) == []


def test_tangent_basis_one_parameter_curve():
    rng = np.random.default_rng(10)
    v = random_block(SHAPE22, rng, norm=1.0)
    elements = [mat_exp(v.scale(t)) for t in (0.02, 0.05, 0.08, 0.11)]
    sample = XiGroupSample(generators=[v], elements=elements)
    basis = tangent_basis(sample)
    assert len(basis) == 1
    angles = principal_angles(basis, [v])
    assert float(angles.max()) <= 1e-8


def test_xi_group_sample_invariants():
    singular = BlockMatElement(SHAPE22, np.diag([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        XiGroupSample(generators=[], elements=[singular])
    huge = BlockMatElement(SHAPE22, 10.0 * np.eye(4))
    with pytest.raises(ValueError):
        XiGroupSample(generators=[], elements=[huge], norm_bound=3.0)


def test_xi_closure_even_only_generators():
    units = block_matrix_units(1, 1)
    even_units = [rc for rc in units if (rc[0] < 1) == (rc[1] < 1)]
    gens = [
        BlockMatElement(SHAPE11, np.array(m, dtype=float))
        for m in unit_matrices(SHAPE11, even_units)
    ]
    rng = np.random.default_rng(0)
    sample = sample_xi_group(gens, budget=30, rng=rng)
    report = xi_closure_check(sample, trials=40, tol=1e-8, seed=1)
    assert report.passed


def test_xi_closure_identity_conjugation():
    sample = trivial_sample(SHAPE11)
    report = xi_closure_check(sample, trials=5, tol=1e-12, seed=0)
    assert report.passed


def test_correspondence_trivial_group():
    report = correspondence_roundtrip([], SHAPE11, budget=10, seed=0)
    assert report.passed
    assert report.find("tangent_span_matches").passed


@pytest.mark.parametrize(
    "tols", [{"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}, {"closure_tol": np.nan}]
)
def test_correspondence_rejects_bad_tolerances(tols):
    mats = unit_matrices(SHAPE11, [(0, 0)])
    with pytest.raises(ValueError, match="tolerances"):
        correspondence_roundtrip(mats, SHAPE11, budget=10, seed=0, **tols)


def test_correspondence_single_even_generator():
    mats = unit_matrices(SHAPE11, [(0, 0)])
    report = correspondence_roundtrip(mats, SHAPE11, budget=30, seed=0)
    assert report.passed


def test_correspondence_full_suites():
    for shape in (SHAPE11, SHAPE22):
        units = block_matrix_units(shape.p, shape.q)
        even_units = [rc for rc in units if (rc[0] < shape.p) == (rc[1] < shape.p)]
        for positions in ([], even_units, units):
            report = correspondence_roundtrip(
                unit_matrices(shape, positions), shape, budget=50, seed=0
            )
            assert report.passed, (
                shape,
                len(positions),
                [c.name for c in report.checks if not c.passed],
            )


def test_block_matrix_algebra_exact_shadow():
    alg = block_matrix_algebra(2, 2)
    assert alg.dim == 12
    assert is_associative(alg)
    shape = SHAPE22
    m = [[Fraction(1), 0, Fraction(1, 2), 0], [0, 0, 0, 0], [0, 0, Fraction(2), 0], [0, 0, 0, 0]]
    el = block_matrix_element(alg, shape, m)
    assert element_to_matrix(el, shape) == [
        [Fraction(1), 0, Fraction(1, 2), 0],
        [0, 0, 0, 0],
        [0, 0, Fraction(2), 0],
        [0, 0, 0, 0],
    ]
    with pytest.raises(ValueError):
        block_matrix_element(alg, shape, [[0] * 4, [0] * 4, [Fraction(1), 0, 0, 0], [0] * 4])
