"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances, printing one pass/fail line each.

Criterion 2 asserts that both 16-dimensional octonion-type algebras are
alternative.  The twist +1 algebra is; the twist -1 algebra is not (the
exhaustive basis-triple check produces the witness x = e05 + e12,
y = e03 with x(xy) != (xx)y), so that assertion fails honestly rather
than being weakened to match the tables.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from bch_oracle import classical_bch_words, graded_expansion
from z2lie.algebra import is_alternative, is_associative, validate_z2
from z2lie.bch import (
    bracket_expand,
    compare_printed_series,
    extended_bch,
    gen,
    square_term,
)
from z2lie.blockmodel import (
    BlockMatElement,
    BlockShape,
    bch_log_residual,
    bch_residual,
    block_matrix_units,
    correspondence_roundtrip,
    fit_convergence,
    random_block,
    unit_matrices,
)
from z2lie.brackets import verify_identities
from z2lie.catalog import (
    CATALOG_NAMES,
    catalog_algebra,
    composition_check,
    division_check,
    octonion_type_def,
)
from z2lie.cli import main as cli_main

ASSOCIATIVE_EIGHT = ("R", "C", "H", "R2", "C2", "C-2", "H2", "H-2")
SHAPE22 = BlockShape(2, 2)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d}: FAIL  {description}", flush=True)
                raise
            print(f"[acceptance] criterion {number:2d}: PASS  {description}", flush=True)

        return wrapper

    return decorate


@criterion(1, "bracket identities exact on all basis triples + 200 random triples")
def test_criterion_01_identities_exact():
    for name in ASSOCIATIVE_EIGHT:
        report = verify_identities(
            catalog_algebra(name), trials=200, seed=0, exhaustive=True
        )
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, (name, failed)


@criterion(2, "catalog structure: grading, (non-)associativity, alternativity, twist locality")
def test_criterion_02_catalog_structure():
    for name in ("O2", "O-2"):
        alg = catalog_algebra(name)  # construction validates the grading
        assert alg.dim == 16
        assert not is_associative(alg), name
    for name in ASSOCIATIVE_EIGHT:
        assert is_associative(catalog_algebra(name)), name

    plus = set(octonion_type_def(1).structconst)
    minus = set(octonion_type_def(-1).structconst)
    differing = {(i, j) for i, j, _k, _c in plus ^ minus}
    assert differing == {(8 + s, t) for s in range(8) for t in range(4, 8)}

    assert is_alternative(catalog_algebra("O2"))
    assert is_alternative(catalog_algebra("O-2")), (
        "the twist -1 tables are not alternative: x = e05 + e12, y = e03 "
        "gives x(xy) != (xx)y under the exhaustive basis-triple check"
    )


@criterion(3, "division: 500 seeded inversions per algebra, odd elements are zero divisors")
def test_criterion_03_division():
    for name in ASSOCIATIVE_EIGHT:
        alg = catalog_algebra(name)
        report = division_check(alg, trials=500, seed=0)
        assert report.passed, (name, [c.name for c in report.checks if not c.passed])
        assert report.find("even_part_nonzero_invertible").trials == 500
        if alg.odd_indices:
            assert report.find("pure_odd_not_invertible").trials == 500
            assert report.find("pure_odd_two_sided_zero_divisor").trials == 500


@criterion(4, "composition: exact squared-norm equalities on 1000 samples, submult within 1e-12")
def test_criterion_04_composition():
    for name in CATALOG_NAMES:
        report = composition_check(catalog_algebra(name), trials=1000, seed=0, tol=1e-12)
        assert report.passed, (name, [c.name for c in report.checks if not c.passed])
        for check in report.checks:
            assert check.trials == 1000


@criterion(5, "combined series at u=w=0 equals the independent classical oracle, exactly")
def test_criterion_05_classical_reduction():
    specialized = extended_bch(5).substitute_zero("u", "w")
    oracle = graded_expansion(classical_bch_words(5), 5)
    assert specialized.terms == oracle


@criterion(6, "printed-series diff: degrees 1-2 exact, 1/24 term reproduced, duplicates documented")
def test_criterion_06_printed_series():
    comparison = compare_printed_series(3)
    assert set(comparison.clean_degrees) >= {1, 2}

    z4 = extended_bch(4).substitute_zero("u", "w").degree_component(4)
    term = square_term(gen("y"), square_term(gen("x"), square_term(gen("y"), gen("x"))))
    expected = bracket_expand(term, 4).scale(Fraction(1, 24)).degree_component(4)
    assert z4 == expected

    dup = {d["form"]: d for d in comparison.duplicates}
    for form in ("[x,[x,y]]", "[y,[y,x]]"):
        assert dup[form]["occurrences"] == 2
        assert dup[form]["listed_total"] == "1/6"
        assert dup[form]["computed_coefficient"] == "1/12"


@functools.lru_cache(maxsize=None)
def _ladder(degree):
    rng = np.random.default_rng(7)
    base = [random_block(SHAPE22, rng, norm=1.0) for _ in range(4)]
    norms = (0.2, 0.1, 0.05, 0.025)
    residuals = []
    for t in norms:
        x, y, u, w = (b.scale(t / b.opnorm()) for b in base)
        residuals.append(bch_residual(x, y, u, w, degree))
    return norms, tuple(residuals)


@criterion(7, "numeric convergence exponent >= N + 0.5 for N in 1..4 on the norm ladder")
def test_criterion_07_convergence_order():
    for degree in (1, 2, 3, 4):
        norms, residuals = _ladder(degree)
        exponent, _ = fit_convergence(norms, residuals)
        assert exponent >= degree + 0.5, (degree, exponent, residuals)


@criterion(8, "tangent round trip: span recovery within 1e-6, xi-closure within 1e-8")
def test_criterion_08_correspondence():
    for shape in (BlockShape(1, 1), BlockShape(2, 2)):
        units = block_matrix_units(shape.p, shape.q)
        even_units = [rc for rc in units if (rc[0] < shape.p) == (rc[1] < shape.p)]
        for label, positions in (
            ("trivial", []),
            ("even", even_units),
            ("full", units),
        ):
            report = correspondence_roundtrip(
                unit_matrices(shape, positions),
                shape,
                budget=60,
                tol=1e-6,
                closure_tol=1e-8,
                seed=0,
            )
            assert report.passed, (
                shape,
                label,
                [c.name for c in report.checks if not c.passed],
            )


@criterion(9, "series evaluation agrees with direct mat_log within 5x the fitted bound")
def test_criterion_09_formal_numeric_consistency():
    norms, residuals = _ladder(4)
    exponent, const = fit_convergence(norms, residuals)
    bound = const * 0.1 ** exponent
    rng = np.random.default_rng(7)
    base = [random_block(SHAPE22, rng, norm=1.0) for _ in range(4)]
    x, y, u, w = (b.scale(0.1 / b.opnorm()) for b in base)
    gap = bch_log_residual(x, y, u, w, 4)
    assert gap <= 5 * bound, (gap, bound)


def _run_cli_suite(base_dir):
    base_dir.mkdir(parents=True, exist_ok=True)
    chunks = []
    commands = []
    for name in CATALOG_NAMES:
        commands.append((f"catalog-{name}", ["catalog", name]))
    for name in CATALOG_NAMES:
        commands.append(
            (f"verify-{name}", ["verify", name, "--trials", "20", "--seed", "0"])
        )
    commands.append(("bch", ["bch", "--degree", "4"]))
    commands.append(
        (
            "correspond",
            ["correspond", "--shape", "2,2", "--trials", "40", "--seed", "0"],
        )
    )
    for label, argv in commands:
        out = base_dir / f"{label}.json"
        cli_main([*argv, "-o", str(out)])
        chunks.append(label.encode() + b"\n" + out.read_bytes())
    return b"\n".join(chunks)


@criterion(10, "two seed-0 runs of the full CLI suite produce byte-identical reports")
def test_criterion_10_determinism(tmp_path):
    first = _run_cli_suite(tmp_path / "run1")
    second = _run_cli_suite(tmp_path / "run2")
    assert first == second
