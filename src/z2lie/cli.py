"""Command-line interface: ``z2lie <command> [flags]``.

Commands
--------
catalog     emit a named algebra definition as JSON
verify      run the full property suite on a catalog algebra or a file
bch         compute the combined-exponential series and its reports
correspond  numeric tangent-space round trips in the block model
invert      invert an element of an algebra

Exit codes: 0 all asserted properties verified, 1 an asserted property
failed (report still emitted), 2 usage or input error.  Reports contain
no timestamps or machine data, so identical seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .algebra import (
    AlgebraError,
    AlgebraFormatError,
    Element,
    NotInvertible,
    is_alternative,
    is_associative,
    load_algebra,
    validate_z2,
)
from .bch import (
    MAX_TRUNCATION,
    bracket_basis_fit,
    bracket_string,
    compare_printed_series,
    extended_bch,
    format_bracket_series,
)
from .blockmodel import (
    BlockShape,
    block_matrix_units,
    correspondence_roundtrip,
    unit_matrices,
)
from .brackets import verify_identities
from .catalog import (
    CATALOG_NAMES,
    IllegalName,
    catalog_algebra,
    composition_check,
    division_check,
    expected_properties,
)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_any_algebra(spec_str):
    """A catalog name, or else a path to a definition file."""
    if spec_str in CATALOG_NAMES:
        return catalog_algebra(spec_str), spec_str
    defn = load_algebra(spec_str)
    return validate_z2(defn), None


def cmd_catalog(args):
    try:
        alg = catalog_algebra(args.name)
    except IllegalName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(alg.defn.to_json(), args.output)
    return 0


def cmd_verify(args):
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    try:
        alg, catalog_name = _load_any_algebra(args.algebra)
    except (AlgebraFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        doc = {"algebra": args.algebra, "valid_z2": False, "error": str(exc), "passed": False}
        _emit(_dump(doc), args.output)
        return 1

    associative = is_associative(alg)
    alternative = is_alternative(alg)
    identities = verify_identities(alg, trials=args.trials, seed=args.seed)
    composition = composition_check(alg, trials=args.trials, seed=args.seed)
    division = division_check(alg, trials=args.trials, seed=args.seed)

    doc = {
        "algebra": alg.name,
        "valid_z2": True,
        "associative": associative,
        "alternative": alternative,
        "identities": identities.to_json_dict(),
        "composition": composition.to_json_dict(),
        "division": division.to_json_dict(),
    }

    if catalog_name is not None:
        claims = expected_properties(catalog_name)
        failures = []
        if associative != claims["associative"]:
            failures.append("associative")
        if alternative != claims["alternative"]:
            failures.append("alternative")
        if claims["composition"] and not composition.passed:
            failures.append("composition")
        if claims["division"] and not division.passed:
            failures.append("division")
        if claims["associative"] and not identities.passed:
            failures.append("bracket_identities")
        doc["claims"] = claims
        doc["failed_claims"] = failures
        doc["passed"] = not failures
    else:
        # for ad-hoc algebras the only assertion is that an associative
        # algebra satisfies all bracket identities
        failures = []
        if associative and not identities.passed:
            failures.append("bracket_identities")
        doc["failed_claims"] = failures
        doc["passed"] = not failures

    _emit(_dump(doc), args.output)
    return 0 if doc["passed"] else 1


def cmd_bch(args):
    if not 1 <= args.degree <= MAX_TRUNCATION:
        print(f"error: degree must be in 1..{MAX_TRUNCATION}", file=sys.stderr)
        return 2
    series = extended_bch(args.degree)
    fit = bracket_basis_fit(args.degree)
    comparison = compare_printed_series(min(args.degree, 4))
    counts = {}
    for word in series.terms:
        counts[str(len(word))] = counts.get(str(len(word)), 0) + 1
    doc = {
        "truncation": args.degree,
        "terms": [
            {
                "degree": term.degree(),
                "bracket_form": bracket_string(term),
                "coefficient": str(coeff),
            }
            for term, coeff in fit
        ],
        "word_term_counts": counts,
        "pretty": format_bracket_series(fit, angle_pair="⟨⟩"),
        "reference_comparison": comparison.to_json_dict(),
    }
    if args.text:
        _emit(doc["pretty"] + "\n", args.output)
    else:
        _emit(_dump(doc), args.output)
    return 0


def cmd_correspond(args):
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print("error: --tol must be a finite nonnegative number", file=sys.stderr)
        return 2
    try:
        p_str, q_str = args.shape.split(",")
        shape = BlockShape(int(p_str), int(q_str))
    except (ValueError, TypeError) as exc:
        print(f"error: bad --shape (want p,q): {exc}", file=sys.stderr)
        return 2
    units = block_matrix_units(shape.p, shape.q)
    even_units = [rc for rc in units if (rc[0] < shape.p) == (rc[1] < shape.p)]
    suites = {
        "trivial": [],
        "even": unit_matrices(shape, even_units),
        "full": unit_matrices(shape, units),
    }
    doc = {"shape": [shape.p, shape.q], "suites": {}}
    passed = True
    for name, gens in suites.items():
        report = correspondence_roundtrip(
            gens,
            shape,
            budget=args.trials,
            tol=args.tol,
            seed=args.seed,
        )
        doc["suites"][name] = report.to_json_dict()
        passed = passed and report.passed
    doc["passed"] = passed
    _emit(_dump(doc), args.output)
    return 0 if passed else 1


def cmd_invert(args):
    try:
        alg, _ = _load_any_algebra(args.algebra)
    except (AlgebraFormatError, FileNotFoundError, IsADirectoryError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        coeffs = [Fraction(part.strip()) for part in args.element.split(",")]
        element = Element(alg, coeffs, exact=True)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad --element: {exc}", file=sys.stderr)
        return 2
    try:
        inverse = element.invert()
        doc = {
            "algebra": alg.name,
            "element": [str(c) for c in element.coeffs],
            "invertible": True,
            "inverse": [str(c) for c in inverse.coeffs],
        }
    except NotInvertible as exc:
        doc = {
            "algebra": alg.name,
            "element": [str(c) for c in element.coeffs],
            "invertible": False,
            "reason": str(exc),
        }
    _emit(_dump(doc), args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="z2lie",
        description="Z2-graded algebras, bracket identities, and the extended exponential series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="emit a named algebra definition")
    p_cat.add_argument("name", help=f"one of {', '.join(CATALOG_NAMES)}")
    p_cat.add_argument("-o", "--output", default=None)
    p_cat.set_defaults(func=cmd_catalog)

    p_ver = sub.add_parser("verify", help="run the property suite on an algebra")
    p_ver.add_argument("algebra", help="catalog name or definition file path")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("-o", "--output", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_bch = sub.add_parser("bch", help="compute the combined-exponential series")
    p_bch.add_argument("--degree", type=int, default=4)
    p_bch.add_argument("--text", action="store_true", help="plain-text series only")
    p_bch.add_argument("-o", "--output", default=None)
    p_bch.set_defaults(func=cmd_bch)

    p_cor = sub.add_parser("correspond", help="tangent-space round trips")
    p_cor.add_argument("--shape", default="2,2", help="block sizes p,q")
    p_cor.add_argument("--trials", type=int, default=60, help="group sample budget")
    p_cor.add_argument("--tol", type=float, default=1e-6)
    p_cor.add_argument("--seed", type=int, default=0)
    p_cor.add_argument("-o", "--output", default=None)
    p_cor.set_defaults(func=cmd_correspond)

    p_inv = sub.add_parser("invert", help="invert an element")
    p_inv.add_argument("algebra", help="catalog name or definition file path")
    p_inv.add_argument("--element", required=True, help="comma-separated rationals")
    p_inv.add_argument("-o", "--output", default=None)
    p_inv.set_defaults(func=cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
