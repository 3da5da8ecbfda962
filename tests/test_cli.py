import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import z2lie
from z2lie import blockmodel
from z2lie.algebra import AlgebraDef, load_algebra, validate_z2
from z2lie.bch import angle_term, gen, square_term
from z2lie.blockmodel import BlockShape
from z2lie.catalog import CATALOG_NAMES, catalog_algebra
from z2lie.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_catalog_emits_loadable_definition(tmp_path):
    # every name goes out through `catalog -o`, back in through load_algebra,
    # and out again to the same bytes
    for name in CATALOG_NAMES:
        code, text = run(tmp_path, "catalog", name)
        assert code == 0
        defn = load_algebra(tmp_path / "out.json")
        assert defn == catalog_algebra(name).defn
        assert defn.to_json() == text
        assert validate_z2(defn)._rows == catalog_algebra(name)._rows


def test_catalog_bad_name(tmp_path):
    assert main(["catalog", "Q8"]) == 2


def test_catalog_o2_has_three_table_blocks(tmp_path):
    code, text = run(tmp_path, "catalog", "O2")
    data = json.loads(text)
    assert data["dim"] == 16
    kinds = set()
    for i, j, _k, _c in data["structconst"]:
        kinds.add((data["parity"][i], data["parity"][j]))
    assert kinds == {(0, 0), (0, 1), (1, 0)}


def test_verify_associative_catalog(tmp_path):
    code, text = run(tmp_path, "verify", "C-2", "--trials", "10")
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["associative"] is True
    assert doc["failed_claims"] == []


def test_verify_o2_nonassociative_is_expected(tmp_path):
    code, text = run(tmp_path, "verify", "O2", "--trials", "5")
    doc = json.loads(text)
    assert doc["associative"] is False
    assert doc["alternative"] is True
    assert doc["failed_claims"] == []
    assert code == 0


def test_verify_o_minus_2_reports_failed_alternativity(tmp_path):
    # the twist -1 tables fail the (asserted) alternative laws, so the
    # claim check honestly fails with exit code 1
    code, text = run(tmp_path, "verify", "O-2", "--trials", "5")
    doc = json.loads(text)
    assert doc["alternative"] is False
    assert "alternative" in doc["failed_claims"]
    assert code == 1


def test_verify_corrupted_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["verify", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 2


def test_verify_algebra_from_file(tmp_path):
    src = tmp_path / "r2.json"
    code = main(["catalog", "R2", "-o", str(src)])
    assert code == 0
    code, text = run(tmp_path, "verify", str(src), "--trials", "10")
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "triple",
    [[1, 0, -1, "1"], [0, 2, 0, "1"], [0, 0, "0", "1"], [0, 0, 0.0, "1"], [True, 0, 0, "1"]],
    ids=["negative", "too-large", "string", "float", "bool"],
)
def test_bad_definition_index_is_input_error(tmp_path, capsys, triple):
    # dual numbers plus one triple whose index is not an int in range(dim)
    path = tmp_path / "bad-index.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "parity": [0, 1],
                "unit": ["1", "0"],
                "structconst": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], triple],
            }
        )
    )
    for argv in (["verify", str(path)], ["invert", str(path), "--element", "1,0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"dim": True, "parity": [0], "unit": ["1"], "structconst": [[0, 0, 0, "1"]]},
        {"parity": [0, 1.0]},
        {"parity": [False, True]},
        {"unit": [True, "0"]},
        {"structconst": [[0, 0, 0, True], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
        {"unit": "10"},
        {"parity": "01"},
        {"structconst": "0001"},
        {"structconst": ["0001", [0, 1, 1, "1"], [1, 0, 1, "1"]]},
        {"structconst": {"0": [0, 0, 0, "1"]}},
    ],
    ids=[
        "bool-dim",
        "float-parity",
        "bool-parity",
        "bool-unit",
        "bool-coefficient",
        "string-unit",
        "string-parity",
        "string-structconst",
        "string-structconst-row",
        "object-structconst",
    ],
)
def test_non_canonical_definition_is_input_error(tmp_path, capsys, change):
    # dual numbers with one entry that is not a plain int or rational string
    path = tmp_path / "non-canonical.json"
    defn = {
        "name": "bad",
        "dim": 2,
        "parity": [0, 1],
        "unit": ["1", "0"],
        "structconst": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    }
    path.write_text(json.dumps({**defn, **change}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_definition_above_dim_limit_is_input_error(tmp_path, capsys):
    # a valid diagonal algebra, refused only for its size
    dim = 65
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "name": "big",
                "dim": dim,
                "parity": [0] * dim,
                "unit": ["1"] * dim,
                "structconst": [[i, i, i, "1"] for i in range(dim)],
            }
        )
    )
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_DUAL_NUMBERS = {
    "name": "dual",
    "dim": 2,
    "parity": [0, 1],
    "unit": ["1", "0"],
    "structconst": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
}


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe{",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"dim": ' + b"9" * 4301 + b"}",
        json.dumps({**_DUAL_NUMBERS, "unit": ["1e9999999", "0"]}).encode(),
    ],
    ids=["not-utf8", "nested-100000-deep", "4301-digit-integer", "exponent-coefficient"],
)
def test_unreadable_definition_is_input_error(tmp_path, capsys, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    for argv in (["verify", str(path)], ["invert", str(path), "--element", "1,0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("structconst", [5, "abc", {"a": 1}], ids=["int", "string", "object"])
def test_structconst_that_is_not_a_list_is_input_error(tmp_path, capsys, structconst):
    path = tmp_path / "bad-structconst.json"
    path.write_text(json.dumps({**_DUAL_NUMBERS, "structconst": structconst}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "structconst and its rows must be lists" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_NUMBER = st.integers(-2, 2) | st.sampled_from(["1", "-1/2", "0.5", "1e3", "1/0", "x", ""])


@st.composite
def _definitions(draw):
    """The algebra R^dim with drawn parities, unit and extra structconst rows,
    and up to two keys swapped for arbitrary JSON: draws reach the checks
    behind the shape checks, and some are valid algebras."""
    dim = draw(st.integers(1, 3))
    index = st.integers(-1, dim) | _JSON
    row = st.tuples(index, index, index, _NUMBER | _JSON).map(list)
    defn = {
        "name": draw(st.text(max_size=6)),
        "dim": dim,
        "parity": draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)),
        "unit": draw(st.just(["1"] * dim) | st.lists(_NUMBER, min_size=dim, max_size=dim)),
        "structconst": [[i, i, i, "1"] for i in range(dim)] + draw(st.lists(row | _JSON, max_size=3)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(defn)), max_size=2)):
        defn[key] = draw(_JSON)
    return defn


@settings(max_examples=60, deadline=None, derandomize=True)
@given(defn=_definitions(), element=st.sampled_from(["1", "1,0", "2,1,0", "0,0,1", "1e3"]))
def test_any_definition_json_gives_a_report_or_one_error_line(tmp_path_factory, defn, element):
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    out = tmp_path_factory.getbasetemp() / "drawn-out.json"
    path.write_text(json.dumps(defn))
    for argv, report_codes in (
        (["verify", str(path), "--trials", "1"], (0, 1)),
        (["invert", str(path), "--element", element], (0,)),
    ):
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "-o", str(out)])
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            assert code in report_codes and not err.getvalue()
            assert isinstance(json.loads(out.read_text()), dict)


def test_verify_invalid_structure_exits_one(tmp_path):
    bad = tmp_path / "oddodd.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "parity": [0, 1],
                "unit": ["1", "0"],
                "structconst": [
                    [0, 0, 0, "1"],
                    [0, 1, 1, "1"],
                    [1, 0, 1, "1"],
                    [1, 1, 0, "1"],
                ],
            }
        )
    )
    code, text = run(tmp_path, "verify", str(bad))
    assert code == 1
    doc = json.loads(text)
    assert doc["valid_z2"] is False


def test_bch_degree_validation():
    assert main(["bch", "--degree", "9"]) == 2
    assert main(["bch", "--degree", "0"]) == 2


def test_bch_degree_one(tmp_path):
    code, text = run(tmp_path, "bch", "--degree", "1")
    assert code == 0
    doc = json.loads(text)
    assert [(t["bracket_form"], t["coefficient"]) for t in doc["terms"]] == [
        ("x", "1"),
        ("y", "1"),
    ]


def test_bch_degree_two_terms(tmp_path):
    code, text = run(tmp_path, "bch", "--degree", "2")
    doc = json.loads(text)
    forms = {t["bracket_form"]: t["coefficient"] for t in doc["terms"]}
    assert forms == {"x": "1", "y": "1", "[x,y]": "1/2", "<x,u>": "-1", "<y,w>": "-1"}
    assert doc["reference_comparison"]["exact_match"] is True


def test_bch_degree_four_reports_discrepancy(tmp_path):
    code, text = run(tmp_path, "bch", "--degree", "4")
    assert code == 0
    doc = json.loads(text)
    dup = {d["form"]: d for d in doc["reference_comparison"]["duplicate_terms"]}
    assert dup["[x,[x,y]]"]["listed_total"] == "1/6"
    assert dup["[x,[x,y]]"]["computed_coefficient"] == "1/12"


def test_bch_text_output(tmp_path):
    out = tmp_path / "series.txt"
    code = main(["bch", "--degree", "2", "--text", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "[x,y]" in text and "⟨x,u⟩" in text


def test_correspond_small_shape(tmp_path):
    code, text = run(tmp_path, "correspond", "--shape", "1,1", "--trials", "25")
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert set(doc["suites"]) == {"trivial", "even", "full"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", "1,1", "--trials", "20", "--seed", "-1"],
        # the full suite needs p^2 + q^2 + pq + 1 samples
        ["--shape", "4,4", "--trials", "48"],
        ["--shape", "2,2", "--trials", "12"],
        ["--shape", "1,1", "--trials", "0"],
        # MAX_BUDGET + 1: refused before the sampler allocates anything
        ["--shape", "1,1", "--trials", "10001"],
    ],
    ids=" ".join,
)
def test_correspond_bad_budget_or_seed(argv, capsys):
    assert main(["correspond", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _minimum_budget(p, q):
    return p * p + q * q + p * q + 1


def _refuse_constant(name):
    raise ValueError(f"{name} in a report")


def _report(text):
    """The JSON report, refusing NaN and Infinity: json writes them as bare constants."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", f"{p},{q}", "--trials", str(_minimum_budget(p, q)), "--seed", str(seed)]
        for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (1, 4)]
        for seed in range(4)
    ]
    # the two long thin shapes
    + [
        ["--shape", f"{p},{q}", "--trials", str(_minimum_budget(p, q)), "--seed", str(seed)]
        for p, q in [(1, 6), (7, 1)]
        for seed in range(2)
    ]
    # two budgets a few samples above the minimum, default seed
    + [["--shape", "2,3", "--trials", "20"], ["--shape", "2,2", "--trials", "13"]],
    ids=" ".join,
)
def test_correspond_minimum_budget_is_accepted(tmp_path, argv):
    # exit 0 never comes with a NaN or an infinity in the report
    code, text = run(tmp_path, "correspond", *argv)
    assert code == 0
    assert _report(text)["passed"] is True


def test_correspond_bad_shape(capsys):
    assert main(["correspond", "--shape", "nope"]) == 2
    # p + q is bounded before the dim^2 shadow algebra is built
    assert main(["correspond", "--shape", "5,4"]) == 2
    assert capsys.readouterr().err.count("\n") == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_correspond_bad_tolerance(tol, capsys):
    assert main(["correspond", "--shape", "1,1", "--trials", "20", "--tol", tol]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_correspond_loose_tolerance_passes(tmp_path):
    code, text = run(tmp_path, "correspond", "--shape", "1,1", "--trials", "20", "--tol", "0.1")
    assert code == 0


def test_correspond_resolves_angles_below_the_arccos_floor(tmp_path):
    # arccos of a cosine near 1 read these angles as 1.5e-8 and 2.6e-8
    code, text = run(tmp_path, "correspond", "--shape", "2,2", "--trials", "40", "--tol", "1e-9")
    assert code == 0
    assert json.loads(text)["passed"] is True


def test_correspond_runs_through_the_probed_kernels(tmp_path, monkeypatch):
    # perfbench/traced.py times these three by name: a refactor that routes
    # around them would leave their per-layer metrics reading 0
    argv = ["correspond", "--shape", "2,2", "--trials", "40"]
    plain = run(tmp_path, *argv)
    calls = []
    for name in ("mat_exp", "mat_log", "generate_subalgebra"):
        func = getattr(blockmodel, name)
        counted = lambda *args, _f=func, _name=name: calls.append(_name) or _f(*args)
        monkeypatch.setattr(blockmodel, name, counted)
    assert run(tmp_path, *argv) == plain and plain[0] == 0
    assert set(calls) == {"mat_exp", "mat_log", "generate_subalgebra"}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_exit_zero_report_holds_no_nan(tmp_path, name):
    code, text = run(tmp_path, "verify", name, "--trials", "5")
    assert code in (0, 1)
    if code == 0:
        _report(text)


def test_invert_dual_numbers(tmp_path):
    code, text = run(tmp_path, "invert", "R2", "--element", "2,3")
    assert code == 0
    doc = json.loads(text)
    assert doc["invertible"] is True
    assert doc["inverse"] == ["1/2", "-3/4"]


def test_invert_pure_odd(tmp_path):
    code, text = run(tmp_path, "invert", "R2", "--element", "0,1")
    assert code == 0
    doc = json.loads(text)
    assert doc["invertible"] is False


def test_invert_bad_element(capsys):
    for element in ("1,nope", "1,2,3", "1e9999999,0"):
        assert main(["invert", "R2", "--element", element]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --element") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["catalog", "R"], ["invert", "R2", "--element", "2,3"]], ids=" ".join
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_input_error(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    degree=st.text(max_size=8).filter(lambda t: not _is_int(t))
    | st.integers().filter(lambda n: not 1 <= n <= 8).map(str)
)
def test_bad_bch_degree_is_one_error_line(degree):
    # argparse's own errors (not an int) and the range check (an int out
    # of 1..8) report alike: exit 2, one error line, nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bch", "--degree", degree])
    assert code == 2 and not out.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _is_rational(text):
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return "e" not in text.lower()


def _is_shape(text):
    try:
        p, q = map(int, text.split(","))
    except ValueError:
        return False
    return p >= 1 and q >= 1 and p + q <= 8


_NOT_INT = st.text(max_size=8).filter(lambda t: not _is_int(t))
_BAD_ELEMENTS = st.one_of(
    # R2 has dim 2, so any other number of valid parts is malformed
    st.lists(st.integers(-3, 3).map(str), max_size=4).filter(lambda xs: len(xs) != 2).map(",".join),
    st.tuples(st.text(max_size=6).filter(lambda t: not _is_rational(t)), st.just("1"))
    .flatmap(lambda pair: st.sampled_from([",".join(pair), ",".join(pair[::-1])])),
    st.sampled_from(["1e3,0", "0,2E-1", "1/0,1"]),
)
_BAD_SHAPES = st.one_of(
    st.text(max_size=8),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda pq: f"{pq[0]},{pq[1]}"),
).filter(lambda t: not _is_shape(t))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    argv=st.one_of(
        _NOT_INT.map(lambda t: ["verify", "C", f"--trials={t}"]),
        st.integers(max_value=0).map(lambda n: ["verify", "C", f"--trials={n}"]),
        _NOT_INT.map(lambda t: ["verify", "C", f"--seed={t}"]),
        # random.Random(-1) would silently run the stream of seed 1
        st.integers(max_value=-1).map(lambda n: ["verify", "H-2", "--trials=5", f"--seed={n}"]),
        _BAD_ELEMENTS.map(lambda t: ["invert", "R2", f"--element={t}"]),
        _BAD_SHAPES.map(lambda t: ["correspond", f"--shape={t}"]),
    )
)
def test_bad_option_values_are_one_error_line(argv):
    # only malformed values are drawn, so no check or sampler starts; the
    # --opt=value form keeps a value such as "-h" from reading as an option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and not out.getvalue()
    text = err.getvalue()
    assert text.startswith("error: ") and text.count("\n") == 1 and "usage:" not in text


def test_help_still_exits_zero(capsys):
    assert main(["bch", "--help"]) == 0
    assert "--degree" in capsys.readouterr().out


_NUMPY_BOUNDARY_CHILD = """
import contextlib, io, json, sys
from z2lie.cli import main

exact = [
    ["catalog", "H"],
    ["verify", "C", "--trials", "2"],
    ["bch", "--degree", "2"],
    ["invert", "R2", "--element", "2,3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in exact]
    exact_loaded = "numpy" in sys.modules
    correspond = main(["correspond", "--shape", "1,1", "--trials", "4"])
# numpy.random would pull in secrets, hmac and hashlib (and with it OpenSSL)
after = {name: name in sys.modules for name in ("numpy", "numpy.random", "secrets", "hashlib")}
print(json.dumps([codes, exact_loaded, correspond, after]))
"""


def test_exact_commands_do_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(z2lie.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", _NUMPY_BOUNDARY_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    codes, exact_loaded, correspond, after = json.loads(child.stdout)
    assert codes == [0, 0, 0, 0]
    assert not exact_loaded
    # correspond loads numpy but draws from the stdlib generator
    assert correspond == 0
    assert after == {"numpy": True, "numpy.random": False, "secrets": False, "hashlib": False}


_IMPORT_CHILD = """
import contextlib, io, json, sys
import z2lie.cli
from z2lie.algebra import associator_tensor
from z2lie.brackets import associator_terms

def built():
    return [associator_terms.cache_info().misses, associator_tensor.cache_info().misses]

after_import = [*built(), *(m in sys.modules for m in ("numpy", "dataclasses", "inspect"))]
with contextlib.redirect_stdout(io.StringIO()):
    code = z2lie.cli.main(["correspond", "--shape", "2,2"])
print(json.dumps([after_import, code, built()[1]]))
"""


def test_importing_the_cli_derives_and_builds_nothing():
    # every command pays this import: no identity is derived, no associator
    # tensor built and numpy not loaded until a command asks for them, and
    # neither dataclasses nor the inspect module it imports is loaded at all
    env = dict(os.environ, PYTHONPATH=str(Path(z2lie.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    after_import, correspond, tensors = json.loads(child.stdout)
    assert after_import == [0, 0, False, False, False]
    # correspond closes its generators on the structure constants, not the tensor
    assert correspond == 0 and tensors == 0


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: AlgebraDef("t", 2, [0, 1], [(0, 1, 1, 1)], [1, 0]), "structconst"),
        (lambda: square_term(gen("x"), angle_term(gen("y"), gen("w"))), "left"),
        (lambda: BlockShape(2, 3), "p"),
    ],
    ids=["AlgebraDef", "BracketTerm", "BlockShape"],
)
def test_value_types_refuse_assignment_and_compare_by_value(make, field):
    # BracketTerms key the bracket_value memo, and cached algebras share their definition
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


_BLAS_THREADS_CHILD = """
import contextlib, io, json, os
from z2lie.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["correspond", "--shape", "1,1", "--trials", "4"])
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _child_env(blas_threads):
    """This environment with the package on the path and OpenBLAS's thread
    count unset, or set to ``blas_threads``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(z2lie.__file__).parent.parent)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


@pytest.mark.parametrize("preset", [None, "2"])
def test_correspond_defaults_blas_to_one_thread(preset):
    # the child's environment is built here: an in-process `correspond`
    # sets the variable in this process too
    child = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_CHILD],
        env=_child_env(preset), capture_output=True, text=True, timeout=300, check=True,
    )
    code, seen, threads = json.loads(child.stdout)
    assert code == 0
    if preset is None:
        assert seen == "1"
        # numpy is loaded by now, and OpenBLAS started no worker thread
        assert threads in (None, 1)
    else:
        assert seen == preset


def test_correspond_report_does_not_depend_on_blas_threads():
    argv = ["correspond", "--shape", "4,4", "--trials", "240", "--seed", "3"]
    reports = [
        subprocess.run(
            [sys.executable, "-m", "z2lie.cli", *argv],
            env=_child_env(n), capture_output=True, timeout=300, check=True,
        ).stdout
        for n in ("1", "2")
    ]
    assert reports[0] == reports[1] and json.loads(reports[0])["passed"]


def test_cli_determinism_small(tmp_path):
    commands = [
        ["catalog", "H-2"],
        ["bch", "--degree", "2"],
        ["correspond", "--shape", "1,1", "--trials", "20", "--seed", "0"],
        ["verify", "R2", "--trials", "10", "--seed", "0"],
    ]
    blobs = []
    for round_dir in ("a", "b"):
        base = tmp_path / round_dir
        base.mkdir()
        chunks = []
        for i, cmd in enumerate(commands):
            out = base / f"{i}.json"
            main([*cmd, "-o", str(out)])
            chunks.append(out.read_bytes())
        blobs.append(b"\n".join(chunks))
    assert blobs[0] == blobs[1]


# sha256 of each exact report; correspond is left out because its floats
# depend on the BLAS build
GOLDEN_SHA256 = {
    ("catalog", "R"): "4f075668e2902cde2c1f1a34bd1983ad6b3af5f82b842ac60e81acfd3f9e74e1",
    ("catalog", "C"): "c5dace867f5a4d30d4504941a192ee4b8632d513f65a237eaec79d082e7f4311",
    ("catalog", "H"): "724126146b088798e17fa4979e36fe6498a53c9b35741aef9e589469f2c14321",
    ("catalog", "R2"): "f6c3e0c481e593ef2e81ee8e87eafa997e65332f1a4a93ef450784930190c883",
    ("catalog", "C2"): "2f581fffc1f6b8b0d3f4ff8e59bca4986ba7a6180bd4faebfceb5b0aaa94bf8c",
    ("catalog", "C-2"): "0b5cefdaf5559100f1cd2e478eddc67d20b77dfb705dbf03319666eeac85b85e",
    ("catalog", "H2"): "0d39216afcf47d5ae73e8d4d574d87c4650463e3872f636f5b4298212f20a7d6",
    ("catalog", "H-2"): "a56d2f59963161eb6bc6e0d2344b439b7e79389da624a178dc661a884c4d4e6e",
    ("catalog", "O2"): "d18fec3689d1e76c5295660e72cbeddc73e2f2f0426b83945ca701fc933028cf",
    ("catalog", "O-2"): "2a8d3174581713640acdd0c1597d6f6af7c65c8bdb1bb3659db93aa9369d8101",
    ("bch", "--degree", "5"): "6f9439a12e8206836c24368f9b145068029d665afe5399f9b64b9706dea50c33",
    ("bch", "--degree", "6"): "d855b0c946765c709c17ca00ad103228b0b808126bfaed9243b32301192a444e",
    ("bch", "--degree", "7"): "a9373e72fff608ef7583eb1bebdfdc5d56aa367a113f946a53fb69fe9a1cc039",
    ("bch", "--degree", "8"): "0a62335abd1453142aa4a8e76d023bb838ef44e76c8ddbbdcd5c57926a0ad43f",
    ("verify", "H", "--trials", "20"): "8ee5fef7d1c0d4fe2b53b927cab1d4af1fe146862c18cb424335ad9fd2e0d612",
    ("verify", "C-2", "--trials", "20"): "0b2a42438e4d5382c0cfe2fa8d6642d86d952e68fd409eac7a4e3954c38a14ab",
    ("verify", "O-2", "--trials", "20"): "b6e4e2de50754e172c8ab4d69aabc2bc7e0cfd7e59a14d5f20ecb75b8955e86c",
    ("verify", "O2", "--trials", "20"): "04f794f3509c0fcd04bcdc935a047bdf073bdb761e9ad4bd018778d5331091c7",
    # the benchmark's own argvs at seeds other than 0; O2 fails nothing, so
    # no seed-dependent witness enters its report and its bytes match seed 0
    ("verify", "O2", "--trials", "20", "--seed", "3"): "04f794f3509c0fcd04bcdc935a047bdf073bdb761e9ad4bd018778d5331091c7",
    ("verify", "O-2", "--trials", "20", "--seed", "5"): "60023009ef5fefd5594c408111bbe949fa7e0c38df502ec2d57772a0cb7b5cd8",
    ("invert", "R2", "--element", "2,3"): "c201f50e9eaa470db8f76507e72741f96079489fb54dd6ac59c61a90db939c31",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_report_bytes_match_golden_digest(tmp_path, argv):
    out = tmp_path / "report"
    main([*argv, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


def test_definition_file_report_matches_golden_digest(tmp_path):
    # the ad-hoc branch of verify: no catalog claims, only the bracket check
    defn = tmp_path / "f.json"
    assert main(["catalog", "H-2", "-o", str(defn)]) == 0
    out = tmp_path / "report"
    assert main(["verify", str(defn), "--trials", "20", "-o", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "d2cb5e7ae8387d6ae2bce725b89bddbc04548cc7d1e00c8f1e781f733e034a70"
    )


def test_fractional_definition_report_matches_golden_digest(tmp_path, rescaled_o_minus_2):
    # the only digest whose residual witnesses are not integers (one reads
    # 8/3): every catalog and block table has common denominator 1
    defn = tmp_path / "rescaled.json"
    defn.write_text(rescaled_o_minus_2.to_json(), encoding="utf-8")
    out = tmp_path / "report"
    assert main(["verify", str(defn), "--trials", "20", "-o", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "d2b77fada1bbcade297d79f6108db0929140f07be6c0265e63ea9e94016fd9d8"
    )
