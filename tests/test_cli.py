import hashlib
import json

import pytest

from z2lie.algebra import AlgebraDef, validate_z2
from z2lie.catalog import CATALOG_NAMES, catalog_algebra
from z2lie.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_catalog_emits_loadable_definition(tmp_path):
    for name in ("R", "C-2", "O2"):
        code, text = run(tmp_path, "catalog", name)
        assert code == 0
        defn = AlgebraDef.from_json(text)
        assert validate_z2(defn).dim == catalog_algebra(name).dim
        assert defn == catalog_algebra(name).defn


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


def test_correspond_bad_shape():
    assert main(["correspond", "--shape", "nope"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_correspond_bad_tolerance(tol, capsys):
    assert main(["correspond", "--shape", "1,1", "--trials", "20", "--tol", tol]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_correspond_loose_tolerance_passes(tmp_path):
    code, text = run(tmp_path, "correspond", "--shape", "1,1", "--trials", "20", "--tol", "0.1")
    assert code == 0


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


def test_invert_bad_element():
    assert main(["invert", "R2", "--element", "1,nope"]) == 2
    assert main(["invert", "R2", "--element", "1,2,3"]) == 2


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


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
    ("verify", "C-2", "--trials", "20"): "0b2a42438e4d5382c0cfe2fa8d6642d86d952e68fd409eac7a4e3954c38a14ab",
    ("verify", "O-2", "--trials", "20"): "b6e4e2de50754e172c8ab4d69aabc2bc7e0cfd7e59a14d5f20ecb75b8955e86c",
    ("invert", "R2", "--element", "2,3"): "c201f50e9eaa470db8f76507e72741f96079489fb54dd6ac59c61a90db939c31",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_report_bytes_match_golden_digest(tmp_path, argv):
    out = tmp_path / "report"
    main([*argv, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]
