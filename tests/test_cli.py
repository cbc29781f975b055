import json
from pathlib import Path

import pytest

from margex.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out), "--no-timestamp"])
    return code, json.loads(out.read_text())


@pytest.fixture()
def family_file(tmp_path):
    spec = {
        "alphabet_size": 2,
        "alpha": 0.4,
        "N": 3,
        "members": [
            {"indices": [0, 1], "table": [0.16, 0.24, 0.24, 0.36]},
            {"indices": [1, 2], "table": [0.16, 0.24, 0.24, 0.36]},
        ],
        "window": [0, 3],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture()
def infeasible_family_file(tmp_path):
    spec = {
        "alphabet_size": 2,
        "alpha": 0.3,
        "N": 1,
        "members": [
            {"indices": [0], "table": [0.3, 0.7]},
            {"indices": [0], "table": [0.5, 0.5]},
        ],
        "window": [0, 0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture()
def tower_file(tmp_path):
    spec = {
        "tower": {
            "height": 16,
            "atom_count": 4096,
            "transfer": "seeded_permutation:5",
            "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
        },
        "K": [0],
        "m": 2,
        "epsilon": 0.4,
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    return path


class TestVerifyCommand:
    def test_green_family(self, tmp_path, family_file):
        code, report = run(tmp_path, "verify", "--input", str(family_file))
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"]["ok"]
        assert report["input_digest"].startswith("sha256:")

    def test_violations_exit_one(self, tmp_path, infeasible_family_file):
        code, report = run(tmp_path, "verify", "--input", str(infeasible_family_file))
        assert code == 1
        assert any(
            v["check"] == "consistency" for v in report["result"]["violations"]
        )


class TestExtendAndOracle:
    def test_extend_then_oracle_agree(self, tmp_path, family_file):
        code1, rep1 = run(tmp_path, "extend", "--input", str(family_file))
        code2, rep2 = run(tmp_path, "oracle", "--input", str(family_file))
        assert code1 == 0 and code2 == 0
        assert rep2["result"]["feasible"]
        assert rep1["result"]["trace"]["max_beta_defect"] <= rep1["result"]["beta"]

    def test_oracle_infeasible_exit_one(self, tmp_path, infeasible_family_file):
        code, report = run(tmp_path, "oracle", "--input", str(infeasible_family_file))
        assert code == 1
        assert report["result"]["feasible"] is False

    def test_extend_infeasible_exit_one(self, tmp_path, infeasible_family_file):
        code, report = run(tmp_path, "extend", "--input", str(infeasible_family_file))
        assert code == 1
        assert report["reason"]["code"] in ("ConsistencyError", "AnchorError")


class TestCorrectCommand:
    def test_worked_example(self, tmp_path):
        spec = {
            "nu": {
                "alphabet_size": 2,
                "indices": [0, 1],
                "table": [0.26, 0.24, 0.24, 0.26],
                "kind": "probability",
            },
            "t": 0.1,
        }
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "correct", "--input", str(path))
        assert code == 0
        assert report["result"]["xi"]["table"] == pytest.approx([0.16, 0.34, 0.34, 0.16])
        assert report["result"]["blend_gap"] <= 1e-12

    def test_positivity_failure_exit_one(self, tmp_path):
        spec = {
            "nu": {
                "alphabet_size": 2,
                "indices": [0, 1],
                "table": [0.4, 0.1, 0.1, 0.4],
                "kind": "probability",
            },
            "t": 0.1,
        }
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "correct", "--input", str(path))
        assert code == 1
        assert report["reason"]["code"] == "PositivityError"


class TestPaintAndKrengel:
    def test_paint_report(self, tmp_path, tower_file):
        code, report = run(tmp_path, "paint", "--input", str(tower_file))
        assert code == 0
        result = report["result"]
        assert result["error_mass"] < 0.4
        assert max(map(float, result["window_defects"].values())) < 0.05

    def test_krengel_single_step(self, tmp_path):
        spec = {
            "tower": {
                "height": 24,
                "atom_count": 4096,
                "transfer": "seeded_permutation:5",
                "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
            },
            "mixing_times": [2, 3],
            "epsilon": 0.8,
            "steps": 1,
        }
        path = tmp_path / "krengel.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "krengel", "--input", str(path))
        assert code == 0
        assert report["result"]["chosen_times"] == [2]

    def test_paint_height_one_tower_is_usage_error(self, tmp_path):
        spec = {
            "tower": {
                "height": 1,
                "atom_count": 64,
                "transfer": "seeded_permutation:5",
                "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
            },
            "m": 2,
        }
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "WindowError"


class TestCounterexampleCommand:
    def test_report_values(self, tmp_path):
        code, report = run(
            tmp_path,
            "counterexample",
            "--W", "10001",
            "--n", "10",
            "--samples", "20000",
        )
        assert code == 0
        result = report["result"]
        assert result["shift_distance"] == pytest.approx(0.003988924217, abs=1e-9)
        assert result["contradiction_margin"] >= 0.47
        assert result["max_fiber_distance"] < 0.01

    def test_small_window_precondition(self, tmp_path):
        code, report = run(
            tmp_path, "counterexample", "--W", "101", "--n", "4", "--samples", "1000"
        )
        assert code == 1
        assert report["result"]["preconditions_ok"] is False


class TestPlumbing:
    def test_missing_input_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "verify")
        assert code == 2

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run(tmp_path, "verify", "--input", str(path))
        assert code == 2
        assert "line" in report["reason"]["message"]

    def test_determinism(self, tmp_path, family_file):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            main(
                [
                    "extend",
                    "--input", str(family_file),
                    "--output", str(out),
                    "--no-timestamp",
                    "--seed", "7",
                ]
            )
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("paint", {"m": 2}),
            ("krengel", {"mixing_times": [2]}),
            ("paint", [{"tower": {}}]),
            ("counterexample", {"W": 10001, "n": 10, "samples": 0}),
        ],
        ids=["paint-no-tower", "krengel-no-tower", "top-level-list", "zero-samples"],
    )
    def test_bad_spec_is_usage_error(self, tmp_path, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, command, "--input", str(path))
        assert code == 2
        assert report["status"] == "failed"
        assert report["reason"]["code"] == "DomainError"

    def test_timestamp_toggle(self, tmp_path, family_file):
        out = tmp_path / "r.json"
        main(["verify", "--input", str(family_file), "--output", str(out)])
        assert "timestamp" in json.loads(out.read_text())
        main(["verify", "--input", str(family_file), "--output", str(out), "--no-timestamp"])
        assert "timestamp" not in json.loads(out.read_text())


class TestGoldenReports:
    """``--no-timestamp`` reports pinned byte for byte at the default seed.

    Specs live in ``golden/specs``; after an intended output change,
    regenerate a report with
    ``margex <command> --input tests/golden/specs/<spec>.json --no-timestamp``.
    """

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("verify", "family"),
            ("extend", "family"),
            ("oracle", "family"),
            ("correct", "correct"),
            ("paint", "paint"),
            ("krengel", "krengel"),
        ],
    )
    def test_report_is_byte_identical(self, tmp_path, command, spec):
        out = tmp_path / "report.json"
        argv = [command, "--input", str(GOLDEN / "specs" / f"{spec}.json")]
        code = main([*argv, "--output", str(out), "--no-timestamp"])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{command}.json").read_bytes()
