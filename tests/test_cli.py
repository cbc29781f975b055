import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margex import DomainError, IndependenceError, IndexSet, PositivityError, cli, towers
from margex.cli import main
from margex.measures import CELL_CAP

GOLDEN = Path(__file__).parent / "golden"


def strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity extensions."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out), "--no-timestamp"])
    return code, json.loads(out.read_text())


def spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


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


# two members that prescribe different laws on coordinate 0
INFEASIBLE_FAMILY = {
    "alphabet_size": 2,
    "alpha": 0.3,
    "N": 1,
    "members": [
        {"indices": [0], "table": [0.3, 0.7]},
        {"indices": [0], "table": [0.5, 0.5]},
    ],
    "window": [0, 0],
}


@pytest.fixture()
def infeasible_family_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(INFEASIBLE_FAMILY))
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

    @pytest.mark.parametrize("command", ["extend", "oracle"])
    def test_reversed_window_is_usage_error(self, tmp_path, command):
        spec = json.loads((GOLDEN / "specs" / "family.json").read_text())
        spec["members"], spec["window"] = [], [3, 0]
        code, report = run(tmp_path, command, "--input", spec_file(tmp_path, spec))
        assert code == 2
        assert report["reason"] == {"code": "DomainError", "message": "window [3, 0] ends before it starts"}
        assert "result" not in report

    @pytest.mark.parametrize("command", ["extend", "oracle", "verify"])
    def test_window_length_checked_before_it_is_built(self, tmp_path, monkeypatch, command):
        class GuardedIndexSet:
            @staticmethod
            def of(items):
                assert len(items) <= 64, "window built before its length was checked"
                return IndexSet.of(items)

        monkeypatch.setattr(cli, "IndexSet", GuardedIndexSet)
        spec = json.loads((GOLDEN / "specs" / "family.json").read_text())
        spec["window"] = [0, 10**12]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, command, "--input", str(path))
        if command == "verify":
            # verify reads no window
            assert code == 0
        else:
            assert code == 2
            assert report["reason"]["code"] == "CapacityError"


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

    def test_nu_without_coordinates_is_usage_error(self, tmp_path):
        spec = {"nu": {"alphabet_size": 2, "indices": [], "table": [1.0]}, "t": 0.1}
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "correct", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert "at least one coordinate" in report["reason"]["message"]


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

    def test_default_alpha_recounts_no_labels(self, tmp_path, tower_file, monkeypatch):
        # alpha only feeds paint's floor check, which no symbol mass can fail
        # at 0; a floor of the measured minimum recounted the whole table
        def recount(self):
            raise AssertionError("label table recounted for a default alpha")

        monkeypatch.setattr(towers.LabeledPartition, "min_symbol_mass", recount)
        code, _ = run(tmp_path, "paint", "--input", str(tower_file))
        assert code == 0
        spec = json.loads(tower_file.read_text())
        spec.update(mixing_times=[2], epsilon=0.8, steps=1)
        tower_file.write_text(json.dumps(spec))
        code, report = run(tmp_path, "krengel", "--input", str(tower_file))
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

    def test_alphabet_128_reports_the_slice_shortfall(self, tmp_path):
        # at 128 symbols the painted split's last key holds one level, whose
        # code must have room for the multiplier 128
        spec = {
            "tower": {
                "height": 10,
                "atom_count": 4096,
                "transfer": "seeded_permutation:3",
                "labels": {"generator": "seeded_uniform:5", "alphabet_size": 128},
            },
            "m": 2,
            "epsilon": 0.4,
        }
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 1
        assert report["reason"]["code"] == "QuantizationError"

    @pytest.mark.parametrize("command", ["paint", "krengel"])
    @pytest.mark.parametrize("transfer", ["identity", "seeded_permutation:5"])
    def test_tower_over_cell_cap_is_usage_error(self, tmp_path, command, transfer):
        spec = {
            "tower": {
                "height": 64,
                "atom_count": 2**40,
                "transfer": transfer,
                "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
            },
            "m": 2,
            "mixing_times": [2],
        }
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, command, "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"

    def test_window_law_over_cell_cap_is_usage_error(self, tmp_path, monkeypatch):
        bincount = np.bincount

        def guarded(x, weights=None, minlength=0):
            assert minlength <= CELL_CAP, "joint-count table allocated before the cap"
            return bincount(x, weights, minlength)

        monkeypatch.setattr(towers.np, "bincount", guarded)
        spec = {
            "tower": {
                "height": 8,
                "atom_count": 1024,
                "transfer": "seeded_permutation:5",
                "labels": {"generator": "seeded_uniform:3", "alphabet_size": 6000},
            },
            "m": 2,
        }
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"

    # a window of 15001 levels, past the cell cap; two atoms leave no atom to paint
    LONG_WINDOW = {
        "tower": {
            "height": 16000,
            "atom_count": 2,
            "transfer": "identity",
            "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
        },
        "K": list(range(15000)),
        "m": 15001,
    }

    def test_window_of_thousands_of_levels_is_usage_error(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(self.LONG_WINDOW))
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"

    def test_auto_flags_key_is_ignored(self, tmp_path):
        # paint always flags first, and paint itself checks the window's cap
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({**self.LONG_WINDOW, "auto_flags": False}))
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"


class TestCounterexampleCommand:
    def test_report_values(self, tmp_path):
        spec = {"W": 10001, "n": 10, "samples": 20000}
        code, report = run(tmp_path, "counterexample", "--input", spec_file(tmp_path, spec))
        assert code == 0
        assert report["seed"] == 20210607  # the spec sets none: the --seed default ran
        result = report["result"]
        assert result["shift_estimate"] == pytest.approx(0.003988924217, abs=1e-9)
        assert result["contradiction_margin"] >= 0.47
        assert result["max_fiber_distance"] < 0.01

    def test_small_window_precondition(self, tmp_path):
        spec = {"W": 101, "n": 4, "samples": 1000}
        code, report = run(tmp_path, "counterexample", "--input", spec_file(tmp_path, spec))
        assert code == 1
        assert report["result"]["preconditions_ok"] is False

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n": 2}, "spec is missing field 'W'"),
            ({"W": 101}, "spec is missing field 'n'"),
            ({"W": 101, "n": None}, "malformed spec value: "),
        ],
        ids=["spec0", "spec1", "spec2"],
    )
    def test_spec_without_window_or_iterate(self, tmp_path, spec, message):
        code, report = run(tmp_path, "counterexample", "--input", spec_file(tmp_path, spec))
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert report["reason"]["message"].startswith(message)

    @pytest.mark.parametrize(
        "spec",
        [
            {"W": 10001, "n": 10, "samples": 100000000000},
            {"W": 1048577, "n": 10, "samples": 10},
            {"W": 262145, "n": 3, "samples": 10},
        ],
        ids=["samples", "window", "window-past-cap"],
    )
    def test_over_cap_is_usage_error(self, tmp_path, monkeypatch, spec):
        def forbidden(*args):
            raise AssertionError("binomial computed before the walk cap")

        monkeypatch.setattr(math, "comb", forbidden)
        code, report = run(tmp_path, "counterexample", "--input", spec_file(tmp_path, spec))
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"


class TestPlumbing:
    def test_missing_input_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "verify")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, infeasible_family_file, tol):
        # a NaN tolerance would wave the inconsistent family through
        code, report = run(tmp_path, "verify", "--input", str(infeasible_family_file), "--tol", tol)
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert "tol must be finite and >= 0" in report["reason"]["message"]
        assert "result" not in report

    def test_missing_input_file_is_named(self, tmp_path):
        code, report = run(tmp_path, "verify", "--input", str(tmp_path / "absent.json"))
        assert code == 2
        assert report["reason"]["message"].endswith("absent.json does not exist")

    def test_directory_input_exit_two(self, tmp_path):
        code, report = run(tmp_path, "verify", "--input", str(tmp_path))
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert report["reason"]["message"] == f"cannot read input file {tmp_path}: Is a directory"

    def test_unreadable_input_exit_two(self, tmp_path, family_file, monkeypatch):
        # a permission bit does not stop root, so the refusal is simulated
        def guarded_open(path, *args, **kwargs):
            if str(path) == str(family_file):
                raise PermissionError(13, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", guarded_open, raising=False)
        code, report = run(tmp_path, "verify", "--input", str(family_file))
        assert code == 2
        assert report["reason"]["message"] == f"cannot read input file {family_file}: Permission denied"

    def test_output_in_missing_directory_reports_on_stdout(self, tmp_path, family_file, capsys):
        out = tmp_path / "absent" / "report.json"
        code = main(["verify", "--input", str(family_file), "--output", str(out), "--no-timestamp"])
        assert code == 2
        assert not out.parent.exists()
        report = strict_loads(capsys.readouterr().out)
        assert report["status"] == "failed"
        assert report["reason"] == {
            "code": "DomainError",
            "message": f"cannot write report to {out}: No such file or directory",
        }

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_output_on_full_device_reports_on_stdout(self, family_file, capsys):
        # the open succeeds; the write or its flush fails
        code = main(["verify", "--input", str(family_file), "--output", "/dev/full", "--no-timestamp"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert strict_loads(out)["reason"] == {
            "code": "DomainError",
            "message": "cannot write report to /dev/full: No space left on device",
        }

    def test_output_to_directory_reports_on_stdout(self, tmp_path, family_file, capsys):
        code = main(["verify", "--input", str(family_file), "--output", str(tmp_path), "--no-timestamp"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert strict_loads(out)["reason"] == {
            "code": "DomainError",
            "message": f"cannot write report to {tmp_path}: Is a directory",
        }

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run(tmp_path, "verify", "--input", str(path))
        assert code == 2
        assert "line" in report["reason"]["message"]

    def test_integer_past_digit_limit_exit_two(self, tmp_path):
        # json.load raises a plain ValueError, not JSONDecodeError, here
        path = tmp_path / "tower.json"
        path.write_text('{"tower": {"height": ' + "9" * 5001 + '}, "m": 2}')
        code, report = run(tmp_path, "paint", "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "DomainError"

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
            ("paint", {"tower": 5, "m": 2}),
            (
                "correct",
                {
                    "nu": {"alphabet_size": 2, "indices": [0, 1], "table": ["a", "b", "c", "d"]},
                    "t": 0.1,
                },
            ),
            ("counterexample", {"W": 101, "n": 2, "cylinders": 5}),
            ("counterexample", {"W": 101, "n": float("inf")}),
            ("counterexample", {"W": 101, "n": 2, "seed": -1}),
            (
                "verify",
                {
                    "alphabet_size": 2,
                    "alpha": 0.3,
                    "N": 1,
                    "members": [{"indices": [0], "table": [float("nan"), 1.0]}],
                },
            ),
            (
                "paint",
                {
                    "tower": {"height": 4, "atom_count": 256, "labels": [[0.5, 1.9] * 128] * 4},
                    "m": 2,
                },
            ),
            (
                "paint",
                {
                    "tower": {
                        "height": 4,
                        "atom_count": 256,
                        "labels": {"generator": "seeded_uniform:3"},
                        "flags": {"in_E": [0.5, 0, 0, 0]},
                    },
                    "m": 2,
                },
            ),
        ],
        ids=[
            "paint-no-tower",
            "krengel-no-tower",
            "top-level-list",
            "zero-samples",
            "paint-tower-not-object",
            "correct-table-not-numeric",
            "cylinders-not-object",
            "infinite-integer",
            "negative-seed",
            "nan-table",
            "fractional-labels",
            "fractional-flags",
        ],
    )
    def test_bad_spec_is_usage_error(self, tmp_path, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, command, "--input", str(path))
        assert code == 2
        assert report["status"] == "failed"
        assert report["reason"]["code"] == "DomainError"

    @pytest.mark.parametrize(
        "command, spec, field",
        [
            ("paint", {"tower": {"height": 32.7}, "m": 2.9}, "height"),
            ("paint", {"tower": {"height": 16, "atom_count": 4096.5}, "m": 2}, "atom_count"),
            ("paint", {"tower": {"height": 16, "atom_count": 4096}, "m": 2.9}, "m"),
            ("paint", {"tower": {"height": 16, "atom_count": 4096}, "K": [0.5], "m": 2}, "K"),
            ("krengel", {"tower": {"height": 16, "atom_count": 4096}, "mixing_times": [2.5]}, "mixing_times"),
            ("krengel", {"tower": {"height": 16, "atom_count": 4096}, "steps": 1.5}, "steps"),
            ("counterexample", {"W": 101, "n": 3, "seed": 1.5, "samples": 2.7}, "samples"),
            ("counterexample", {"W": 101, "n": 3, "seed": 1.5}, "seed"),
            ("counterexample", {"W": 101.5, "n": 3}, "W"),
            ("counterexample", {"W": 101, "n": 2, "cylinders": {"A": {"0": 1.5}, "B": {}}}, "A"),
            ("extend", {"N": 2.5}, "N"),
            ("extend", {"window": [0, 2.5]}, "window"),
            ("extend", {"alphabet_size": 2.5}, "alphabet_size"),
            ("correct", {"nu": {"alphabet_size": 2, "indices": [0.5], "table": [0.5, 0.5]}, "t": 0.1}, "indices"),
        ],
    )
    def test_fractional_integer_field_is_usage_error(self, tmp_path, family_file, command, spec, field):
        if command == "extend":
            spec = {**json.loads(family_file.read_text()), **spec}
        if "tower" in spec:
            labels = {"generator": "seeded_uniform:3", "alphabet_size": 2}
            spec["tower"] = {"transfer": "seeded_permutation:5", "labels": labels, **spec["tower"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, command, "--input", str(path))
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert report["reason"]["message"].startswith(f"{field} must be an integer")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "command, spec, field",
        [
            ("verify", "family", "c_prime"),
            ("verify", "family", "delta"),
            ("verify", "family", "alpha"),
            ("extend", "family", "beta"),
            ("extend", "family", "alpha"),
            ("oracle", "family", "alpha"),
            ("correct", "correct", "t"),
            ("paint", "paint", "epsilon"),
            ("paint", "paint", "alpha"),
            ("krengel", "krengel", "epsilon"),
        ],
    )
    def test_non_finite_float_field_is_usage_error(self, tmp_path, command, spec, field, value):
        data = json.loads((GOLDEN / "specs" / f"{spec}.json").read_text())
        data[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        code = main([command, "--input", str(path), "--output", str(out), "--no-timestamp"])
        report = strict_loads(out.read_text())
        assert code == 2
        assert report["reason"]["code"] == "DomainError"
        assert report["reason"]["message"].startswith(f"{field} must be finite")

    @pytest.mark.parametrize(
        "command, spec, changes",
        [
            ("verify", "family", {"delta": -1}),
            ("extend", "family", {"beta": -1}),
            ("paint", "paint", {"alpha": -5}),
            ("krengel", "krengel", {"epsilon": 1.5}),
            ("krengel", "krengel", {"epsilon": 7, "mixing_times": []}),
        ],
        ids=["negative-delta", "negative-beta", "negative-alpha", "epsilon-past-one", "epsilon-seven"],
    )
    def test_degenerate_budget_is_usage_error(self, tmp_path, command, spec, changes):
        # each budget is refused before it runs, not read as a failed check or as ok
        data = {**json.loads((GOLDEN / "specs" / f"{spec}.json").read_text()), **changes}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        code = main([command, "--input", str(path), "--output", str(out), "--no-timestamp"])
        report = strict_loads(out.read_text())
        assert code == 2
        assert report["reason"]["code"] == "DomainError"

    def test_whole_floats_and_digit_strings_keep_parsing(self, tmp_path, tower_file):
        spec = json.loads(tower_file.read_text())
        spec["tower"].update(height=16.0, atom_count="4096")
        spec.update(m=2.0, K=[0.0])
        path = tmp_path / "whole.json"
        path.write_text(json.dumps(spec))
        code, report = run(tmp_path, "paint", "--input", str(path))
        expected_code, expected = run(tmp_path, "paint", "--input", str(tower_file))
        assert code == expected_code == 0
        assert report["result"] == expected["result"]

    def test_extend_at_tol_zero_matches_golden(self, tmp_path):
        # each tol-governed check keeps a floor for rounding, so a tolerance
        # of zero refuses no exact family
        code, report = run(tmp_path, "extend", "--input", str(GOLDEN / "specs" / "family.json"), "--tol", "0")
        assert code == 0
        golden = json.loads((GOLDEN / "extend.json").read_text())
        assert report["tolerance"] == 0.0
        assert {**report, "tolerance": golden["tolerance"]} == golden

    def test_spec_tables_are_checked_at_the_default_tol(self, tmp_path):
        # a spec's tables are an input format: --tol neither loosens nor tightens their check
        spec = json.loads((GOLDEN / "specs" / "family.json").read_text())
        spec["members"][0]["table"][0] += 1e-6
        path = spec_file(tmp_path, spec)
        reasons = []
        for tol in ("1e-3", "1e-9", "0"):
            code, report = run(tmp_path, "verify", "--input", path, "--tol", tol)
            assert code == 2
            reasons.append(report["reason"])
        assert reasons[0]["code"] == "DomainError" and "sums to" in reasons[0]["message"]
        assert reasons == reasons[:1] * 3

    def test_timestamp_toggle(self, tmp_path, family_file):
        out = tmp_path / "r.json"
        main(["verify", "--input", str(family_file), "--output", str(out)])
        assert "timestamp" in json.loads(out.read_text())
        main(["verify", "--input", str(family_file), "--output", str(out), "--no-timestamp"])
        assert "timestamp" not in json.loads(out.read_text())


class TestFailureReasons:
    """A failed check's report carries the structured fields of its error."""

    @staticmethod
    def _run_spec(tmp_path, command, spec):
        return run(tmp_path, command, "--input", spec_file(tmp_path, spec))

    def test_positivity_margin_and_cell(self, tmp_path):
        spec = {
            "nu": {"alphabet_size": 2, "indices": [0, 1], "table": [0.4, 0.1, 0.1, 0.4]},
            "t": 0.1,
        }
        code, report = self._run_spec(tmp_path, "correct", spec)
        assert code == 1
        reason = report["reason"]
        assert set(reason) == {"code", "message", "margin", "cell"}
        assert reason["code"] == "PositivityError"
        assert reason["margin"] == pytest.approx(-1.1) and reason["cell"] == 0

    def test_independence_defect_budget_index(self, tmp_path):
        spec = json.loads((GOLDEN / "specs" / "family.json").read_text())
        spec["beta"] = 1e-12
        code, report = self._run_spec(tmp_path, "extend", spec)
        assert code == 1
        reason = report["reason"]
        assert set(reason) == {"code", "message", "defect", "budget", "index"}
        assert reason["code"] == "IndependenceError"
        assert reason["budget"] == 1e-12 and reason["defect"] > reason["budget"]
        assert reason["index"] == 1

    def test_mixing_supply_step(self, tmp_path):
        spec = json.loads((GOLDEN / "specs" / "krengel.json").read_text())
        spec.update(mixing_times=[1], epsilon=0.01)
        code, report = self._run_spec(tmp_path, "krengel", spec)
        assert code == 1
        reason = report["reason"]
        assert set(reason) == {"code", "message", "step"}
        assert reason["code"] == "MixingSupplyError" and reason["step"] == 1

    def test_other_errors_keep_code_and_message(self, tmp_path, infeasible_family_file):
        code, report = run(tmp_path, "extend", "--input", str(infeasible_family_file))
        assert code == 1
        assert set(report["reason"]) == {"code", "message"}

    def test_negative_seed_is_usage_error(self, tmp_path, tower_file):
        code, report = run(tmp_path, "paint", "--input", str(tower_file), "--seed", "-1")
        assert code == 2
        assert report["reason"]["code"] == "DomainError"

    def test_numpy_fields_report_declared_types(self):
        positivity = PositivityError(
            "negative cell", margin=np.float32(-0.5), cell=np.int64(3), residual=np.float32(0.25)
        )
        independence = IndependenceError(
            "over budget", defect=np.float64(0.25), budget=np.float32(0.125), index=np.int32(2)
        )
        for err in (positivity, independence):
            reason = cli._reason(err)
            assert {name: type(reason[name]) for name in err.fields} == err.fields
        assert cli._reason(independence) == {
            "code": "IndependenceError",
            "message": "over budget",
            "defect": 0.25,
            "budget": 0.125,
            "index": 2,
        }

    def test_undeclared_field_is_refused(self):
        with pytest.raises(TypeError, match="'step'"):
            PositivityError("negative cell", margin=-0.5, step=1)
        with pytest.raises(TypeError, match="'cell'"):
            DomainError("bad value", cell=0)

    def test_counterexample_without_input_is_usage_error(self, tmp_path):
        code, report = run(tmp_path, "counterexample")
        assert code == 2
        assert report["reason"] == {"code": "DomainError", "message": "counterexample needs --input"}
        assert "result" not in report


class TestStrictJson:
    """A non-finite number is written as null and named, with its kind, in
    the top-level ``non_finite`` block; no report holds NaN or Infinity."""

    @staticmethod
    def _report(tmp_path, *argv):
        out = tmp_path / "report.json"
        code = main([*argv, "--output", str(out), "--no-timestamp"])
        return code, strict_loads(out.read_text())

    def test_counterexample_without_parity_samples(self, tmp_path):
        spec = {"W": 101, "n": 3, "samples": 1}
        path = spec_file(tmp_path, spec)
        code, report = self._report(tmp_path, "counterexample", "--input", path, "--seed", "0")
        assert code == 1
        assert report["result"]["samples_in_set"] == 0
        assert report["result"]["max_fiber_distance"] is None
        assert report["non_finite"] == {"result.max_fiber_distance": "nan"}

    def test_infeasible_oracle(self, tmp_path, infeasible_family_file):
        code, report = self._report(tmp_path, "oracle", "--input", str(infeasible_family_file))
        assert code == 1
        assert report["result"]["feasible"] is False
        assert report["result"]["max_residual"] is None
        assert report["non_finite"] == {"result.max_residual": "inf"}

    def test_degenerate_paint(self, tmp_path):
        spec = {
            "tower": {
                "height": 16,
                "atom_count": 16,
                "transfer": "seeded_permutation:5",
                "labels": {"generator": "seeded_uniform:3", "alphabet_size": 2},
            },
            "m": 2,
            "epsilon": 0.4,
        }
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(spec))
        code, report = self._report(tmp_path, "paint", "--input", str(path))
        assert code in (0, 1)
        assert report["result"]["degenerate"] is True
        assert report["result"]["quantization_level_bound"] is None
        assert report["non_finite"] == {"result.quantization_level_bound": "inf"}

    def test_finite_report_has_no_block(self, tmp_path, family_file):
        code, report = self._report(tmp_path, "verify", "--input", str(family_file))
        assert "non_finite" not in report


class TestGoldenReports:
    """``--no-timestamp`` reports pinned byte for byte at the default seed.

    Specs live in ``golden/specs``; after an intended output change,
    regenerate a report with
    ``margex <command> --input tests/golden/specs/<spec>.json --no-timestamp``.
    A report is named after its command, or after its spec where the spec
    name starts with the command (``counterexample_cylinders``). Each case
    names its exit code: the failure reports are pinned as well.
    """

    CASES = [
        ("verify", "family", 0),
        ("extend", "family", 0),
        ("oracle", "family", 0),
        ("correct", "correct", 0),
        ("paint", "paint", 0),
        ("krengel", "krengel", 0),
        ("counterexample", "counterexample", 0),
        ("counterexample", "counterexample_cylinders", 0),
        ("extend", "extend_small_beta", 1),
        ("oracle", "oracle_past_cap", 2),
        ("verify", "verify_malformed", 2),
        ("paint", "paint_positivity_refusal", 1),
        ("krengel", "krengel_out_of_times", 1),
    ]

    @pytest.mark.parametrize("command, spec, exit_code", CASES, ids=[f"{c}-{s}" for c, s, _ in CASES])
    def test_report_is_byte_identical(self, tmp_path, command, spec, exit_code):
        out = tmp_path / "report.json"
        argv = [command, "--input", str(GOLDEN / "specs" / f"{spec}.json")]
        code = main([*argv, "--output", str(out), "--no-timestamp"])
        assert code == exit_code
        name = spec if spec.startswith(command) else command
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _spec_text(spec) -> str:
    """A golden spec by name, or a spec given inline."""
    return (GOLDEN / "specs" / f"{spec}.json").read_text() if isinstance(spec, str) else json.dumps(spec)


# per command: an ok spec and a spec whose check fails, by golden name or inline
FAULT_SPECS = {
    "verify": ("family", INFEASIBLE_FAMILY),
    "extend": ("family", "extend_small_beta"),
    "oracle": ("family", INFEASIBLE_FAMILY),
    "correct": ("correct", {"nu": {"alphabet_size": 2, "indices": [0, 1], "table": [0.5, 0, 0, 0.5]}, "t": 0.1}),
    "paint": ("paint", "paint_positivity_refusal"),
    "krengel": ("krengel", "krengel_out_of_times"),
    "counterexample": ("counterexample", {"W": 101, "n": 2, "samples": 200}),
}
MALFORMED_SPECS = {"broken": "{not json", "list": "[]", "empty": "{}"}


class TestFaultMatrix:
    """Every command on an ok spec, a spec whose check fails and malformed
    specs, run in-process with the report on stdout: each run exits with its
    case's code, writes exactly one strict JSON report and nothing on stderr.
    The output faults are ``TestPlumbing``'s."""

    CASES = [
        case
        for command, (ok, failing) in FAULT_SPECS.items()
        for case in [
            pytest.param(command, _spec_text(ok), 0, id=f"{command}-ok"),
            pytest.param(command, _spec_text(failing), 1, id=f"{command}-check-fails"),
            *[pytest.param(command, text, 2, id=f"{command}-{name}") for name, text in MALFORMED_SPECS.items()],
        ]
    ]

    @pytest.mark.parametrize("command, text, exit_code", CASES)
    def test_one_report_per_run(self, tmp_path, capsys, command, text, exit_code):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code = main([command, "--input", str(path), "--no-timestamp"])
        out, err = capsys.readouterr()
        report = strict_loads(out)
        assert (code, report["status"], err) == (exit_code, "ok" if exit_code == 0 else "failed", "")

    def test_covers_every_command(self):
        assert sorted(FAULT_SPECS) == sorted(cli._COMMANDS)


class TestSpecFuzz:
    """Mutated golden specs and arbitrary JSON keep the 0/1/2 contract and
    always produce a strict JSON report (no NaN or Infinity)."""

    TARGETS = [
        ("verify", "family"),
        ("extend", "family"),
        ("oracle", "family"),
        ("correct", "correct"),
        ("paint", "paint"),
        ("krengel", "krengel"),
        ("counterexample", "counterexample"),
        ("counterexample", "counterexample_cylinders"),
    ]
    # towers, the counterexample window and the sample count are capped so
    # one example runs in well under a second
    CAPS = {"atom_count": 1024, "height": 8, "W": 1001, "samples": 200}
    # out-of-range and wrong-typed replacements; every number is either small
    # or so large in magnitude that a cap or a check rejects it, so no
    # mutation runs a huge table, window or loop
    WILD = st.one_of(
        st.sampled_from([None, True, "", "x", [], {}, [1, "a"], {"a": 1}]),
        st.sampled_from([0, -1, 1, 2, 17, -0.5, 0.5, 1.5, math.nan, math.inf, -math.inf]),
        st.sampled_from([2**31, 2**31 + 1, 2**40, 10**18, -(2**40)]),
    )

    @staticmethod
    def _spec(name):
        spec = json.loads((GOLDEN / "specs" / f"{name}.json").read_text())
        for part in (spec, spec.get("tower", {})):
            for key, cap in TestSpecFuzz.CAPS.items():
                if key in part:
                    part[key] = min(part[key], cap)
        return spec

    @staticmethod
    def _slots(node, path=()):
        """Every key path to a dict value or list element in the spec."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from TestSpecFuzz._slots(value, path + (key,))

    @staticmethod
    def _check(tmp_path, command, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        code = main([command, "--input", str(path), "--output", str(out), "--no-timestamp"])
        report = strict_loads(out.read_text())
        assert code in (0, 1, 2)
        assert report["status"] == ("ok" if code == 0 else "failed")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_golden_spec(self, tmp_path_factory, data):
        command, name = data.draw(st.sampled_from(self.TARGETS))
        spec = self._spec(name)
        for _ in range(data.draw(st.integers(1, 3))):
            slots = list(self._slots(spec))
            if not slots:
                break
            *parents, key = data.draw(st.sampled_from(slots))
            parent = spec
            for p in parents:
                parent = parent[p]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(data.draw(self.WILD))
        self._check(tmp_path_factory.mktemp("fuzz"), command, spec)

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(sorted({c for c, _ in TARGETS})),
        payload=st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-5, 1001)
            | st.floats()
            | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=12,
        ),
    )
    def test_arbitrary_json(self, tmp_path_factory, command, payload):
        self._check(tmp_path_factory.mktemp("fuzz"), command, payload)
