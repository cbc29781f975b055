import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--W", "10001", "--n", "10", "--samples", "100000000000"),
            ("--W", "1048577", "--n", "10", "--samples", "10"),
        ],
        ids=["samples", "window"],
    )
    def test_over_cap_is_usage_error(self, tmp_path, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("binomial computed before the walk cap")

        monkeypatch.setattr(math, "comb", forbidden)
        code, report = run(tmp_path, "counterexample", *argv)
        assert code == 2
        assert report["reason"]["code"] == "CapacityError"


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
        ],
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


class TestFailureReasons:
    """A failed check's report carries the structured fields of its error."""

    def _run_spec(self, tmp_path, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return run(tmp_path, command, "--input", str(path))

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


class TestGoldenReports:
    """``--no-timestamp`` reports pinned byte for byte at the default seed.

    Specs live in ``golden/specs``; after an intended output change,
    regenerate a report with
    ``margex <command> --input tests/golden/specs/<spec>.json --no-timestamp``.
    A report is named after its command, or after its spec where the spec
    name starts with the command (``counterexample_cylinders``).
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
            ("counterexample", "counterexample"),
            ("counterexample", "counterexample_cylinders"),
        ],
    )
    def test_report_is_byte_identical(self, tmp_path, command, spec):
        out = tmp_path / "report.json"
        argv = [command, "--input", str(GOLDEN / "specs" / f"{spec}.json")]
        code = main([*argv, "--output", str(out), "--no-timestamp"])
        assert code == 0
        name = spec if spec.startswith(command) else command
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


class TestSpecFuzz:
    """Mutated golden specs and arbitrary JSON keep the 0/1/2 contract and
    always produce a parseable JSON report."""

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
    # out-of-range and wrong-typed replacements; every number is small, so no
    # mutation asks for a huge table, window or loop
    WILD = st.one_of(
        st.sampled_from([None, True, "", "x", [], {}, [1, "a"], {"a": 1}]),
        st.sampled_from([0, -1, 1, 2, 17, -0.5, 0.5, 1.5, math.nan, math.inf, -math.inf]),
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
        report = json.loads(out.read_text())
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
