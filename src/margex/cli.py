"""Batch command-line driver.

Every command reads a JSON spec, runs one library operation, and writes a
JSON report suitable for CI: exit 0 when every check passed, 1 when a
mathematical check failed (positivity, independence, feasibility, budget),
2 on usage, format, or capacity errors. Reports are deterministic for a
fixed config and seed once timestamps are suppressed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    DomainError,
    MargexError,
    WindowError,
)
from .extension import (
    brute_force_extension_exists,
    extend_family,
    thresholds,
    verify_hypotheses,
)
from .measures import Alphabet, DenseMeasure, IndexSet, MarginalFamily
from .rds import Cylinder, SkewProduct, counterexample_check, relative_mixing_coefficient, shift_distance
from .towers import (
    FiberSpace,
    LabeledPartition,
    TowerSpec,
    correcting_measure,
    flag_dependent_shifts,
    iterate_krengel,
    paint_tower,
    seeded_permutation_transfer,
    uniform_random_partition,
)

USAGE_EXIT = 2
MATH_EXIT = 1


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"input file {path} does not exist")
    except json.JSONDecodeError as err:
        raise DomainError(f"malformed JSON in {path}: line {err.lineno}, column {err.colno}")
    if not isinstance(spec, dict):
        raise DomainError(f"{path} must hold a JSON object, got {type(spec).__name__}")
    return spec


def _field(spec: dict, name: str):
    try:
        return spec[name]
    except KeyError:
        raise DomainError(f"spec is missing field {name!r}") from None


def _family_from_spec(spec: dict) -> tuple[MarginalFamily, IndexSet | None]:
    try:
        family = MarginalFamily.from_dict(spec)
    except KeyError as err:
        raise DomainError(f"family spec is missing field {err}")
    window = None
    if "window" in spec:
        lo, hi = spec["window"]
        window = IndexSet.of(range(int(lo), int(hi) + 1))
    return family, window


def _tower_from_spec(spec: dict) -> tuple[TowerSpec, LabeledPartition]:
    height = int(_field(spec, "height"))
    atoms = int(_field(spec, "atom_count"))
    transfer_spec = spec.get("transfer", "identity")
    if transfer_spec == "identity":
        transfer = None
    elif isinstance(transfer_spec, str) and transfer_spec.startswith("seeded_permutation:"):
        seed = int(transfer_spec.split(":", 1)[1])
        transfer = seeded_permutation_transfer(height, atoms, seed)
    else:
        raise DomainError(f"unknown transfer spec {transfer_spec!r}")
    flags = spec.get("flags", {})
    tower = TowerSpec(
        height,
        FiberSpace(atoms),
        transfer,
        np.asarray(flags["in_E"], dtype=bool) if "in_E" in flags else None,
        np.asarray(flags["in_E1"], dtype=bool) if "in_E1" in flags else None,
    )
    labels_spec = spec.get("labels")
    if labels_spec is None:
        raise DomainError("tower spec needs labels")
    if isinstance(labels_spec, dict):
        generator = labels_spec.get("generator", "")
        if not generator.startswith("seeded_uniform:"):
            raise DomainError(f"unknown label generator {generator!r}")
        alphabet = Alphabet(int(labels_spec.get("alphabet_size", 2)))
        partition = uniform_random_partition(tower, alphabet, int(generator.split(":", 1)[1]))
    else:
        labels = np.asarray(labels_spec, dtype=np.int16)
        alphabet = Alphabet(int(spec.get("alphabet_size", int(labels.max()) + 1)))
        partition = LabeledPartition(alphabet, labels)
    return tower, partition


def _cmd_verify(args, spec):
    family, _ = _family_from_spec(spec)
    c_prime = float(spec.get("c_prime", 1.0))
    _, delta = thresholds(family.alpha, family.n_cap, c_prime)
    delta = float(spec.get("delta", delta))
    report = verify_hypotheses(family, delta, tol=args.tol)
    return report.to_dict(), report.ok


def _cmd_extend(args, spec):
    family, window = _family_from_spec(spec)
    if window is None:
        raise DomainError("family spec needs a window for extend")
    beta = float(spec.get("beta", thresholds(family.alpha, family.n_cap, 1.0)[0]))
    measure, trace = extend_family(family, window, beta, tol=args.tol)
    out = {
        "beta": beta,
        "measure": measure.to_dict(),
        "trace": trace.to_dict(),
    }
    return out, True


def _cmd_oracle(args, spec):
    family, window = _family_from_spec(spec)
    if window is None:
        raise DomainError("family spec needs a window for oracle")
    result = brute_force_extension_exists(family, window)
    return result.to_dict(), result.feasible


def _cmd_correct(args, spec):
    nu = DenseMeasure.from_dict(_field(spec, "nu"))
    marginals = None
    if "marginals" in spec:
        marginals = [DenseMeasure.from_dict(m) for m in spec["marginals"]]
    t = float(_field(spec, "t"))
    xi = correcting_measure(nu, marginals, t, tol=args.tol)
    blend_gap = float(
        np.max(
            np.abs(
                (1 - t) * nu.table
                + t * xi.table
                - xi.product_of_marginals().table
            )
        )
    )
    return {"xi": xi.to_dict(), "blend_gap": blend_gap}, True


def _cmd_paint(args, spec):
    tower, partition = _tower_from_spec(_field(spec, "tower"))
    offsets = IndexSet.of(spec.get("K", [0]))
    if "m" not in spec and args.n is None:
        raise DomainError("paint needs a fresh time (spec field 'm' or --n)")
    m = int(spec["m"]) if "m" in spec else int(args.n)
    epsilon = float(spec.get("epsilon", args.epsilon))
    alpha = float(spec.get("alpha", partition.min_symbol_mass() - args.tol))
    if spec.get("auto_flags", True):
        flags = flag_dependent_shifts(tower, partition, offsets.union((m,)), epsilon)
        tower = tower.with_flags(in_e1=tower.in_e1 | flags)
    report = paint_tower(
        tower, partition, offsets, m, epsilon, alpha, seed=args.seed, tol=args.tol
    )
    payload = report.to_dict()
    ok = report.error_mass() < epsilon
    return payload, ok


def _cmd_krengel(args, spec):
    tower, partition = _tower_from_spec(_field(spec, "tower"))
    times = [int(t) for t in spec.get("mixing_times", [])]
    epsilon = float(spec.get("epsilon", args.epsilon))
    steps = int(spec.get("steps", args.steps))
    result = iterate_krengel(tower, partition, times, epsilon, steps, seed=args.seed, tol=args.tol)
    payload = result.to_dict()
    ok = result.cumulative_error_mass < epsilon
    return payload, ok


def _cmd_counterexample(args, spec):
    w = int(spec.get("W", args.w)) if spec else args.w
    n = int(spec.get("n", args.n)) if spec else args.n
    samples = int(spec.get("samples", args.samples)) if spec else args.samples
    seed = int(spec.get("seed", args.seed)) if spec else args.seed
    if w is None or n is None:
        raise DomainError("counterexample needs --W and --n")
    report = counterexample_check(w, n, samples, seed)
    payload = report.to_dict()
    payload["shift_distance"] = shift_distance(w)
    if spec and "cylinders" in spec:
        cyl_spec = spec["cylinders"]
        system = SkewProduct(
            int(cyl_spec.get("fiber_lo", -64)), int(cyl_spec.get("fiber_hi", 64))
        )
        a_cyl = Cylinder.of({int(k): int(v) for k, v in cyl_spec["A"].items()})
        b_cyl = Cylinder.of({int(k): int(v) for k, v in cyl_spec["B"].items()})
        mixing = relative_mixing_coefficient(
            system, a_cyl, b_cyl, int(cyl_spec.get("n", n)), samples, seed
        )
        payload["mixing"] = mixing.to_dict()
    ok = report.preconditions_ok and report.contradiction_margin > 0
    return payload, ok


_COMMANDS = {
    "verify": (_cmd_verify, True),
    "extend": (_cmd_extend, True),
    "oracle": (_cmd_oracle, True),
    "correct": (_cmd_correct, True),
    "paint": (_cmd_paint, True),
    "krengel": (_cmd_krengel, True),
    "counterexample": (_cmd_counterexample, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margex",
        description="prescribed-marginal extension and tower painting, batch mode",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="JSON spec file")
    parser.add_argument("--output", help="report destination (default: stdout)")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=20210607)
    parser.add_argument("--no-timestamp", action="store_true")
    parser.add_argument("--W", dest="w", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--samples", type=int, default=10**5)
    parser.add_argument("--epsilon", type=float, default=0.4)
    parser.add_argument("--steps", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, needs_input = _COMMANDS[args.command]

    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "tolerance": args.tol,
        "input_digest": None,
    }
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    exit_code = 0
    try:
        spec = {}
        if args.input:
            spec = _load_json(args.input)
            report["input_digest"] = _digest(args.input)
        elif needs_input:
            raise DomainError(f"{args.command} needs --input")
        payload, ok = handler(args, spec)
        report["result"] = payload
        report["status"] = "ok" if ok else "failed"
        if not ok:
            report["reason"] = {"code": "check_failed", "message": "a mathematical check failed"}
            exit_code = MATH_EXIT
    except (CapacityError, DomainError, WindowError) as err:
        report["status"] = "failed"
        report["reason"] = {"code": type(err).__name__, "message": str(err)}
        exit_code = USAGE_EXIT
    except MargexError as err:
        report["status"] = "failed"
        report["reason"] = {"code": type(err).__name__, "message": str(err)}
        exit_code = MATH_EXIT

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
