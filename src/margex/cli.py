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
import math
import sys
import time
from contextlib import contextmanager

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
from .measures import (
    CELL_CAP,
    DEFAULT_TOL,
    Alphabet,
    DenseMeasure,
    IndexSet,
    MarginalFamily,
    _spec_float,
    _spec_int,
    product_of_marginals,
)
from .rds import Cylinder, SkewProduct, _check_seed, counterexample_check, relative_mixing_coefficient
from .towers import (
    LabeledPartition,
    TowerSpec,
    build_tower_from_base,
    correcting_measure,
    iterate_krengel,
    paint_tower,
    uniform_random_partition,
)

USAGE_EXIT = 2
MATH_EXIT = 1


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"input file {path} does not exist")
    except ValueError as err:  # JSONDecodeError, or an integer past the digit limit
        raise DomainError(f"malformed JSON in {path}: {err}")
    if not isinstance(spec, dict):
        raise DomainError(f"{path} must hold a JSON object, got {type(spec).__name__}")
    return spec


def _reason(err: MargexError) -> dict:
    reason = {"code": type(err).__name__, "message": str(err)}
    for name, cast in err.fields.items():
        value = getattr(err, name)
        if value is not None:
            reason[name] = cast(value)
    return reason


def _strict(node, path: str, non_finite: dict):
    """``node`` with every NaN or infinity replaced by ``None``, each one's
    dotted path recorded in ``non_finite`` as ``nan``, ``inf`` or ``-inf``."""
    if isinstance(node, float) and not math.isfinite(node):
        non_finite[path] = "nan" if math.isnan(node) else ("inf" if node > 0 else "-inf")
        return None
    if isinstance(node, dict):
        prefix = f"{path}." if path else ""
        return {k: _strict(v, f"{prefix}{k}", non_finite) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(v, f"{path}.{i}", non_finite) for i, v in enumerate(node)]
    return node


@contextmanager
def _spec_errors():
    """Report a missing field or a value of the wrong type or form as a
    usage error; library errors pass through unchanged."""
    try:
        yield
    except MargexError:
        raise
    except KeyError as err:
        raise DomainError(f"spec is missing field {err}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as err:
        raise DomainError(f"malformed spec value: {err}") from None


@_spec_errors()
def _family_from_spec(
    spec: dict, command: str | None = None
) -> tuple[MarginalFamily, IndexSet | None]:
    """The spec's family and, for ``command`` (extend or oracle), its window.
    A window longer than ``CELL_CAP.bit_length()`` coordinates exceeds the
    dense cap at every alphabet size, so it is rejected before it is built."""
    family = MarginalFamily.from_dict(spec)
    if command is None:
        return family, None
    if "window" not in spec:
        raise DomainError(f"family spec needs a window for {command}")
    lo, hi = (_spec_int(i, "window") for i in spec["window"])
    if hi - lo + 1 > CELL_CAP.bit_length():
        raise CapacityError(
            f"window [{lo}, {hi}] has {hi - lo + 1} coordinates "
            f"(cap {CELL_CAP.bit_length()})"
        )
    return family, IndexSet.of(range(lo, hi + 1))


@_spec_errors()
def _tower_from_spec(spec: dict) -> tuple[TowerSpec, LabeledPartition]:
    height = _spec_int(spec["height"], "height")
    atoms = _spec_int(spec["atom_count"], "atom_count")
    transfer_spec = spec.get("transfer", "identity")
    rule, seed = "identity", 0
    if transfer_spec != "identity":
        if not (isinstance(transfer_spec, str) and transfer_spec.startswith("seeded_permutation:")):
            raise DomainError(f"unknown transfer spec {transfer_spec!r}")
        rule, seed = "seeded_permutation", int(transfer_spec.split(":", 1)[1])
    flags = spec.get("flags", {})
    in_e, in_e1 = flags.get("in_E"), flags.get("in_E1")
    tower = build_tower_from_base((), height, atoms, rule, seed).with_flags(in_e, in_e1)
    labels_spec = spec.get("labels")
    if labels_spec is None:
        raise DomainError("tower spec needs labels")
    if isinstance(labels_spec, dict):
        generator = labels_spec.get("generator", "")
        if not generator.startswith("seeded_uniform:"):
            raise DomainError(f"unknown label generator {generator!r}")
        alphabet = Alphabet(_spec_int(labels_spec.get("alphabet_size", 2), "alphabet_size"))
        partition = uniform_random_partition(tower, alphabet, int(generator.split(":", 1)[1]))
    else:
        labels = np.asarray(labels_spec)
        size = spec.get("alphabet_size", int(labels.max()) + 1)
        alphabet = Alphabet(_spec_int(size, "alphabet_size"))
        partition = LabeledPartition(alphabet, labels)
    return tower, partition


def _cmd_verify(args, spec):
    family, _ = _family_from_spec(spec)
    with _spec_errors():
        c_prime = _spec_float(spec.get("c_prime", 1.0), "c_prime")
        _, delta = thresholds(family.alpha, family.n_cap, c_prime)
        delta = _spec_float(spec.get("delta", delta), "delta")
    report = verify_hypotheses(family, delta, tol=args.tol)
    return report.to_dict(), report.ok


def _cmd_extend(args, spec):
    family, window = _family_from_spec(spec, "extend")
    with _spec_errors():
        beta = _spec_float(spec.get("beta", thresholds(family.alpha, family.n_cap, 1.0)[0]), "beta")
    measure, trace = extend_family(family, window, beta, tol=args.tol)
    out = {
        "beta": beta,
        "measure": measure.to_dict(),
        "trace": trace.to_dict(),
    }
    return out, True


def _cmd_oracle(args, spec):
    family, window = _family_from_spec(spec, "oracle")
    result = brute_force_extension_exists(family, window)
    return result.to_dict(), result.feasible


def _cmd_correct(args, spec):
    with _spec_errors():
        nu = DenseMeasure.from_dict(spec["nu"])
        marginals = None
        if "marginals" in spec:
            marginals = [DenseMeasure.from_dict(m) for m in spec["marginals"]]
        t = _spec_float(spec["t"], "t")
    xi = correcting_measure(nu, marginals, t, tol=args.tol)
    blend_gap = float(
        np.max(
            np.abs(
                (1 - t) * nu.table
                + t * xi.table
                - product_of_marginals(xi).table
            )
        )
    )
    return {"xi": xi.to_dict(), "blend_gap": blend_gap}, True


def _cmd_paint(args, spec):
    with _spec_errors():
        tower, partition = _tower_from_spec(spec["tower"])
        offsets = IndexSet.of([_spec_int(k, "K") for k in spec.get("K", [0])])
        m = _spec_int(spec["m"], "m")
        epsilon = _spec_float(spec.get("epsilon", 0.4), "epsilon")
        alpha = _spec_float(spec.get("alpha", 0.0), "alpha")
    report = paint_tower(tower, partition, offsets, m, epsilon, alpha, seed=args.seed, tol=args.tol)
    payload = report.to_dict()
    ok = report.error_mass() < epsilon
    return payload, ok


def _cmd_krengel(args, spec):
    with _spec_errors():
        tower, partition = _tower_from_spec(spec["tower"])
        times = [_spec_int(t, "mixing_times") for t in spec.get("mixing_times", [])]
        epsilon = _spec_float(spec.get("epsilon", 0.4), "epsilon")
        steps = _spec_int(spec.get("steps", 1), "steps")
    result = iterate_krengel(tower, partition, times, epsilon, steps, seed=args.seed, tol=args.tol)
    payload = result.to_dict()
    ok = result.cumulative_error_mass < epsilon
    return payload, ok


def _cmd_counterexample(args, spec):
    with _spec_errors():
        w, n = _spec_int(spec["W"], "W"), _spec_int(spec["n"], "n")
        samples = _spec_int(spec.get("samples", 10**5), "samples")
        # the report's top-level seed names the one the run used
        seed = args.seed = _spec_int(spec.get("seed", args.seed), "seed")
        mixing_args = None
        if "cylinders" in spec:
            cyl_spec = spec["cylinders"]
            mixing_args = (
                SkewProduct(
                    _spec_int(cyl_spec.get("fiber_lo", -64), "fiber_lo"),
                    _spec_int(cyl_spec.get("fiber_hi", 64), "fiber_hi"),
                ),
                Cylinder.of({int(k): _spec_int(v, "A") for k, v in cyl_spec["A"].items()}),
                Cylinder.of({int(k): _spec_int(v, "B") for k, v in cyl_spec["B"].items()}),
                _spec_int(cyl_spec.get("n", n), "cylinders.n"),
            )
    report = counterexample_check(w, n, samples, seed)
    payload = report.to_dict()
    if mixing_args is not None:
        mixing = relative_mixing_coefficient(*mixing_args, samples, seed)
        payload["mixing"] = mixing.to_dict()
    ok = report.preconditions_ok and report.contradiction_margin > 0
    return payload, ok


_COMMANDS = {
    "verify": _cmd_verify,
    "extend": _cmd_extend,
    "oracle": _cmd_oracle,
    "correct": _cmd_correct,
    "paint": _cmd_paint,
    "krengel": _cmd_krengel,
    "counterexample": _cmd_counterexample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margex",
        description="prescribed-marginal extension and tower painting, batch mode",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="JSON spec file")
    parser.add_argument("--output", help="report destination (default: stdout)")
    tol_help = "tolerance of consistency, positivity and budget checks; spec tables keep the default"
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help=tol_help)
    parser.add_argument("--seed", type=int, default=20210607)
    parser.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    report = {
        "command": args.command,
        "version": __version__,
        "tolerance": args.tol,
        "input_digest": None,
    }
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    exit_code = 0
    try:
        _check_seed(args.seed)
        if not math.isfinite(args.tol) or args.tol < 0:
            raise DomainError(f"tol must be finite and >= 0, got {args.tol}")
        if not args.input:
            raise DomainError(f"{args.command} needs --input")
        spec = _load_json(args.input)
        report["input_digest"] = _digest(args.input)
        payload, ok = _COMMANDS[args.command](args, spec)
        report["result"] = payload
        report["status"] = "ok" if ok else "failed"
        if not ok:
            report["reason"] = {"code": "check_failed", "message": "a mathematical check failed"}
            exit_code = MATH_EXIT
    except MargexError as err:
        report["status"] = "failed"
        report["reason"] = _reason(err)
        usage = isinstance(err, (CapacityError, DomainError, WindowError))
        exit_code = USAGE_EXIT if usage else MATH_EXIT
    report["seed"] = args.seed

    # strict JSON: a non-finite number is written as null and named in
    # a top-level "non_finite" block
    non_finite: dict[str, str] = {}
    report = _strict(report, "", non_finite)
    if non_finite:
        report["non_finite"] = non_finite
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
