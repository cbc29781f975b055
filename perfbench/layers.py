"""Per-layer metrics of the traced run, and what each should move.

Every public function named in ``SPANS`` is wrapped, in every module
namespace that binds it, only while a traced round runs. A wrapper records a
span (name, start, end, parent) and, for a few functions, adds work counts
read from the call's arguments and result. ``PREDICTIONS`` states, per layer,
which end-to-end metric on which workload a change to that layer should move;
later changes cite it.
"""

from __future__ import annotations

import inspect

# (span name, module, attribute path inside the module)
SPANS = (
    ("towers.flag_dependent_shifts", "margex.towers", "flag_dependent_shifts"),
    ("towers.name_distribution", "margex.towers", "name_distribution"),
    ("towers.base_aligned_labels", "margex.towers", "base_aligned_labels"),
    ("towers.paint_tower", "margex.towers", "paint_tower"),
    ("towers.labels_from_base", "margex.towers", "labels_from_base"),
    ("towers.with_flags", "margex.towers", "TowerSpec.with_flags"),
    ("extension.extend_family", "margex.extension", "extend_family"),
    ("extension.extend_family_chain", "margex.extension", "extend_family_chain"),
    ("extension.chain_marginal", "margex.extension", "ChainExtension.marginal"),
    ("extension.bounded_right_inverse", "margex.extension", "bounded_right_inverse"),
    ("extension.verify_hypotheses", "margex.extension", "verify_hypotheses"),
    ("extension.brute_force_extension_exists", "margex.extension", "brute_force_extension_exists"),
    ("measures.relative_product", "margex.measures", "relative_product"),
    ("measures.project", "margex.measures", "project"),
    ("measures.delta_independence", "margex.measures", "delta_independence"),
    ("measures.sup_distance", "margex.measures", "sup_distance"),
    ("rds.counterexample_check", "margex.rds", "counterexample_check"),
    ("rds.shift_distance", "margex.rds", "shift_distance"),
    ("rds.relative_mixing_coefficient", "margex.rds", "relative_mixing_coefficient"),
)

CLI_COMMANDS = (
    "verify",
    "extend",
    "oracle",
    "correct",
    "paint",
    "krengel",
    "counterexample",
    "counterexample_cylinders",
)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_base_aligned(counts, fn, args, kwargs, result):
    # computed bytes: one int64-sized read per (level, atom) of the tower
    tower = _arguments(fn, args, kwargs)["tower"]
    counts["towers.base_aligned_labels.bytes"] += tower.height * tower.atom_count * 8


def _count_flagging(counts, fn, args, kwargs, result):
    call = _arguments(fn, args, kwargs)
    counts["towers.shifts_scanned"] += call["tower"].height - max(call["offsets"])
    counts["towers.shifts_flagged"] += int(result.sum())


def _count_paint(counts, fn, args, kwargs, result):
    counts["towers.windows_corrected"] += len(result.window_defects)
    counts["towers.painted_atoms"] += result.painted_atoms


def _count_steps(steps, counts):
    counts["extension.steps"] += len(steps)
    counts["extension.trivial_steps"] += sum(1 for s in steps if s.trivial)


def _count_dense(counts, fn, args, kwargs, result):
    _count_steps(result[1].steps, counts)


def _count_chain(counts, fn, args, kwargs, result):
    _count_steps(result.steps, counts)


def _count_mixing(counts, fn, args, kwargs, result):
    counts["rds.mixing_samples"] += len(result.coefficients)


COUNT_HOOKS = {
    "towers.base_aligned_labels": _count_base_aligned,
    "towers.flag_dependent_shifts": _count_flagging,
    "towers.paint_tower": _count_paint,
    "extension.extend_family": _count_dense,
    "extension.extend_family_chain": _count_chain,
    "rds.relative_mixing_coefficient": _count_mixing,
}

PREDICTIONS = {
    "towers": "wall_s and job_p50_s on paint; no change on extension or skew",
    "towers.counts": "work (shifts scanned, bytes) and useful outcomes (windows corrected) on paint",
    "extension": "wall_s and job_p50_s on extension; extend_family_chain is under 5% of paint, so no visible change there",
    "measures": "wall_s on extension most, and on paint through window re-measurement",
    "rds": "wall_s on skew, and cli.counterexample_cylinders.wall_s on cli",
    "cli": "wall_s and job_p50_s on cli, and setup_s on every workload; not wall_s on the in-process workloads",
    "trace": "none: tracing overhead and the part of a traced round outside top-level spans",
}


def per_layer_metrics() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    out = []
    for name, _, _ in SPANS:
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    out += [
        {"name": "towers.base_aligned_labels.bytes", "unit": "B", "better": "lower"},
        {"name": "towers.shifts_scanned", "unit": "count", "better": "lower"},
        {"name": "towers.shifts_flagged", "unit": "count", "better": "lower"},
        {"name": "towers.windows_corrected", "unit": "count", "better": "higher"},
        {"name": "towers.painted_atoms", "unit": "count", "better": "lower"},
        {"name": "extension.steps", "unit": "count", "better": "lower"},
        {"name": "extension.trivial_steps", "unit": "count", "better": "higher"},
        {"name": "rds.mixing_samples_per_s", "unit": "1/s", "better": "higher"},
        {"name": "cli.interpreter_s", "unit": "s", "better": "lower"},
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
    ]
    out += [{"name": f"cli.{c}.wall_s", "unit": "s", "better": "lower"} for c in CLI_COMMANDS]
    out += [
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.uncovered_s", "unit": "s", "better": "lower"},
    ]
    return out
