"""Seeded inputs, jobs and output checks for the four benchmark workloads.

A workload is a fixed list of jobs built from a seed. The runner executes the
list as one round, one job after another, and repeats rounds. Each job
returns the list of its failed checks; an empty list means the job's output
met every acceptance tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from margex import (
    Alphabet,
    Cylinder,
    DenseMeasure,
    IndexSet,
    MarginalFamily,
    SkewProduct,
    brute_force_extension_exists,
    build_tower_from_base,
    consistency_gap,
    correcting_measure,
    counterexample_check,
    extend_family,
    extend_family_chain,
    flag_dependent_shifts,
    paint_tower,
    project,
    relative_mixing_coefficient,
    shift_distance,
    sup_distance,
    tensor,
    thresholds,
    uniform_random_partition,
    verify_hypotheses,
)

EPSILON = 0.4
ORACLE_MAX_CELLS = 2**12
N_CAP = 3


@dataclass
class Job:
    name: str
    run: Callable[[], list[str]]


# -- paint ---------------------------------------------------------------------------

def build_paint(seed: int, smoke: bool) -> list[Job]:
    """``margex paint`` at the acceptance size: one job per fresh time m."""
    height, atoms = (32, 2**14) if smoke else (64, 2**16)
    rng = np.random.default_rng(seed)
    tower_seed, label_seed, paint_seed = (int(x) for x in rng.integers(0, 2**31, size=3))
    tower = build_tower_from_base(
        np.zeros(height), height, atoms, "seeded_permutation", tower_seed
    )
    partition = uniform_random_partition(tower, Alphabet(2), label_seed)
    alpha = partition.min_symbol_mass() - 1e-9
    ms = (2,) if smoke else (2, 8)

    def paint_job(m: int) -> list[str]:
        flags = flag_dependent_shifts(tower, partition, [0, m], EPSILON)
        flagged = tower.with_flags(in_e1=flags)
        rep = paint_tower(flagged, partition, [0], m, EPSILON, alpha, seed=paint_seed)
        quant = rep.quantization_level_bound
        failures = []
        if rep.per_level_distance.max() > EPSILON / 10 + quant:
            failures.append(f"level distance {rep.per_level_distance.max()}")
        if rep.per_level_distribution_gap.max() > quant:
            failures.append(f"distribution gap {rep.per_level_distribution_gap.max()}")
        worst = max(rep.window_defects.values(), default=0.0)
        if worst > 2e-3:
            failures.append(f"window defect {worst}")
        if not rep.error_mass() < EPSILON:
            failures.append(f"error mass {rep.error_mass()}")
        return failures

    return [Job(f"paint_m{m}", lambda m=m: paint_job(m)) for m in ms]


# -- extension -------------------------------------------------------------------------

def near_product_family(rng, alphabet: Alphabet, window_size: int, alpha: float) -> MarginalFamily:
    """Chain of overlapping pair members: products of marginals with atoms
    above ``alpha`` plus centered interaction noise below the independence
    budget. Centered noise moves no marginal, so the family is consistent."""
    size = alphabet.size
    floor = alpha + 0.05
    margs = [
        DenseMeasure(alphabet, (i,), floor + (1.0 - size * floor) * rng.dirichlet(np.ones(size)))
        for i in range(window_size)
    ]
    _, delta = thresholds(alpha, N_CAP, 1.0)
    scale = 0.3 * delta * alpha
    members = []
    for i in range(window_size - 1):
        noise = rng.standard_normal((size, size))
        noise -= noise.mean(axis=0, keepdims=True)
        noise -= noise.mean(axis=1, keepdims=True)
        noise *= scale / max(np.abs(noise).max(), 1e-300)
        base = tensor(margs[i], margs[i + 1])
        members.append(DenseMeasure(alphabet, (i, i + 1), base.table + noise.reshape(-1)))
    return MarginalFamily(alphabet, tuple(members), alpha, N_CAP)


def _extension_job(family: MarginalFamily, window_size: int) -> list[str]:
    failures = []
    window = IndexSet.of(range(window_size))
    beta, delta = thresholds(family.alpha, family.n_cap, 1.0)
    hypo = verify_hypotheses(family, delta)
    if not hypo.ok:
        return [f"hypotheses violated: {hypo.violations[:2]}"]
    dense, trace = extend_family(family, window, beta)
    if trace.max_beta_defect() > beta:
        failures.append(f"step defect {trace.max_beta_defect()} over {beta}")
    for i, mu in enumerate(family.members):
        gap = consistency_gap(dense, mu)
        if gap > 1e-9:
            failures.append(f"member {i}: dense output gap {gap}")
    chain = extend_family_chain(family, window, beta)
    gap = sup_distance(chain.dense(), dense)
    if gap > 1e-9:
        failures.append(f"chain vs dense gap {gap}")
    if family.alphabet.size ** window_size <= ORACLE_MAX_CELLS:
        if not brute_force_extension_exists(family, window).feasible:
            failures.append("oracle denies feasibility")
    nu = family.members[0]
    marginals = [project(nu, (i,)) for i in nu.support]
    t = 0.1
    xi = correcting_measure(nu, marginals, t)
    prod = tensor(marginals[0], marginals[1])
    blend_gap = float(np.max(np.abs((1 - t) * nu.table + t * xi.table - prod.table)))
    if blend_gap > 1e-12:
        failures.append(f"blend gap {blend_gap}")
    return failures


def build_extension(seed: int, smoke: bool) -> list[Job]:
    """About 120 near-product pair families over six (alphabet, window) shapes."""
    shapes = [(2, w, 0.3) for w in (10, 14, 18)] + [(3, w, 0.2) for w in (8, 10, 12)]
    per_shape = 2 if smoke else 20
    if smoke:
        shapes = [(2, 6, 0.3), (3, 5, 0.2)]
    rng = np.random.default_rng(seed)
    jobs = []
    for size, window_size, alpha in shapes:
        for k in range(per_shape):
            family = near_product_family(rng, Alphabet(size), window_size, alpha)
            jobs.append(
                Job(f"a{size}_w{window_size}_{k}", lambda f=family, w=window_size: _extension_job(f, w))
            )
    return jobs


# -- skew ------------------------------------------------------------------------------

MIXING_A = Cylinder.of({0: 1, 1: 1})
MIXING_B = Cylinder.of({0: 1})


def _skew_job(w: int, n: int, samples: int, seed: int) -> list[str]:
    failures = []
    rep = counterexample_check(w, n, samples, seed)
    if not rep.preconditions_ok:
        failures.append("precondition violated")
    if not rep.contradiction_margin > 0:
        failures.append(f"margin {rep.contradiction_margin}")
    distance = shift_distance(w)
    if not distance < 1 / 100:
        failures.append(f"shift distance {distance}")
    mixing = relative_mixing_coefficient(
        SkewProduct(-64, 64), MIXING_A, MIXING_B, n, samples, seed
    )
    if not np.all(np.isfinite(mixing.coefficients)):
        failures.append("non-finite mixing coefficient")
    return failures


def build_skew(seed: int, smoke: bool) -> list[Job]:
    """The cylinder counterexample command in-process, for W x n."""
    ws, ns = ((10001,), (2,)) if smoke else ((10001, 100001), (2, 5, 10))
    samples = 10**3 if smoke else 10**5
    rng = np.random.default_rng(seed)
    jobs = []
    for w in ws:
        for n in ns:
            job_seed = int(rng.integers(0, 2**31))
            jobs.append(
                Job(
                    f"W{w}_n{n}",
                    lambda w=w, n=n, s=job_seed: _skew_job(w, n, samples, s),
                )
            )
    return jobs


# -- cli -------------------------------------------------------------------------------

def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_specs(seed: int, smoke: bool) -> dict[str, dict]:
    rng = np.random.default_rng(seed)
    family = near_product_family(rng, Alphabet(2), 6 if smoke else 10, 0.3)
    family_spec = family.to_dict()
    family_spec["window"] = [0, max(family.union_support())]
    nu = family.members[0]
    tower_seed, label_seed, cx_seed = (int(x) for x in rng.integers(0, 2**31, size=3))
    # 2^14 atoms: at 2^12, paint (epsilon 0.4) and krengel (epsilon 0.8) raise
    # PositivityError on about one seed in twenty
    tower = {
        "height": 32,
        "atom_count": 2**14,
        "transfer": f"seeded_permutation:{tower_seed}",
        "labels": {"generator": f"seeded_uniform:{label_seed}", "alphabet_size": 2},
    }
    samples = 10**3 if smoke else 10**5
    return {
        "verify": family_spec,
        "extend": family_spec,
        "oracle": family_spec,
        "correct": {
            "nu": nu.to_dict(),
            "marginals": [project(nu, (i,)).to_dict() for i in nu.support],
            "t": 0.1,
        },
        "paint": {"tower": tower, "m": 2, "epsilon": EPSILON},
        "krengel": {"tower": tower, "mixing_times": [2, 3, 4], "epsilon": 0.8, "steps": 1},
        "counterexample": {"W": 10001, "n": 10, "samples": samples, "seed": cx_seed},
        "counterexample_cylinders": {
            "W": 10001,
            "n": 10,
            "samples": 10**3 if smoke else 20_000,
            "seed": cx_seed,
            "cylinders": {"A": {"0": 1, "1": 1}, "B": {"0": 1}, "fiber_lo": -64, "fiber_hi": 64},
        },
    }


def build_cli(seed: int, smoke: bool, workdir: Path, src: Path) -> list[Job]:
    """Every CLI command as a subprocess with ``--no-timestamp``.

    Each job also checks that its report is byte-identical to the report the
    same command wrote in every earlier round.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(src)
    seen: dict[str, str] = {}
    jobs = []
    for name, spec in _cli_specs(seed, smoke).items():
        spec_path = workdir / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        command = name.split("_")[0]
        argv = [sys.executable, "-m", "margex.cli", command, "--input", str(spec_path), "--no-timestamp"]

        def cli_job(name=name, argv=argv) -> list[str]:
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
            if proc.returncode != 0:
                return [f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"]
            try:
                report = json.loads(proc.stdout)
            except json.JSONDecodeError as err:
                return [f"unparseable report: {err}"]
            failures = []
            if report.get("status") != "ok":
                failures.append(f"status {report.get('status')}")
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if seen.setdefault(name, digest) != digest:
                failures.append("report differs from an earlier run")
            return failures

        jobs.append(Job(name, cli_job))
    return jobs


def build(workload: str, seed: int, smoke: bool, workdir: Path, src: Path) -> list[Job]:
    if workload == "cli":
        return build_cli(seed, smoke, workdir / "cli", src)
    return {"paint": build_paint, "extension": build_extension, "skew": build_skew}[workload](
        seed, smoke
    )


WORKLOADS = ("paint", "extension", "skew", "cli")
