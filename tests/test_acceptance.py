"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance, prints one
pass/fail line with the elapsed time, and then asserts. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import genutil
from margex import (
    Alphabet,
    Cylinder,
    DenseMeasure,
    IndexSet,
    ProjectionOperator,
    SkewProduct,
    bounded_right_inverse,
    brute_force_extension_exists,
    consistency_gap,
    correcting_measure,
    counterexample_check,
    delta_independence,
    extend_family,
    flag_dependent_shifts,
    name_distribution,
    paint_tower,
    product_measure,
    project,
    relative_mixing_coefficient,
    shift_distance,
    sup_distance,
    thresholds,
    uniform_random_partition,
    verify_hypotheses,
)
from margex.towers import base_aligned_labels, _window_counts

A2 = Alphabet(2)


def report(number, name, failures, elapsed, limit):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {status} in {elapsed:.2f}s (limit {limit}s)")
    for f in failures[:10]:
        print(f"  - {f}")
    assert not failures
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_1_common_extension_projects_back():
    t0 = time.perf_counter()
    failures = []
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        alphabet = Alphabet(int(rng.integers(2, 4)))
        window_size = int(rng.integers(2, 7))
        n_parts = int(rng.integers(1, 5))
        parts, _ = genutil.consistent_parts(rng, alphabet, window_size, n_parts)
        out = genutil.inclusion_exclusion_extension(parts)
        for i, part in enumerate(parts):
            gap = sup_distance(project(out, part.support), part)
            if gap > 1e-9:
                failures.append(f"seed {seed} part {i}: projection gap {gap}")
    report(1, "inclusion-exclusion extension", failures, time.perf_counter() - t0, 10)


def test_criterion_2_right_inverse_contract():
    t0 = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        alphabet = Alphabet(int(rng.integers(2, 4)))
        n = int(rng.integers(1, 5))
        domain = IndexSet.of(range(n))
        targets = {domain.indices}
        for _ in range(int(rng.integers(0, 3))):
            size = int(rng.integers(0, n + 1))
            sub = IndexSet.of(sorted(rng.choice(n, size=size, replace=False)))
            targets.add(sub.indices)
        op = ProjectionOperator(
            alphabet, domain, tuple(IndexSet(t) for t in sorted(targets))
        )
        v = genutil.random_measure(rng, alphabet, domain)
        w = op.apply(v)
        b = bounded_right_inverse(op, v, w)
        anchor_gap = float(np.max(np.abs(b.evaluate(w).table - v.table)))
        if anchor_gap > 1e-9:
            failures.append(f"seed {seed}: anchor gap {anchor_gap}")
        mat = op.matrix()
        u_svd, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(s > s[0] * 1e-12))
        for col in range(rank):
            u = u_svd[:, col]
            residual = float(np.max(np.abs(mat @ b.evaluate(u).table - u)))
            if residual > 1e-9:
                failures.append(f"seed {seed} basis {col}: residual {residual}")
                break
    report(2, "anchored right inverse", failures, time.perf_counter() - t0, 10)


def test_criterion_3_window_extension_end_to_end():
    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        window_size = int(rng.integers(4, 11))
        family = genutil.near_product_family(rng, A2, window_size, alpha=0.3)
        beta = family.alpha**family.n_cap / (2 * family.n_cap)
        _, delta = thresholds(family.alpha, family.n_cap, 1.0)
        window = IndexSet.of(range(window_size))

        hypo = verify_hypotheses(family, delta)
        if not hypo.ok:
            failures.append(f"seed {seed}: hypotheses violated {hypo.violations[:2]}")
            continue
        try:
            out, trace = extend_family(family, window, beta)
        except Exception as err:
            failures.append(f"seed {seed}: extension failed: {err}")
            continue
        if trace.max_beta_defect() > beta:
            failures.append(
                f"seed {seed}: step defect {trace.max_beta_defect()} over {beta}"
            )
        for i, mu in enumerate(family.members):
            gap = consistency_gap(out, mu)
            if gap > 1e-9:
                failures.append(f"seed {seed} member {i}: output gap {gap}")
        oracle = brute_force_extension_exists(family, window)
        if not oracle.feasible:
            failures.append(f"seed {seed}: oracle denies feasibility")
        for i, mu in enumerate(family.members):
            gap = consistency_gap(out, mu)
            if gap > 1e-7:
                failures.append(f"seed {seed} member {i}: oracle-system gap {gap}")
    report(3, "prescribed-marginal window extension", failures, time.perf_counter() - t0, 120)


def test_criterion_4_correcting_measure_identities():
    t0 = time.perf_counter()
    failures = []
    transfer_checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(40_000 + seed)
        k = int(rng.integers(2, 4))
        alpha = float(rng.uniform(0.25, 0.45))
        margs = []
        for i in range(k):
            p = float(rng.uniform(alpha, 1 - alpha))
            margs.append(DenseMeasure(A2, IndexSet.of([i]), [p, 1 - p]))
        prod = product_measure(margs)
        epsilon = float(rng.uniform(0.2, 0.9))
        t = epsilon / 10.0

        delta = 0.01
        eta = genutil.choose_eta(alpha, k - 1, delta, epsilon)
        transfer_case = seed % 2 == 0
        if transfer_case:
            scale = 0.9 * eta
        else:
            scale = 0.5 * t / (1 - t) * prod.min_entry()
        noise = genutil.centered_noise(rng, prod.shape) * scale
        nu = DenseMeasure(A2, prod.support, prod.table + noise.reshape(-1))

        xi = correcting_measure(nu, margs, t)
        blend = (1 - t) * nu.table + t * xi.table
        blend_gap = float(np.max(np.abs(blend - prod.table)))
        if blend_gap > 1e-12:
            failures.append(f"seed {seed}: blend gap {blend_gap}")
        for i in range(k):
            mgap = sup_distance(project(xi, [i]), margs[i])
            if mgap > 1e-12:
                failures.append(f"seed {seed} coord {i}: marginal gap {mgap}")
        if transfer_case and sup_distance(nu, prod) < eta:
            transfer_checked += 1
            defect = delta_independence(xi, tuple(xi.support))
            if defect > delta:
                failures.append(f"seed {seed}: transferred defect {defect} > {delta}")
    if transfer_checked < 100:
        failures.append(f"only {transfer_checked} transfer cases exercised")
    report(4, "correcting-measure identities", failures, time.perf_counter() - t0, 5)


def test_criterion_5_paint_step():
    t0 = time.perf_counter()
    failures = []
    epsilon = 0.4
    tower = genutil.permutation_tower(64, 2**16, seed=42)
    partition = uniform_random_partition(tower, A2, seed=7)
    alpha = partition.min_symbol_mass() - 1e-9

    for m, strict_ok in ((2, True), (8, False)):
        flags = flag_dependent_shifts(tower, partition, [0, m], epsilon)
        flagged = tower.with_flags(in_e1=flags)
        rep = paint_tower(flagged, partition, [0], m, epsilon, alpha, seed=3)
        quant = rep.quantization_level_bound
        if rep.per_level_distance.max() > epsilon / 10 + quant:
            failures.append(
                f"m={m}: level distance {rep.per_level_distance.max()}"
            )
        if rep.per_level_distribution_gap.max() > quant:
            failures.append(
                f"m={m}: distribution gap {rep.per_level_distribution_gap.max()}"
            )
        worst = max(rep.window_defects.values())
        if worst > 2e-3:
            failures.append(f"m={m}: window defect {worst}")
        if not rep.error_mass() < epsilon:
            failures.append(f"m={m}: error mass {rep.error_mass()}")
        if rep.budget_ok["height"] is not strict_ok:
            failures.append(f"m={m}: height budget flag {rep.budget_ok}")
        if m == 2 and not rep.e3_mass < epsilon / 10:
            failures.append(f"m=2: top-levels mass {rep.e3_mass}")
    report(5, "paint step", failures, time.perf_counter() - t0, 60)


def test_criterion_6_surgery_exactness():
    t0 = time.perf_counter()
    failures = []
    offset_choices = ((0, 1), (0, 2), (0, 3))
    for seed in range(50):
        rng = np.random.default_rng(60_000 + seed)
        height = int(rng.integers(8, 15))
        tower = genutil.permutation_tower(height, 4096, seed=seed)
        partition = genutil.bit_slice_partition(tower, A2, bits=12)
        offsets = offset_choices[seed % 3]
        lag = offsets[1]
        eligible_top = height - lag - 1
        n_bad = int(rng.integers(1, 3))
        bad = sorted(
            rng.choice(eligible_top, size=min(n_bad, eligible_top), replace=False)
        )
        bad = [int(b) for b in bad if b + 2 * lag < height]
        corrupted = partition
        for b in bad:
            corrupted = genutil.copy_corrupt(
                tower, corrupted, b + lag, b, 1.0, seed=seed * 7 + b
            )
        out = genutil.fiber_surgery(tower, corrupted, offsets, bad)
        base_in = base_aligned_labels(tower, corrupted).astype(np.int64)
        base_out = base_aligned_labels(tower, out).astype(np.int64)
        counts = np.stack(
            [np.bincount(base_out[lvl], minlength=2) for lvl in range(height)]
        )
        windows = [[j + k for k in offsets] for j in range(height - lag)]
        for j, (levels, joint) in enumerate(zip(windows, _window_counts(base_out, windows, 2))):
            if not genutil._window_is_exact(joint, levels, counts, base_out.shape[1]):
                failures.append(f"seed {seed}: shift {j} not exactly independent")
                break
        touched = {b + k for b in bad for k in offsets}
        for lvl in range(height):
            if lvl not in touched and not np.array_equal(base_in[lvl], base_out[lvl]):
                failures.append(f"seed {seed}: level {lvl} modified outside blocks")
                break
    report(6, "fiber surgery exactness", failures, time.perf_counter() - t0, 30)


def test_criterion_7_counterexample_numbers():
    t0 = time.perf_counter()
    failures = []
    if shift_distance(3) != 3 / 16:
        failures.append(f"shift_distance(3) = {shift_distance(3)} != 3/16")
    d_long = shift_distance(10001)
    if not d_long < 1 / 100:
        failures.append(f"shift_distance(10001) = {d_long} >= 1/100")
    for n in (9, 10):
        rep = counterexample_check(10001, n, samples=10**5, seed=77)
        if not rep.preconditions_ok:
            failures.append(f"n={n}: precondition violated")
        if rep.samples_in_set == 0:
            failures.append(f"n={n}: empty parity set")
        if not rep.max_fiber_distance < 1 / 100:
            failures.append(f"n={n}: fiber distance {rep.max_fiber_distance}")
        if not rep.contradiction_margin >= 0.47:
            failures.append(f"n={n}: margin {rep.contradiction_margin}")
        print(
            f"  n={n}: fiber distance {rep.max_fiber_distance:.6f}, forced values "
            f"{rep.forced_distance} (margin vs 1/2: {rep.contradiction_margin})"
        )
    report(7, "counterexample numbers", failures, time.perf_counter() - t0, 60)


def test_criterion_8_cocycle_and_mixing():
    t0 = time.perf_counter()
    failures = []
    # the displacements are the cocycle phi(n), the sum of the first n symbols
    # of each documented seeded word, and phi(k + l) = phi(k) + phi(l) on the
    # word shifted by k at every split point
    wide = SkewProduct(-64, 64)
    for n, seed in ((0, 88), (1, 89), (37, 90), (64, 91)):
        mix = relative_mixing_coefficient(wide, Cylinder.of({0: 1}), Cylinder.of({0: 1}), n, 10**3, seed)
        heads = np.random.default_rng(seed).integers(0, 2, size=(10**3, max(n, 1)))
        words = 2 * heads[:, :n] - 1
        if not np.array_equal(mix.displacements, words.sum(axis=1)):
            failures.append(f"n={n}: displacements are not the cocycle sums")
        for k in range(n + 1):
            if not np.array_equal(mix.displacements, words[:, :k].sum(axis=1) + words[:, k:].sum(axis=1)):
                failures.append(f"n={n}: cocycle identity broken at split {k}")
                break

    system = SkewProduct(-16, 16)
    a_cyl = Cylinder.of({0: 1, 1: 1})
    b_cyl = Cylinder.of({0: 1})
    far = relative_mixing_coefficient(system, a_cyl, b_cyl, n=8, samples=500, seed=5)
    distant = far.coefficients[np.abs(far.displacements) >= 3]
    if distant.size == 0 or np.any(distant != 0.0):
        failures.append("far coefficients not exactly zero")
    near = relative_mixing_coefficient(system, a_cyl, b_cyl, n=1, samples=500, seed=6)
    left = near.coefficients[near.displacements == -1]
    if left.size == 0 or np.any(left != 0.125):
        failures.append("dependent-cylinder coefficient is not exactly 1/8")
    report(8, "cocycle and mixing sanity", failures, time.perf_counter() - t0, 10)
