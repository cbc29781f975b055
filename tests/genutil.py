"""Seeded instance generators shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from margex import (
    Alphabet,
    DenseMeasure,
    IndexSet,
    LabeledPartition,
    MarginalFamily,
    TowerSpec,
    build_tower_from_base,
    name_distribution,
    product_of_marginals,
    project,
    sup_distance,
    tensor,
    thresholds,
)
from margex.measures import _conditional_gap
from margex.towers import (
    _systematic_split,
    base_aligned_labels,
    labels_from_base,
)


def conditional_gap(m: DenseMeasure, prefix: tuple[int, ...], nxt: int) -> tuple[float, bool]:
    """Worst gap between the law of ``nxt`` given an atom of ``prefix`` and
    its own law, and whether some atom of ``prefix`` has zero mass: the
    library's kernel on ``m`` projected onto ``prefix + (nxt,)`` and ``(nxt,)``."""
    return _conditional_gap(project(m, prefix + (nxt,)), nxt, project(m, (nxt,)).table)


class NoNumpy:
    """Stands in for a module's numpy: any use fails the test, which shows
    that a capacity check ran before the first array was made."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the capacity check")


def random_measure(rng, alphabet: Alphabet, support, floor: float = 0.02) -> DenseMeasure:
    support = IndexSet.of(support)
    cells = alphabet.size ** len(support)
    table = rng.random(cells) + floor * cells
    return DenseMeasure(alphabet, support, table / table.sum())


def consistent_parts(rng, alphabet: Alphabet, window_size: int, n_parts: int):
    """Projections of one hidden random measure: consistent by construction."""
    window = IndexSet.of(range(window_size))
    hidden = random_measure(rng, alphabet, window)
    parts = []
    for _ in range(n_parts):
        k = rng.integers(1, window_size + 1)
        sub = IndexSet.of(sorted(rng.choice(window_size, size=k, replace=False)))
        parts.append(project(hidden, sub))
    return parts, hidden


def centered_noise(rng, shape) -> np.ndarray:
    """Noise whose every one-axis sum vanishes, so it moves no marginal."""
    h = rng.standard_normal(shape)
    for axis in range(h.ndim):
        h -= h.mean(axis=axis, keepdims=True)
    peak = np.abs(h).max()
    return h / peak if peak > 0 else h


def near_product_family(
    rng,
    alphabet: Alphabet,
    window_size: int = 10,
    alpha: float = 0.3,
    noise_scale: float | None = None,
) -> MarginalFamily:
    """Chain of overlapping pair members, marginal atoms >= alpha, each pair a
    product plus centered interaction noise below the independence budget.

    Pair overlaps are single coordinates and centered noise has zero marginal
    sums, so the family is exactly consistent.
    """
    size = alphabet.size
    margs = []
    for i in range(window_size):
        p = rng.uniform(alpha + 0.05, 1.0 - (size - 1) * (alpha + 0.05), size=1)
        rest = rng.dirichlet(np.ones(size - 1)) * (1.0 - p[0])
        vec = np.concatenate([p, rest])
        vec = np.clip(vec, alpha + 0.05, None)
        vec = vec / vec.sum()
        margs.append(DenseMeasure(alphabet, (i,), rng.permutation(vec)))
    n_cap = 3
    if noise_scale is None:
        _, delta = thresholds(alpha, n_cap, 1.0)
        noise_scale = 0.3 * delta * alpha
    members = []
    for i in range(window_size - 1):
        base = tensor(margs[i], margs[i + 1])
        noise = centered_noise(rng, (size, size)) * noise_scale
        members.append(
            DenseMeasure(alphabet, (i, i + 1), base.table + noise.reshape(-1))
        )
    return MarginalFamily(alphabet, tuple(members), alpha, n_cap)


def permutation_tower(height: int, atoms: int, seed: int) -> TowerSpec:
    return build_tower_from_base((), height, atoms, "seeded_permutation", seed)


def bit_slice_partition(
    tower: TowerSpec, alphabet: Alphabet, bits: int
) -> LabeledPartition:
    """Base-aligned labels reading one atom-id bit per level (mod ``bits``).

    Every window of span below ``bits`` is exactly independent with balanced
    symbols, which makes surgery and painting outcomes exactly checkable.
    """
    b = np.arange(tower.atom_count)
    base = np.stack(
        [(b >> (lvl % bits)) & 1 for lvl in range(tower.height)]
    ).astype(np.int16)
    return labels_from_base(tower, base, alphabet)


def copy_corrupt(
    tower: TowerSpec,
    partition: LabeledPartition,
    level: int,
    source: int,
    fraction: float,
    seed: int,
) -> LabeledPartition:
    """Overwrite a fraction of one level with another level's labels,
    creating dependence at their lag while keeping symbols near-balanced."""
    rng = np.random.default_rng(seed)
    base = base_aligned_labels(tower, partition).copy()
    chosen = rng.random(tower.atom_count) < fraction
    base[level, chosen] = base[source, chosen]
    return labels_from_base(tower, base, partition.alphabet)


def window_deviation(tower: TowerSpec, partition: LabeledPartition, shift: int, offsets):
    """(sup distance to the product law, worst conditional gap of the last
    offset against the preceding block; 0 on one offset) for one window:
    the per-shift reference for flagging."""
    nu = name_distribution(tower, partition, shift, offsets)
    *prefix, last = nu.support
    gap = conditional_gap(nu, tuple(prefix), last)[0] if prefix else 0.0
    return sup_distance(nu, product_of_marginals(nu)), gap


def paint_gate_flags(tower: TowerSpec, partition: LabeledPartition, offsets, epsilon: float):
    """Per-shift reference for flagging: a shift is flagged when the table
    ``xi`` with ``(1 - t) * kept + t * xi = prod`` has a negative cell, where
    ``kept`` is the kept part's window law, ``t`` the painted fraction and
    ``prod`` the product of the window's level laws.

    The painted slice is the systematic ``epsilon / 10`` split of a lexsort
    over every level, the kept law a ``bincount`` over the kept columns, and
    the product built from ``partition.distributions()``."""
    size = partition.alphabet.size
    base = base_aligned_labels(tower, partition)
    order = np.lexsort(tuple(base[lvl] for lvl in reversed(range(tower.height))))
    kept = np.ones(tower.atom_count, dtype=bool)
    kept[_systematic_split(order, epsilon / 10)] = False
    t = (tower.atom_count - int(kept.sum())) / tower.atom_count
    dists = partition.distributions()
    flags = np.zeros(tower.height, dtype=bool)
    for j in range(tower.height - max(offsets)):
        levels = [j + k for k in offsets]
        cells = np.ravel_multi_index(tuple(base[levels][:, kept]), (size,) * len(levels))
        nu = np.bincount(cells, minlength=size ** len(levels)) / kept.sum()
        prod = np.ones(1)
        for lvl in levels:
            prod = np.multiply.outer(prod, dists[lvl]).reshape(-1)
        flags[j] = ((prod - (1 - t) * nu) / t).min() < 0.0
    return flags


def sampled_shift_distance(w: int, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the sign flip between a ``w``-window and its
    unit shift: the model that ``shift_distance`` approximates to ``O(1/w)``."""
    rng = np.random.default_rng(seed)
    # flip happens iff the shared middle sum vanishes and the boundary
    # symbols disagree; sample that exact joint law
    middle = 2 * rng.binomial(w - 1, 0.5, size=samples) - (w - 1)
    first = rng.integers(0, 2, size=samples)
    last = rng.integers(0, 2, size=samples)
    flips = (middle == 0) & (first != last)
    return float(np.mean(flips))


def joint_mass(c1, c2) -> float:
    """Mass of the event that both cylinders hold under the product coin
    fiber measure: the model reference of ``relative_mixing_coefficient``."""
    merged = dict(c1.constraints)
    for i, v in c2.constraints:
        if merged.get(i, v) != v:
            return 0.0
        merged[i] = v
    return 0.5 ** len(merged)


def machin_pi_floor(digits: int) -> int:
    """``floor(pi * 10^digits)`` in exact integers, from Machin's formula
    ``pi = 16 atan(1/5) - 4 atan(1/239)``.

    Each arctangent is summed at 10 guard digits with truncated terms; every
    term is off by less than 2 units and the dropped tail by less than 1, so
    the result is the floor when both ends of that error bound agree.
    """
    scale = 10 ** (digits + 10)

    def atan_inv(x):
        total, power, i, terms = 0, scale // x, 1, 0
        while power:
            total += (power // i) * (-1) ** terms
            power, i, terms = power // (x * x), i + 2, terms + 1
        return total, 2 * terms + 1

    (a5, err5), (a239, err239) = atan_inv(5), atan_inv(239)
    approx, err = 16 * a5 - 4 * a239, 16 * err5 + 4 * err239
    lo, hi = (approx - err) // 10**10, (approx + err) // 10**10
    assert lo == hi, "pi lies too close to a digit boundary"
    return lo
