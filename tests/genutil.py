"""Seeded instance generators shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from margex import (
    Alphabet,
    DenseMeasure,
    FiberSpace,
    IndexSet,
    LabeledPartition,
    MarginalFamily,
    TowerSpec,
    project,
    tensor,
    thresholds,
)
from margex.towers import labels_from_base, seeded_permutation_transfer


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
    return TowerSpec(height, FiberSpace(atoms), seeded_permutation_transfer(height, atoms, seed))


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
    from margex.towers import base_aligned_labels

    rng = np.random.default_rng(seed)
    base = base_aligned_labels(tower, partition).copy()
    chosen = rng.random(tower.atom_count) < fraction
    base[level, chosen] = base[source, chosen]
    return labels_from_base(tower, base, partition.alphabet)
