"""Seeded instance generators and reference constructions shared by the unit
and acceptance tests."""

from __future__ import annotations

import itertools
import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from margex import (
    Alphabet,
    CapacityError,
    ConsistencyError,
    DenseMeasure,
    DomainError,
    IndexSet,
    LabeledPartition,
    MarginalFamily,
    QuantizationError,
    SingularityError,
    TowerSpec,
    WindowError,
    build_tower_from_base,
    consistency_gap,
    name_distribution,
    product_of_marginals,
    project,
    sup_distance,
    tensor,
    thresholds,
)
from margex.errors import SolverError
from margex.extension import ORACLE_CELL_CAP, OracleResult, _cell_codes
from margex.measures import (
    DEFAULT_TOL,
    EMPTY,
    MADE_TOL,
    ORACLE_TOL,
    IndexLike,
    _conditional_gap,
    _coordinates,
    conditional_rows,
)
from margex.towers import (
    _apportion,
    _level_counts,
    _shifted,
    _systematic_split,
    _window_counts,
    _window_offsets,
    base_aligned_labels,
    labels_from_base,
)


def conditional_gap(m: DenseMeasure, prefix: tuple[int, ...], nxt: int) -> tuple[float, bool]:
    """Worst gap between the law of ``nxt`` given an atom of ``prefix`` and
    its own law, and whether some atom of ``prefix`` has zero mass: the
    library's kernel on ``m`` projected onto ``prefix + (nxt,)`` and ``(nxt,)``."""
    rows, mass = conditional_rows(project(m, prefix + (nxt,)), nxt)
    gap, has_zero_atom = _conditional_gap(rows, mass, project(m, (nxt,)).table)
    return float(gap), bool(has_zero_atom)


def _window_is_exact(
    joint: np.ndarray, levels: Sequence[int], counts: np.ndarray, atoms: int
) -> bool:
    """Exact independence test in integer arithmetic: the joint counts
    ``joint`` on ``levels`` against the level counts ``counts``."""
    scale = atoms ** (len(levels) - 1)
    cells = itertools.product(range(counts.shape[1]), repeat=len(levels))
    return all(
        int(n) * scale == math.prod(int(counts[lvl][a]) for lvl, a in zip(levels, cell))
        for n, cell in zip(joint, cells)
    )


# The paper's constructions that no margex command runs, kept as references:
# the common extension, the paint step's mixing budget and exact repair.

# -- inclusion-exclusion common extension ---------------------------------------

def inclusion_exclusion_extension(
    parts: list[DenseMeasure],
    q: DenseMeasure | None = None,
) -> DenseMeasure:
    """Common extension of a consistent family of signed measures.

    For each nonempty subset ``J`` of the parts, form the shared projection
    onto the intersection of their supports, tensored with the reference
    measure ``q`` on the remaining coordinates, and combine the terms with
    alternating signs. The result projects back onto every part exactly.

    ``q`` defaults to the uniform probability measure on the union support
    and must be strictly positive.
    """
    if not parts:
        raise DomainError("need at least one part")
    alphabet = parts[0].alphabet
    union = EMPTY
    for mu in parts:
        if mu.alphabet != alphabet:
            raise DomainError("parts must share one alphabet")
        union = union.union(mu.support)
    if q is None:
        q = DenseMeasure.uniform(alphabet, union)
    if q.support != union or q.kind != "probability":
        raise DomainError("reference measure must be a probability measure on the union support")
    if q.min_entry() <= 0.0:
        raise DomainError("reference measure must be strictly positive")
    for i, j in combinations(range(len(parts)), 2):
        gap = consistency_gap(parts[i], parts[j])
        if gap > DEFAULT_TOL:
            raise ConsistencyError(f"parts {i} and {j} disagree by {gap} on their overlap")

    # order the parts deterministically so the "shared projection" choice is stable
    ordered = sorted(range(len(parts)), key=lambda i: parts[i].support.indices)
    total = np.zeros(q.table.size)
    for r in range(1, len(parts) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for subset in combinations(ordered, r):
            inter = parts[subset[0]].support
            for i in subset[1:]:
                inter = inter.intersection(parts[i].support)
            shared = project(parts[subset[0]], inter)
            term = tensor(shared, project(q, union.difference(inter)))
            total += sign * term.table
    return DenseMeasure(alphabet, union, total, "signed")


def choose_eta(alpha: float, k: int, delta: float, epsilon: float) -> float:
    """Mixing-defect budget that lets a blend of weight ``epsilon/10`` restore
    exact independence while keeping the corrected law's defect below ``delta``."""
    if alpha <= 0 or delta <= 0 or epsilon <= 0 or k <= 0:
        raise DomainError("all arguments must be positive")
    return 0.1 * (alpha ** (k + 1) / 2.0) * delta * epsilon


# -- exact fiber surgery ----------------------------------------------------------------

def _exact_windows(joint: np.ndarray, size: int, atoms: int) -> np.ndarray:
    """Which rows of the window counts ``joint`` are exact products of their
    level counts: peeling the last level off every row at once, the prefix
    counts ``J_i`` and level counts ``c_i`` must meet ``N * J_i = J_{i-1} *
    c_i``. Each side is at most ``N^2 <= TOWER_CELL_CAP^2 = 2^56``, so int64
    holds the test exactly."""
    exact = np.ones(len(joint), dtype=bool)
    while joint.shape[1] > size:
        joint = joint.reshape(len(joint), joint.shape[1] // size, size)
        prefix = joint.sum(axis=2)
        exact &= (atoms * joint == prefix[:, :, None] * joint.sum(axis=1)[:, None, :]).all(axis=(1, 2))
        joint = prefix
    return exact


def fiber_surgery(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    bad_levels: Iterable[int],
) -> LabeledPartition:
    """Exact repair of window independence by relabeling whole levels.

    For each bad shift, the levels of its window are relabeled so that every
    affected level keeps its exact symbol counts, the window law becomes the
    exact product of those counts, and the new block is exactly independent
    of the labels on every level sharing a window with it. Shifts that were
    already exact stay exact, so sweeping the bad shifts in ascending order
    terminates with zero defect everywhere eligible.

    Exactness requires each halo class size times each product cell count to
    be divisible by the atom count; otherwise a
    :class:`~margex.errors.QuantizationError` advises a compatible atom count.
    """
    offsets = _window_offsets(offsets)
    span = max(offsets)
    height, atoms = tower.height, tower.atom_count
    if height < span + 1:
        raise WindowError(f"tower of height {height} cannot host offsets {tuple(offsets)}")
    size = partition.alphabet.size
    eligible = range(height - span)
    declared = {i for i in _coordinates(bad_levels) if i in eligible}

    base = base_aligned_labels(tower, partition)
    counts = _level_counts(base, size)
    windows = _shifted(eligible, offsets)

    guard = 0
    while True:
        exact = _exact_windows(_window_counts(base, windows, size), size, atoms)
        pending = sorted(declared.union(np.flatnonzero(~exact).tolist()))
        if not pending:
            break
        guard += 1
        if guard > 2 * len(eligible) + len(declared) + 4:
            raise QuantizationError("surgery failed to stabilize; atom counts too coarse")
        i1 = pending[0]
        declared.discard(i1)
        block = [i1 + k for k in offsets]
        # the shifts whose windows meet the block are the eligible b - k
        shifts = np.intersect1d(np.subtract.outer(block, offsets.indices), eligible)
        halo = np.setdiff1d(_shifted(shifts, offsets), block)
        # halo classes in the lexicographic order of their names; a halo can
        # span more levels than a packed integer code could hold
        _, halo_class, class_sizes = np.unique(
            base[halo], axis=1, return_inverse=True, return_counts=True
        )
        by_class = np.argsort(halo_class, kind="stable")
        # the block's cells in lexicographic order, one column of digits each
        digits = np.indices((size,) * len(block)).reshape(len(block), -1)
        cell_mass = [math.prod(int(counts[lvl][a]) for lvl, a in zip(block, c)) for c in digits.T]
        den = atoms ** len(block)
        for members in np.split(by_class, np.cumsum(class_sizes)[:-1]):
            n_y = len(members)
            if any(n_y * mass % den for mass in cell_mass):
                raise QuantizationError(
                    f"class of size {n_y} cannot realize the exact product over "
                    f"levels {block}; choose an atom count divisible by "
                    f"{size ** (len(block) + len(halo))}"
                )
            cell_counts = [n_y * mass // den for mass in cell_mass]
            base[np.ix_(block, members)] = digits[:, np.repeat(np.arange(digits.shape[1]), cell_counts)]
        # exact products keep every level's counts, so ``counts`` stays current

    return labels_from_base(tower, base, partition.alphabet)


# -- the linear-programming oracle --------------------------------------------------

def lp_oracle_reference(
    family: MarginalFamily,
    window: IndexLike,
) -> OracleResult:
    """Decide by linear feasibility whether a common extension exists.

    Solves ``x >= 0``, ``sum x = 1``, and one marginal equation per cell of
    each member, over the dense table on the window, with scipy's HiGHS on
    every family: the reference for the verdicts of
    ``brute_force_extension_exists``, which tries a junction-tree witness first.
    """
    # imported here: scipy is most of the import time of the package, and
    # only this oracle uses it
    import scipy.sparse
    from scipy.optimize import linprog

    window = IndexSet.of(window)
    if not family.union_support().issubset(window):
        raise DomainError("window must contain every member support")
    size = family.alphabet.size
    n_cells = size ** len(window)
    if n_cells > ORACLE_CELL_CAP:
        raise CapacityError(f"oracle capped at {ORACLE_CELL_CAP} cells, window needs {n_cells}")

    rows_data: list[scipy.sparse.csr_matrix] = []
    rhs = [1.0]
    ones = scipy.sparse.csr_matrix(np.ones((1, n_cells)))
    rows_data.append(ones)
    for mu in family.members:
        codes = _cell_codes(size, window, mu.support)
        block = scipy.sparse.csr_matrix(
            (np.ones(n_cells), (codes, np.arange(n_cells))),
            shape=(size ** len(mu.support), n_cells),
        )
        rows_data.append(block)
        rhs.extend(float(x) for x in mu.table)
    a_eq = scipy.sparse.vstack(rows_data)
    b_eq = np.asarray(rhs)

    res = linprog(
        c=np.zeros(n_cells),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:
        return OracleResult(False, None, float("inf"))
    if res.status != 0:
        raise SolverError(f"linear solver failed with status {res.status}: {res.message}")
    x = np.clip(res.x, 0.0, None)
    x = x / x.sum()
    residual = float(np.max(np.abs(a_eq @ x - b_eq)))
    if residual > ORACLE_TOL:
        raise SolverError(f"solver residual {residual} exceeds tolerance {ORACLE_TOL}")
    witness = DenseMeasure._owned(family.alphabet, window, x, "probability", MADE_TOL)
    return OracleResult(True, witness, residual)


# (window length, member supports) of the oracle's verdict sweep: acyclic
# supports first, then the cyclic ones
ORACLE_SHAPES = {
    "pair": (2, [(0,), (0, 1)]),
    "chain": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "star": (4, [(0, 1), (0, 2), (0, 3)]),
    "nested": (4, [(0, 1, 2), (1, 2), (2, 3)]),
    "duplicate": (3, [(0, 1), (0, 1), (1, 2)]),
    "uncovered": (6, [(0, 2), (2, 4)]),
    "tree_of_triples": (6, [(0, 1, 2), (2, 3, 4), (1, 2, 4), (4, 5)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "square": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "ring_of_triples": (6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),
}
CYCLIC_SHAPES = ("triangle", "square", "ring_of_triples")


def shaped_family(rng, size: int, shape: str, zero: bool, shift: float):
    """Projections of one random measure on the window onto the shape's
    supports; ``zero`` empties symbol 0 of coordinate 1, so overlaps
    through it have zero-mass cells; ``shift`` moves that mass from the
    largest cell of one member to its smallest."""
    length, supports = ORACLE_SHAPES[shape]
    alphabet = Alphabet(size)
    table = rng.random((size,) * length)
    if zero:
        table[:, 0] = 0.0
    hidden = DenseMeasure(alphabet, range(length), (table / table.sum()).ravel())
    members = [project(hidden, s) for s in supports]
    if shift:
        k = int(rng.integers(len(members)))
        moved = members[k].table.copy()
        moved[np.argmax(moved)] -= shift
        moved[np.argmin(moved)] += shift
        members[k] = DenseMeasure(alphabet, members[k].support, moved)
    return MarginalFamily(alphabet, tuple(members), 0.1, length), range(length)


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


def paint_names_reference(chain, n_rows: int, seed: int) -> np.ndarray:
    """Reference for ``towers._paint_names``: one slot-major name table, the
    groups of each step taken by ``np.unique`` of their codes and each found
    by its own mask."""
    size = chain.family.alphabet.size
    window = list(chain.window)
    col_of = {n: c for c, n in enumerate(window)}
    names = np.zeros((n_rows, len(window)), dtype=np.int16)
    for step in chain.steps:
        col = col_of[step.index]
        rows, mass = conditional_rows(step.sigma, step.index)
        if np.any(mass <= 0.0):
            raise SingularityError(f"kernel at coordinate {step.index} conditions on a zero-mass cell")
        cond = rows / mass[:, None]
        group_codes = np.zeros(n_rows, dtype=np.int64)
        for i in step.r_bar:
            group_codes = group_codes * size + names[:, col_of[i]]
        for code in np.unique(group_codes):
            members = np.flatnonzero(group_codes == code)
            counts = _apportion(cond[code], len(members))
            rng = np.random.default_rng((seed, step.index, int(code)))
            members = members[rng.permutation(len(members))]
            start = 0
            for symbol, cnt in enumerate(counts):
                names[members[start : start + cnt], col] = symbol
                start += cnt
    return names


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
