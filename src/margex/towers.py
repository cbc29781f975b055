"""Finite towers, name distributions, correcting measures, and painting.

A tower is a column of ``height`` fibers, each carrying the same number of
equal-mass atoms, glued by bijective transfer maps from each level to the
next. A labeled partition assigns a symbol to every atom of every level.
Reading the symbols along an atom's orbit through a window of levels gives
its name; the empirical law of names over a window is exact because atoms
have equal mass.

The paint step rewrites the labels above a thin slice of the base so that the
window laws of the new partition become exact products of the per-level
symbol distributions, up to a reported quantization gap. Painting never
materializes the full-height name law; it walks the kernel form of the window
extension and apportions atoms conditionally, which keeps the per-level
quantization error at ``|A| / |B0|`` independent of the height.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    MixingSupplyError,
    PositivityError,
    QuantizationError,
    SingularityError,
    WindowError,
)
from .extension import ChainExtension, extend_family_chain
from .measures import (
    DEFAULT_TOL,
    GLUE_FLOOR,
    MADE_TOL,
    ROUND_TOL,
    Alphabet,
    DenseMeasure,
    IndexLike,
    IndexSet,
    MarginalFamily,
    _cell_count,
    _conditional_gap,
    _report,
    _spec_int,
    _zero_mass_atom,
    conditional_rows,
    product_measure,
    project,
    sup_distance,
)

# height x atom_count; 2^28 admits a 256-level tower over 2^20 atoms
TOWER_CELL_CAP = 2**28
# cells of one packed count: windows are counted together while their joint fits
PACK_CELLS = 2**8
# symbols of a partition's alphabet: labels are int16
LABEL_CAP = 2**15


def _checked_indices(values, bound: int, name: str) -> np.ndarray:
    """``values`` as an array, each entry checked to be an integer in
    ``[0, bound)`` before any narrowing cast could truncate or wrap it."""
    table = np.asarray(values)
    kind = table.dtype.kind
    if kind not in "biuf" or (kind == "f" and not np.array_equal(table, np.trunc(table))):
        raise DomainError(f"{name} must be integers")
    if table.size and (table.min() < 0 or table.max() >= bound):
        raise DomainError(f"{name} outside [0, {bound})")
    return table


def _check_tower_cells(height: int, atoms: int) -> None:
    """Reject a tower whose per-level atom tables would exceed the cap."""
    if height * atoms > TOWER_CELL_CAP:
        raise CapacityError(
            f"tower of height {height} over {atoms} atoms has {height * atoms} cells "
            f"(cap {TOWER_CELL_CAP})"
        )


@dataclass(eq=False)
class TowerSpec:
    """A tower of ``height`` fibers of ``atom_count`` equal-mass atoms each,
    with bijective transfer maps.

    ``transfer[j]`` maps the atom index at level ``j`` to its image index at
    level ``j + 1``; ``None`` means the identity at every step. The tower keeps
    only their composition, the read-only ``positions[j][b]``: the level-``j``
    index of the atom based at ``b``. ``in_e`` and ``in_e1`` flag shifts whose
    windows are exempt from independence claims (established by the caller
    from measured defects).
    """

    height: int
    atom_count: int
    transfer: InitVar[np.ndarray | None] = None
    in_e: np.ndarray | None = None
    in_e1: np.ndarray | None = None
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, transfer):
        n = self.atom_count
        if n < 1:
            raise DomainError(f"fiber needs at least one atom, got {n}")
        if self.height < 1:
            raise DomainError(f"tower height must be >= 1, got {self.height}")
        _check_tower_cells(self.height, n)
        pos = np.empty((self.height, n), dtype=np.int32)
        pos[0] = np.arange(n, dtype=np.int32)
        if transfer is None:
            pos[1:] = pos[0]
        else:
            transfer = _checked_indices(transfer, n, "transfer").astype(np.int32, copy=False)
            if transfer.shape != (self.height - 1, n):
                raise DomainError(
                    f"transfer must have shape {(self.height - 1, n)}, got {transfer.shape}"
                )
            hit = np.empty(n, dtype=bool)
            for j, step in enumerate(transfer):
                hit.fill(False)
                hit[step] = True
                if not hit.all():
                    raise DomainError(f"transfer at level {j} is not a bijection")
                pos[j + 1] = step[pos[j]]
        pos.setflags(write=False)
        self.positions = pos
        self._set_flags(self.in_e, self.in_e1)

    def _set_flags(self, in_e, in_e1) -> None:
        for name, flags in (("in_e", in_e), ("in_e1", in_e1)):
            if flags is None:
                flags = np.zeros(self.height, dtype=bool)
            else:
                flags = _checked_indices(flags, 2, name).astype(bool)
                if flags.shape != (self.height,):
                    raise DomainError(f"{name} must have one flag per level")
            setattr(self, name, flags)

    def with_flags(
        self, in_e: np.ndarray | None = None, in_e1: np.ndarray | None = None
    ) -> "TowerSpec":
        """This tower with other exemption flags (``None`` copies the current
        ones), sharing the read-only positions table."""
        tower = copy.copy(self)
        tower._set_flags(self.in_e if in_e is None else in_e, self.in_e1 if in_e1 is None else in_e1)
        return tower


def build_tower_from_base(
    orbit: np.ndarray,
    height: int,
    atom_count: int,
    fiber_rule: str = "plus_minus_shift",
    seed: int = 0,
) -> TowerSpec:
    """Tower whose transfer maps follow a base orbit.

    ``fiber_rule`` is one of ``identity``, ``plus_minus_shift`` (rotate the
    atom ring by the base symbol, the two-sided shift at atom resolution; the
    only rule that reads ``orbit``), or ``seeded_permutation`` (a fresh
    permutation per level step from ``default_rng(seed)``, in level order).
    """
    _check_tower_cells(height, atom_count)
    transfer = None
    if fiber_rule == "plus_minus_shift":
        if len(orbit) < height:
            raise DomainError(f"orbit of length {len(orbit)} is shorter than the tower ({height})")
        shifts = np.array([_spec_int(orbit[j], "orbit symbol") for j in range(height - 1)], dtype=np.int64)
        transfer = (np.arange(atom_count) + shifts[:, None]) % atom_count
    elif fiber_rule == "seeded_permutation":
        rng = np.random.default_rng(seed)
        transfer = np.empty((max(height - 1, 0), atom_count), dtype=np.int32)
        for row in transfer:
            row[:] = rng.permutation(atom_count)
    elif fiber_rule != "identity":
        raise DomainError(f"unknown fiber rule {fiber_rule!r}")
    return TowerSpec(height, atom_count, transfer)


@dataclass(frozen=True, eq=False)
class LabeledPartition:
    """Symbol assignment ``labels[level][atom]`` over a tower's atoms."""

    alphabet: Alphabet
    labels: np.ndarray

    def __post_init__(self):
        # a caller's array is copied, so a partition never aliases it
        object.__setattr__(self, "labels", _label_table(self.alphabet, self.labels, copy=True))

    @classmethod
    def _owned(cls, alphabet: Alphabet, labels: np.ndarray) -> "LabeledPartition":
        """A partition on labels its caller has just made and hands over:
        checked as the constructor checks them, not copied if already int16."""
        out = object.__new__(cls)
        out.__dict__.update(alphabet=alphabet, labels=_label_table(alphabet, labels, copy=False))
        return out

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def atom_count(self) -> int:
        return self.labels.shape[1]

    def distributions(self) -> np.ndarray:
        return _level_counts(self.labels, self.alphabet.size) / self.atom_count

    def min_symbol_mass(self) -> float:
        return float(self.distributions().min())


def _label_symbols(alphabet: Alphabet) -> int:
    """The size of a partition's alphabet, refused past ``LABEL_CAP``."""
    if alphabet.size > LABEL_CAP:
        raise DomainError(f"alphabet of {alphabet.size} symbols exceeds the int16 label cap 2^15")
    return alphabet.size


def _label_table(alphabet: Alphabet, labels, copy: bool) -> np.ndarray:
    """Labels as a read-only int16 table, checked before the narrowing cast."""
    labels = _checked_indices(labels, _label_symbols(alphabet), "labels")
    if labels.ndim != 2:
        raise DomainError("labels must be a (height, atom_count) array")
    labels = labels.astype(np.int16, copy=copy)
    labels.setflags(write=False)
    return labels


def base_aligned_labels(tower: TowerSpec, partition: LabeledPartition) -> np.ndarray:
    """Labels re-indexed by base atom: row ``j`` is the level-``j`` symbol map
    composed with the orbit of each base atom, gathered one row at a time.

    The result is a fresh array that the caller owns and may write into.
    Paint only reads it: it re-measures its windows from the kept counts plus
    the painted names, and writes the painted atoms back level by level."""
    return _aligned_rows(tower, partition, range(tower.height))


def _aligned_rows(tower: TowerSpec, partition: LabeledPartition, levels: Sequence[int]) -> np.ndarray:
    """The rows ``levels`` of :func:`base_aligned_labels`, in that order."""
    if partition.height != tower.height or partition.atom_count != tower.atom_count:
        raise DomainError("partition does not match the tower")
    out = np.empty((len(levels), tower.atom_count), dtype=partition.labels.dtype)
    for row, lvl in zip(out, levels):
        np.take(partition.labels[lvl], tower.positions[lvl], out=row)
    return out


def labels_from_base(tower: TowerSpec, base_labels: np.ndarray, alphabet: Alphabet) -> LabeledPartition:
    """Inverse of :func:`base_aligned_labels`."""
    out = np.empty_like(base_labels)
    np.put_along_axis(out, tower.positions, base_labels, axis=1)
    return LabeledPartition._owned(alphabet, out)


def uniform_random_partition(tower: TowerSpec, alphabet: Alphabet, seed: int) -> LabeledPartition:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, _label_symbols(alphabet), size=(tower.height, tower.atom_count), dtype=np.int16)
    return LabeledPartition._owned(alphabet, labels)


def _window_offsets(offsets: IndexLike) -> IndexSet:
    """Offsets of a window read upward from each shift: nonempty, none below 0."""
    offsets = IndexSet.of(offsets)
    if not offsets:
        raise DomainError("offsets must be nonempty")
    if min(offsets) < 0:
        raise DomainError(f"offsets must be >= 0, got {min(offsets)}")
    return offsets


def _window_codes(base_labels: np.ndarray, levels: Sequence[int], size: int) -> np.ndarray:
    """Each atom's lexicographic cell on ``levels``, in the narrowest signed
    dtype that holds ``size^len(levels) - 1`` and the multiplier ``size``.
    Callers bound that: ``_window_counts`` packs at most ``PACK_CELLS`` cells
    into a code, or one window under ``CELL_CAP``, and ``_painted_split`` packs
    at most ``LABEL_CAP`` cells into each key."""
    dtype = np.min_scalar_type(-max(size ** len(levels), size + 1))
    codes = np.zeros(base_labels.shape[1], dtype=dtype)
    for lvl in levels:
        codes *= size
        codes += base_labels[lvl]
    return codes


def _window_counts(base: np.ndarray, windows: np.ndarray, size: int) -> np.ndarray:
    """Joint counts of ``base``'s atoms on each row of the ``(n, w)`` level
    array ``windows``: row ``r`` counts the lexicographic cells on
    ``windows[r]``, as int64.

    The only place ``towers`` counts. One ``bincount`` counts a group of
    consecutive windows, as many as keep ``cells^k <= PACK_CELLS`` (one when a
    window alone has more cells), through the code of their concatenated
    levels; each window's row is that joint's marginal, so the counts are
    exact."""
    windows = np.asarray(windows)
    cells = _cell_count(size, range(windows.shape[1]))
    per_code = max([k for k in range(1, PACK_CELLS.bit_length()) if cells**k <= PACK_CELLS], default=1)
    out = np.empty((len(windows), cells), dtype=np.int64)
    for lo in range(0, len(windows), per_code):
        group = windows[lo : lo + per_code]
        joint = np.bincount(_window_codes(base, group.ravel(), size), minlength=cells ** len(group))
        for p in range(len(group)):
            out[lo + p] = joint.reshape(cells**p, cells, -1).sum(axis=(0, 2))
    return out


def _shifted(shifts: Sequence[int], offsets: IndexSet) -> np.ndarray:
    """The windows ``shift + offsets``, one row of levels per shift."""
    return np.add.outer(np.asarray(shifts, dtype=np.intp), offsets.indices)


def _level_counts(base: np.ndarray, size: int) -> np.ndarray:
    """Symbol counts per level: row ``j`` counts the symbols of ``base[j]``."""
    return _window_counts(base, np.arange(len(base))[:, None], size)


def name_distribution(
    tower: TowerSpec,
    partition: LabeledPartition,
    base_level: int,
    offsets: IndexLike,
) -> DenseMeasure:
    """Law of the names read at ``base_level + k`` for ``k`` in ``offsets``.

    Atoms have equal mass, so the empirical law is exact. The result lives on
    the shifted support ``base_level + offsets``.
    """
    offsets = IndexSet.of(offsets)
    if not offsets:
        raise DomainError("need at least one offset")
    base_level = _spec_int(base_level, "base_level")
    if (
        min(base_level, base_level + min(offsets)) < 0
        or base_level + max(offsets) >= tower.height
    ):
        raise WindowError(
            f"window {base_level}+{tuple(offsets)} exceeds tower height {tower.height}"
        )
    rows = _aligned_rows(tower, partition, [base_level + k for k in offsets])
    counts = _window_counts(rows, np.arange(len(offsets))[None], partition.alphabet.size)[0]
    law = counts / counts.sum()
    return DenseMeasure._owned(partition.alphabet, offsets.shift(base_level), law, "probability", ROUND_TOL)


def _blend_correction(
    prod: np.ndarray, nu: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``xi`` with ``(1 - t) * nu + t * xi = prod`` for stacked rows
    ``prod`` and ``nu``, each row's smallest cell and that cell's value."""
    xi = (prod - (1.0 - t) * nu) / t
    worst = np.argmin(xi, axis=1)
    return xi, worst, xi[np.arange(len(xi)), worst]


def correcting_measure(
    nu: DenseMeasure,
    marginals: Sequence[DenseMeasure] | None,
    t: float,
    tol: float = DEFAULT_TOL,
) -> DenseMeasure:
    """The measure whose ``t``-blend with ``nu`` is the product of marginals.

    Solves ``(1 - t) * nu + t * xi = prod(marginals)`` for ``xi``. The given
    marginals must match ``nu``'s own one-dimensional marginals, and the
    deviation of ``nu`` from the product must be small enough that ``xi``
    stays nonnegative; otherwise the offending cell and margin are reported.
    """
    if not (0.0 < t < 1.0):
        raise DomainError(f"blend weight must lie in (0, 1), got {t}")
    if nu.kind != "probability":
        raise DomainError("correcting_measure needs a probability measure")
    if not nu.support:
        raise DomainError("correcting_measure needs a measure on at least one coordinate")
    if marginals is None:
        marginals = [project(nu, (i,)) for i in nu.support]
    else:
        marginals = list(marginals)
        if [tuple(m.support) for m in marginals] != [(i,) for i in nu.support]:
            raise DomainError("marginals must be one-dimensional and aligned with nu's support")
        for m in marginals:
            gap = sup_distance(m, project(nu, m.support))
            if gap > tol:
                raise DomainError(
                    f"marginal on {tuple(m.support)} differs from nu's by {gap}"
                )
    prod = product_measure(marginals)
    xi_rows, worst_rows, margins = _blend_correction(prod.table[None], nu.table[None], t)
    xi_table, worst, margin = xi_rows[0], int(worst_rows[0]), float(margins[0])
    if margin < -max(tol, ROUND_TOL):
        raise PositivityError(
            f"correcting measure has negative cell {worst} with value {margin}; "
            f"the blend weight {t} cannot absorb the deviation from the product",
            margin=margin,
            cell=worst,
        )
    return DenseMeasure._owned(nu.alphabet, nu.support, np.clip(xi_table, 0.0, None), "probability", MADE_TOL)


# -- the painted slice and paint's gate --------------------------------------------

def _systematic_split(sorted_order: np.ndarray, fraction: float) -> np.ndarray:
    """Evenly spread selection of ``floor(n * fraction)`` positions.

    Walking the given order, a position is taken whenever the running quota
    crosses an integer, so every contiguous run of length L contributes its
    proportional share up to one atom.
    """
    n = len(sorted_order)
    marks = np.floor((np.arange(n) + 1) * fraction) - np.floor(np.arange(n) * fraction)
    return sorted_order[marks > 0]


def _painted_split(base: np.ndarray, size: int, fraction: float) -> np.ndarray:
    """Ascending base indices of the painted slice: ``_systematic_split`` along
    a ``lexsort`` of the full-height names (level 0 primary, ties by index).
    Each sort key packs as many consecutive levels as fit in int16, which
    numpy sorts by radix."""
    per_key = max(k for k in range(1, 16) if size**k <= LABEL_CAP)
    starts = range(0, len(base), per_key)
    keys = [_window_codes(base, range(lo, min(lo + per_key, len(base))), size) for lo in starts]
    return np.sort(_systematic_split(np.lexsort(keys[::-1]), fraction))


def _paint_gates(
    base: np.ndarray, painted_base: np.ndarray, shifts: Sequence[int], offsets: IndexSet, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Paint's gate on the window ``shift + offsets`` of every shift, one row
    per shift: the kept part's joint counts, and ``_blend_correction`` at
    weight ``m0 / atoms`` from the kept law to the product of the level laws,
    which are the marginals of the joint counts."""
    atoms, m0 = base.shape[1], painted_base.shape[1]
    windows = _shifted(shifts, offsets)
    full = _window_counts(base, windows, size)
    kept = full - _window_counts(painted_base, windows, size)
    _, prod = _level_product(full.reshape((len(shifts),) + (size,) * len(offsets)), atoms)
    return (kept, *_blend_correction(prod, kept / (atoms - m0), m0 / atoms))


def _level_product(joint: np.ndarray, scale) -> tuple[list[np.ndarray], np.ndarray]:
    """The level laws of each window table of the stack ``joint``, one axis per
    level after the stack axis: the table summed onto each level over
    ``scale`` (``atoms`` for counts, 1 for laws). Also the rows of their
    product, in lexicographic cell order. On a stack of laws these are the
    bits of ``project`` and ``product_of_marginals`` on each law."""
    rows, size = len(joint), joint.shape[-1]
    levels, prod = [], np.ones((rows, 1))
    for a in range(1, joint.ndim):
        levels.append(joint.sum(axis=tuple(b for b in range(1, joint.ndim) if b != a)) / scale)
        prod = (prod[:, :, None] * levels[-1][:, None, :]).reshape(rows, size**a)
    return levels, prod


def _gate(
    tower: TowerSpec, partition: LabeledPartition, window: IndexSet, epsilon: float, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Paint's split and gate at budget ``epsilon`` on ``window``, run once:
    the painted indices, the slice's labels, the flags of the shifts whose
    correcting table has a negative cell, and the gate rows ``[shifts, kept
    counts, xi, margins]`` of the unflagged shifts where ``keep`` holds."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    size = partition.alphabet.size
    cells = _cell_count(size, window)  # a window past the cap is refused even when no atom is painted
    base = base_aligned_labels(tower, partition)
    painted = _painted_split(base, size, epsilon / 10.0)
    painted_base = base[:, painted]
    flags = np.zeros(tower.height, dtype=bool)
    if len(painted) == 0:
        return painted, painted_base, flags, []
    # gate blocks of at most 2^18 cells, so a wide window holds a few rows at once
    shifts, rows = range(max(tower.height - max(window), 0)), max(1, 2**18 // cells)
    gates = []
    for block in (shifts[lo : lo + rows] for lo in range(0, len(shifts), rows)):
        kept, xi, _, margins = _paint_gates(base, painted_base, block, window, size)
        flags[block.start : block.stop] = margins < 0.0
        take = keep[block.start : block.stop] & ~flags[block.start : block.stop]
        gates.append([np.asarray(block)[take], kept[take], xi[take], margins[take]])
    return painted, painted_base, flags, [np.concatenate(col) for col in zip(*gates)]


def flag_dependent_shifts(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    epsilon: float,
) -> np.ndarray:
    """Flags for the shifts on which paint's gate at budget ``epsilon``, with
    window plus fresh time equal to ``offsets``, finds a negative cell in the
    correcting table: the shifts ``paint_tower`` adds to ``in_e1``."""
    return _gate(tower, partition, _window_offsets(offsets), epsilon, np.zeros(tower.height, dtype=bool))[2]


# -- painting -----------------------------------------------------------------------

def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of ``total`` by largest remainder.

    Ties go to the smaller index, so the outcome is deterministic.
    """
    w = np.clip(np.asarray(weights, dtype=np.float64), 0.0, None)
    quota = w / w.sum() * total
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:short]] += 1
    return base


def _paint_names(chain: ChainExtension, n_rows: int, seed: int) -> np.ndarray:
    """Assign one full-height name to each of ``n_rows`` slots: row ``s`` is
    slot ``s``'s name, one column per coordinate of the chain's window.

    Walks the chain steps in coordinate order; at each coordinate the slots
    are grouped by their already-assigned symbols on the step's conditioning
    window, and each group is split by largest remainder according to the
    kernel row, in a per-group seeded deterministic order. The groups are the
    distinct codes of one sort, in ascending order. The names are built one
    contiguous row per coordinate, and returned as that table's transpose.
    """
    size = chain.family.alphabet.size
    row_of = {n: r for r, n in enumerate(chain.window)}
    names = np.zeros((len(row_of), n_rows), dtype=np.int16)
    for step in chain.steps:
        row = names[row_of[step.index]]
        # the step's kernel: one row per cell of A^r_bar, the conditional law of its coordinate
        rows, mass = conditional_rows(step.sigma, step.index)
        if np.any(mass <= 0.0):
            raise SingularityError(f"kernel at coordinate {step.index} conditions on a zero-mass cell")
        cond = rows / mass[:, None]
        group_codes = np.zeros(n_rows, dtype=np.int64)
        for i in step.r_bar:
            group_codes = group_codes * size + names[row_of[i]]
        ordered = np.sort(group_codes)
        for code in ordered[np.diff(ordered, prepend=-1) != 0]:
            members = np.flatnonzero(group_codes == code)
            counts = _apportion(cond[code], len(members))
            rng = np.random.default_rng((seed, step.index, int(code)))
            members = members[rng.permutation(len(members))]
            start = 0
            for symbol, cnt in enumerate(counts):
                row[members[start : start + cnt]] = symbol
                start += cnt
    return names.T


def _window_gaps(
    counts: np.ndarray, shifts: list[int], window: IndexSet, size: int
) -> tuple[dict[int, float], dict[int, float]]:
    """Each law of the windows ``shift + window``, from their count rows
    ``counts``: its sup distance to the product of its level laws and its
    ascending-order defect, keyed by shift, all windows at once. These are
    the bits of ``sup_distance(nu, product_of_marginals(nu))`` and
    ``delta_independence(nu, "ascending")`` on each law ``nu``, and the first
    window that conditions on a zero-mass atom raises as the latter would."""
    laws = counts / counts.sum(axis=1, keepdims=True)
    joint = laws.reshape((len(laws),) + (size,) * len(window))
    levels, prod = _level_product(joint, 1)
    defects, zero = np.zeros(len(laws)), np.zeros((len(laws), len(window)), dtype=bool)
    for i in range(1, len(window)):
        # each window's law on its first i + 1 levels, one row per atom of the first i
        rows = joint.sum(axis=tuple(range(i + 2, joint.ndim))).reshape(len(laws), size**i, size)
        gap, zero[:, i] = _conditional_gap(rows, rows.sum(axis=-1), levels[i][:, None, :])
        defects = np.maximum(defects, gap)
    if zero.any():
        j = int(np.argmax(zero.any(axis=1)))
        raise _zero_mass_atom(window.shift(shifts[j]).indices, int(np.argmax(zero[j])))
    return dict(zip(shifts, np.abs(laws - prod).max(axis=1).tolist())), dict(zip(shifts, defects.tolist()))


@dataclass(frozen=True, eq=False)
class PaintReport:
    """Outcome of one paint step."""

    q: LabeledPartition
    chosen_m: int
    offsets: IndexSet
    e1_mass: float
    e2_mass: float
    e3_mass: float
    per_level_distance: np.ndarray
    per_level_distribution_gap: np.ndarray
    window_defects: dict[int, float]
    window_sup_gaps: dict[int, float]
    positivity_margins: dict[int, float]
    quantization_level_bound: float
    painted_fraction: float
    painted_atoms: int
    budget_ok: dict[str, bool]
    degenerate: bool
    engine_max_defect: float
    engine_max_b_norm: float

    def error_mass(self) -> float:
        return self.e1_mass + self.e2_mass + self.e3_mass

    def to_dict(self) -> dict:
        return {**_report(self, "q"), "error_mass": self.error_mass()}


def paint_tower(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    m: int,
    epsilon: float,
    alpha: float,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PaintReport:
    """One induction step: make the windows over ``offsets + {m}`` exactly
    independent on unflagged shifts, changing only a thin slice of the tower.

    The base is split into a painted part of mass ``epsilon/10`` (spread
    evenly through every name class) and a kept part. For each shift the
    kept part's window law is corrected toward the product of the full
    per-level distributions. The shifts whose correcting table has a negative
    cell are the ones ``flag_dependent_shifts`` flags; this same gate pass
    adds them to ``in_e1`` and leaves them unclaimed. The correcting laws of
    the other shifts are extended to a single column law in kernel form and
    painted onto the slice atom by atom. Only the slice is written back, and
    the reported counts and window laws are the kept part's counts plus
    those of the painted names.

    Per-level distributions survive up to the reported quantization bound,
    per-level distances stay below the painted fraction, and flagged shifts
    plus the top ``m`` levels are exempt.
    """
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    offsets = _window_offsets(offsets)
    if m <= max(offsets):
        raise DomainError(f"fresh time {m} must exceed max offset {max(offsets)}")
    if m >= tower.height:
        raise WindowError(f"fresh time {m} does not fit in a tower of height {tower.height}")
    # every aligned row permutes its label row, so these are the base's counts
    min_mass = float(_level_counts(partition.labels, partition.alphabet.size).min()) / tower.atom_count
    if min_mass < alpha - tol:
        raise DomainError(f"some level has a symbol of mass {min_mass} < alpha {alpha}")
    gate = _gate(tower, partition, offsets.union((m,)), epsilon, ~(tower.in_e | tower.in_e1))
    return _paint(tower, partition, offsets, m, epsilon, seed, tol, gate, tower.in_e1 | gate[2])


def _paint(
    tower: TowerSpec, partition: LabeledPartition, offsets: IndexSet, m: int, epsilon: float, seed: int,
    tol: float, gate: tuple, in_e1: np.ndarray,
) -> PaintReport:
    """The paint step of :func:`paint_tower` from ``_gate``'s pass on the window
    ``offsets + {m}``, where ``in_e1`` flags every shift it rejected."""
    height, atoms, size = tower.height, tower.atom_count, partition.alphabet.size
    window = offsets.union((m,))
    e1_mass = float(np.sum(in_e1[: height - m])) / height
    e3_mass = m / height
    budget_ok = {
        "height": bool(height > 10.0 * m / epsilon),
        "e1": bool(e1_mass < epsilon / 10.0),
        "e3": bool(e3_mass < epsilon / 10.0),
    }

    painted, painted_base, _, rows = gate
    m0 = len(painted)
    # an empty slice paints nothing: the report keeps these values
    q, per_level_distance, per_level_gap = partition, np.zeros(height), np.zeros(height)
    valid, margins = [], np.zeros(0)
    max_defect = max_b_norm = 0.0
    window_defects: dict[int, float] = {}
    window_sup_gaps: dict[int, float] = {}
    if m0:
        painted_counts = _level_counts(painted_base, size)
        if painted_counts.min() <= 0:
            raise QuantizationError(
                "the painted slice misses a symbol on some level; increase the atom count"
            )
        slice_marginals = [
            DenseMeasure._owned(partition.alphabet, IndexSet((lvl,)), counts / m0, "probability", ROUND_TOL)
            for lvl, counts in enumerate(painted_counts)
        ]
        valid, kept_counts, xi_rows, margins = rows[0].tolist(), *rows[1:]
        members = [
            DenseMeasure._owned(partition.alphabet, window.shift(j), xi, "probability", MADE_TOL)
            for j, xi in zip(valid, xi_rows)
        ]
        members.extend(slice_marginals)

        alpha_family = min(mu.min_entry() for mu in slice_marginals)
        family = MarginalFamily(
            partition.alphabet,
            tuple(members),
            min(alpha_family, 0.5),
            max((len(window) - 1) * len(window) + 1, 2),
        )
        # positivity and the prescription identities are enforced inside the chain;
        # per-step defects are amplified member defects and are reported, not gated.
        chain = extend_family_chain(family, range(height), beta=None, tol=max(tol, GLUE_FLOOR))
        max_defect = chain.max_beta_defect()
        max_b_norm = max((s.b_norm for s in chain.steps), default=0.0)

        names = _paint_names(chain, m0, seed).T
        per_level_distance = np.count_nonzero(names != painted_base, axis=1) / atoms
        # only the painted atoms change: write them at their level-j indices, and
        # update counts and window laws by the painted names less the old slice
        labels = partition.labels.copy()
        for j, pos in enumerate(tower.positions):
            labels[j, pos[painted]] = names[j]
        q = LabeledPartition._owned(partition.alphabet, labels)
        per_level_gap = np.abs(_level_counts(names, size) - painted_counts).max(axis=1) / atoms

        counts = kept_counts + _window_counts(names, _shifted(valid, window), size)
        window_sup_gaps, window_defects = _window_gaps(counts, valid, window, size)

    return PaintReport(
        q=q,
        chosen_m=m,
        offsets=offsets,
        e1_mass=e1_mass,
        e2_mass=0.0,  # a finite tower leaves no residual mass
        e3_mass=e3_mass,
        per_level_distance=per_level_distance,
        per_level_distribution_gap=per_level_gap,
        window_defects=window_defects,
        window_sup_gaps=window_sup_gaps,
        positivity_margins=dict(zip(valid, margins.tolist())),
        quantization_level_bound=size / m0 if m0 else float("inf"),
        painted_fraction=m0 / atoms,
        painted_atoms=m0,
        budget_ok=budget_ok,
        degenerate=not m0,
        engine_max_defect=max_defect,
        engine_max_b_norm=max_b_norm,
    )


# -- the induction driver --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KrengelResult:
    q: LabeledPartition
    chosen_times: tuple[int, ...]
    cumulative_error_mass: float
    cumulative_distance: np.ndarray
    reports: tuple[PaintReport, ...]

    def to_dict(self) -> dict:
        return _report(self, "q")


def iterate_krengel(
    tower: TowerSpec,
    partition: LabeledPartition,
    mixing_times: Sequence[int],
    epsilon: float,
    steps: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> KrengelResult:
    """Repeated painting with geometric budgets ``epsilon / 2^j``.

    At step ``j`` the driver runs paint's gate once per candidate time and
    takes the first unused one whose flags outside the exempt set cover mass
    at most ``epsilon / 2^j / 10``; the exempt set starts as the tower's
    ``in_e | in_e1``. It paints from that same gate pass, adds the flagged
    levels and the top levels of the step to the exempt set, and appends the
    chosen time to the window. Raises :class:`~margex.errors.MixingSupplyError`
    naming the step when no candidate qualifies.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    current = partition
    in_e = tower.in_e | tower.in_e1
    window = [0]
    reports: list[PaintReport] = []
    cumulative = np.zeros(tower.height)
    for j in range(1, steps + 1):
        eps_j = epsilon / 2**j
        accepted = None
        for m in mixing_times:
            if not max(window) < m < tower.height:
                continue
            gate = _gate(tower, current, IndexSet.of(window).union((m,)), eps_j, ~in_e)
            if float((gate[2] & ~in_e).sum()) / tower.height <= eps_j / 10.0 + ROUND_TOL:
                accepted = (m, gate)
                break
        if accepted is None:
            raise MixingSupplyError(
                f"no supplied time shows enough measured mixing at step {j} "
                f"(budget {eps_j / 10.0})",
                step=j,
            )
        m, gate = accepted
        flags = gate[2]
        report = _paint(tower, current, IndexSet.of(window), m, eps_j, seed + j, tol, gate, flags & ~in_e)
        cumulative += report.per_level_distance
        current = report.q
        in_e |= flags
        in_e[tower.height - m :] = True
        window.append(m)
        reports.append(report)
    return KrengelResult(
        q=current,
        chosen_times=tuple(window[1:]),
        cumulative_error_mass=float(in_e.sum()) / tower.height,
        cumulative_distance=cumulative,
        reports=tuple(reports),
    )
