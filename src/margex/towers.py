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
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
from .extension import ChainExtension, ExtensionStep, extend_family_chain
from .measures import (
    DEFAULT_TOL,
    Alphabet,
    DenseMeasure,
    IndexLike,
    IndexSet,
    MarginalFamily,
    conditional_rows,
    delta_independence,
    product_measure,
    sup_distance,
)

# height x atom_count; 2^28 admits a 256-level tower over 2^20 atoms
TOWER_CELL_CAP = 2**28


def _check_tower_cells(height: int, atoms: int) -> None:
    """Reject a tower whose per-level atom tables would exceed the cap."""
    if height * atoms > TOWER_CELL_CAP:
        raise CapacityError(
            f"tower of height {height} over {atoms} atoms has {height * atoms} cells "
            f"(cap {TOWER_CELL_CAP})"
        )


@dataclass(frozen=True)
class FiberSpace:
    """A fiber approximated by equal-mass atoms."""

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 1:
            raise DomainError(f"fiber needs at least one atom, got {self.atom_count}")


@dataclass(eq=False)
class TowerSpec:
    """A tower of ``height`` equal fibers with bijective transfer maps.

    ``transfer[j]`` maps the atom index at level ``j`` to its image index at
    level ``j + 1``; ``None`` means the identity at every step. ``in_e`` and
    ``in_e1`` flag shifts whose windows are exempt from independence claims
    (established by the caller from measured defects). ``residual_mass`` is
    the mass not covered by the tower. The transfer maps are copied, checked and kept read-only.
    """

    height: int
    fiber: FiberSpace
    transfer: np.ndarray | None = None
    in_e: np.ndarray | None = None
    in_e1: np.ndarray | None = None
    residual_mass: float = 0.0
    _positions: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.height < 1:
            raise DomainError(f"tower height must be >= 1, got {self.height}")
        n = self.fiber.atom_count
        _check_tower_cells(self.height, n)
        if self.transfer is not None:
            transfer = np.array(self.transfer, dtype=np.int32)
            if transfer.shape != (self.height - 1, n):
                raise DomainError(
                    f"transfer must have shape {(self.height - 1, n)}, got {transfer.shape}"
                )
            for j in range(self.height - 1):
                if np.bincount(transfer[j], minlength=n).max() != 1:
                    raise DomainError(f"transfer at level {j} is not a bijection")
            transfer.setflags(write=False)
            self.transfer = transfer
        self._set_flags(self.in_e, self.in_e1)
        if not 0.0 <= self.residual_mass < 1.0:
            raise DomainError("residual mass must lie in [0, 1)")

    def _set_flags(self, in_e, in_e1) -> None:
        for name, flags in (("in_e", in_e), ("in_e1", in_e1)):
            if flags is None:
                flags = np.zeros(self.height, dtype=bool)
            else:
                flags = np.asarray(flags, dtype=bool)
                if flags.shape != (self.height,):
                    raise DomainError(f"{name} must have one flag per level")
            setattr(self, name, flags)

    @property
    def atom_count(self) -> int:
        return self.fiber.atom_count

    def positions(self) -> np.ndarray:
        """``positions[j][b]``: level-``j`` index of the atom based at ``b``."""
        if self._positions is None:
            n = self.atom_count
            pos = np.empty((self.height, n), dtype=np.int32)
            pos[0] = np.arange(n, dtype=np.int32)
            for j in range(self.height - 1):
                step = self.transfer[j] if self.transfer is not None else None
                pos[j + 1] = pos[j] if step is None else step[pos[j]]
            pos.setflags(write=False)
            self._positions = pos
        return self._positions

    def with_flags(
        self, in_e: np.ndarray | None = None, in_e1: np.ndarray | None = None
    ) -> "TowerSpec":
        """This tower with other exemption flags (``None`` copies the current
        ones), sharing the checked read-only transfer and positions table."""
        self.positions()
        tower = copy.copy(self)
        tower._set_flags(
            self.in_e.copy() if in_e is None else in_e,
            self.in_e1.copy() if in_e1 is None else in_e1,
        )
        return tower


def seeded_permutation_transfer(height: int, atoms: int, seed: int) -> np.ndarray:
    """Transfer maps of a tower whose every level step is a fresh seeded
    permutation of the atoms, drawn in level order; ``(0, atoms)`` at height 1."""
    _check_tower_cells(height, atoms)
    rng = np.random.default_rng(seed)
    transfer = np.empty((max(height - 1, 0), atoms), dtype=np.int32)
    for row in transfer:
        row[:] = rng.permutation(atoms)
    return transfer


@dataclass(frozen=True, eq=False)
class LabeledPartition:
    """Symbol assignment ``labels[level][atom]`` over a tower's atoms."""

    alphabet: Alphabet
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int16)
        if labels.ndim != 2:
            raise DomainError("labels must be a (height, atom_count) array")
        if labels.size and (labels.min() < 0 or labels.max() >= self.alphabet.size):
            raise DomainError("labels outside the alphabet")
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def atom_count(self) -> int:
        return self.labels.shape[1]

    def level_distribution(self, level: int) -> np.ndarray:
        counts = np.bincount(self.labels[level], minlength=self.alphabet.size)
        return counts / self.atom_count

    def distributions(self) -> np.ndarray:
        return _level_counts(self.labels, self.alphabet.size) / self.atom_count

    def min_symbol_mass(self) -> float:
        return float(self.distributions().min())


def base_aligned_labels(tower: TowerSpec, partition: LabeledPartition) -> np.ndarray:
    """Labels re-indexed by base atom: row ``j`` is the level-``j`` symbol map
    composed with the orbit of each base atom."""
    if partition.height != tower.height or partition.atom_count != tower.atom_count:
        raise DomainError("partition does not match the tower")
    pos = tower.positions()
    return np.take_along_axis(partition.labels, pos, axis=1)


def labels_from_base(tower: TowerSpec, base_labels: np.ndarray, alphabet: Alphabet) -> LabeledPartition:
    """Inverse of :func:`base_aligned_labels`."""
    pos = tower.positions()
    out = np.empty_like(base_labels)
    np.put_along_axis(out, pos, base_labels, axis=1)
    return LabeledPartition(alphabet, out)


def uniform_random_partition(tower: TowerSpec, alphabet: Alphabet, seed: int) -> LabeledPartition:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, alphabet.size, size=(tower.height, tower.atom_count), dtype=np.int16)
    return LabeledPartition(alphabet, labels)


def _window_codes(base_labels: np.ndarray, levels: Sequence[int], size: int) -> np.ndarray:
    codes = np.zeros(base_labels.shape[1], dtype=np.int64)
    for lvl in levels:
        codes = codes * size + base_labels[lvl]
    return codes


def _joint_counts(base: np.ndarray, levels: Sequence[int], size: int) -> np.ndarray:
    codes = _window_codes(base, levels, size)
    return np.bincount(codes, minlength=size ** len(levels))


def _level_counts(base: np.ndarray, size: int) -> np.ndarray:
    """Symbol counts per level: row ``j`` counts the symbols of ``base[j]``."""
    return np.stack([np.bincount(row, minlength=size) for row in base])


def _level_product(counts: np.ndarray, levels: Sequence[int], atoms: int) -> np.ndarray:
    """Flat product table of the level laws ``counts[lvl] / atoms``, first level first."""
    prod = np.ones(1)
    for lvl in levels:
        prod = np.multiply.outer(prod, counts[lvl] / atoms).reshape(-1)
    return prod


def _name_law(base: np.ndarray, alphabet: Alphabet, shift: int, offsets: IndexSet) -> DenseMeasure:
    """Law of the names read at ``shift + k`` for ``k`` in ``offsets`` from
    base-aligned labels, on the support ``shift + offsets``."""
    levels = [shift + k for k in offsets]
    return DenseMeasure(
        alphabet,
        offsets.shift(shift),
        _joint_counts(base, levels, alphabet.size) / base.shape[1],
        "probability",
        tol=1e-12,
    )


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
    if base_level < 0 or base_level + max(offsets) >= tower.height:
        raise WindowError(
            f"window {base_level}+{tuple(offsets)} exceeds tower height {tower.height}"
        )
    base = base_aligned_labels(tower, partition)
    return _name_law(base, partition.alphabet, base_level, offsets)


def choose_eta(alpha: float, k: int, delta: float, epsilon: float) -> float:
    """Mixing-defect budget that lets a blend of weight ``epsilon/10`` restore
    exact independence while keeping the corrected law's defect below ``delta``."""
    if alpha <= 0 or delta <= 0 or epsilon <= 0 or k <= 0:
        raise DomainError("all arguments must be positive")
    return 0.1 * (alpha ** (k + 1) / 2.0) * delta * epsilon


def _blend_correction(
    prod: np.ndarray, nu: np.ndarray, t: float
) -> tuple[np.ndarray, int, float]:
    """The table ``xi`` with ``(1 - t) * nu + t * xi = prod``, its smallest
    cell and that cell's value."""
    xi = (prod - (1.0 - t) * nu) / t
    worst = int(np.argmin(xi))
    return xi, worst, float(xi[worst])


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
    if marginals is None:
        marginals = [nu.project((i,)) for i in nu.support]
    else:
        marginals = list(marginals)
        if [tuple(m.support) for m in marginals] != [(i,) for i in nu.support]:
            raise DomainError("marginals must be one-dimensional and aligned with nu's support")
        for m in marginals:
            gap = sup_distance(m, nu.project(tuple(m.support)))
            if gap > tol:
                raise DomainError(
                    f"marginal on {tuple(m.support)} differs from nu's by {gap}"
                )
    prod = product_measure(marginals)
    xi_table, worst, margin = _blend_correction(prod.table, nu.table, t)
    if margin < -max(tol, 1e-12):
        raise PositivityError(
            f"correcting measure has negative cell {worst} with value {margin}; "
            f"the blend weight {t} cannot absorb the deviation from the product",
            margin=margin,
            cell=worst,
        )
    return DenseMeasure(nu.alphabet, nu.support, np.clip(xi_table, 0.0, None), "probability", tol=1e-6)


# -- measuring window defects and flagging ----------------------------------------

def window_deviation(
    tower: TowerSpec, partition: LabeledPartition, shift: int, offsets: IndexLike
) -> tuple[float, float]:
    """(sup distance to the product law, worst conditional defect of the last
    offset against the preceding block) for one window."""
    nu = name_distribution(tower, partition, shift, offsets)
    return sup_distance(nu, nu.product_of_marginals()), _conditional_defect(nu)


def _conditional_defect(nu: DenseMeasure) -> float:
    """Worst gap between the law of ``nu``'s last coordinate conditioned on a
    cell of the preceding block and its unconditioned law; 0 on one coordinate."""
    if len(nu.support) == 1:
        return 0.0
    last = max(nu.support)
    rows, mass = conditional_rows(nu, last)
    marg = nu.project((last,)).table
    good = mass > 0
    cond = np.max(np.abs(rows[good] / mass[good, None] - marg[None, :])) if good.any() else np.inf
    return float(cond)


def flag_dependent_shifts(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    epsilon: float,
    eta: float | None = None,
    safety: float = 0.9,
) -> np.ndarray:
    """Flags for shifts whose measured window deviation a paint step at budget
    ``epsilon`` could not absorb.

    A shift is flagged when the amplified deviation ``(10/epsilon - 1) * sup``
    reaches ``safety`` times the smallest product cell (the positivity budget
    of the correcting measure), or when ``eta`` is given and the conditional
    mixing defect exceeds it.

    The labels are aligned to the base once per call, and each shift's
    window law is built once from that alignment.
    """
    offsets = IndexSet.of(offsets)
    base = base_aligned_labels(tower, partition)
    flags = np.zeros(tower.height, dtype=bool)
    amplify = 10.0 / epsilon - 1.0
    for j in range(tower.height - max(offsets)):
        nu = _name_law(base, partition.alphabet, j, offsets)
        prod = nu.product_of_marginals()
        if amplify * sup_distance(nu, prod) >= safety * prod.min_entry():
            flags[j] = True
        elif eta is not None and _conditional_defect(nu) > eta:
            flags[j] = True
    return flags


# -- painting -----------------------------------------------------------------------

def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of ``total`` by largest remainder.

    Ties go to the smaller index, so the outcome is deterministic.
    """
    w = np.clip(np.asarray(weights, dtype=np.float64), 0.0, None)
    s = w.sum()
    if s <= 0.0 or total == 0:
        out = np.zeros(len(w), dtype=np.int64)
        if total:
            out[0] = total
        return out
    quota = w / s * total
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:short]] += 1
    return base


def _systematic_split(sorted_order: np.ndarray, fraction: float) -> np.ndarray:
    """Evenly spread selection of ``floor(n * fraction)`` positions.

    Walking the given order, a position is taken whenever the running quota
    crosses an integer, so every contiguous run of length L contributes its
    proportional share up to one atom.
    """
    n = len(sorted_order)
    marks = np.floor((np.arange(n) + 1) * fraction) - np.floor(np.arange(n) * fraction)
    return sorted_order[marks > 0]


def conditional_table(step: ExtensionStep) -> np.ndarray:
    """Kernel of one chain step: rows are the lexicographic cells of
    ``A^r_bar``, columns the conditional law of the step's coordinate."""
    rows, mass = conditional_rows(step.sigma, step.index)
    if np.any(mass <= 0.0):
        raise SingularityError(
            f"kernel at coordinate {step.index} conditions on a zero-mass cell"
        )
    return rows / mass[:, None]


def _paint_names(chain: ChainExtension, n_rows: int, seed: int) -> np.ndarray:
    """Assign one full-height name to each of ``n_rows`` slots.

    Walks the chain steps in coordinate order; at each coordinate the slots
    are grouped by their already-assigned symbols on the step's conditioning
    window, and each group is split by largest remainder according to the
    kernel row, in a per-group seeded deterministic order.
    """
    size = chain.family.alphabet.size
    window = list(chain.window)
    col_of = {n: c for c, n in enumerate(window)}
    names = np.zeros((n_rows, len(window)), dtype=np.int16)
    for step in chain.steps:
        col = col_of[step.index]
        cond = conditional_table(step)
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
    engine_max_clip: float = 0.0

    def error_mass(self) -> float:
        return self.e1_mass + self.e2_mass + self.e3_mass

    def to_dict(self) -> dict:
        return {
            "chosen_m": self.chosen_m,
            "offsets": list(self.offsets),
            "e1_mass": self.e1_mass,
            "e2_mass": self.e2_mass,
            "e3_mass": self.e3_mass,
            "error_mass": self.error_mass(),
            "per_level_distance": [float(x) for x in self.per_level_distance],
            "per_level_distribution_gap": [float(x) for x in self.per_level_distribution_gap],
            "window_defects": {str(k): v for k, v in self.window_defects.items()},
            "window_sup_gaps": {str(k): v for k, v in self.window_sup_gaps.items()},
            "positivity_margins": {str(k): v for k, v in self.positivity_margins.items()},
            "quantization_level_bound": self.quantization_level_bound,
            "painted_fraction": self.painted_fraction,
            "painted_atoms": self.painted_atoms,
            "budget_ok": self.budget_ok,
            "degenerate": self.degenerate,
            "engine_max_defect": self.engine_max_defect,
            "engine_max_b_norm": self.engine_max_b_norm,
            "engine_max_clip": self.engine_max_clip,
        }


def paint_tower(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    m: int,
    epsilon: float,
    alpha: float,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    strict_budget: bool = False,
) -> PaintReport:
    """One induction step: make the windows over ``offsets + {m}`` exactly
    independent on unflagged shifts, changing only a thin slice of the tower.

    The base is split into a painted part of mass ``epsilon/10`` (spread
    evenly through every name class) and a kept part. For each unflagged
    shift the kept part's window law is corrected toward the product of the
    full per-level distributions; the correcting laws are extended to a
    single column law in kernel form and painted onto the slice atom by atom.

    Per-level distributions survive up to the reported quantization bound,
    per-level distances stay below the painted fraction, and flagged shifts
    plus the top ``m`` levels are exempt. ``strict_budget`` additionally
    enforces ``height > 10 m / epsilon``.
    """
    offsets = IndexSet.of(offsets)
    if not offsets:
        raise DomainError("offsets must be nonempty")
    if m <= max(offsets):
        raise DomainError(f"fresh time {m} must exceed max offset {max(offsets)}")
    height, atoms = tower.height, tower.atom_count
    if m >= height:
        raise WindowError(f"fresh time {m} does not fit in a tower of height {height}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    height_ok = height > 10.0 * m / epsilon
    if strict_budget and not height_ok:
        raise DomainError(
            f"height {height} violates the strict budget 10*m/epsilon = {10.0 * m / epsilon}"
        )
    if partition.min_symbol_mass() < alpha - tol:
        raise DomainError(
            f"some level has a symbol of mass {partition.min_symbol_mass()} < alpha {alpha}"
        )

    size = partition.alphabet.size
    window = offsets.union((m,))
    base = base_aligned_labels(tower, partition)
    valid = [
        j
        for j in range(height - m)
        if not tower.in_e[j] and not tower.in_e1[j]
    ]
    e1_mass = float(np.sum(tower.in_e1[: height - m])) / height
    e3_mass = m / height
    budget_ok = {
        "height": bool(height_ok),
        "e1": bool(e1_mass < epsilon / 10.0),
        "e3": bool(e3_mass < epsilon / 10.0),
    }

    # split the base, spreading the painted slice through the sorted name order
    fraction = epsilon / 10.0
    order = np.lexsort(tuple(base[lvl] for lvl in reversed(range(height))))
    painted = np.sort(_systematic_split(order, fraction))
    m0 = len(painted)
    if m0 == 0:
        zero = np.zeros(height)
        return PaintReport(
            q=partition,
            chosen_m=m,
            offsets=offsets,
            e1_mass=e1_mass,
            e2_mass=tower.residual_mass,
            e3_mass=e3_mass,
            per_level_distance=zero,
            per_level_distribution_gap=zero.copy(),
            window_defects={},
            window_sup_gaps={},
            positivity_margins={},
            quantization_level_bound=float("inf"),
            painted_fraction=0.0,
            painted_atoms=0,
            budget_ok=budget_ok,
            degenerate=True,
            engine_max_defect=0.0,
            engine_max_b_norm=0.0,
        )
    kept = np.setdiff1d(np.arange(atoms), painted, assume_unique=True)
    t_hat = m0 / atoms

    kept_base = base[:, kept]
    full_counts = _level_counts(base, size)
    painted_counts = full_counts - _level_counts(kept_base, size)
    if painted_counts.min() <= 0:
        raise QuantizationError(
            "the painted slice misses a symbol on some level; increase the atom count"
        )
    slice_marginals = [
        DenseMeasure(partition.alphabet, (lvl,), painted_counts[lvl] / m0, tol=1e-12)
        for lvl in range(height)
    ]

    members: list[DenseMeasure] = []
    positivity_margins: dict[int, float] = {}
    for j in valid:
        levels = [j + k for k in window]
        nu_kept = _joint_counts(kept_base, levels, size) / len(kept)
        prod_full = _level_product(full_counts, levels, atoms)
        xi_table, worst, margin = _blend_correction(prod_full, nu_kept, t_hat)
        positivity_margins[j] = margin
        if margin < -tol:
            raise PositivityError(
                f"shift {j} cannot be corrected at blend weight {t_hat}: "
                f"cell margin {margin}; flag it or decrease the window deviation",
                margin=margin,
                cell=worst,
            )
        members.append(
            DenseMeasure(
                partition.alphabet,
                window.shift(j),
                np.clip(xi_table, 0.0, None),
                "probability",
                tol=1e-6,
            )
        )
    del kept_base
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
    # negativity up to a small fraction of the window's product floor is clipped
    # and recorded: the blend cancels it down to a painted-fraction multiple.
    pos_slack = 0.05 * alpha_family ** len(window)
    chain = extend_family_chain(
        family, range(height), beta=None, tol=max(tol, 1e-7), pos_tol=pos_slack
    )

    names = _paint_names(chain, m0, seed)
    new_base = base.copy()
    new_base[:, painted] = names.T
    q = labels_from_base(tower, new_base, partition.alphabet)

    per_level_distance = (new_base != base).mean(axis=1)
    per_level_gap = np.abs(_level_counts(new_base, size) - full_counts).max(axis=1) / atoms

    window_defects: dict[int, float] = {}
    window_sup_gaps: dict[int, float] = {}
    for j in valid:
        nu_new = _name_law(new_base, partition.alphabet, j, window)
        window_sup_gaps[j] = sup_distance(nu_new, nu_new.product_of_marginals())
        window_defects[j] = delta_independence(nu_new, "ascending")

    return PaintReport(
        q=q,
        chosen_m=m,
        offsets=offsets,
        e1_mass=e1_mass,
        e2_mass=tower.residual_mass,
        e3_mass=e3_mass,
        per_level_distance=per_level_distance,
        per_level_distribution_gap=per_level_gap,
        window_defects=window_defects,
        window_sup_gaps=window_sup_gaps,
        positivity_margins=positivity_margins,
        quantization_level_bound=size / m0,
        painted_fraction=t_hat,
        painted_atoms=m0,
        budget_ok=budget_ok,
        degenerate=False,
        engine_max_defect=chain.max_beta_defect(),
        engine_max_b_norm=max((s.b_norm for s in chain.steps), default=0.0),
        engine_max_clip=max((s.clipped for s in chain.steps), default=0.0),
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
        return {
            "chosen_times": list(self.chosen_times),
            "cumulative_error_mass": self.cumulative_error_mass,
            "cumulative_distance": [float(x) for x in self.cumulative_distance],
            "reports": [r.to_dict() for r in self.reports],
        }


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

    At step ``j`` the driver takes the first unused candidate time whose
    measured flags cover mass at most ``epsilon / 2^j / 10``, paints, adds the
    flagged levels and the top levels of the step to the exempt set, and
    appends the chosen time to the window. Raises
    :class:`~margex.errors.MixingSupplyError` naming the step when no
    candidate qualifies.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    current = partition
    in_e = tower.in_e.copy()
    window = [0]
    chosen: list[int] = []
    reports: list[PaintReport] = []
    cumulative = np.zeros(tower.height)
    for j in range(1, steps + 1):
        eps_j = epsilon / 2**j
        accepted = None
        for m in mixing_times:
            if m in chosen or m <= max(window):
                continue
            if m >= tower.height:
                continue
            flags = flag_dependent_shifts(
                tower.with_flags(in_e=in_e),
                current,
                IndexSet.of(window).union((m,)),
                eps_j,
            )
            fresh = flags & ~in_e
            fresh[tower.height - m :] = False
            if float(fresh.sum()) / tower.height <= eps_j / 10.0 + 1e-12:
                accepted = (m, flags)
                break
        if accepted is None:
            raise MixingSupplyError(
                f"no supplied time shows enough measured mixing at step {j} "
                f"(budget {eps_j / 10.0})",
                step=j,
            )
        m, flags = accepted
        step_tower = tower.with_flags(in_e=in_e, in_e1=flags & ~in_e)
        report = paint_tower(
            step_tower,
            current,
            IndexSet.of(window),
            m,
            eps_j,
            alpha=current.min_symbol_mass() - tol,
            seed=seed + j,
            tol=tol,
        )
        cumulative += report.per_level_distance
        current = report.q
        in_e |= flags
        in_e[tower.height - m :] = True
        window.append(m)
        chosen.append(m)
        reports.append(report)
    return KrengelResult(
        q=current,
        chosen_times=tuple(chosen),
        cumulative_error_mass=float(in_e.sum()) / tower.height,
        cumulative_distance=cumulative,
        reports=tuple(reports),
    )


# -- exact fiber surgery ----------------------------------------------------------------

def _window_is_exact(
    base: np.ndarray, levels: Sequence[int], counts: np.ndarray, size: int
) -> bool:
    """Exact independence test in integer arithmetic."""
    scale = base.shape[1] ** (len(levels) - 1)
    cells = itertools.product(range(size), repeat=len(levels))
    return all(
        int(n) * scale == math.prod(int(counts[lvl][a]) for lvl, a in zip(levels, cell))
        for n, cell in zip(_joint_counts(base, levels, size), cells)
    )


def fiber_surgery(
    tower: TowerSpec,
    partition: LabeledPartition,
    offsets: IndexLike,
    bad_levels: Iterable[int],
    on_indivisible: str = "error",
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
    :class:`~margex.errors.QuantizationError` advises a compatible atom count
    (``on_indivisible="round"`` instead does a best-effort largest-remainder
    assignment).
    """
    offsets = IndexSet.of(offsets)
    if not offsets:
        raise DomainError("offsets must be nonempty")
    if on_indivisible not in ("error", "round"):
        raise DomainError(f"unknown indivisible policy {on_indivisible!r}")
    span = max(offsets)
    height, atoms = tower.height, tower.atom_count
    if height < span + 1:
        raise WindowError(f"tower of height {height} cannot host offsets {tuple(offsets)}")
    size = partition.alphabet.size
    eligible = range(height - span)
    declared = {int(i) for i in bad_levels if int(i) in eligible}

    base = base_aligned_labels(tower, partition).astype(np.int64)
    counts = _level_counts(base, size)

    def measured_bad() -> list[int]:
        if len(offsets) < 2:
            return []
        return [
            i
            for i in eligible
            if not _window_is_exact(base, [i + k for k in offsets], counts, size)
        ]

    guard = 0
    done: set[int] = set()
    while True:
        pending = sorted((declared | set(measured_bad())) - done)
        if not pending:
            break
        guard += 1
        if guard > 2 * len(list(eligible)) + len(declared) + 4:
            raise QuantizationError("surgery failed to stabilize; atom counts too coarse")
        i1 = pending[0]
        declared.discard(i1)
        if on_indivisible == "round":
            done.add(i1)
        block = [i1 + k for k in offsets]
        halo = sorted(
            {
                i + k
                for i in eligible
                if i != i1 and set(i + kk for kk in offsets) & set(block)
                for k in offsets
            }
            - set(block)
        )
        halo_codes = (
            _window_codes(base, halo, size)
            if halo
            else np.zeros(atoms, dtype=np.int64)
        )
        cells = list(itertools.product(range(size), repeat=len(block)))
        cell_mass = [math.prod(int(counts[lvl][a]) for lvl, a in zip(block, c)) for c in cells]
        den = atoms ** len(block)
        block_probs = _level_product(counts, block, atoms)
        for code in np.unique(halo_codes):
            members = np.flatnonzero(halo_codes == code)
            n_y = len(members)
            if all(n_y * mass % den == 0 for mass in cell_mass):
                cell_counts = [n_y * mass // den for mass in cell_mass]
            elif on_indivisible == "error":
                raise QuantizationError(
                    f"class of size {n_y} cannot realize the exact product over "
                    f"levels {block}; choose an atom count divisible by "
                    f"{size ** (len(block) + len(halo))}"
                )
            else:
                cell_counts = _apportion(block_probs, n_y)
            start = 0
            for cell, cnt in zip(cells, cell_counts):
                chunk = members[start : start + cnt]
                start += int(cnt)
                for lvl, a in zip(block, cell):
                    base[lvl, chunk] = a
        # per-level counts are preserved by construction; refresh defensively
        for lvl in block:
            counts[lvl] = np.bincount(base[lvl], minlength=size)

    return labels_from_base(tower, base.astype(np.int16), partition.alphabet)
