"""Dense measures on finite product spaces.

A measure lives on ``A^K`` where ``A = {0, ..., size-1}`` is a shared alphabet
and ``K`` is a finite set of integer coordinates. Tables are stored densely in
lexicographic order over ascending coordinates: the smallest coordinate varies
slowest (row-major). ``A^{}`` has a single point, so a measure on the empty
support is a scalar; this is what disjoint-support consistency checks compare.

All values here are immutable, so results (which may be an operation's own
input, as for a projection onto the whole support) can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    SingularityError,
    ZeroMassError,
)

CELL_CAP = 2**24
# The accept-or-refuse thresholds, each named once; a ``tol`` argument replaces DEFAULT_TOL.
ROUND_TOL = 1e-12  # float rounding: n cells sum to within n * 2^-52 < n * ROUND_TOL of exact
DEFAULT_TOL = 1e-9  # input tables and verdicts: 10^3 ROUND_TOL, so rounding alone refuses nothing
GLUE_FLOOR = 1e-7  # the least glue of a walk step: a replay re-measures each gap on its own tables
ORACLE_TOL = 1e-7  # the oracle witness's residual, junction-tree or LP: HiGHS's primal feasibility tolerance
MADE_TOL = 1e-6  # a table made from checked ones carries their errors: 10^3 DEFAULT_TOL of room
# a step's fit stops within ROUND_TOL per cell, under its checks, or is refused after FIT_SWEEPS:
# over 160 paints of 16-level towers (README), 198 of 205 fits converged, in 24 sweeps median, 1023 at most
FIT_SWEEPS = 2000
SCAN_ALL_LIMIT = 8
# _sum_out's own kernel starts here. Timed on every reduction pattern of one
# extension-workload round, it took 1.3x numpy's time at 1024 cells and
# 0.5x from 2048 cells (2-core Xeon); 4096 leaves a factor of two of margin.
SUM_OUT_MIN_CELLS = 4096
# _glue and sup_distance run block by block past this many cells (1 MiB of
# float64; each core has 2 MiB of L2). A 3^12-cell glue took 3.33 ms in one
# pass and 1.78 ms in blocks, a 2^18 one 0.81 against 0.70 ms, and outputs
# that fit in L2 did not move (median of 55 calls, 2-core Xeon).
GLUE_BLOCK_CELLS = 2**17

IndexLike = Union["IndexSet", Iterable[int]]


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set ``{0, ..., size - 1}``."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise DomainError(f"alphabet size must be an integer >= 2, got {self.size!r}")

    def check_alpha(self, alpha: float) -> None:
        """A floor ``alpha`` on one-dimensional atoms forces ``size <= 1/alpha``."""
        if self.size * alpha > 1.0 + ROUND_TOL:
            raise DomainError(
                f"alphabet of size {self.size} cannot have all atoms >= {alpha}"
            )


def _spec_int(value, name: str) -> int:
    """The integer field ``name`` of a JSON spec: ``int(value)``, refusing a
    fractional number that ``int`` would truncate, Python's or numpy's."""
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


def _spec_float(value, name: str) -> float:
    """The real field ``name`` of a JSON spec: ``float(value)``, refusing NaN
    and infinities, which would pass every range check unseen."""
    out = float(value)
    if not np.isfinite(out):
        raise DomainError(f"{name} must be finite, got {out}")
    return out


def _coordinates(items) -> tuple[int, ...]:
    """``items`` as ints, each refused by the rule of ``_spec_int``; the rule
    is checked only when some item is not already equal to its int."""
    items = tuple(items)
    idx = tuple(map(int, items))
    if idx != items:
        for i in items:
            _spec_int(i, "coordinate")
    return idx


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing tuple of integer coordinates."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = _coordinates(self.indices)
        if len(set(idx)) != len(idx):
            raise DomainError(f"duplicate coordinates in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DomainError(f"coordinates must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, items: IndexLike) -> "IndexSet":
        if isinstance(items, IndexSet):
            return items
        return cls(tuple(sorted(_coordinates(items))))

    @classmethod
    def _from_set(cls, items: set[int]) -> "IndexSet":
        """Set of already-checked ints: sorted, unique by construction."""
        out = object.__new__(cls)
        object.__setattr__(out, "indices", tuple(sorted(items)))
        return out

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __bool__(self) -> bool:
        return bool(self.indices)

    def union(self, other: IndexLike) -> "IndexSet":
        return IndexSet._from_set(set(self.indices) | set(IndexSet.of(other).indices))

    def intersection(self, other: IndexLike) -> "IndexSet":
        return IndexSet._from_set(set(self.indices) & set(IndexSet.of(other).indices))

    def difference(self, other: IndexLike) -> "IndexSet":
        return IndexSet._from_set(set(self.indices) - set(IndexSet.of(other).indices))

    def issubset(self, other: IndexLike) -> bool:
        return set(self.indices) <= set(IndexSet.of(other).indices)

    def position(self, i: int) -> int:
        """Axis of coordinate ``i`` in this support's table."""
        return self.indices.index(i)

    def positions(self, sub: IndexLike) -> tuple[int, ...]:
        return tuple(self.position(i) for i in IndexSet.of(sub))

    def shift(self, offset: int) -> "IndexSet":
        return IndexSet(tuple(i + offset for i in self.indices))


EMPTY = IndexSet(())


def _json(value):
    """``value`` in a report: an array, tuple or index set as a list, a dict
    with string keys, a numpy scalar as a Python number, and a result or
    measure by its own ``to_dict``."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, IndexSet)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    return value


def _report(result, *skip: str) -> dict:
    """The report of the dataclass ``result``: each of its fields but those
    named in ``skip``, by :func:`_json`."""
    return {f.name: _json(getattr(result, f.name)) for f in fields(result) if f.name not in skip}


def _cell_count(size: int, support: IndexLike) -> int:
    n = len(support)
    cells = size ** n
    if cells > CELL_CAP:
        # size^n, not the count: a count past 4300 digits cannot be printed
        raise CapacityError(f"table on {n} coordinates would need {size}^{n} cells (cap {CELL_CAP})")
    return cells


def _checked_table(alphabet: Alphabet, support: IndexSet, table, kind: str, tol: float) -> np.ndarray:
    """``table`` as a flat float64 array, checked against ``A^support`` and ``kind``."""
    cells = _cell_count(alphabet.size, support)
    table = np.asarray(table, dtype=np.float64).reshape(-1)
    if table.shape != (cells,):
        raise DomainError(f"table has {table.size} entries, expected {cells} for A^{tuple(support)}")
    if kind not in ("probability", "signed"):
        raise DomainError(f"unknown measure kind {kind!r}")
    # tol=inf (projections of checked measures) skips a check that cannot fire
    if kind == "probability" and tol != np.inf:
        # inf + -inf sums to nan, which the check below reports
        with np.errstate(invalid="ignore"):
            total = float(table.sum())
        if not np.isfinite(total):
            raise DomainError(f"probability table has a non-finite entry (sum {total})")
        low = float(table.min())
        if low < -tol:
            raise DomainError(f"probability table has entry {low} < 0")
        if abs(total - 1.0) > max(tol, ROUND_TOL * table.size):
            raise DomainError(f"probability table sums to {total}, not 1")
    return table


@dataclass(frozen=True, eq=False)
class DenseMeasure:
    """A (possibly signed) measure on ``A^support`` stored as a full table.

    Parameters
    ----------
    alphabet : Alphabet
    support : IndexSet
        Coordinates the measure lives on; may be empty.
    table : array-like
        ``size ** len(support)`` reals in lexicographic cell order.
    kind : {"probability", "signed"}
        Probability tables must be nonnegative and sum to one within ``DEFAULT_TOL``.
    """

    alphabet: Alphabet
    support: IndexSet
    table: np.ndarray
    kind: str = "probability"

    def __post_init__(self):
        support = IndexSet.of(self.support)
        object.__setattr__(self, "support", support)
        table = _checked_table(self.alphabet, support, self.table, self.kind, DEFAULT_TOL).copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def _owned(cls, alphabet, support: IndexSet, table, kind: str, tol: float) -> "DenseMeasure":
        """A measure on a table its caller just made and hands over: checked, not copied."""
        out = object.__new__(cls)
        table = _checked_table(alphabet, support, table, kind, tol)
        table.setflags(write=False)
        out.__dict__.update(alphabet=alphabet, support=support, table=table, kind=kind)
        return out

    # -- construction helpers ------------------------------------------------
    @classmethod
    def uniform(cls, alphabet: Alphabet, support: IndexLike) -> "DenseMeasure":
        support = IndexSet.of(support)
        cells = _cell_count(alphabet.size, support)
        return cls(alphabet, support, np.full(cells, 1.0 / cells), "probability")

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "DenseMeasure":
        """The unique probability measure on the one-point space ``A^{}``."""
        return cls(alphabet, EMPTY, np.ones(1), "probability")

    # -- basic views -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return (self.alphabet.size,) * len(self.support)

    def as_array(self) -> np.ndarray:
        return self.table.reshape(self.shape)

    def min_entry(self) -> float:
        return float(self.table.min())

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "indices": list(self.support),
            "table": [float(x) for x in self.table],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DenseMeasure":
        return cls(
            Alphabet(_spec_int(data["alphabet_size"], "alphabet_size")),
            IndexSet.of([_spec_int(i, "indices") for i in data["indices"]]),
            np.asarray(data["table"], dtype=np.float64),
            data.get("kind", "probability"),
        )


def project(m: DenseMeasure, target: IndexLike) -> DenseMeasure:
    """Push ``m`` forward onto the coordinates in ``target``.

    Preserves kind and total mass; projecting to the empty set yields the
    scalar total-mass measure. Projecting onto the whole support returns
    ``m`` itself.
    """
    target = IndexSet.of(target)
    if target == m.support:
        return m
    if not target.issubset(m.support):
        raise DomainError(f"{tuple(target)} is not a subset of {tuple(m.support)}")
    return DenseMeasure._owned(
        m.alphabet, target, _sum_out(m.as_array(), m.support, target), m.kind, np.inf
    )


def _sum_out(arr: np.ndarray, support: Sequence[int], target) -> np.ndarray:
    """The table ``arr`` over ``support`` summed onto those coordinates in
    ``target``, by :func:`project`'s reduction; ``arr`` itself if none drop.

    The result has the bits of ``arr.sum(axis=drop)``. numpy sums each row
    of the trailing block of dropped axes pairwise (a row shorter than 8
    sequentially from its first cell), then adds those row sums into the
    output, which starts at ``+0.0``, one after another over the other
    dropped cells in C order. When a kept axis is innermost, numpy does that
    second part with an inner loop as short as the kept block, two or three
    cells, which is slow on a big table. A table of at least
    ``SUM_OUT_MIN_CELLS`` cells that keeps some axis is summed here in the
    same order with long loops: the trailing rows of ``q`` cells by
    ``sum(axis=-1)``, or by column adds when ``q < 8``, then the remaining
    dropped axes by ``np.einsum``, whose output also starts at ``+0.0`` and
    adds in C order. ``tests/test_measures.py::TestSumOut`` pins the bits
    to the installed numpy. Tables are C-contiguous, as every table in the
    package is.
    """
    drop = tuple(p for p, i in enumerate(support) if i not in target)
    if not drop:
        return arr
    if arr.size < SUM_OUT_MIN_CELLS or len(drop) == arr.ndim:
        return arr.sum(axis=drop)
    cut = arr.ndim
    while cut - 1 in drop:
        cut -= 1
    if cut < arr.ndim:
        rows = arr.reshape(arr.shape[:cut] + (-1,))
        if rows.shape[-1] >= 8:
            arr = rows.sum(axis=-1)
        else:
            arr = rows[..., 0] + 0.0  # numpy's +0.0 start: -0.0 rows sum to +0.0
            for j in range(1, rows.shape[-1]):
                arr += rows[..., j]
    keep = [p for p in range(cut) if p not in drop]
    return arr if len(keep) == cut else np.einsum(arr, list(range(cut)), keep)


def tensor(m1: DenseMeasure, m2: DenseMeasure) -> DenseMeasure:
    """Product measure of two measures on disjoint supports."""
    if m1.alphabet != m2.alphabet:
        raise DomainError("tensor requires a shared alphabet")
    if m1.support.intersection(m2.support):
        raise DomainError("tensor requires disjoint supports")
    union = m1.support.union(m2.support)
    _cell_count(m1.alphabet.size, union)
    out = _embed(m1.as_array(), m1.support.indices, union)
    out = out * _embed(m2.as_array(), m2.support.indices, union)
    kind = "probability" if (m1.kind == m2.kind == "probability") else "signed"
    return DenseMeasure._owned(m1.alphabet, union, out, kind, MADE_TOL)


def product_measure(marginals: Sequence[DenseMeasure]) -> DenseMeasure:
    """Product of one-dimensional measures on pairwise distinct coordinates."""
    if not marginals:
        raise DomainError("product_measure needs at least one marginal")
    out = DenseMeasure.unit(marginals[0].alphabet)
    for m in marginals:
        out = tensor(out, m)
    return out


def _embed(arr, support: tuple[int, ...], order: Sequence[int]) -> np.ndarray:
    """View of the table ``arr`` over ``support`` shaped to broadcast over
    the coordinates ``order``, which may list them in any order."""
    arr = np.asarray(arr).transpose([support.index(i) for i in order if i in support])
    sizes = iter(arr.shape)
    return arr.reshape([next(sizes) if i in support else 1 for i in order])


def product_of_marginals(m: DenseMeasure) -> DenseMeasure:
    """Product measure with the same one-dimensional marginals as ``m``."""
    if m.kind != "probability":
        raise DomainError("product_of_marginals needs a probability measure")
    if not m.support:
        return DenseMeasure.unit(m.alphabet)
    return product_measure([project(m, (i,)) for i in m.support])


def sup_distance(m1: DenseMeasure, m2: DenseMeasure) -> float:
    """Sup-norm distance between two measures on the same support."""
    if m1.alphabet != m2.alphabet or m1.support != m2.support:
        raise DomainError("sup_distance requires identical alphabet and support")
    # block by block, as _glue: one block-sized temporary; np.max keeps a NaN
    diff = np.empty(min(m1.table.size, GLUE_BLOCK_CELLS))
    worst = []
    for start in range(0, m1.table.size, GLUE_BLOCK_CELLS):
        block = m1.table[start : start + GLUE_BLOCK_CELLS]
        d = np.subtract(block, m2.table[start : start + GLUE_BLOCK_CELLS], out=diff[: block.size])
        worst.append(np.abs(d, out=d).max())
    return float(np.max(worst))


def consistency_gap(m1: DenseMeasure, m2: DenseMeasure) -> float:
    """Sup distance on the common coordinates; for disjoint supports, of the total masses."""
    common = m1.support.intersection(m2.support)
    return sup_distance(project(m1, common), project(m2, common))


def relative_product(lam: DenseMeasure, sigma: DenseMeasure) -> DenseMeasure:
    """Glue two probability measures along their common coordinates.

    The output on the union support is ``lam(x_I) * sigma(x_S) / rho(x_R)``
    where ``R`` is the overlap and ``rho`` its shared projection. It restricts
    to ``lam`` and to ``sigma``. The overlap projection must be strictly
    positive and the two input projections must agree within ``DEFAULT_TOL``.
    The extension engine glues its tables through the same :func:`_glue`.
    """
    if lam.alphabet != sigma.alphabet:
        raise DomainError("relative_product requires a shared alphabet")
    if lam.kind != "probability" or sigma.kind != "probability":
        raise DomainError("relative_product needs probability measures")
    lam_arr, sigma_arr = lam.as_array(), sigma.as_array()
    rho = _sum_out(lam_arr, lam.support, sigma.support)
    gap = float(np.abs(rho - _sum_out(sigma_arr, sigma.support, lam.support)).max())
    size, lam_support, sigma_support = lam.alphabet.size, lam.support.indices, sigma.support.indices
    out, union = _glue(size, lam_arr, lam_support, sigma_arr, sigma_support, rho, gap, DEFAULT_TOL)
    return DenseMeasure._owned(lam.alphabet, IndexSet._from_set(set(union)), out, "probability", MADE_TOL)


def _glue(size, lam, lam_support, sigma, sigma_support, rho, gap, tol):
    """:func:`relative_product` on tables over ascending coordinates, given
    ``rho``, ``lam`` summed onto the overlap, and ``gap``, its sup distance
    from ``sigma``'s: ``(table, support)``. The ufuncs iterate with sigma's
    coordinates first and lam's own last, so the inner loop runs along lam's
    long axis, and write through a transposed view of the output. An output
    past ``GLUE_BLOCK_CELLS`` is made block by block over the union's leading
    coordinates while they are lam's alone, so each block's quotient reads
    its product back from cache. Each cell is the same product and quotient,
    so the bits do not change."""
    overlap = tuple(i for i in sigma_support if i in lam_support)
    if gap > tol:
        raise ConsistencyError(f"projections onto {overlap} differ by {gap} (tol {tol})")
    if np.min(rho) <= 0.0:
        raise SingularityError(f"overlap projection onto {overlap} has a nonpositive cell")
    union = tuple(sorted(set(lam_support) | set(sigma_support)))
    _cell_count(size, union)
    lead = 0
    while size ** (len(union) - lead) > GLUE_BLOCK_CELLS and union[lead] not in sigma_support:
        lead += 1
    order = sigma_support + tuple(i for i in lam_support[lead:] if i not in sigma_support)
    axes = [union.index(i) - lead for i in order]
    sigma, rho = _embed(sigma, sigma_support, order), _embed(rho, overlap, order)
    out = np.empty((size,) * len(union))
    out_blocks = out.reshape((-1,) + out.shape[lead:])
    lam_blocks = np.reshape(lam, (-1,) + np.shape(lam)[lead:])
    for b in range(len(out_blocks)):
        view = out_blocks[b, ...].transpose(axes)
        np.multiply(_embed(lam_blocks[b, ...], lam_support[lead:], order), sigma, out=view, order="C")
        np.divide(view, rho, out=view, order="C")
    return out, union


# -- approximate independence -------------------------------------------------

def conditional_rows(m: DenseMeasure, coord: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows: lexicographic cells of the other coordinates; columns: symbols
    of ``coord``. Also each row's mass; zero-mass rows are the caller's."""
    arr, axis = m.as_array(), m.support.position(coord)
    if axis != arr.ndim - 1:
        arr = np.moveaxis(arr, axis, -1)
    rows = arr.reshape(-1, m.alphabet.size)
    return rows, rows.sum(axis=1)


def _conditional_gap(rows: np.ndarray, mass: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst gap between the law of a coordinate given an atom of the other
    coordinates and ``law``, the table of its own law, for a stack of tables:
    ``rows[..., r, :]`` is atom ``r``'s row, ``mass[..., r]`` its mass and
    ``law[..., 0, :]`` the table's law, broadcast over the rows. One measure
    is a stack with no leading axes, whose rows and masses
    :func:`conditional_rows` gives. Also whether some atom of each table has
    zero mass.

    The one zero-mass rule: an atom without mass has no conditional law, so
    the gap runs over the atoms that carry mass and is ``inf`` when none does.
    """
    good = mass > 0.0
    if good.all():
        cond = rows / mass[..., None]
        cond -= law
        return np.abs(cond, out=cond).max(axis=(-2, -1)), np.zeros(good.shape[:-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.abs(rows / mass[..., None] - law)
    gap = np.where(good[..., None], cond, -np.inf).max(axis=(-2, -1))
    return np.where(good.any(axis=-1), gap, np.inf), ~good.all(axis=-1)


def _zero_mass_atom(order: tuple[int, ...], i: int) -> ZeroMassError:
    """The refusal of the ordering ``order``, whose prefix ``order[:i]`` has a zero-mass atom."""
    return ZeroMassError(f"ordering {order} conditions on a zero-mass atom of {order[:i]}")


def _ordering_defect(m: DenseMeasure, order: tuple[int, ...]) -> float:
    worst, arr = 0.0, m.as_array()
    for i in range(1, len(order)):
        rows, mass = conditional_rows(project(m, order[: i + 1]), order[i])
        gap, has_zero_atom = _conditional_gap(rows, mass, _sum_out(arr, m.support, (order[i],)))
        if has_zero_atom:
            raise _zero_mass_atom(order, i)
        worst = max(worst, float(gap))
    return worst


def _scan_all_defect(m: DenseMeasure) -> float:
    """Minimum over all orderings of the worst conditional gap, by a DP over
    coordinate subsets that computes a gap only for subsets it can reach.
    Each coordinate's own law is projected once per scan."""
    coords = tuple(m.support)
    laws = [project(m, (c,)).table for c in coords]
    n = len(coords)
    best = np.full(2**n, np.inf)
    for j in range(n):
        best[1 << j] = 0.0
    for mask in range(1, 2**n):
        if best[mask] == np.inf:
            continue
        prefix = tuple(c for b, c in enumerate(coords) if mask & (1 << b))
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            rows, mass = conditional_rows(project(m, prefix + (coords[j],)), coords[j])
            gap, has_zero_atom = _conditional_gap(rows, mass, laws[j])
            if not has_zero_atom:
                best[mask | bit] = min(best[mask | bit], max(best[mask], float(gap)))
    result = best[2**n - 1]
    if not np.isfinite(result):
        raise ZeroMassError("every ordering conditions on a zero-mass atom")
    return float(result)


def delta_independence(
    m: DenseMeasure, ordering: str | Sequence[int] = "ascending"
) -> float:
    """Smallest defect with which ``m`` is approximately independent.

    For an explicit ordering ``h_1, ..., h_n`` this is the largest gap, over
    positions ``i >= 2``, atoms ``q`` of the preceding block, and symbols, of
    ``|dist(h_i | q) - dist(h_i)|``. ``"ascending"`` uses the natural
    coordinate order. ``"scan_all"`` minimizes over every ordering and is
    gated at ``|K| <= 8``.

    Zero mass follows :func:`_conditional_gap`: an ordering that conditions
    on a zero-mass atom has no defect, so an explicit ordering raises
    :class:`ZeroMassError` and ``"scan_all"`` raises only when every
    ordering does.
    """
    if m.kind != "probability":
        raise DomainError("delta_independence needs a probability measure")
    n = len(m.support)
    if n <= 1:
        return 0.0
    if isinstance(ordering, str):
        if ordering == "ascending":
            return _ordering_defect(m, tuple(m.support))
        if ordering == "scan_all":
            if n > SCAN_ALL_LIMIT:
                raise CapacityError(
                    f"scan_all is gated at {SCAN_ALL_LIMIT} coordinates, got {n}"
                )
            return _scan_all_defect(m)
        raise DomainError(f"unknown ordering mode {ordering!r}")
    order = tuple(int(i) for i in ordering)
    if sorted(order) != list(m.support):
        raise DomainError(f"{order} is not a permutation of {tuple(m.support)}")
    return _ordering_defect(m, order)


# -- prescribed-marginal families ----------------------------------------------

@dataclass(frozen=True, eq=False)
class MarginalFamily:
    """A family of prescribed probability measures with overlap bookkeeping.

    ``alpha`` is the promised floor on one-dimensional marginal atoms, ``n_cap``
    the promised bound on the size of the union of supports through any single
    coordinate. Construction checks only types and shapes; the semantic
    hypotheses have their own report-style checker in the extension engine.
    """

    alphabet: Alphabet
    members: tuple[DenseMeasure, ...]
    alpha: float
    n_cap: int

    def __post_init__(self):
        members = tuple(self.members)
        for mu in members:
            if mu.alphabet != self.alphabet:
                raise DomainError("family members must share the family alphabet")
            if mu.kind != "probability":
                raise DomainError("family members must be probability measures")
        if not (0.0 < self.alpha <= 0.5):
            raise DomainError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        if self.n_cap < 1:
            raise DomainError(f"n_cap must be >= 1, got {self.n_cap}")
        self.alphabet.check_alpha(self.alpha)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_by_coordinate", {})
        for mu in members:
            for i in mu.support:
                self._by_coordinate.setdefault(i, []).append(mu)

    def union_support(self) -> IndexSet:
        out = EMPTY
        for mu in self.members:
            out = out.union(mu.support)
        return out

    def members_containing(self, n: int) -> list[DenseMeasure]:
        """The members whose support holds ``n``, in member order."""
        return list(self._by_coordinate.get(n, ()))

    def reach_of(self, n: int) -> IndexSet:
        """Union of the supports of all members through coordinate ``n``."""
        out = EMPTY
        for mu in self.members_containing(n):
            out = out.union(mu.support)
        return out

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "alpha": self.alpha,
            "N": self.n_cap,
            "members": [
                {"indices": list(mu.support), "table": [float(x) for x in mu.table]}
                for mu in self.members
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MarginalFamily":
        alphabet = Alphabet(_spec_int(data["alphabet_size"], "alphabet_size"))
        members = tuple(
            DenseMeasure(
                alphabet,
                IndexSet.of([_spec_int(i, "indices") for i in item["indices"]]),
                np.asarray(item["table"], dtype=np.float64),
                "probability",
            )
            for item in data["members"]
        )
        return cls(alphabet, members, _spec_float(data["alpha"], "alpha"), _spec_int(data["N"], "N"))
