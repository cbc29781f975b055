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

from dataclasses import InitVar, dataclass
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
DEFAULT_TOL = 1e-9
SCAN_ALL_LIMIT = 8

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
        if self.size * alpha > 1.0 + 1e-12:
            raise DomainError(
                f"alphabet of size {self.size} cannot have all atoms >= {alpha}"
            )


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing tuple of integer coordinates."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise DomainError(f"duplicate coordinates in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DomainError(f"coordinates must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, items: IndexLike) -> "IndexSet":
        if isinstance(items, IndexSet):
            return items
        return cls(tuple(sorted(int(i) for i in items)))

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


def _cell_count(size: int, support: IndexSet) -> int:
    cells = size ** len(support)
    if cells > CELL_CAP:
        raise CapacityError(
            f"table on A^{tuple(support)} would need {cells} cells (cap {CELL_CAP})"
        )
    return cells


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
        Probability tables must be nonnegative and sum to one within ``tol``.
    """

    alphabet: Alphabet
    support: IndexSet
    table: np.ndarray
    kind: str = "probability"
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        support = IndexSet.of(self.support)
        object.__setattr__(self, "support", support)
        cells = _cell_count(self.alphabet.size, support)
        table = np.asarray(self.table, dtype=np.float64).reshape(-1)
        if table.shape != (cells,):
            raise DomainError(
                f"table has {table.size} entries, expected {cells} for A^{tuple(support)}"
            )
        if self.kind not in ("probability", "signed"):
            raise DomainError(f"unknown measure kind {self.kind!r}")
        # tol=inf (projections of checked measures) skips a check that cannot fire
        if self.kind == "probability" and tol != np.inf:
            total = float(table.sum())
            if not np.isfinite(total):
                raise DomainError(f"probability table has a non-finite entry (sum {total})")
            low = float(table.min())
            if low < -tol:
                raise DomainError(f"probability table has entry {low} < 0")
            if abs(total - 1.0) > max(tol, 1e-12 * table.size):
                raise DomainError(f"probability table sums to {total}, not 1")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def uniform(cls, alphabet: Alphabet, support: IndexLike) -> "DenseMeasure":
        support = IndexSet.of(support)
        cells = _cell_count(alphabet.size, support)
        return cls(alphabet, support, np.full(cells, 1.0 / cells), "probability")

    @classmethod
    def point(cls, alphabet: Alphabet, support: IndexLike, cell: Sequence[int]) -> "DenseMeasure":
        support = IndexSet.of(support)
        cells = _cell_count(alphabet.size, support)
        table = np.zeros(cells)
        table[np.ravel_multi_index(tuple(cell), (alphabet.size,) * len(support))] = 1.0
        return cls(alphabet, support, table, "probability")

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

    def total_mass(self) -> float:
        return float(self.table.sum())

    def min_entry(self) -> float:
        return float(self.table.min())

    def allclose(self, other: "DenseMeasure", tol: float = DEFAULT_TOL) -> bool:
        return (
            self.alphabet == other.alphabet
            and self.support == other.support
            and bool(np.all(np.abs(self.table - other.table) <= tol))
        )

    # -- method mirrors of the module operations --------------------------------
    def project(self, target: IndexLike) -> "DenseMeasure":
        return project(self, target)

    def product_of_marginals(self) -> "DenseMeasure":
        return product_of_marginals(self)

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "indices": list(self.support),
            "table": [float(x) for x in self.table],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: dict, tol: float = DEFAULT_TOL) -> "DenseMeasure":
        return cls(
            Alphabet(int(data["alphabet_size"])),
            IndexSet.of(data["indices"]),
            np.asarray(data["table"], dtype=np.float64),
            data.get("kind", "probability"),
            tol,
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
    drop = tuple(p for p, i in enumerate(m.support) if i not in target)
    out = m.as_array().sum(axis=drop)
    return DenseMeasure(m.alphabet, target, out.reshape(-1), m.kind, tol=np.inf)


def tensor(m1: DenseMeasure, m2: DenseMeasure) -> DenseMeasure:
    """Product measure of two measures on disjoint supports."""
    if m1.alphabet != m2.alphabet:
        raise DomainError("tensor requires a shared alphabet")
    if m1.support.intersection(m2.support):
        raise DomainError("tensor requires disjoint supports")
    union = m1.support.union(m2.support)
    _cell_count(m1.alphabet.size, union)
    out = _embed(m1, union) * _embed(m2, union)
    kind = "probability" if (m1.kind == m2.kind == "probability") else "signed"
    return DenseMeasure(m1.alphabet, union, out.reshape(-1), kind, tol=1e-6)


def product_measure(marginals: Sequence[DenseMeasure]) -> DenseMeasure:
    """Product of one-dimensional measures on pairwise distinct coordinates."""
    out = DenseMeasure.unit(marginals[0].alphabet)
    for m in marginals:
        out = tensor(out, m)
    return out


def _embed(m: DenseMeasure, union: IndexSet) -> np.ndarray:
    """View of ``m``'s table shaped to broadcast over ``A^union``."""
    shape = [m.alphabet.size if i in m.support else 1 for i in union]
    return m.as_array().reshape(shape)


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
    return float(np.abs(m1.table - m2.table).max())


def is_consistent(m1: DenseMeasure, m2: DenseMeasure, tol: float = DEFAULT_TOL) -> bool:
    """Do the two measures agree on their common coordinates?

    For disjoint supports the common projection is the total mass.
    """
    if m1.alphabet != m2.alphabet:
        raise DomainError("is_consistent requires a shared alphabet")
    common = m1.support.intersection(m2.support)
    return sup_distance(project(m1, common), project(m2, common)) <= tol


def consistency_gap(m1: DenseMeasure, m2: DenseMeasure) -> float:
    common = m1.support.intersection(m2.support)
    return sup_distance(project(m1, common), project(m2, common))


def conditional_dist(
    m: DenseMeasure, given: IndexLike, value: Sequence[int]
) -> DenseMeasure:
    """Conditional distribution of ``m`` on the remaining coordinates.

    ``value`` fixes the coordinates in ``given`` (aligned with ascending
    order). Conditioning on the empty set returns ``m`` itself.
    """
    given = IndexSet.of(given)
    if m.kind != "probability":
        raise DomainError("conditional_dist needs a probability measure")
    if not given.issubset(m.support):
        raise DomainError(f"{tuple(given)} is not a subset of {tuple(m.support)}")
    if not given:
        return m
    value = tuple(int(v) for v in value)
    if len(value) != len(given):
        raise DomainError("conditioning value length does not match the given coordinates")
    idx: list[object] = [slice(None)] * len(m.support)
    for i, v in zip(given, value):
        if not 0 <= v < m.alphabet.size:
            raise DomainError(f"symbol {v} outside alphabet of size {m.alphabet.size}")
        idx[m.support.position(i)] = v
    sub = m.as_array()[tuple(idx)]
    mass = float(sub.sum())
    if mass <= 0.0:
        raise ZeroMassError(f"conditioning atom {value} on {tuple(given)} has mass {mass}")
    rest = m.support.difference(given)
    return DenseMeasure(m.alphabet, rest, (sub / mass).reshape(-1), "probability", tol=1e-6)


def relative_product(
    lam: DenseMeasure, sigma: DenseMeasure, tol: float = DEFAULT_TOL
) -> DenseMeasure:
    """Glue two probability measures along their common coordinates.

    The output on the union support is ``lam(x_I) * sigma(x_S) / rho(x_R)``
    where ``R`` is the overlap and ``rho`` its shared projection. It restricts
    to ``lam`` and to ``sigma``. The overlap projection must be strictly
    positive and the two input projections must agree within ``tol``.
    """
    if lam.alphabet != sigma.alphabet:
        raise DomainError("relative_product requires a shared alphabet")
    if lam.kind != "probability" or sigma.kind != "probability":
        raise DomainError("relative_product needs probability measures")
    rho = project(lam, lam.support.intersection(sigma.support))
    return _glue(lam, sigma, rho, sup_distance(rho, project(sigma, rho.support)), tol)


def _glue(
    lam: DenseMeasure, sigma: DenseMeasure, rho: DenseMeasure, gap: float, tol: float
) -> DenseMeasure:
    """:func:`relative_product` given ``rho``, ``lam``'s projection onto the
    overlap, and ``gap``, its sup distance from ``sigma``'s."""
    if gap > tol:
        raise ConsistencyError(
            f"projections onto {tuple(rho.support)} differ by {gap} (tol {tol})"
        )
    if rho.min_entry() <= 0.0:
        raise SingularityError(
            f"overlap projection onto {tuple(rho.support)} has a nonpositive cell"
        )
    union = lam.support.union(sigma.support)
    _cell_count(lam.alphabet.size, union)
    out = _embed(lam, union) * _embed(sigma, union) / _embed(rho, union)
    return DenseMeasure(lam.alphabet, union, out.reshape(-1), "probability", tol=1e-6)


# -- approximate independence -------------------------------------------------

def conditional_rows(m: DenseMeasure, coord: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows: lexicographic cells of the other coordinates; columns: symbols
    of ``coord``. Also each row's mass; zero-mass rows are the caller's."""
    arr = np.moveaxis(m.as_array(), m.support.position(coord), -1)
    rows = arr.reshape(-1, m.alphabet.size)
    return rows, rows.sum(axis=1)


def _block_defect(m: DenseMeasure, prefix: tuple[int, ...], nxt: int) -> float | None:
    """Worst conditional gap of coordinate ``nxt`` given the atoms of ``prefix``.

    Returns ``None`` when some prefix atom has zero mass, in which case no
    conditional is defined there.
    """
    rows, row_mass = conditional_rows(project(m, prefix + (nxt,)), nxt)
    if np.any(row_mass <= 0.0):
        return None
    marg = project(m, (nxt,)).table
    cond = rows / row_mass[:, None]
    return float(np.max(np.abs(cond - marg[None, :])))


def _ordering_defect(m: DenseMeasure, order: tuple[int, ...]) -> float:
    worst = 0.0
    for i in range(1, len(order)):
        d = _block_defect(m, tuple(sorted(order[:i])), order[i])
        if d is None:
            raise ZeroMassError(
                f"ordering {order} conditions on a zero-mass atom of {order[:i]}"
            )
        worst = max(worst, d)
    return worst


def _scan_all_defect(m: DenseMeasure) -> float:
    """Minimum over all orderings of the worst conditional gap, by subset DP."""
    coords = tuple(m.support)
    n = len(coords)
    pair: dict[tuple[int, int], float] = {}
    for mask in range(1, 2**n):
        for j in range(n):
            if mask & (1 << j):
                continue
            prefix = tuple(coords[b] for b in range(n) if mask & (1 << b))
            d = _block_defect(m, prefix, coords[j])
            pair[(mask, j)] = np.inf if d is None else d
    best = np.full(2**n, np.inf)
    for j in range(n):
        best[1 << j] = 0.0
    for mask in range(1, 2**n):
        if best[mask] == np.inf and bin(mask).count("1") == 1:
            continue
        for j in range(n):
            bit = 1 << j
            if mask & bit or best[mask] == np.inf:
                continue
            cand = max(best[mask], pair[(mask, j)])
            if cand < best[mask | bit]:
                best[mask | bit] = cand
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

    def union_support(self) -> IndexSet:
        out = EMPTY
        for mu in self.members:
            out = out.union(mu.support)
        return out

    def members_containing(self, n: int) -> list[DenseMeasure]:
        return [mu for mu in self.members if n in mu.support]

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
    def from_dict(cls, data: dict, tol: float = DEFAULT_TOL) -> "MarginalFamily":
        alphabet = Alphabet(int(data["alphabet_size"]))
        members = tuple(
            DenseMeasure(
                alphabet,
                IndexSet.of(item["indices"]),
                np.asarray(item["table"], dtype=np.float64),
                "probability",
                tol,
            )
            for item in data["members"]
        )
        return cls(alphabet, members, float(data["alpha"]), int(data["N"]))
