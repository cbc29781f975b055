"""Building one measure with prescribed marginals.

Two routes are provided and kept deliberately independent of each other:

* the constructive engine: a norm-controlled right inverse of the
  projection operator onto a target family, and a coordinate-by-coordinate
  extension (one step, one loop; the dense and chain forms differ only in how
  much of the past they keep) that keeps every partial measure consistent
  with the prescriptions and approximately independent;
* a brute-force feasibility oracle that decides the same question on small
  windows without sharing any code with the engine. It tries the closed-form
  junction-tree product of the members first, when their supports are
  acyclic (Vorob'ev's theorem), and solves the linear program with scipy's
  HiGHS only when they are cyclic or that product fails the LP's own rows;
  either way the verdict rests on the measured residual alone, and scipy is
  imported only for the LP.

Analytic constants are never trusted for control flow. The engine measures
operator norms, positivity margins, and independence defects per step and
fails loudly when a budget is violated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    AnchorError,
    CapacityError,
    ConsistencyError,
    DomainError,
    IndependenceError,
    MargexError,
    PositivityError,
    SingularityError,
    SolverError,
)
from .measures import (
    DEFAULT_TOL,
    EMPTY,
    FIT_SWEEPS,
    GLUE_FLOOR,
    MADE_TOL,
    ORACLE_TOL,
    ROUND_TOL,
    SCAN_ALL_LIMIT,
    Alphabet,
    DenseMeasure,
    IndexLike,
    IndexSet,
    MarginalFamily,
    _cell_count,
    _conditional_gap,
    _embed,
    _glue,
    _report,
    _sum_out,
    conditional_rows,
    consistency_gap,
    delta_independence,
    project,
)

ORACLE_CELL_CAP = 2**16


def thresholds(alpha: float, n_cap: int, c_prime: float) -> tuple[float, float]:
    """Closed-form independence budgets for a family with overlap bound ``n_cap``.

    Returns ``(beta, delta)`` with ``beta = alpha^N / 2N`` and
    ``delta = beta * alpha^N / (4 * C' * N)``. These are existence-grade
    values; the engine treats them as budgets, not guarantees.
    """
    if not (0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must lie in (0, 1/2], got {alpha}")
    if n_cap < 1:
        raise DomainError(f"N must be >= 1, got {n_cap}")
    if c_prime < 1.0:
        raise DomainError(f"C' must be >= 1, got {c_prime}")
    beta = alpha**n_cap / (2.0 * n_cap)
    delta = beta * alpha**n_cap / (4.0 * c_prime * n_cap)
    return beta, delta


# -- projection operators and right inverses ------------------------------------

def _cell_codes(size: int, support: IndexSet, target: IndexSet) -> np.ndarray:
    """Lexicographic cell index in ``A^target`` of each cell of ``A^support``."""
    # the target's cell grid, with unit axes for the other coordinates,
    # broadcast over the support: the digits of the kept axes, re-raveled
    grid = np.arange(size ** len(target))
    grid = grid.reshape([size if i in target else 1 for i in support])
    return (grid + np.zeros((size,) * len(support), dtype=np.int64)).reshape(-1)


@dataclass(frozen=True)
class ProjectionOperator:
    """The linear map sending a measure on ``A^domain`` to its projections.

    ``targets`` is the family of coordinate sets to project onto. A family
    over the targets is one flat array: their tables concatenated in target
    order, which is the row order of :meth:`matrix`.
    """

    alphabet: Alphabet
    domain: IndexSet
    targets: tuple[IndexSet, ...]

    def __post_init__(self):
        if not self.targets:
            raise DomainError("operator needs at least one target")
        seen = set()
        for t in self.targets:
            if not t.issubset(self.domain):
                raise DomainError(f"target {tuple(t)} is not inside {tuple(self.domain)}")
            if t.indices in seen:
                raise DomainError(f"duplicate target {tuple(t)}")
            seen.add(t.indices)

    @property
    def domain_cells(self) -> int:
        return self.alphabet.size ** len(self.domain)

    def matrix(self) -> np.ndarray:
        rows = []
        for t in self.targets:
            codes = _cell_codes(self.alphabet.size, self.domain, t)
            block = np.zeros((self.alphabet.size ** len(t), self.domain_cells))
            block[codes, np.arange(self.domain_cells)] = 1.0
            rows.append(block)
        return np.vstack(rows)

    def apply(self, m: DenseMeasure) -> np.ndarray:
        if m.support != self.domain:
            raise DomainError("measure support does not match the operator domain")
        return np.concatenate([project(m, t).table for t in self.targets])


@dataclass(frozen=True, eq=False)
class RightInverse:
    """A right inverse ``B`` of a projection operator, anchored at one pair.

    ``B`` maps consistent families back to measures on the operator domain,
    satisfies ``pi(B(u)) = u`` on the consistent subspace, and sends the
    anchor family to the anchor measure. The minimum-norm inverse supplies the
    linear part; a rank-one correction along the anchor fixes the anchor pair.
    """

    alphabet: Alphabet
    domain: IndexSet
    _pinv: np.ndarray
    _corr: np.ndarray
    _w_vec: np.ndarray
    _w_norm2: float
    measured_norm: float

    def evaluate(self, family: np.ndarray) -> DenseMeasure:
        return DenseMeasure(self.alphabet, self.domain, self._image(family), "signed")

    def _image(self, family: np.ndarray) -> np.ndarray:
        u = np.asarray(family)
        return self._pinv @ u + self._corr * (self._w_vec @ u) / self._w_norm2


@functools.cache
def _structure(size: int, length: int, positions: tuple[tuple[int, ...], ...]) -> tuple:
    """The anchor-free part of a right inverse of the operator onto the
    target ``positions`` in a domain of ``length`` coordinates over ``size``
    symbols: its matrix, the pseudo-inverse and, per column ``u`` of an
    orthonormal image basis, ``(u, pinv @ u, |u|.max())``. One SVD gives the
    pseudo-inverse, formed as np.linalg.pinv forms it (so bit for bit), and
    the basis. The whole process shares one structure per shape, read-only."""
    targets = tuple(map(IndexSet.of, positions))
    mat = ProjectionOperator(Alphabet(size), IndexSet.of(range(length)), targets).matrix()
    u_svd, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-12))
    large = s > 1e-15 * s.max()
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    pinv = vt.T @ (s_inv[:, None] * u_svd.T)
    basis = tuple((u, pinv @ u, np.abs(u).max()) for u in u_svd.T[:rank])
    for arr in (mat, pinv, *(a for entry in basis for a in entry[:2])):
        arr.flags.writeable = False
    return mat, pinv, basis


def bounded_right_inverse(
    op: ProjectionOperator,
    v: DenseMeasure,
    w: np.ndarray,
) -> RightInverse:
    """Right inverse of ``op`` with ``B(w) = v``, plus its measured sup-norm.

    ``w`` is a family over the operator's targets in :meth:`ProjectionOperator.apply`
    form. Requires ``op(v) = w`` within ``DEFAULT_TOL`` (at least ``ROUND_TOL`` per cell)
    and ``w != 0``.
    """
    if v.support != op.domain:
        raise DomainError("anchor measure must live on the operator domain")
    positions = tuple(op.domain.positions(t) for t in op.targets)
    return _anchored_inverse(op.alphabet, op.domain, positions, v.table, w, DEFAULT_TOL)


def _anchored_inverse(alphabet, domain, positions, anchor, w, tol):
    """:func:`bounded_right_inverse` on the operator onto the target
    ``positions`` in ``domain``, anchored at the flat table ``anchor`` and
    the family ``w``, checked at ``tol``; the extension step calls it at its
    own ``tol`` without building the operator or the anchor measure."""
    mat, pinv, basis = _structure(alphabet.size, len(domain), positions)
    w_vec = np.asarray(w, dtype=np.float64)
    if w_vec.shape != mat.shape[:1]:
        raise DomainError("anchor family must belong to the operator")
    if float(np.abs(w_vec).max()) == 0.0:
        raise DomainError("anchor family is zero; no anchored right inverse exists")
    gap = float(np.abs(mat @ anchor - w_vec).max())
    if gap > max(tol, ROUND_TOL * anchor.size):
        raise AnchorError(f"operator applied to the anchor measure misses w by {gap}")
    corr = anchor - pinv @ w_vec
    w_norm2 = float(w_vec @ w_vec)

    # measure the sup-operator norm on an orthonormal basis of the image
    measured = 0.0
    for u, pinv_u, u_max in basis:
        x = pinv_u + corr * (w_vec @ u) / w_norm2
        measured = max(measured, float(np.abs(x).max() / u_max))
    return RightInverse(alphabet, domain, pinv, corr, w_vec, w_norm2, measured)


# -- one-coordinate extension step -----------------------------------------------

@dataclass(frozen=True, eq=False)
class ExtensionStep:
    """Audit record of one coordinate extension."""

    index: int
    s_bar: IndexSet
    r_bar: IndexSet
    sigma: DenseMeasure
    positivity_margin: float
    beta_defect: float
    b_norm: float
    trivial: bool
    restriction_gap: float = 0.0

    def to_dict(self) -> dict:
        return _report(self, "sigma", "restriction_gap")


@dataclass(frozen=True, eq=False)
class ChainExtension:
    """A window measure represented by the extension steps of either driver.

    Each step is a kernel ``(index, r_bar, sigma)`` with ``r_bar`` inside the
    trailing ``span`` coordinates. The chain never keeps more than those, so
    it scales to windows whose full table would be huge.
    """

    family: MarginalFamily
    window: IndexSet
    span: int
    steps: tuple[ExtensionStep, ...]

    def marginal(self, target: IndexLike) -> DenseMeasure:
        """Projection onto ``target`` by replaying every step on tables, each
        glued at the gap its extension run admitted (a gap moves the law of
        earlier coordinates, so the walk never stops early); checked once."""
        target = IndexSet.of(target)
        if not target.issubset(self.window):
            raise DomainError("target must lie inside the window")
        table, support = np.ones(()), ()
        for step in self.steps:
            v = _sum_out(table, support, step.r_bar)
            gap = float(np.abs(v - _sum_out(step.sigma.as_array(), step.s_bar, step.r_bar)).max())
            glue_tol = max(GLUE_FLOOR, 2.0 * step.restriction_gap)
            table, support = _advance(table, support, step, v, gap, glue_tol, target, self.span)
        table = _sum_out(table, support, target)
        return DenseMeasure._owned(self.family.alphabet, target, table, "probability", MADE_TOL)

    def dense(self) -> DenseMeasure:
        return self.marginal(self.window)

    def max_beta_defect(self) -> float:
        return max((s.beta_defect for s in self.steps), default=0.0)

    def to_dict(self) -> dict:
        return {**_report(self, "family", "window", "span"), "max_beta_defect": self.max_beta_defect()}


def _sigma_step(family, members_n, lam, support, n, tol):
    """Construct the prospective marginal on the reach of coordinate ``n``
    from ``members_n``, the family members through ``n``.

    ``lam`` is a table over ``support`` (ascending coordinates) holding at
    least the prior coordinates of the members through ``n``. Returns
    ``(v, ExtensionStep)``: ``v`` is ``lam`` summed onto the prior part of
    the union of the member supports through ``n``, each cut to the known
    coordinates, and ``sigma`` on that union is the minimum-norm image if it
    is nonnegative, else fitted by :func:`_fit` (the step keeps the image's
    negative margin), else refused with ``PositivityError``. With no members
    the kernel is uniform on ``n`` and ``v`` is ``lam``'s total mass.
    """
    alphabet = family.alphabet
    if not members_n:
        sigma = DenseMeasure.uniform(alphabet, (n,))
        v = _sum_out(lam, support, EMPTY)
        step = ExtensionStep(
            index=n,
            s_bar=sigma.support,
            r_bar=EMPTY,
            sigma=sigma,
            positivity_margin=1.0 / alphabet.size,
            beta_defect=0.0,
            b_norm=1.0,
            trivial=True,
            restriction_gap=abs(float(v) - float(sigma.table.sum())),
        )
        return v, step
    members_n = sorted(members_n, key=lambda mu: mu.support.indices)
    extended = set(support) | {n}

    # each member's table on the coordinates known after this step
    slice_sources: dict[tuple[int, ...], np.ndarray] = {}
    for mu in members_n:
        s_idx = tuple(i for i in mu.support if i in extended)
        restricted = _sum_out(mu.as_array(), mu.support, s_idx)
        stored = slice_sources.setdefault(s_idx, restricted)
        if stored is not restricted:
            gap = float(np.abs(stored - restricted).max())
            if gap > max(tol, ROUND_TOL * restricted.size):
                raise ConsistencyError(f"two members prescribe different laws on {s_idx} (gap {gap})")

    # every source holds n; its target is the rest of its support
    sources = {tuple(i for i in s if i != n): s for s in slice_sources}
    targets = sorted(sources)
    r_bar = IndexSet._from_set(set().union(*targets))
    s_bar = IndexSet._from_set(set(r_bar.indices) | {n})

    nu = np.concatenate([_sum_out(slice_sources[sources[t]], sources[t], t).reshape(-1) for t in targets])
    v = _sum_out(lam, support, r_bar)
    # anchor at the prior measure's own projections, which match the members'
    # marginals exactly in exact arithmetic; any quantization drift between
    # the two is measured and absorbed into the identity tolerances below
    w = np.concatenate([_sum_out(v, r_bar, t).reshape(-1) for t in targets])
    drift = float(np.abs(w - nu).max())
    if drift > max(tol, ROUND_TOL * v.size):
        raise AnchorError(
            f"prior measure and prescriptions disagree on the overlap by {drift}"
        )
    positions = tuple(tuple(map(r_bar.indices.index, t)) for t in targets)
    binv = _anchored_inverse(alphabet, r_bar, positions, v.reshape(-1), w, tol)

    # row a: symbol a's family, each source table sliced at coordinate n = a;
    # sigma's slice at n = a is that family's image
    size = alphabet.size
    families = np.concatenate(
        [_by_symbol(slice_sources[sources[t]], sources[t].index(n), size).reshape(size, -1) for t in targets], axis=1
    )
    sigma_arr = np.empty((size,) * len(s_bar))
    sigma_rows = _by_symbol(sigma_arr, s_bar.position(n), size)
    for a, u in enumerate(families):
        sigma_rows[a] = binv._image(u).reshape(sigma_rows.shape[1:])
    margin = float(sigma_arr.min())
    if margin < 0.0:
        # the image dips below 0: fit the same system from ones; as every constraint
        # fixes n's law, the fit tends to the law nearest v times n's law in KL divergence
        cell = int(np.argmin(sigma_arr))
        constraints = [(r_bar.indices, v), *slice_sources.items()]
        sigma_arr, residual = _fit(np.ones(sigma_arr.shape), s_bar.indices, constraints)
        if residual > ROUND_TOL * sigma_arr.size:
            why = f"prospective marginal for coordinate {n} has a negative cell ({margin}) and no nonnegative fit"
            raise PositivityError(f"{why} (residual {residual})", margin=margin, cell=cell, residual=residual)
    sigma = DenseMeasure._owned(alphabet, s_bar, sigma_arr, "probability", MADE_TOL)

    # the two projection identities the construction promises
    check_tol = max(
        tol,
        ROUND_TOL * sigma_arr.size,
        10 * tol * binv.measured_norm,
        4 * drift * max(binv.measured_norm, 1.0),
    )
    back = float(np.abs(_sum_out(sigma_arr, s_bar, r_bar) - v).max())
    if back > check_tol:
        raise ConsistencyError(
            f"sigma does not restrict to the prior measure on {tuple(r_bar)} (gap {back})"
        )
    for s_idx, mu_s in slice_sources.items():
        gap = float(np.abs(_sum_out(sigma_arr, s_bar, s_idx) - mu_s).max())
        if gap > check_tol:
            raise ConsistencyError(f"sigma misses the prescription on {s_idx} by {gap}")

    # defect of the fresh coordinate against the atoms of A^{r_bar}
    beta_defect = float(_conditional_gap(*conditional_rows(sigma, n), _sum_out(sigma_arr, s_bar, (n,)))[0])
    if beta_defect == np.inf:
        raise SingularityError("all atoms of the overlap have zero mass")

    step = ExtensionStep(
        index=n,
        s_bar=s_bar,
        r_bar=r_bar,
        sigma=sigma,
        positivity_margin=margin,
        beta_defect=beta_defect,
        b_norm=binv.measured_norm,
        trivial=False,
        restriction_gap=back,
    )
    return v, step


def _fit(x, support, constraints):
    """Iterative proportional fitting: ``(x, residual)`` once the table ``x >= 0`` over ``support``,
    rescaled onto each ``(coordinates, table)`` in turn, meets all within ``ROUND_TOL`` per cell,
    or after ``FIT_SWEEPS`` sweeps, with the largest miss over the constraints as the residual."""
    for _ in range(FIT_SWEEPS):
        for coords, table in constraints:
            now = _sum_out(x, support, coords)
            x = x * _embed(np.divide(table, now, out=np.zeros_like(now), where=now > 0), coords, support)
        residual = max(float(np.abs(_sum_out(x, support, c) - t).max()) for c, t in constraints)
        if residual <= ROUND_TOL * x.size:
            break
    return x, residual


def _by_symbol(arr, pos, size):
    """View of the table ``arr`` whose row ``a`` is ``arr`` sliced at
    symbol ``a`` of axis ``pos``, as a matrix over the axes before and after."""
    return arr.reshape(size**pos, size, -1).swapaxes(0, 1)


def _advance(table, support, step, v, gap, glue_tol, target, span):
    """The one walk step of both extension runs and the replay: glue the
    step's kernel onto ``table`` over ``support`` given ``v``, the table
    summed onto the overlap, and ``gap``, its distance from the kernel's;
    then keep the coordinates in ``target`` and the trailing ``span``."""
    size, sigma, s_bar = step.sigma.alphabet.size, step.sigma.as_array(), step.s_bar.indices
    table, support = _glue(size, table, support, sigma, s_bar, v, gap, glue_tol)
    keep = tuple(i for i in support if i in target or i > step.index - span)
    if len(keep) < len(support):
        table, support = _sum_out(table, support, keep), keep
    return table, support


def _extend(family, window, beta, tol, dense):
    """The coordinate-extension loop of both drivers on tables:
    ``(final measure, ChainExtension)``. ``dense`` keeps every coordinate, the
    chain only those within the widest member span of the newest, which are
    all a step reads. ``beta=None`` records each step's defect without
    enforcing it. A failing step's error names its coordinate.
    """
    if beta is not None and not beta >= 0:
        raise DomainError(f"independence budget beta must be >= 0, got {beta}")
    window = IndexSet.of(window)
    if not family.union_support().issubset(window):
        raise DomainError("window must contain every member support")
    span = 1
    for mu in family.members:
        if len(mu.support) >= 2:
            span = max(span, max(mu.support) - min(mu.support))
    _cell_count(family.alphabet.size, window if dense else range(span + 1))
    target = window if dense else EMPTY
    table, support = np.ones(()), ()
    steps = []
    for n in window:
        try:
            v, step = _sigma_step(family, family.members_containing(n), table, support, n, tol)
            if beta is not None and step.beta_defect > beta + tol:
                raise IndependenceError(
                    f"coordinate {n} is only {step.beta_defect}-independent of the prior block "
                    f"(budget {beta})",
                    defect=step.beta_defect,
                    budget=beta,
                    index=n,
                )
            # v and the gap come from the step's one reduction of the table
            glue_tol = max(tol, GLUE_FLOOR)
            table, support = _advance(table, support, step, v, step.restriction_gap, glue_tol, target, span)
        except MargexError as err:
            err.args = (f"extension failed at coordinate {n}: {err}", *err.args[1:])
            raise
        steps.append(step)
    lam = DenseMeasure._owned(family.alphabet, IndexSet(support), table, "probability", MADE_TOL)
    return lam, ChainExtension(family, window, span, tuple(steps))


def extend_family(
    family: MarginalFamily,
    window: IndexLike,
    beta: float,
    tol: float = DEFAULT_TOL,
) -> tuple[DenseMeasure, ChainExtension]:
    """Extend the family to one measure on the whole window, low index first.

    Starts from the trivial measure on no coordinates and takes one extension
    step per window coordinate in ascending order, keeping every coordinate,
    and returns the measure with its steps. Raises with the failing coordinate
    attached if a step loses positivity or exceeds the independence budget.
    """
    return _extend(family, window, beta, tol, True)


def extend_family_chain(
    family: MarginalFamily,
    window: IndexLike,
    beta: float | None = None,
    tol: float = DEFAULT_TOL,
) -> ChainExtension:
    """Window extension in kernel form with bounded-memory forward state.

    The same loop as :func:`extend_family`, keeping only the trailing marginal
    over the widest member span. With ``beta=None`` the per-step defect is
    recorded but not enforced. A step whose minimum-norm image dips below 0
    is fitted by iterative proportional fitting, or refused if no fit meets it.
    """
    return _extend(family, window, beta, tol, False)[1]


# -- linear-feasibility oracle ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class OracleResult:
    feasible: bool
    witness: DenseMeasure | None
    max_residual: float

    def to_dict(self) -> dict:
        return _report(self)


def _junction_order(supports: list[set[int]]) -> list[int] | None:
    """Member indices in reverse GYO removal order, or ``None`` when the
    supports are cyclic. A member is removed when its overlap with the union
    of the other remaining members lies inside one of them; the supports are
    acyclic iff every member is removed."""
    remaining, removed = list(range(len(supports))), []
    while remaining:
        for k in remaining:
            others = [supports[j] for j in remaining if j != k]
            overlap = supports[k] & set().union(*others)
            if not others or any(overlap <= s for s in others):
                break
        else:
            return None
        remaining.remove(k)
        removed.append(k)
    return removed[::-1]


def _junction_witness(family: MarginalFamily, window: IndexSet) -> np.ndarray | None:
    """The junction-tree product of the members on ``window``, as a flat
    table of total 1, or ``None`` when the supports are cyclic or the product
    has no mass. Each member in reverse GYO order multiplies in ``mu /
    mu_sep``, with ``mu_sep`` its sum onto its overlap with the members
    before it (0 where that is 0); a member inside those adds nothing. On a
    consistent family this is a common extension; the caller checks it."""
    order = _junction_order([set(mu.support) for mu in family.members])
    if order is None:
        return None
    size = family.alphabet.size
    x, covered = np.ones((size,) * len(window)), set()
    for k in order:
        mu = family.members[k]
        if covered.issuperset(mu.support):
            continue
        sep = _sum_out(mu.as_array(), mu.support, covered)
        sep = np.reshape(sep, [size if i in covered else 1 for i in mu.support])
        ratio = np.divide(mu.as_array(), sep, out=np.zeros(mu.shape), where=sep > 0)
        x *= ratio.reshape([size if i in mu.support else 1 for i in window])
        covered |= set(mu.support)
    x = np.clip(x.reshape(-1), 0.0, None)
    total = float(x.sum())
    return x / total if total > 0 else None


def _oracle_residual(family: MarginalFamily, window: IndexSet, x: np.ndarray) -> float:
    """Largest ``|A x - b|`` of the oracle's rows at the flat window table
    ``x``: the sum row and every cell row of every member."""
    size = family.alphabet.size
    worst = abs(float(x.sum()) - 1.0)
    for mu in family.members:
        rows = np.bincount(_cell_codes(size, window, mu.support), weights=x, minlength=mu.table.size)
        worst = max(worst, float(np.abs(rows - mu.table).max()))
    return worst


def brute_force_extension_exists(
    family: MarginalFamily,
    window: IndexLike,
) -> OracleResult:
    """Decide whether a common extension exists, with a witness when it does.

    The system is ``x >= 0``, ``sum x = 1``, and one marginal equation per
    cell of each member, over the dense table on the window. When the member
    supports are acyclic, the junction-tree product of the members is tried
    first, and it is the witness if it meets every row within ``ORACLE_TOL``
    (by Vorob'ev's theorem it does on a consistent family). Otherwise the
    linear program is solved with scipy's HiGHS, and only then is scipy
    imported. Completely independent of the constructive engine.
    """
    window = IndexSet.of(window)
    if not family.union_support().issubset(window):
        raise DomainError("window must contain every member support")
    size = family.alphabet.size
    n_cells = size ** len(window)
    if n_cells > ORACLE_CELL_CAP:
        raise CapacityError(f"oracle capped at {ORACLE_CELL_CAP} cells, window needs {n_cells}")

    x = _junction_witness(family, window)
    if x is not None:
        residual = _oracle_residual(family, window, x)
        if residual <= ORACLE_TOL:
            witness = DenseMeasure._owned(family.alphabet, window, x, "probability", MADE_TOL)
            return OracleResult(True, witness, residual)

    # imported here: scipy is most of the import time of the package, and
    # only this linear program uses it
    import scipy.sparse
    from scipy.optimize import linprog

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
    residual = _oracle_residual(family, window, x)
    if residual > ORACLE_TOL:
        raise SolverError(f"solver residual {residual} exceeds tolerance {ORACLE_TOL}")
    witness = DenseMeasure._owned(family.alphabet, window, x, "probability", MADE_TOL)
    return OracleResult(True, witness, residual)


# -- hypothesis report --------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    location: str
    magnitude: float
    limit: float

    def to_dict(self) -> dict:
        return _report(self)


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    ok: bool
    violations: tuple[Violation, ...]
    stats: dict

    def to_dict(self) -> dict:
        return _report(self)


def verify_hypotheses(
    family: MarginalFamily,
    delta: float,
    tol: float = DEFAULT_TOL,
) -> HypothesisReport:
    """Report-style check of the extension hypotheses.

    Checks, without raising: the per-coordinate overlap bound against the
    family's ``n_cap``; pairwise consistency at ``tol``, at least ``ROUND_TOL``
    per compared cell as in the drivers; the ``alpha`` floor on
    one-dimensional marginal atoms; and the ``delta`` independence of each
    member (natural ordering, improved by a full ordering scan on small
    supports). Every violation carries its location and magnitude.
    """
    if not delta >= 0:
        raise DomainError(f"independence budget delta must be >= 0, got {delta}")
    violations: list[Violation] = []

    union = family.union_support()
    worst_reach = 0
    for n in union:
        reach = len(family.reach_of(n))
        worst_reach = max(worst_reach, reach)
        if reach > family.n_cap:
            violations.append(
                Violation("overlap_bound", f"coordinate {n}", float(reach), float(family.n_cap))
            )

    # a disjoint pair's common projection is the total mass: each member's
    # total is summed once, by project's reduction, and only overlapping
    # pairs are projected
    members = family.members
    supports = [set(mu.support) for mu in members]
    totals = [_sum_out(mu.as_array(), mu.support, EMPTY) for mu in members]
    worst_gap = 0.0
    for i, j in combinations(range(len(members)), 2):
        common = supports[i] & supports[j]
        if common:
            gap = consistency_gap(members[i], members[j])
        else:
            gap = float(abs(totals[i] - totals[j]))
        worst_gap = max(worst_gap, gap)
        limit = max(tol, ROUND_TOL * family.alphabet.size ** len(common))
        if gap > limit:
            violations.append(Violation("consistency", f"members {i},{j}", gap, limit))

    min_atom = 1.0
    for i, mu in enumerate(family.members):
        for coord in mu.support:
            atoms = project(mu, (coord,)).table
            low = float(atoms.min())
            min_atom = min(min_atom, low)
            if low < family.alpha - tol:
                violations.append(
                    Violation(
                        "marginal_floor",
                        f"member {i}, coordinate {coord}, atom {int(np.argmin(atoms))}",
                        low,
                        family.alpha,
                    )
                )

    max_defect = 0.0
    defects = []
    for i, mu in enumerate(family.members):
        defect = delta_independence(mu, "ascending")
        if defect > delta and len(mu.support) <= SCAN_ALL_LIMIT:
            defect = min(defect, delta_independence(mu, "scan_all"))
        defects.append(defect)
        max_defect = max(max_defect, defect)
        if defect > delta + tol:
            violations.append(
                Violation("independence", f"member {i}", defect, delta)
            )

    stats = {
        "worst_overlap": worst_reach,
        "worst_consistency_gap": worst_gap,
        "min_marginal_atom": min_atom,
        "member_defects": defects,
        "max_defect": max_defect,
        "delta": delta,
    }
    return HypothesisReport(not violations, tuple(violations), stats)
