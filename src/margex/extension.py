"""Building one measure with prescribed marginals.

Two routes are provided and kept deliberately independent of each other:

* the constructive engine: an inclusion-exclusion common extension for
  consistent signed families, a norm-controlled right inverse of the
  projection operator onto a target family, and a coordinate-by-coordinate
  extension (one step, one loop; the dense and chain forms differ only in how
  much of the past they keep) that keeps every partial measure consistent
  with the prescriptions and approximately independent;
* a brute-force linear-feasibility oracle that decides the same question on
  small windows without sharing any code with the engine.

Analytic constants are never trusted for control flow. The engine measures
operator norms, positivity margins, and independence defects per step and
fails loudly when a budget is violated.
"""

from __future__ import annotations

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
)
from .measures import (
    CELL_CAP,
    DEFAULT_TOL,
    EMPTY,
    Alphabet,
    DenseMeasure,
    IndexLike,
    IndexSet,
    MarginalFamily,
    _glue,
    conditional_rows,
    consistency_gap,
    delta_independence,
    project,
    relative_product,
    sup_distance,
    tensor,
)

ORACLE_CELL_CAP = 2**16


class SolverError(MargexError, RuntimeError):
    """The external LP solver neither solved nor proved infeasibility."""


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


# -- inclusion-exclusion common extension ---------------------------------------

def inclusion_exclusion_extension(
    parts: list[DenseMeasure],
    q: DenseMeasure | None = None,
    tol: float = DEFAULT_TOL,
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
        if gap > tol:
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

    operator: ProjectionOperator
    _pinv: np.ndarray
    _corr: np.ndarray
    _w_vec: np.ndarray
    _w_norm2: float
    measured_norm: float

    def evaluate(self, family: np.ndarray) -> DenseMeasure:
        u = np.asarray(family)
        x = self._pinv @ u + self._corr * (self._w_vec @ u) / self._w_norm2
        return DenseMeasure(self.operator.alphabet, self.operator.domain, x, "signed")


def bounded_right_inverse(
    op: ProjectionOperator,
    v: DenseMeasure,
    w: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> RightInverse:
    """Right inverse of ``op`` with ``B(w) = v``, plus its measured sup-norm.

    ``w`` is a family over the operator's targets in :meth:`ProjectionOperator.apply`
    form. Requires ``op(v) = w`` within ``tol`` and ``w != 0``.
    """
    if v.support != op.domain:
        raise DomainError("anchor measure must live on the operator domain")
    mat = op.matrix()
    w_vec = np.asarray(w, dtype=np.float64)
    if w_vec.shape != mat.shape[:1]:
        raise DomainError("anchor family must belong to the operator")
    if float(np.abs(w_vec).max()) == 0.0:
        raise DomainError("anchor family is zero; no anchored right inverse exists")
    gap = float(np.abs(mat @ v.table - w_vec).max())
    if gap > tol:
        raise AnchorError(f"operator applied to the anchor measure misses w by {gap}")

    # one SVD gives the pseudo-inverse, formed as np.linalg.pinv forms it
    # (same cutoff and products, so bit for bit), and the image basis
    u_svd, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-12))
    large = s > 1e-15 * s.max()
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    pinv = vt.T @ (s_inv[:, None] * u_svd.T)
    corr = v.table - pinv @ w_vec
    w_norm2 = float(w_vec @ w_vec)

    # measure the sup-operator norm on an orthonormal basis of the image
    measured = 0.0
    for col in range(rank):
        u = u_svd[:, col]
        x = pinv @ u + corr * (w_vec @ u) / w_norm2
        measured = max(measured, float(np.abs(x).max() / np.abs(u).max()))
    return RightInverse(op, pinv, corr, w_vec, w_norm2, measured)


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
    clipped: float = 0.0
    restriction_gap: float = 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "s_bar": list(self.s_bar),
            "r_bar": list(self.r_bar),
            "positivity_margin": self.positivity_margin,
            "beta_defect": self.beta_defect,
            "b_norm": self.b_norm,
            "trivial": self.trivial,
            "clipped": self.clipped,
        }


@dataclass(frozen=True, eq=False)
class ExtensionTrace:
    steps: tuple[ExtensionStep, ...]

    def max_beta_defect(self) -> float:
        return max((s.beta_defect for s in self.steps), default=0.0)

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "max_beta_defect": self.max_beta_defect(),
        }


def _sigma_step(family, lam, n, tol, pos_tol=None):
    """Construct the prospective marginal on the reach of coordinate ``n``.

    ``lam`` holds at least the prior coordinates of the members through
    ``n``. Returns ``(sigma, v, ExtensionStep)`` where ``sigma`` lives on the
    union of the clipped member supports through ``n`` and ``v`` is ``lam``'s
    projection onto the prior part of that union. Negative cells beyond
    ``pos_tol`` (default ``tol``) are a hard error; smaller ones are clipped,
    renormalized, and recorded on the step.
    """
    alphabet = family.alphabet
    members_n = sorted(family.members_containing(n), key=lambda mu: mu.support.indices)
    extended = lam.support.union((n,))

    slice_sources: dict[tuple[int, ...], DenseMeasure] = {}
    for mu in members_n:
        s_set = mu.support.intersection(extended)
        restricted = project(mu, s_set)
        stored = slice_sources.get(s_set.indices)
        if stored is None:
            slice_sources[s_set.indices] = restricted
        else:
            gap = sup_distance(stored, restricted)
            if gap > max(tol, 1e-9):
                raise ConsistencyError(
                    f"two members prescribe different laws on {s_set.indices} (gap {gap})"
                )

    targets = sorted(
        {IndexSet.of(set(s) - {n}).indices for s in slice_sources},
    )
    target_sets = tuple(IndexSet(t) for t in targets)
    r_bar = EMPTY
    for t in target_sets:
        r_bar = r_bar.union(t)
    s_bar = r_bar.union((n,))

    nu = np.concatenate(
        [project(slice_sources[t.union((n,)).indices], t).table for t in target_sets]
    )
    op = ProjectionOperator(alphabet, r_bar, target_sets)
    v = project(lam, r_bar)
    # anchor at the prior measure's own projections, which match the members'
    # marginals exactly in exact arithmetic; any quantization drift between
    # the two is measured and absorbed into the identity tolerances below
    w = op.apply(v)
    drift = float(np.abs(w - nu).max())
    if pos_tol is None:
        pos_tol = tol
    if drift > max(tol, 4 * pos_tol * v.table.size):
        raise AnchorError(
            f"prior measure and prescriptions disagree on the overlap by {drift}"
        )
    binv = bounded_right_inverse(op, v, w, tol=tol)

    # symbol a's family: each source table sliced at coordinate n = a
    sources = [slice_sources[t.union((n,)).indices] for t in target_sets]
    sources = [(src.as_array(), src.support.position(n)) for src in sources]
    slices = []
    for a in range(alphabet.size):
        u = np.concatenate([np.take(arr, a, axis=pos).reshape(-1) for arr, pos in sources])
        slices.append(binv.evaluate(u).as_array())
    sigma_arr = np.stack(slices, axis=s_bar.position(n))
    margin = float(sigma_arr.min())
    if margin < -pos_tol:
        raise PositivityError(
            f"prospective marginal for coordinate {n} has a negative cell ({margin})",
            margin=margin,
            cell=int(np.argmin(sigma_arr)),
        )
    clipped = 0.0
    if margin < 0.0:
        clipped = -margin
        sigma_arr = np.clip(sigma_arr, 0.0, None)
        sigma_arr *= v.total_mass() / sigma_arr.sum()
    sigma = DenseMeasure(alphabet, s_bar, sigma_arr.reshape(-1), "probability", tol=1e-6)

    # the two projection identities the construction promises
    check_tol = max(
        tol,
        10 * tol * binv.measured_norm,
        4 * clipped * sigma_arr.size,
        4 * drift * max(binv.measured_norm, 1.0),
    )
    back = sup_distance(project(sigma, r_bar), v)
    if back > check_tol:
        raise ConsistencyError(
            f"sigma does not restrict to the prior measure on {tuple(r_bar)} (gap {back})"
        )
    for s_idx, mu_s in slice_sources.items():
        gap = sup_distance(project(sigma, IndexSet(s_idx)), mu_s)
        if gap > check_tol:
            raise ConsistencyError(
                f"sigma misses the prescription on {s_idx} by {gap}"
            )

    # defect of the fresh coordinate against the atoms of A^{r_bar}
    rows, row_mass = conditional_rows(sigma, n)
    n_marg = project(sigma, (n,)).table
    good = row_mass > 0.0
    if not np.any(good):
        raise SingularityError("all atoms of the overlap have zero mass")
    cond = rows[good] / row_mass[good, None]
    beta_defect = float(np.abs(cond - n_marg[None, :]).max())

    step = ExtensionStep(
        index=n,
        s_bar=s_bar,
        r_bar=r_bar,
        sigma=sigma,
        positivity_margin=margin,
        beta_defect=beta_defect,
        b_norm=binv.measured_norm,
        trivial=False,
        clipped=clipped,
        restriction_gap=back,
    )
    return sigma, v, step


def _extension_step(family, lam, n, beta, tol, pos_tol):
    """Extend ``lam`` by coordinate ``n``; the step of every driver.

    ``beta=None`` records the defect without enforcing it. The glue tolerance
    admits the step's restriction gap only when ``pos_tol`` allows clipping.
    """
    if not family.members_containing(n):
        sigma = DenseMeasure.uniform(family.alphabet, (n,))
        step = ExtensionStep(
            index=n,
            s_bar=sigma.support,
            r_bar=EMPTY,
            sigma=sigma,
            positivity_margin=1.0 / family.alphabet.size,
            beta_defect=0.0,
            b_norm=1.0,
            trivial=True,
        )
        return tensor(lam, sigma), step

    sigma, v, step = _sigma_step(family, lam, n, tol, pos_tol)
    if beta is not None and step.beta_defect > beta + tol:
        raise IndependenceError(
            f"coordinate {n} is only {step.beta_defect}-independent of the prior block "
            f"(budget {beta})",
            defect=step.beta_defect,
            budget=beta,
            index=n,
        )
    glue_tol = max(tol, 1e-7)
    if pos_tol is not None:
        glue_tol = max(glue_tol, 2.0 * step.restriction_gap)
    # v is lam's projection onto the overlap r_bar, and the restriction gap
    # its distance from sigma's, so lam is projected once per step
    return _glue(lam, sigma, v, step.restriction_gap, glue_tol), step


def _extend(family, window, beta, tol, pos_tol, span):
    """The coordinate-extension loop: ``(final measure, steps)``.

    ``span=None`` keeps every coordinate (dense); an integer keeps only the
    trailing ``span`` (chain). A failing step's error names its coordinate.
    """
    lam = DenseMeasure.unit(family.alphabet)
    steps = []
    for n in window:
        try:
            lam, step = _extension_step(family, lam, n, beta, tol, pos_tol)
        except (PositivityError, IndependenceError, ConsistencyError, SingularityError) as err:
            err.args = (f"extension failed at coordinate {n}: {err}", *err.args[1:])
            raise
        steps.append(step)
        if span is not None:
            lam = project(lam, IndexSet.of({i for i in lam.support if i > n - span}))
    return lam, tuple(steps)


def extend_one_index(
    family: MarginalFamily,
    lam: DenseMeasure,
    n: int,
    beta: float,
    tol: float = DEFAULT_TOL,
) -> tuple[DenseMeasure, ExtensionStep]:
    """Extend a partial measure by one fresh coordinate.

    ``lam`` must be a probability measure consistent with every family member
    and approximately independent; the output extends ``lam``, stays
    consistent with every member, and makes the new coordinate ``beta``
    independent of the existing ones. When no member mentions ``n`` the
    coordinate is appended as an independent uniform symbol.
    """
    if n in lam.support:
        raise DomainError(f"coordinate {n} already belongs to the partial measure")
    if lam.kind != "probability":
        raise DomainError("partial measure must be a probability measure")
    return _extension_step(family, lam, n, beta, tol, None)


def extend_family(
    family: MarginalFamily,
    window: IndexLike,
    beta: float,
    tol: float = DEFAULT_TOL,
) -> tuple[DenseMeasure, ExtensionTrace]:
    """Extend the family to one measure on the whole window, low index first.

    Starts from the trivial measure on no coordinates and takes one extension
    step per window coordinate in ascending order, keeping every coordinate.
    Raises with the failing coordinate attached if a step loses positivity or
    exceeds the independence budget.
    """
    window = IndexSet.of(window)
    if not family.union_support().issubset(window):
        raise DomainError("window must contain every member support")
    if family.alphabet.size ** len(window) > CELL_CAP:
        raise CapacityError(f"window of {len(window)} coordinates exceeds the dense cap")
    lam, steps = _extend(family, window, beta, tol, None, None)
    return lam, ExtensionTrace(steps)


# -- streaming extension with bounded memory -------------------------------------

@dataclass(frozen=True, eq=False)
class ChainExtension:
    """A window measure represented by its extension steps.

    Each step is a kernel ``(index, r_bar, sigma)``. The dense extension takes
    the same steps, but the chain never kept more than the trailing ``span``
    coordinates, so it scales to windows whose full table would be huge.
    """

    family: MarginalFamily
    window: IndexSet
    span: int
    steps: tuple[ExtensionStep, ...]

    def marginal(self, target: IndexLike) -> DenseMeasure:
        """Projection onto ``target`` by forward filtering along the window."""
        target = IndexSet.of(target)
        if not target.issubset(self.window):
            raise DomainError("target must lie inside the window")
        state = DenseMeasure.unit(self.family.alphabet)
        done_upto = None
        for step in self.steps:
            n = step.index
            state = relative_product(state, step.sigma, tol=1e-6)
            keep = {
                i
                for i in state.support
                if i in target or i > n - self.span
            }
            state = project(state, IndexSet.of(keep))
            done_upto = n
            if target and n >= max(target):
                break
        if target and (done_upto is None or done_upto < max(target)):
            raise DomainError("window does not cover the requested target")
        return project(state, target)

    def dense(self) -> DenseMeasure:
        return self.marginal(self.window)

    def max_beta_defect(self) -> float:
        return max((s.beta_defect for s in self.steps), default=0.0)


def extend_family_chain(
    family: MarginalFamily,
    window: IndexLike,
    beta: float | None = None,
    tol: float = DEFAULT_TOL,
    pos_tol: float | None = None,
) -> ChainExtension:
    """Window extension in kernel form with bounded-memory forward state.

    The same loop as :func:`extend_family`, keeping only the trailing marginal
    over the widest member span. With ``beta=None`` the per-step defect is
    recorded but not enforced. ``pos_tol`` bounds the per-step negativity
    that is clipped rather than fatal.
    """
    window = IndexSet.of(window)
    if not family.union_support().issubset(window):
        raise DomainError("window must contain every member support")
    span = 1
    for mu in family.members:
        if len(mu.support) >= 2:
            span = max(span, max(mu.support) - min(mu.support))
    if family.alphabet.size ** (span + 1) > CELL_CAP:
        raise CapacityError("member span exceeds the streaming state cap")
    _, steps = _extend(family, window, beta, tol, pos_tol, span)
    return ChainExtension(family, window, span, steps)


# -- linear-feasibility oracle ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class OracleResult:
    feasible: bool
    witness: DenseMeasure | None
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "max_residual": self.max_residual,
            "witness": self.witness.to_dict() if self.witness is not None else None,
        }


def brute_force_extension_exists(
    family: MarginalFamily,
    window: IndexLike,
    tol: float = 1e-7,
) -> OracleResult:
    """Decide by linear feasibility whether a common extension exists.

    Solves ``x >= 0``, ``sum x = 1``, and one marginal equation per cell of
    each member, over the dense table on the window. Completely independent
    of the constructive engine.
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
    if residual > tol:
        raise SolverError(f"solver residual {residual} exceeds tolerance {tol}")
    witness = DenseMeasure(family.alphabet, window, x, "probability", tol=1e-6)
    return OracleResult(True, witness, residual)


# -- hypothesis report --------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    location: str
    magnitude: float
    limit: float

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "location": self.location,
            "magnitude": self.magnitude,
            "limit": self.limit,
        }


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    ok: bool
    violations: tuple[Violation, ...]
    stats: dict

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "stats": self.stats,
        }


def verify_hypotheses(
    family: MarginalFamily,
    delta: float,
    tol: float = DEFAULT_TOL,
) -> HypothesisReport:
    """Report-style check of the extension hypotheses.

    Checks, without raising: the per-coordinate overlap bound against the
    family's ``n_cap``; pairwise consistency at ``tol``; the ``alpha`` floor
    on one-dimensional marginal atoms; and the ``delta`` independence of each
    member (natural ordering, improved by a full ordering scan on small
    supports). Every violation carries its location and magnitude.
    """
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

    worst_gap = 0.0
    for i, j in combinations(range(len(family.members)), 2):
        gap = consistency_gap(family.members[i], family.members[j])
        worst_gap = max(worst_gap, gap)
        if gap > tol:
            violations.append(
                Violation("consistency", f"members {i},{j}", gap, tol)
            )

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
        if defect > delta and len(mu.support) <= 8:
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
