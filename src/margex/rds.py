"""Skew products over coin-flip bases, at desk scale.

The base is the two-sided (1/2, 1/2) coin space with the left shift; the
fiber is another coin space, moved one step left or right according to the
current base symbol. Iterating the map shifts the fiber by the running sum of
base symbols, so every fiberwise question about cylinder events has a closed
form under the product measure. Windows are finite and all sampling is
seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError, WindowError
from .measures import CELL_CAP
from .towers import FiberSpace, TowerSpec, _check_tower_cells, seeded_permutation_transfer

# exact walk counts are binomials of at most this many steps: math.comb at
# 2^18 steps takes 1.3 s on a 2-core Xeon, and about 3.6x longer per doubling
WALK_STEP_CAP = 2**18


def _check_odd_window(w: int) -> None:
    if w < 3 or w % 2 == 0:
        raise DomainError(f"window must be odd and >= 3, got {w}")


class Cocycle:
    """Running sums of base symbols: the fiber displacement after n steps."""

    @staticmethod
    def evaluate(n: int, omega: np.ndarray) -> int:
        if n < 0 or n > len(omega):
            raise DomainError(f"need {n} symbols, got {len(omega)}")
        return int(np.sum(omega[:n]))

    @staticmethod
    def identity_gap(n: int, m: int, omega: np.ndarray) -> int:
        """phi(n+m) - phi(n) - phi(m, shifted); zero for every word."""
        lhs = Cocycle.evaluate(n + m, omega)
        rhs = Cocycle.evaluate(n, omega) + Cocycle.evaluate(m, omega[n:])
        return lhs - rhs


@dataclass(frozen=True)
class SignPartition:
    """Two-cell partition of the fiber by the sign of a window sum.

    The window length must be odd so the sum never vanishes; both cells then
    have mass one half.
    """

    window: int

    def __post_init__(self):
        _check_odd_window(self.window)


@dataclass(frozen=True)
class Cylinder:
    """A finite set of pinned fiber coordinates, each +1 or -1."""

    constraints: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, constraints: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Cylinder":
        items = constraints.items() if isinstance(constraints, Mapping) else constraints
        pinned = tuple(sorted((int(i), int(v)) for i, v in items))
        coords = [i for i, _ in pinned]
        if len(set(coords)) != len(coords):
            raise DomainError("cylinder pins a coordinate twice")
        for _, v in pinned:
            if v not in (-1, 1):
                raise DomainError(f"cylinder values must be +1 or -1, got {v}")
        return cls(pinned)

    def shifted(self, offset: int) -> "Cylinder":
        return Cylinder(tuple((i + offset, v) for i, v in self.constraints))

    def coordinates(self) -> list[int]:
        return [i for i, _ in self.constraints]


@dataclass(frozen=True)
class SkewProduct:
    """Coin base acting on a coin fiber window by left/right shifts.

    ``fiber_lo`` and ``fiber_hi`` bound the coordinates that cylinder events
    may pin, including after displacement by the cocycle.
    """

    fiber_lo: int = -64
    fiber_hi: int = 64

    def __post_init__(self):
        if self.fiber_lo >= self.fiber_hi:
            raise DomainError("empty fiber window")

    def check_window(self, cyl: Cylinder) -> None:
        for i, _ in cyl.constraints:
            if not self.fiber_lo <= i <= self.fiber_hi:
                raise WindowError(
                    f"cylinder coordinate {i} escapes the fiber window "
                    f"[{self.fiber_lo}, {self.fiber_hi}]; enlarge it"
                )

    @staticmethod
    def cylinder_mass(cyl: Cylinder) -> float:
        return 0.5 ** len(cyl.constraints)

    @staticmethod
    def joint_mass(c1: Cylinder, c2: Cylinder) -> float:
        merged = dict(c1.constraints)
        for i, v in c2.constraints:
            if merged.get(i, v) != v:
                return 0.0
            merged[i] = v
        return 0.5 ** len(merged)


def _check_samples(samples: int, n: int) -> None:
    """At least one sample, and at most ``CELL_CAP`` sampled base symbols."""
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    symbols = max(n, 1)
    if samples * symbols > CELL_CAP:
        raise CapacityError(
            f"{samples} samples of {symbols} base symbols exceed the cap of {CELL_CAP}"
        )


def _walk_count(steps: int, value: int) -> int:
    """Number of ``steps``-step +-1 walks that sum to ``value``."""
    if steps > WALK_STEP_CAP:
        raise CapacityError(
            f"exact walk counts are capped at {WALK_STEP_CAP} steps, got {steps}"
        )
    if (steps + value) % 2 or abs(value) > steps:
        return 0
    return math.comb(steps, (steps + value) // 2)


def _boundary_walk_counts(w: int) -> tuple[int, int]:
    """``(_walk_count(w, 1), _walk_count(w - 1, 0))`` for odd ``w`` from one
    binomial, as ``C(w, (w+1)/2) = C(w-1, (w-1)/2) * 2w / (w+1)`` exactly."""
    middle = _walk_count(w - 1, 0)
    return middle * 2 * w // (w + 1), middle


def _exact_walk_mass(steps: int, value: int) -> Fraction:
    """P[simple random walk of ``steps`` coin flips sums to ``value``]."""
    return Fraction(_walk_count(steps, value), 2**steps)


def shift_distance(
    w: int,
    method: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> float:
    """Distance between the sign partition of a ``w``-window and its shift.

    ``exact`` evaluates the boundary estimate ``P[|S_w| = 1] / 2`` where
    ``S_w`` is the ``w``-step walk: a sign flip needs the window sum at its
    minimum magnitude and an unfavorable boundary pair. ``montecarlo``
    simulates the flip event itself (the two agree to ``O(1/w)``; see the
    notes in the tests).
    """
    _check_odd_window(w)
    if method == "exact":
        # int / int is one correctly rounded division, as float(Fraction) is
        return _walk_count(w, 1) / 2 ** (w + 1)
    if method == "montecarlo":
        if not samples or seed is None:
            raise DomainError("montecarlo needs samples and a seed")
        rng = np.random.default_rng(seed)
        # flip happens iff the shared middle sum vanishes and the boundary
        # symbols disagree; sample that exact joint law
        middle = 2 * rng.binomial(w - 1, 0.5, size=samples) - (w - 1)
        first = rng.integers(0, 2, size=samples)
        last = rng.integers(0, 2, size=samples)
        flips = (middle == 0) & (first != last)
        return float(np.mean(flips))
    raise DomainError(f"unknown method {method!r}")


def _sign_flip_probability(w: int, shift: int) -> float:
    """Exact probability that the w-window sign changes under a coordinate
    shift of the window by ``shift``."""
    shift = abs(int(shift))
    if shift == 0:
        return 0.0
    if shift >= w:
        # disjoint windows: two independent signs
        return 0.5
    # head H (first `shift` symbols), shared middle M, tail T (last `shift`):
    # flip iff sign(H + M) != sign(M + T). Each term is an integer count of
    # (H, M, T) walks over 2^(w + shift), divided once, as float(Fraction) is.
    mid_steps = w - shift
    middle = {m: _walk_count(mid_steps, m) for m in range(1 - shift, shift)}
    scale = 2 ** (w + shift)
    total = 0.0
    for h in range(-shift, shift + 1, 2):
        count_h = _walk_count(shift, h)
        for t in range(-shift, shift + 1, 2):
            if h == t:
                continue
            lo, hi = -max(h, t), -min(h, t)
            inner = sum(middle[m] for m in range(lo + 1, hi))
            total += count_h * _walk_count(shift, t) * inner / scale
    return total


@dataclass(frozen=True)
class CounterexampleReport:
    w: int
    n: int
    delta: int
    preconditions_ok: bool
    shift_estimate: float
    shift_flip_probability: float
    parity_set_mass_exact: float
    parity_set_mass_empirical: float
    samples_in_set: int
    max_fiber_distance: float
    forced_distance: dict[str, float]
    perturbation_bound: float
    measured_bound: float
    contradiction_margin: float
    contradiction_margin_measured: float

    def to_dict(self) -> dict:
        return {
            "w": self.w,
            "n": self.n,
            "delta": self.delta,
            "preconditions_ok": self.preconditions_ok,
            "shift_estimate": self.shift_estimate,
            "shift_flip_probability": self.shift_flip_probability,
            "parity_set_mass_exact": self.parity_set_mass_exact,
            "parity_set_mass_empirical": self.parity_set_mass_empirical,
            "samples_in_set": self.samples_in_set,
            "max_fiber_distance": self.max_fiber_distance,
            "forced_distance": self.forced_distance,
            "perturbation_bound": self.perturbation_bound,
            "measured_bound": self.measured_bound,
            "contradiction_margin": self.contradiction_margin,
            "contradiction_margin_measured": self.contradiction_margin_measured,
        }


def counterexample_check(
    w: int, n: int, samples: int, seed: int
) -> CounterexampleReport:
    """Why fiberwise independence cannot hold on almost every fiber here.

    A two-cell sign partition of a long window moves very little under the
    fiber shift, so on the positive-mass set of base words whose displacement
    after ``n`` steps is the parity value, the partition is nearly invariant
    under the ``n``-th iterate. Any partition uniformly close to it then
    stays within ``3/100`` of its own iterate on those fibers, while exact
    independence of two half-mass cells forces disagreement mass ``1/2``
    under the disagreement metric. The report carries the forced value under
    the other conventions in use (the per-cell symmetric difference sum gives
    ``1``; the value ``1/4`` is also quoted in the sources this follows) and
    the margins against both the nominal and the measured perturbation bound.
    """
    if n < 1:
        raise DomainError("need at least one iterate")
    _check_samples(samples, n)
    _check_odd_window(w)
    delta = n % 2
    # shift_distance(w) and _sign_flip_probability(w, 1), each one correctly
    # rounded int / 2**k division of the counts they would compute
    boundary, middle = _boundary_walk_counts(w)
    d_shift = boundary / 2 ** (w + 1)
    flip_one = middle / 2**w
    preconditions_ok = d_shift < 0.01

    rng = np.random.default_rng(seed)
    words = rng.choice((-1, 1), size=(samples, n))
    displacement = words.sum(axis=1)
    in_set = displacement == delta if delta else displacement == 0
    mass_exact = _walk_count(n, delta) / 2**n
    mass_empirical = float(np.mean(in_set))

    fiber_distance = flip_one if delta else 0.0
    max_fiber = fiber_distance if int(np.sum(in_set)) else float("nan")

    forced = {
        "disagreement_metric": 0.5,
        "symmetric_difference_sum": 1.0,
        "stated": 0.25,
    }
    bound = float(Fraction(3, 100))
    measured_bound = 2.0 / 100.0 + fiber_distance
    margin = float(Fraction(1, 2) - Fraction(3, 100))
    return CounterexampleReport(
        w=w,
        n=n,
        delta=delta,
        preconditions_ok=preconditions_ok,
        shift_estimate=d_shift,
        shift_flip_probability=flip_one,
        parity_set_mass_exact=mass_exact,
        parity_set_mass_empirical=mass_empirical,
        samples_in_set=int(np.sum(in_set)),
        max_fiber_distance=max_fiber,
        forced_distance=forced,
        perturbation_bound=bound,
        measured_bound=measured_bound,
        contradiction_margin=margin,
        contradiction_margin_measured=0.5 - measured_bound,
    )


@dataclass(frozen=True)
class MixingReport:
    coefficients: np.ndarray
    displacements: np.ndarray
    max_abs: float
    mean_abs: float

    def to_dict(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "displacement_histogram": {
                str(int(d)): int(c)
                for d, c in zip(*np.unique(self.displacements, return_counts=True))
            },
        }


def relative_mixing_coefficient(
    system: SkewProduct,
    a_cyl: Cylinder,
    b_cyl: Cylinder,
    n: int,
    samples: int,
    seed: int,
) -> MixingReport:
    """Fiberwise correlation of a cylinder with a pulled-back cylinder.

    For each sampled base word the ``n``-th preimage of ``b_cyl`` on that
    fiber is ``b_cyl`` displaced by minus the cocycle, and the coefficient
    ``mu(A and B') - mu(A) mu(B')`` is computed in closed form under the
    product fiber measure. Returns the empirical distribution over the base.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    _check_samples(samples, n)
    system.check_window(a_cyl)
    rng = np.random.default_rng(seed)
    words = rng.choice((-1, 1), size=(samples, max(n, 1)))
    phi = words[:, :n].sum(axis=1)
    b_coords = np.array(b_cyl.coordinates(), dtype=np.int64)
    b_values = np.array([v for _, v in b_cyl.constraints], dtype=np.int64)
    pulled = b_coords[None, :] - phi[:, None]
    escapes = ((pulled < system.fiber_lo) | (pulled > system.fiber_hi)).any(axis=1)
    if escapes.any():
        # report the first escaping sample, as a per-sample check would
        system.check_window(b_cyl.shifted(-int(phi[np.argmax(escapes)])))
    # pins are distinct within a cylinder, so A and the pulled-back B pin
    # |A| + |B| - overlaps coordinates together unless an overlap disagrees;
    # ldexp gives the same exact power of two as joint_mass
    overlaps = np.zeros(samples, dtype=np.int64)
    conflict = np.zeros(samples, dtype=bool)
    for i, v in a_cyl.constraints:
        hit = pulled == i
        overlaps += hit.sum(axis=1)
        conflict |= (hit & (b_values != v)).any(axis=1)
    size_a, size_b = len(a_cyl.constraints), len(b_cyl.constraints)
    joint = np.where(conflict, 0.0, np.ldexp(1.0, overlaps - size_a - size_b))
    coeffs = joint - system.cylinder_mass(a_cyl) * system.cylinder_mass(b_cyl)
    return MixingReport(
        coefficients=coeffs,
        displacements=phi,
        max_abs=float(np.max(np.abs(coeffs))),
        mean_abs=float(np.mean(np.abs(coeffs))),
    )


def build_tower_from_base(
    orbit: np.ndarray,
    height: int,
    atom_count: int,
    fiber_rule: str = "plus_minus_shift",
    seed: int = 0,
) -> TowerSpec:
    """Tower whose transfer maps follow a base orbit.

    ``fiber_rule`` is one of ``identity``, ``plus_minus_shift`` (rotate the
    atom ring by the base symbol, the two-sided shift at atom resolution), or
    ``seeded_permutation`` (a fresh seeded permutation per level).
    """
    _check_tower_cells(height, atom_count)
    orbit = np.asarray(orbit)
    if len(orbit) < height:
        raise DomainError(f"orbit of length {len(orbit)} is shorter than the tower ({height})")
    n = atom_count
    if fiber_rule == "identity":
        transfer = None
    elif fiber_rule == "plus_minus_shift":
        idx = np.arange(n, dtype=np.int64)
        transfer = np.stack(
            [((idx + int(orbit[j])) % n).astype(np.int32) for j in range(height - 1)]
        )
    elif fiber_rule == "seeded_permutation":
        transfer = seeded_permutation_transfer(height, n, seed)
    else:
        raise DomainError(f"unknown fiber rule {fiber_rule!r}")
    return TowerSpec(height, FiberSpace(n), transfer)
