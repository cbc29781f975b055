"""Skew products over coin-flip bases, at desk scale.

The base is the two-sided (1/2, 1/2) coin space with the left shift; the
fiber is another coin space, moved one step left or right according to the
current base symbol. Iterating the map shifts the fiber by the running sum of
base symbols, so every fiberwise question about cylinder events has a closed
form under the product measure. Windows are finite and all sampling is
seed-deterministic.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError, WindowError
from .measures import CELL_CAP, _json, _report, _spec_int

# caps the window W and the iterate n of the counterexample, `_walk_count` and
# so the exact fallback of `_central_walk_mass`
WALK_STEP_CAP = 2**18
# fraction bits of `_central_walk_mass`'s bracket
_MASS_BITS = 160
# floor(pi * 10^59): the leading 60 digits of pi
_PI_DIGITS = 314159265358979323846264338327950288419716939937510582097494
# B_2j / (2j (2j - 1)), j = 1..9: the Stirling series of ln n!, whose last
# term bounds the remainder of the first eight (DLMF 5.11.10-11)
_STIRLING = tuple(map(Fraction, (
    "1/12 -1/360 1/1260 -1/1680 1/1188 -691/360360 1/156 -3617/122400 43867/244188"
).split()))


def _check_odd_window(w: int) -> None:
    if w < 3 or w % 2 == 0:
        raise DomainError(f"window must be odd and >= 3, got {w}")


@dataclass(frozen=True)
class Cylinder:
    """A finite set of pinned fiber coordinates, each +1 or -1."""

    constraints: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, constraints: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Cylinder":
        items = constraints.items() if isinstance(constraints, Mapping) else constraints
        pinned = tuple(sorted((_spec_int(i, "pin"), _spec_int(v, "pin value")) for i, v in items))
        coords = [i for i, _ in pinned]
        if len(set(coords)) != len(coords):
            raise DomainError("cylinder pins a coordinate twice")
        for _, v in pinned:
            if v not in (-1, 1):
                raise DomainError(f"cylinder values must be +1 or -1, got {v}")
        return cls(pinned)

    def shifted(self, offset: int) -> "Cylinder":
        return Cylinder(tuple((i + offset, v) for i, v in self.constraints))


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


def _check_samples(samples: int, n: int) -> None:
    """At least one sample, and at most ``CELL_CAP`` sampled base symbols."""
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    symbols = max(n, 1)
    if samples * symbols > CELL_CAP:
        raise CapacityError(
            f"{samples} samples of {symbols} base symbols exceed the cap of {CELL_CAP}"
        )


def _check_seed(seed) -> None:
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an int >= 0, got {seed!r}")


@functools.lru_cache(maxsize=1)
def _head_counts(samples: int, n: int, seed: int) -> np.ndarray:
    """Heads per row of ``samples`` rows of ``n`` coin flips, ``integers(0, 2)``
    from ``default_rng(seed)``, read-only in the narrowest type holding ``n``;
    both samplers of a run read one draw, and only the last is kept."""
    heads = np.random.default_rng(seed).integers(0, 2, size=(samples, n))
    counts = (heads @ np.ones(n, dtype=np.int64)).astype(np.min_scalar_type(n))
    counts.flags.writeable = False
    return counts


def _check_walk_steps(steps: int) -> None:
    if steps > WALK_STEP_CAP:
        raise CapacityError(
            f"exact walk counts are capped at {WALK_STEP_CAP} steps, got {steps}"
        )


def _walk_count(steps: int, value: int) -> int:
    """Number of ``steps``-step +-1 walks that sum to ``value``."""
    _check_walk_steps(steps)
    if (steps + value) % 2 or abs(value) > steps:
        return 0
    return math.comb(steps, (steps + value) // 2)


def _central_bracket(k: int) -> tuple[int, int]:
    """``C(2k, k) / 4^k`` in fixed point at ``_MASS_BITS`` fraction bits, its
    lower end rounded down and its upper end up, in time that does not grow
    with ``k``.

    Stirling's series ``S(n)`` of ``ln n!`` gives ``C(2k, k) / 4^k =
    1 / (e^x sqrt(pi k))`` with ``x = 2 S(k) - S(2k) >= 0``. For real
    ``n > 0`` the remainder of ``S(n)`` has the sign of the first omitted term
    and is no larger (DLMF 5.11.10-11), so ``x`` is bracketed by eight terms
    and twice the ninth; ``e^x`` by its Taylor series and ``pi`` by
    ``_PI_DIGITS``. Every step rounds outward at 64 guard bits.
    """
    _check_walk_steps(2 * k)
    if k == 0:
        return 1 << _MASS_BITS, 1 << _MASS_BITS
    f = 1 << (_MASS_BITS + 64)
    # 2 S(k) - S(2k) is the sum of c_j (4^j - 1) / (2k)^(2j - 1)
    x_lo = x_hi = 0
    for j, c in enumerate(_STIRLING[:-1], 1):
        num, den = c.numerator * (4**j - 1) * f, c.denominator * (2 * k) ** (2 * j - 1)
        x_lo, x_hi = x_lo + num // den, x_hi - (-num // den)
    last = _STIRLING[-1]
    rest = -(-2 * last.numerator * f // (last.denominator * k ** (2 * len(_STIRLING) - 1)))
    x_lo, x_hi = max(x_lo - rest, 0), x_hi + rest
    # x_hi <= f / 2 at every k >= 1, so the Taylor tail of e^x from the term
    # where the upper sum stops is at most twice that term
    e_lo = e_hi = i = 0
    t_lo = t_hi = f
    while t_hi > 1:
        e_lo, e_hi, i = e_lo + t_lo, e_hi + t_hi, i + 1
        t_lo, t_hi = t_lo * x_lo // (i * f), -(-t_hi * x_hi // (i * f))
    e_hi += 2 * t_hi
    # sqrt(pi k) f, below and above
    pi_k = k * f * f
    r_lo = math.isqrt(_PI_DIGITS * pi_k // 10**59)
    r_hi = math.isqrt(-(-(_PI_DIGITS + 1) * pi_k // 10**59)) + 1
    top = f * f << _MASS_BITS
    return top // (e_hi * r_hi), -(-top // (e_lo * r_lo))


def _central_walk_mass(steps: int) -> float:
    """``P[S_steps = steps % 2]``, correctly rounded, without the exact binomial.

    ``C(2k, k) / 4^k``, ``k = steps // 2``, is bracketed by
    ``_central_bracket(k)`` from Stirling's series (DLMF 5.11), and an odd
    walk scales it by ``steps / (steps + 1)``. Rounding is monotone, so when
    both ends round to one double that is the mass; otherwise the exact
    ``C(2k, k)`` decides. The series is too coarse for that only at small
    ``k``, where the binomial is cheap.
    """
    k = steps // 2
    lo, hi = _central_bracket(k)
    num, den = (steps, steps + 1) if steps % 2 else (1, 1)
    # int / int is one correctly rounded division, as float(Fraction) is
    mass = lo * num / (den << _MASS_BITS)
    if mass == hi * num / (den << _MASS_BITS):
        return mass
    return _walk_count(2 * k, 0) * num / (den << 2 * k)


def shift_distance(w: int) -> float:
    """Distance between the sign partition of a ``w``-window and its shift.

    This is the boundary estimate ``P[|S_w| = 1] / 2`` where ``S_w`` is the
    ``w``-step walk: a sign flip needs the window sum at its minimum magnitude
    and an unfavorable boundary pair. The value is ``P[S_w = 1] / 2``,
    correctly rounded by `_central_walk_mass` without the ``w``-step
    binomial; ``w`` is held to ``WALK_STEP_CAP``. It agrees with the flip
    event itself to ``O(1/w)``; see the notes in the tests.
    """
    _check_odd_window(w)
    _check_walk_steps(w)
    # halving a double is exact, so this is the correctly rounded quotient
    return _central_walk_mass(w) / 2


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
        return _report(self)


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

    The base words are ``samples`` rows of ``n`` seeded heads,
    ``integers(0, 2)``, the words ``choice((-1, 1))`` draws from ``seed``;
    the parity set is counted from the heads per row.
    """
    if n < 1:
        raise DomainError("need at least one iterate")
    _check_samples(samples, n)
    _check_seed(seed)
    d_shift = shift_distance(w)
    _check_walk_steps(n)
    delta = n % 2
    flip_one = _central_walk_mass(w - 1) / 2
    preconditions_ok = d_shift < 0.01

    # a walk of n steps sums to delta exactly when (n + delta) / 2 are heads
    hits = int(np.count_nonzero(_head_counts(samples, n, seed) == (n + delta) // 2))

    fiber_distance = flip_one if delta else 0.0
    max_fiber = fiber_distance if hits else float("nan")

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
        parity_set_mass_exact=_central_walk_mass(n),
        parity_set_mass_empirical=hits / samples,
        samples_in_set=hits,
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
        histogram = dict(zip(*np.unique(self.displacements, return_counts=True)))
        return {**_report(self, "coefficients", "displacements"), "displacement_histogram": _json(histogram)}


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
    Base words are seeded heads as in `counterexample_check`.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    _check_samples(samples, n)
    _check_seed(seed)
    system.check_window(a_cyl)
    # every per-sample value depends only on the sample's head count k, so
    # each is computed once per k = 0..n, at displacement phi = 2k - n, and gathered
    counts = _head_counts(samples, n, seed)
    phi = 2 * np.arange(n + 1, dtype=np.int64) - n
    escapes = np.zeros(n + 1, dtype=bool)
    for j, _ in b_cyl.constraints:
        pulled = j - phi
        escapes |= (pulled < system.fiber_lo) | (pulled > system.fiber_hi)
    if escapes.any():
        # name the first escaping sample; if no drawn count escapes, sample 0 passes
        system.check_window(b_cyl.shifted(-int(phi[counts[np.argmax(escapes[counts])]])))
    # pins are distinct within a cylinder, so A and the pulled-back B pin
    # |A| + |B| - overlaps coordinates together unless an overlap disagrees;
    # ldexp gives their joint mass 0.5 ** pins as an exact power of two
    overlaps = np.zeros(n + 1, dtype=np.int64)
    conflict = np.zeros(n + 1, dtype=bool)
    for i, v in a_cyl.constraints:
        for j, w in b_cyl.constraints:
            # B's pin j lands on A's pin i where j - phi == i
            hit = phi == j - i
            overlaps += hit
            if w != v:
                conflict |= hit
    size_a, size_b = len(a_cyl.constraints), len(b_cyl.constraints)
    joint = np.where(conflict, 0.0, np.ldexp(1.0, overlaps - size_a - size_b))
    coeffs = (joint - system.cylinder_mass(a_cyl) * system.cylinder_mass(b_cyl))[counts]
    return MixingReport(
        coefficients=coeffs,
        displacements=phi[counts],
        max_abs=float(np.max(np.abs(coeffs))),
        mean_abs=float(np.mean(np.abs(coeffs))),
    )
