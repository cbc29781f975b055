import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import genutil
from margex import (
    CapacityError,
    Cylinder,
    DomainError,
    SkewProduct,
    WindowError,
    counterexample_check,
    shift_distance,
    relative_mixing_coefficient,
)
from margex import rds
from margex.measures import CELL_CAP
from margex.rds import (
    WALK_STEP_CAP,
    _central_walk_mass,
    _walk_count,
)


def fraction_walk_mass(steps, value):
    if (steps + value) % 2 or abs(value) > steps:
        return Fraction(0)
    return Fraction(math.comb(steps, (steps + value) // 2), 2**steps)


def sign_flip_reference(w, shift):
    """The flip probability as a sum of float-rounded exact Fraction terms."""
    if shift == 0:
        return 0.0
    if shift >= w:
        return 0.5
    total = 0.0
    for h in range(-shift, shift + 1, 2):
        for t in range(-shift, shift + 1, 2):
            if h == t:
                continue
            lo, hi = -max(h, t), -min(h, t)
            inner = sum(fraction_walk_mass(w - shift, m) for m in range(lo + 1, hi))
            total += float(fraction_walk_mass(shift, h) * fraction_walk_mass(shift, t) * inner)
    return total


def mixing_reference(system, a_cyl, b_cyl, n, samples, seed):
    """Per-sample coefficients from the public cylinder operations."""
    rng = np.random.default_rng(seed)
    words = rng.choice((-1, 1), size=(samples, max(n, 1)))
    coeffs = np.empty(samples)
    disps = np.empty(samples, dtype=np.int64)
    for s in range(samples):
        phi = int(words[s, :n].sum()) if n else 0
        pulled = b_cyl.shifted(-phi)
        system.check_window(pulled)
        product = system.cylinder_mass(a_cyl) * system.cylinder_mass(pulled)
        coeffs[s] = genutil.joint_mass(a_cyl, pulled) - product
        disps[s] = phi
    return coeffs, disps


def draw_as_counterexample(n, samples, seed):
    """Leave the base words of a counterexample check of ``(samples, n, seed)``
    as the last draw; the check needs ``n >= 1``, so at 0 the draw is direct."""
    if n:
        counterexample_check(101, n, samples, seed)
    else:
        rds._head_counts(samples, n, seed)


def counterexample_reference(n, samples, seed):
    """Parity-set count and mass from ``choice((-1, 1))`` words, summed per sample."""
    words = np.random.default_rng(seed).choice((-1, 1), size=(samples, n))
    in_set = words.sum(axis=1) == n % 2
    return int(np.sum(in_set)), float(np.mean(in_set))


class TestShiftDistance:
    def test_pinned_small_window(self):
        assert shift_distance(3) == 3 / 16

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            shift_distance(4)
        with pytest.raises(DomainError):
            shift_distance(1)

    def test_long_window_below_one_percent(self):
        assert shift_distance(10001) < 1 / 100

    def test_worked_hundredish(self):
        # C(101, 51) / 2^101, halved
        expected = math.comb(101, 51) / 2**102
        assert shift_distance(101) == pytest.approx(expected, abs=0)
        assert shift_distance(101) == pytest.approx(0.0394, abs=5e-5)

    def test_strictly_decreasing(self):
        vals = [shift_distance(w) for w in range(3, 61, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert shift_distance(101) > shift_distance(1001) > shift_distance(10001)

    def test_asymptotic_form(self):
        for w in (101, 1001, 10001):
            approx = 0.5 * math.sqrt(2 / (math.pi * w))
            assert abs(shift_distance(w) / approx - 1) < 0.05

    def test_monte_carlo_agreement(self):
        # the closed form carries an O(1/w) boundary simplification, so the
        # comparison runs at windows where that bias sits far inside 4 sigma
        for w, seed in ((1001, 11), (10001, 12)):
            exact = shift_distance(w)
            mc = genutil.sampled_shift_distance(w, samples=10**6, seed=seed)
            sigma = math.sqrt(exact * (1 - exact) / 10**6)
            assert abs(mc - exact) <= 4 * sigma

    def test_walk_count_divides_like_fraction(self):
        for steps in range(61):
            for value in range(-steps - 2, steps + 3):
                exact = _walk_count(steps, value) / 2**steps
                assert exact == float(fraction_walk_mass(steps, value))
        for steps in range(11):
            sums = [sum(word) for word in itertools.product((-1, 1), repeat=steps)]
            for value in range(-steps - 1, steps + 2):
                assert _walk_count(steps, value) == sums.count(value)

    @pytest.mark.parametrize("w", [3, 101, 10001])
    def test_matches_fraction_reference(self, w):
        assert shift_distance(w) == float(fraction_walk_mass(w, 1) / 2)
        report = counterexample_check(w, 1, samples=1, seed=0)
        assert report.shift_flip_probability == sign_flip_reference(w, 1)

    def test_boundary_count_derived_from_middle_count(self):
        # the two values counterexample_check reports, both taken from the
        # bracket of the middle count C(w - 1, (w - 1) / 2)
        for w in range(3, 2002, 2):
            report = counterexample_check(w, 1, samples=1, seed=0)
            assert report.shift_estimate == math.comb(w, (w + 1) // 2) / 2 ** (w + 1)
            assert report.shift_flip_probability == math.comb(w - 1, (w - 1) // 2) / 2**w

    def test_true_flip_probability_small_window(self):
        # exact event probability differs from the boundary estimate at w=3
        report = counterexample_check(3, 1, samples=1, seed=0)
        assert report.shift_flip_probability == 0.25
        assert report.shift_estimate == 3 / 16


def comb_quotient(steps):
    return math.comb(steps, (steps + steps % 2) // 2) / 2**steps


class TestCentralWalkMass:
    def test_bit_equal_to_exact_quotient(self):
        for steps in [*range(1, 4002), 10000, 10001, 100000, 100001]:
            assert _central_walk_mass(steps) == comb_quotient(steps), steps

    def test_long_window_needs_no_exact_binomial(self, monkeypatch):
        w = 100001
        expected_shift = math.comb(w, (w + 1) // 2) / 2 ** (w + 1)
        expected_flip = math.comb(w - 1, (w - 1) // 2) / 2**w
        comb = math.comb

        def small_comb(n, k):
            if n > 64:
                raise AssertionError(f"exact binomial of {n} steps")
            return comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        assert shift_distance(w) == expected_shift
        report = counterexample_check(w, 10, samples=100, seed=3)
        assert report.shift_estimate == expected_shift
        assert report.shift_flip_probability == expected_flip
        assert report.parity_set_mass_exact == 252 / 2**10

    @pytest.mark.parametrize("steps", [201, 1000, 4001, 10001])
    def test_straddling_bracket_falls_back_to_exact_count(self, monkeypatch, steps):
        # a 4-bit bracket is far too coarse to pin one double
        monkeypatch.setattr(rds, "_MASS_BITS", 4)
        counted = []

        def counting_walk_count(*args):
            counted.append(args)
            return _walk_count(*args)

        monkeypatch.setattr(rds, "_walk_count", counting_walk_count)
        assert _central_walk_mass(steps) == comb_quotient(steps)
        assert counted == [(steps - steps % 2, 0)]

    def test_window_masses_match_exact_quotients(self):
        report = counterexample_check(10001, 10, samples=100, seed=3)
        assert report.shift_estimate == comb_quotient(10001) / 2
        assert report.shift_flip_probability == comb_quotient(10000) / 2

    def test_bracket_contains_exact_value(self):
        central = 1  # C(2k, k), updated exactly from k - 1
        for k in range(3001):
            if k:
                central = central * (2 * k) * (2 * k - 1) // (k * k)
            lo, hi = rds._central_bracket(k)
            assert lo << 2 * k <= central << rds._MASS_BITS <= hi << 2 * k, k
        for k in (5000, 50000, 2**17):
            lo, hi = rds._central_bracket(k)
            exact = math.comb(2 * k, k) << rds._MASS_BITS
            assert lo << 2 * k <= exact <= hi << 2 * k, k

    def test_pi_digits_match_machin(self):
        assert rds._PI_DIGITS == genutil.machin_pi_floor(59)

    def test_bracket_makes_no_factor_loop(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the bracket multiplied walk factors")

        monkeypatch.setattr(math, "prod", forbidden)
        counted = []

        def counting_walk_count(*args):
            counted.append(args)
            return _walk_count(*args)

        monkeypatch.setattr(rds, "_walk_count", counting_walk_count)
        for steps in range(128, 4002):
            _central_walk_mass(steps)
        assert rds._central_bracket(2**17)[0] > 0
        assert counted == []

    def test_iterate_at_the_cap(self):
        report = counterexample_check(101, WALK_STEP_CAP, samples=1, seed=1)
        assert report.parity_set_mass_exact == comb_quotient(WALK_STEP_CAP)


class TestCylinders:
    def test_masses(self):
        sp = SkewProduct(-8, 8)
        a = Cylinder.of({0: 1, 1: 1})
        assert sp.cylinder_mass(a) == 0.25
        assert genutil.joint_mass(a, Cylinder.of({0: 1})) == 0.25
        assert genutil.joint_mass(a, Cylinder.of({0: -1})) == 0.0
        assert genutil.joint_mass(a, Cylinder.of({5: 1})) == 0.125

    def test_shift_preserves_mass(self):
        sp = SkewProduct(-8, 8)
        cyl = Cylinder.of({0: 1, 2: -1})
        for s in (-3, -1, 0, 1, 4):
            assert sp.cylinder_mass(cyl.shifted(s)) == sp.cylinder_mass(cyl)

    def test_window_guard(self):
        sp = SkewProduct(-2, 2)
        with pytest.raises(WindowError):
            sp.check_window(Cylinder.of({5: 1}))

    @pytest.mark.parametrize(
        "pins, message",
        [({0: -1.5}, "pin value must be an integer"), ({0.7: 1}, "pin must be an integer")],
        ids=["value", "coordinate"],
    )
    def test_fractional_pin_refused(self, pins, message):
        # int() would truncate them to the pins (0, -1) and (0, 1)
        with pytest.raises(DomainError, match=message):
            Cylinder.of(pins)
        assert Cylinder.of({2.0: -1.0}).constraints == ((2, -1),)


class TestMixingCoefficient:
    def test_disjoint_coordinates_vanish(self):
        sp = SkewProduct(-16, 16)
        a = Cylinder.of({0: 1, 1: 1})
        b = Cylinder.of({0: 1})
        report = relative_mixing_coefficient(sp, a, b, n=8, samples=400, seed=3)
        far = report.coefficients[np.abs(report.displacements) >= 3]
        assert far.size and np.all(far == 0.0)

    def test_worked_dependent_case(self):
        sp = SkewProduct(-8, 8)
        a = Cylinder.of({0: 1, 1: 1})
        b = Cylinder.of({0: 1})
        report = relative_mixing_coefficient(sp, a, b, n=1, samples=600, seed=2)
        left = report.coefficients[report.displacements == -1]
        right = report.coefficients[report.displacements == 1]
        assert left.size and np.all(left == 0.125)
        assert right.size and np.all(right == 0.0)

    def test_adjacent_self_overlap_vanishes(self):
        sp = SkewProduct(-8, 8)
        b = Cylinder.of({0: 1})
        report = relative_mixing_coefficient(sp, b, b, n=1, samples=200, seed=4)
        assert report.max_abs == 0.0

    @pytest.mark.parametrize(
        "a, b, n, reached",
        [
            ({0: 1, 1: 1}, {0: 1}, 0, (0.125,)),
            ({0: 1}, {0: 1}, 2, (0.25,)),
            ({0: 1}, {0: -1}, 2, (-0.25,)),
            ({-1: 1, 0: 1, 2: -1}, {0: 1, 1: -1, 3: 1}, 4, (-1 / 64, 1 / 64)),
        ],
        ids=["n-zero", "overlap-agrees", "overlap-conflicts", "multi-pin"],
    )
    def test_matches_per_sample_reference(self, a, b, n, reached):
        sp = SkewProduct(-16, 16)
        a_cyl, b_cyl = Cylinder.of(a), Cylinder.of(b)
        coeffs, disps = mixing_reference(sp, a_cyl, b_cyl, n, 500, 5)
        # cold, on the draw a counterexample check of the same (samples, n,
        # seed) left (a hit), and after one of another n (a miss)
        runs = [
            (rds._head_counts.cache_clear, 0),
            (lambda: draw_as_counterexample(n, 500, 5), 1),
            (lambda: draw_as_counterexample(n + 1, 500, 5), 0),
        ]
        for prime, hits in runs:
            prime()
            before = rds._head_counts.cache_info().hits
            report = relative_mixing_coefficient(sp, a_cyl, b_cyl, n=n, samples=500, seed=5)
            assert rds._head_counts.cache_info().hits - before == hits
            assert report.coefficients.tobytes() == coeffs.tobytes()
            assert report.displacements.tobytes() == disps.tobytes()
            assert report.max_abs == float(np.max(np.abs(coeffs)))
            assert report.mean_abs == float(np.mean(np.abs(coeffs)))
        # the samples reach the overlaps each case is named for
        assert all(np.any(coeffs == value) for value in reached)

    def test_window_error_names_first_escaping_sample(self):
        # at seed 5 sample 0 stays inside and later escaping samples name
        # other coordinates than the first one does; the base words are the
        # ones a counterexample check just drew
        sp = SkewProduct(-2, 2)
        a, b = Cylinder.of({0: 1}), Cylinder.of({0: 1, 1: -1})
        with pytest.raises(WindowError) as expected:
            mixing_reference(sp, a, b, 10, 64, 5)
        draw_as_counterexample(10, 64, 5)
        before = rds._head_counts.cache_info().hits
        with pytest.raises(WindowError) as got:
            relative_mixing_coefficient(sp, a, b, n=10, samples=64, seed=5)
        assert rds._head_counts.cache_info().hits == before + 1
        assert str(got.value) == str(expected.value)
        assert "coordinate 6 " in str(got.value)

    def test_escape_at_an_undrawn_head_count_passes(self):
        # at n = 10 only 0 and 10 heads carry the pin past 8; seed 5's 64
        # samples draw 1 to 8 heads, so no sample escapes
        sp = SkewProduct(-8, 8)
        a = Cylinder.of({0: 1})
        coeffs, disps = mixing_reference(sp, a, a, 10, 64, 5)
        report = relative_mixing_coefficient(sp, a, a, n=10, samples=64, seed=5)
        assert report.coefficients.tobytes() == coeffs.tobytes()
        assert report.displacements.tobytes() == disps.tobytes()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_a_sample(self, samples):
        sp = SkewProduct(-8, 8)
        a = Cylinder.of({0: 1})
        with pytest.raises(DomainError):
            relative_mixing_coefficient(sp, a, a, n=1, samples=samples, seed=1)

    def test_window_error_advises(self):
        sp = SkewProduct(-2, 2)
        a = Cylinder.of({0: 1})
        with pytest.raises(WindowError):
            relative_mixing_coefficient(sp, a, a, n=6, samples=64, seed=1)


class TestHeadCounts:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 300])
    def test_counts_the_seeded_heads(self, n):
        heads = np.random.default_rng(9).integers(0, 2, size=(70, n))
        counts = rds._head_counts(70, n, 9)
        assert np.array_equal(counts, heads @ np.ones(n, dtype=np.int64))
        assert counts.dtype == np.min_scalar_type(n)
        assert not counts.flags.writeable
        # only the last draw is kept
        assert rds._head_counts.cache_info().maxsize == 1


class TestCounterexample:
    def test_small_window_precondition_report(self):
        report = counterexample_check(101, 4, samples=2000, seed=9)
        assert not report.preconditions_ok
        assert report.shift_estimate == shift_distance(101)

    def test_full_check_even_iterate(self):
        report = counterexample_check(10001, 10, samples=20000, seed=9)
        assert report.preconditions_ok
        assert report.delta == 0
        assert report.samples_in_set > 0
        assert report.max_fiber_distance < 1 / 100
        assert report.parity_set_mass_exact == pytest.approx(
            float(fraction_walk_mass(10, 0))
        )
        se = math.sqrt(report.parity_set_mass_exact * 0.8 / 20000)
        assert abs(
            report.parity_set_mass_empirical - report.parity_set_mass_exact
        ) <= 4 * se

    def test_full_check_odd_iterate(self):
        report = counterexample_check(10001, 9, samples=20000, seed=10)
        assert report.delta == 1
        assert 0 < report.max_fiber_distance < 1 / 100
        assert report.contradiction_margin >= 0.47
        assert report.contradiction_margin_measured > 0.45
        assert report.forced_distance == {
            "disagreement_metric": 0.5,
            "symmetric_difference_sum": 1.0,
            "stated": 0.25,
        }

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11])
    def test_matches_choice_words(self, n):
        for seed in (0, 9, 20210607):
            report = counterexample_check(101, n, samples=3000, seed=seed)
            count, mass = counterexample_reference(n, 3000, seed)
            assert report.samples_in_set == count
            assert report.parity_set_mass_empirical == mass


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_is_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed"):
            counterexample_check(101, 3, 10, seed)
        a = Cylinder.of({0: 1})
        with pytest.raises(DomainError, match="seed"):
            relative_mixing_coefficient(SkewProduct(), a, a, n=2, samples=10, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert counterexample_check(101, 3, 10, np.int64(7)) == counterexample_check(101, 3, 10, 7)


class TestCapacity:
    def test_sample_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setattr(rds, "np", genutil.NoNumpy())
        with pytest.raises(CapacityError):
            counterexample_check(10001, 10, samples=10**11, seed=1)
        a = Cylinder.of({0: 1})
        with pytest.raises(CapacityError):
            relative_mixing_coefficient(SkewProduct(), a, a, n=10, samples=10**11, seed=1)
        with pytest.raises(CapacityError):
            relative_mixing_coefficient(SkewProduct(), a, a, n=0, samples=CELL_CAP + 1, seed=1)
        rds._check_samples(CELL_CAP // 16, 16)
        with pytest.raises(CapacityError):
            rds._check_samples(CELL_CAP // 16 + 1, 16)

    def test_walk_cap_fires_before_any_binomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("binomial computed before the walk cap")

        monkeypatch.setattr(math, "comb", forbidden)
        with pytest.raises(CapacityError):
            shift_distance(WALK_STEP_CAP + 1)
        with pytest.raises(CapacityError):
            counterexample_check(2 * WALK_STEP_CAP + 1, 10, samples=10, seed=1)
        with pytest.raises(CapacityError):
            _walk_count(WALK_STEP_CAP + 1, 1)
        assert WALK_STEP_CAP >= 100001  # the benchmark's longest window

    def test_walk_cap_covers_the_window(self):
        with pytest.raises(CapacityError):
            counterexample_check(WALK_STEP_CAP + 1, 3, samples=10, seed=1)
        counterexample_check(WALK_STEP_CAP - 1, 3, samples=10, seed=1)

    def test_walk_cap_covers_the_iterate(self):
        with pytest.raises(CapacityError):
            counterexample_check(101, WALK_STEP_CAP + 1, samples=1, seed=1)
