import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import genutil
from margex import (
    Alphabet,
    CapacityError,
    Cocycle,
    Cylinder,
    DomainError,
    SignPartition,
    SkewProduct,
    WindowError,
    build_tower_from_base,
    counterexample_check,
    name_distribution,
    shift_distance,
    uniform_random_partition,
    relative_mixing_coefficient,
)
from margex import rds
from margex.measures import CELL_CAP
from margex.rds import (
    WALK_STEP_CAP,
    _boundary_walk_counts,
    _exact_walk_mass,
    _sign_flip_probability,
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
        coeffs[s] = system.joint_mass(a_cyl, pulled) - product
        disps[s] = phi
    return coeffs, disps


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
            mc = shift_distance(w, "montecarlo", samples=10**6, seed=seed)
            sigma = math.sqrt(exact * (1 - exact) / 10**6)
            assert abs(mc - exact) <= 4 * sigma

    def test_monte_carlo_needs_samples_and_seed(self):
        with pytest.raises(DomainError):
            shift_distance(101, "montecarlo")

    def test_walk_count_divides_like_fraction(self):
        for steps in range(61):
            for value in range(-steps - 2, steps + 3):
                exact = _walk_count(steps, value) / 2**steps
                assert exact == float(_exact_walk_mass(steps, value))
        for steps in range(11):
            sums = [sum(word) for word in itertools.product((-1, 1), repeat=steps)]
            for value in range(-steps - 1, steps + 2):
                assert _walk_count(steps, value) == sums.count(value)

    @pytest.mark.parametrize(
        "w, shifts",
        [(3, (0, 1, 2, 3, 4)), (101, (1, 2, 3, 7, 101)), (10001, (0, 1, 2, 5))],
    )
    def test_matches_fraction_reference(self, w, shifts):
        assert shift_distance(w) == float(fraction_walk_mass(w, 1) / 2)
        for shift in shifts:
            assert _sign_flip_probability(w, shift) == sign_flip_reference(w, shift)

    def test_boundary_count_derived_from_middle_count(self):
        for w in range(3, 2002, 2):
            boundary, middle = _boundary_walk_counts(w)
            assert boundary == math.comb(w, (w + 1) // 2)
            assert middle == math.comb(w - 1, (w - 1) // 2)
            # the two values counterexample_check takes from these counts
            assert boundary / 2 ** (w + 1) == shift_distance(w)
            assert middle / 2**w == _sign_flip_probability(w, 1)

    def test_true_flip_probability_small_window(self):
        # exact event probability differs from the boundary estimate at w=3
        assert _sign_flip_probability(3, 1) == pytest.approx(0.25)
        assert _sign_flip_probability(3, 0) == 0.0


class TestCocycle:
    def test_identity_exact(self):
        rng = np.random.default_rng(17)
        for case in range(200):
            omega = rng.choice((-1, 1), size=128)
            n = int(rng.integers(0, 64))
            m = int(rng.integers(0, 64))
            assert Cocycle.identity_gap(n, m, omega) == 0

    def test_needs_enough_symbols(self):
        with pytest.raises(DomainError):
            Cocycle.evaluate(5, np.array([1, -1]))


class TestSignPartition:
    def test_window_must_be_odd(self):
        with pytest.raises(DomainError):
            SignPartition(4)
        assert SignPartition(101).window == 101


class TestCylinders:
    def test_masses(self):
        sp = SkewProduct(-8, 8)
        a = Cylinder.of({0: 1, 1: 1})
        assert sp.cylinder_mass(a) == 0.25
        assert sp.joint_mass(a, Cylinder.of({0: 1})) == 0.25
        assert sp.joint_mass(a, Cylinder.of({0: -1})) == 0.0
        assert sp.joint_mass(a, Cylinder.of({5: 1})) == 0.125

    def test_shift_preserves_mass(self):
        sp = SkewProduct(-8, 8)
        cyl = Cylinder.of({0: 1, 2: -1})
        for s in (-3, -1, 0, 1, 4):
            assert sp.cylinder_mass(cyl.shifted(s)) == sp.cylinder_mass(cyl)

    def test_window_guard(self):
        sp = SkewProduct(-2, 2)
        with pytest.raises(WindowError):
            sp.check_window(Cylinder.of({5: 1}))


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
        report = relative_mixing_coefficient(sp, a_cyl, b_cyl, n=n, samples=500, seed=5)
        coeffs, disps = mixing_reference(sp, a_cyl, b_cyl, n, 500, 5)
        assert report.coefficients.tobytes() == coeffs.tobytes()
        assert report.displacements.tobytes() == disps.tobytes()
        assert report.max_abs == float(np.max(np.abs(coeffs)))
        assert report.mean_abs == float(np.mean(np.abs(coeffs)))
        # the samples reach the overlaps each case is named for
        assert all(np.any(coeffs == value) for value in reached)

    def test_window_error_names_first_escaping_sample(self):
        # at seed 5 sample 0 stays inside and later escaping samples name
        # other coordinates than the first one does
        sp = SkewProduct(-2, 2)
        a, b = Cylinder.of({0: 1}), Cylinder.of({0: 1, 1: -1})
        with pytest.raises(WindowError) as expected:
            mixing_reference(sp, a, b, 10, 64, 5)
        with pytest.raises(WindowError) as got:
            relative_mixing_coefficient(sp, a, b, n=10, samples=64, seed=5)
        assert str(got.value) == str(expected.value)
        assert "coordinate 6 " in str(got.value)

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
            float(_exact_walk_mass(10, 0))
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

    def test_walk_cap_covers_the_iterate(self):
        with pytest.raises(CapacityError):
            counterexample_check(101, WALK_STEP_CAP + 1, samples=1, seed=1)

    def test_tower_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setattr(rds, "np", genutil.NoNumpy())
        for rule in ("identity", "plus_minus_shift", "seeded_permutation"):
            with pytest.raises(CapacityError):
                build_tower_from_base([], 64, 2**40, rule)


class TestBuildTower:
    def test_identity_rule(self):
        tower = build_tower_from_base(np.ones(8), 4, 16, "identity")
        assert tower.transfer is None
        assert np.array_equal(tower.positions()[3], np.arange(16))

    def test_plus_minus_shift_rotates(self):
        orbit = np.array([1, -1, 1, 1])
        tower = build_tower_from_base(orbit, 4, 8, "plus_minus_shift")
        pos = tower.positions()
        assert np.array_equal(pos[1], (np.arange(8) + 1) % 8)
        assert np.array_equal(pos[2], np.arange(8))
        assert np.array_equal(pos[3], (np.arange(8) + 1) % 8)

    def test_orbit_too_short(self):
        with pytest.raises(DomainError):
            build_tower_from_base(np.ones(3), 5, 8)

    def test_seeded_permutation_paintable(self):
        from margex import flag_dependent_shifts, paint_tower

        tower = build_tower_from_base(
            np.ones(40), 24, 2**14, "seeded_permutation", seed=8
        )
        partition = uniform_random_partition(tower, Alphabet(2), seed=9)
        nd = name_distribution(tower, partition, 0, [0, 5])
        assert nd.total_mass() == pytest.approx(1.0)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        report = paint_tower(
            tower.with_flags(in_e1=flags),
            partition,
            [0],
            2,
            epsilon=0.4,
            alpha=partition.min_symbol_mass() - 1e-9,
        )
        assert max(report.window_defects.values()) <= 5e-3
