import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genutil
from margex import (
    Alphabet,
    CapacityError,
    DenseMeasure,
    DomainError,
    FiberSpace,
    IndexSet,
    LabeledPartition,
    MixingSupplyError,
    PositivityError,
    QuantizationError,
    TowerSpec,
    WindowError,
    choose_eta,
    correcting_measure,
    delta_independence,
    fiber_surgery,
    flag_dependent_shifts,
    iterate_krengel,
    name_distribution,
    paint_tower,
    product_measure,
    sup_distance,
    uniform_random_partition,
)
from margex import towers
from margex.towers import base_aligned_labels, labels_from_base, window_deviation

A2 = Alphabet(2)


def measure(alphabet, support, table):
    return DenseMeasure(alphabet, IndexSet.of(support), table)


@pytest.fixture(scope="module")
def big_tower():
    tower = genutil.permutation_tower(64, 2**16, seed=42)
    partition = uniform_random_partition(tower, A2, seed=7)
    return tower, partition


class TestTowerSpec:
    def test_transfer_must_be_bijection(self):
        bad = np.zeros((1, 4), dtype=np.int32)
        with pytest.raises(DomainError):
            TowerSpec(2, FiberSpace(4), bad)

    def test_positions_compose_transfer(self):
        transfer = np.array([[1, 2, 3, 0], [2, 3, 0, 1]], dtype=np.int32)
        tower = TowerSpec(3, FiberSpace(4), transfer)
        pos = tower.positions()
        assert list(pos[0]) == [0, 1, 2, 3]
        assert list(pos[1]) == [1, 2, 3, 0]
        assert list(pos[2]) == [3, 0, 1, 2]

    def test_base_alignment_roundtrip(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        partition = uniform_random_partition(tower, A2, seed=2)
        base = base_aligned_labels(tower, partition)
        back = labels_from_base(tower, base, A2)
        assert np.array_equal(back.labels, partition.labels)

    def test_with_flags_shares_positions(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        flagged = tower.with_flags(in_e1=[False, True, False, False, False])
        assert flagged.positions() is tower.positions()
        assert flagged.transfer is tower.transfer
        assert list(flagged.in_e1) == [False, True, False, False, False]
        assert not tower.in_e1.any()

    def test_with_flags_checks_shape(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        with pytest.raises(DomainError):
            tower.with_flags(in_e=np.zeros(4, dtype=bool))

    def test_transfer_is_read_only(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        with pytest.raises(ValueError):
            tower.transfer[0, 0] = tower.transfer[0, 1]

    def test_cell_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setattr(towers, "np", genutil.NoNumpy())
        with pytest.raises(CapacityError):
            TowerSpec(64, FiberSpace(2**40))
        with pytest.raises(CapacityError):
            towers.seeded_permutation_transfer(64, 2**40, seed=1)
        # 256 levels over 2^20 atoms stay legal (checked, not built)
        towers._check_tower_cells(256, 2**20)
        with pytest.raises(CapacityError):
            towers._check_tower_cells(256, 2**20 + 1)


class TestNameDistribution:
    def test_single_offset_is_level_distribution(self):
        tower = genutil.permutation_tower(6, 256, seed=3)
        partition = uniform_random_partition(tower, A2, seed=4)
        for j in (0, 3, 5):
            nd = name_distribution(tower, partition, j, [0])
            assert np.allclose(nd.table, partition.level_distribution(j))
            assert list(nd.support) == [j]

    def test_constant_labels_point_mass(self):
        tower = genutil.permutation_tower(4, 32, seed=5)
        partition = LabeledPartition(A2, np.ones((4, 32), dtype=np.int16))
        nd = name_distribution(tower, partition, 0, [0, 1])
        assert nd.table[-1] == 1.0 and nd.table[:-1].max() == 0.0

    def test_window_exceeds_height(self):
        tower = genutil.permutation_tower(4, 32, seed=5)
        partition = uniform_random_partition(tower, A2, seed=6)
        with pytest.raises(WindowError):
            name_distribution(tower, partition, 2, [0, 2])

    def test_random_labels_near_uniform(self):
        tower = genutil.permutation_tower(8, 2**16, seed=11)
        partition = uniform_random_partition(tower, A2, seed=12)
        nd = name_distribution(tower, partition, 0, [0, 5])
        assert sup_distance(nd, DenseMeasure.uniform(A2, nd.support)) <= 4 / np.sqrt(2**16)


class TestChooseEta:
    def test_worked_value(self):
        assert choose_eta(0.5, 1, 1 / 512, 0.1) == pytest.approx(1 / 409600)

    def test_linear_in_epsilon(self):
        one = choose_eta(0.4, 2, 1e-3, 0.2)
        two = choose_eta(0.4, 2, 1e-3, 0.4)
        assert two == pytest.approx(2 * one)

    def test_below_delta(self):
        assert choose_eta(0.5, 1, 1e-3, 0.9) < 1e-3


class TestCorrectingMeasure:
    def test_product_input_fixed_point(self):
        nu = product_measure(
            [measure(A2, [0], [0.4, 0.6]), measure(A2, [1], [0.3, 0.7])]
        )
        xi = correcting_measure(nu, None, 0.1)
        assert sup_distance(xi, nu) <= 1e-12

    def test_worked_example(self):
        nu = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        xi = correcting_measure(nu, None, 0.1)
        assert np.allclose(xi.table, [0.16, 0.34, 0.34, 0.16])
        blend = 0.9 * nu.table + 0.1 * xi.table
        assert np.allclose(blend, 0.25)

    def test_positivity_failure_reported(self):
        nu = measure(A2, [0, 1], [0.4, 0.1, 0.1, 0.4])
        with pytest.raises(PositivityError) as err:
            correcting_measure(nu, None, 0.1)
        assert err.value.margin == pytest.approx(-1.1)

    def test_marginals_must_match(self):
        nu = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        off = [measure(A2, [0], [0.6, 0.4]), measure(A2, [1], [0.5, 0.5])]
        with pytest.raises(DomainError):
            correcting_measure(nu, off, 0.1)

    def test_weight_domain(self):
        nu = measure(A2, [0, 1], [0.25] * 4)
        for t in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                correcting_measure(nu, None, t)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_blend_and_marginals(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        margs = []
        for i in range(k):
            p = rng.uniform(0.3, 0.7)
            margs.append(measure(A2, [i], [p, 1 - p]))
        prod = product_measure(margs)
        t = float(rng.uniform(0.05, 0.5))
        noise = genutil.centered_noise(rng, prod.shape)
        scale = 0.5 * t / (1 - t) * prod.min_entry()
        nu = DenseMeasure(A2, prod.support, prod.table + scale * noise.reshape(-1))
        xi = correcting_measure(nu, margs, t)
        blend = (1 - t) * nu.table + t * xi.table
        assert np.max(np.abs(blend - prod.table)) <= 1e-12
        for i in range(k):
            assert sup_distance(xi.project([i]), margs[i]) <= 1e-12

    def test_defect_transfer(self):
        # when the leading block is an exact product and the deviation stays
        # below the eta budget, the corrected law's defect stays below delta
        rng = np.random.default_rng(123)
        for _ in range(50):
            alpha, eps, delta = 0.35, 0.4, 1e-2
            k = 2
            margs = [measure(A2, [i], [alpha + 0.1, 0.9 - alpha]) for i in range(k)]
            last = measure(A2, [k], [0.5, 0.5])
            prod = product_measure(margs + [last])
            eta = choose_eta(alpha, k, delta, eps)
            noise = genutil.centered_noise(rng, prod.shape)
            # couple only the last coordinate to the block, leaving the block product
            block_mask = noise.reshape(prod.shape)
            nu_table = prod.table + 0.9 * eta * block_mask.reshape(-1)
            nu = DenseMeasure(A2, prod.support, nu_table)
            if sup_distance(nu, prod) >= eta:
                continue
            xi = correcting_measure(nu, margs + [last], eps / 10)
            assert delta_independence(xi, tuple(xi.support)) <= delta


class TestCorrectedFamilyHypotheses:
    def test_corrected_shift_family_passes_checker(self):
        # on an exactly independent tower the corrected window laws form a
        # family that satisfies the extension hypotheses at the analytic
        # thresholds: consistent, marginal atoms at the measured floor, and
        # zero independence defect
        from margex import MarginalFamily, thresholds, verify_hypotheses

        tower = genutil.permutation_tower(24, 2**14, seed=61)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        m, eps = 3, 0.4
        members = []
        for j in range(tower.height - m):
            nu = name_distribution(tower, partition, j, [0, m])
            members.append(correcting_measure(nu, None, eps / 10))
        supports = [mu.support for mu in members]
        n_cap = max(
            len(
                IndexSet.of(
                    set().union(*(set(s) for s in supports if n in s))
                )
            )
            for n in range(tower.height - m)
        )
        assert n_cap == 3  # difference-set size for a two-point window
        family = MarginalFamily(A2, tuple(members), 0.5, n_cap)
        _, delta = thresholds(family.alpha, family.n_cap, 1.0)
        report = verify_hypotheses(family, delta)
        assert report.ok
        assert report.stats["max_defect"] <= delta


class TestFlagging:
    def test_clean_tower_unflagged(self):
        tower = genutil.permutation_tower(16, 2**14, seed=21)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        assert not flags.any()

    def test_hard_dependence_flagged(self):
        tower = genutil.permutation_tower(16, 2**14, seed=22)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 0.5, seed=1)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        assert flags[7] and flags.sum() == 1

    def test_matches_per_shift_reference(self):
        tower = genutil.permutation_tower(16, 2**12, seed=23)
        partition = uniform_random_partition(tower, A2, seed=24)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 0.5, seed=1)
        partition = genutil.copy_corrupt(tower, partition, 12, 10, 0.08, seed=2)

        def reference(eta):
            flags = np.zeros(tower.height, dtype=bool)
            for j in range(tower.height - 2):
                prod = name_distribution(tower, partition, j, [0, 2]).product_of_marginals()
                sup, cond = window_deviation(tower, partition, j, [0, 2])
                flags[j] = (10 / 0.4 - 1) * sup >= 0.9 * prod.min_entry() or (
                    eta is not None and cond > eta
                )
            return flags

        expected = {eta: reference(eta) for eta in (None, 0.01)}
        assert expected[None].any()
        assert not np.array_equal(expected[None], expected[0.01])
        for eta, flags in expected.items():
            got = flag_dependent_shifts(tower, partition, [0, 2], 0.4, eta=eta)
            assert np.array_equal(got, flags)

    def test_one_alignment_per_call(self, monkeypatch):
        calls = []

        def counting(tower, partition):
            calls.append(tower.height)
            return base_aligned_labels(tower, partition)

        monkeypatch.setattr(towers, "base_aligned_labels", counting)
        tower = genutil.permutation_tower(16, 2**12, seed=25)
        partition = uniform_random_partition(tower, A2, seed=26)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4, eta=0.01)
        assert len(calls) == 1
        paint_tower(tower.with_flags(in_e1=flags), partition, [0], 2, epsilon=0.4, alpha=0.3)
        assert len(calls) == 2


class TestPaintTower:
    def test_degenerate_split(self):
        tower = genutil.permutation_tower(8, 16, seed=31)
        partition = uniform_random_partition(tower, A2, seed=32)
        report = paint_tower(tower, partition, [0], 2, epsilon=0.05, alpha=0.01)
        assert report.degenerate
        assert np.array_equal(report.q.labels, partition.labels)

    def test_already_independent_costs_only_quantization(self):
        tower = genutil.permutation_tower(24, 2**14, seed=33)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        report = paint_tower(tower, partition, [0], 3, epsilon=0.4, alpha=0.4)
        assert max(report.window_defects.values()) <= 2e-3
        assert report.per_level_distance.max() <= 0.04 + 1e-12
        assert report.per_level_distribution_gap.max() <= report.quantization_level_bound

    def test_window_budgets_reported(self, big_tower):
        tower, partition = big_tower
        report = paint_tower(tower, partition, [0], 8, epsilon=0.4, alpha=0.4)
        assert not report.budget_ok["height"]
        assert report.budget_ok["e1"]
        assert report.e3_mass == pytest.approx(8 / 64)

    def test_strict_budget_raises(self, big_tower):
        tower, partition = big_tower
        with pytest.raises(DomainError):
            paint_tower(
                tower, partition, [0], 8, epsilon=0.4, alpha=0.4, strict_budget=True
            )

    def test_fresh_time_must_clear_offsets(self, big_tower):
        tower, partition = big_tower
        with pytest.raises(DomainError):
            paint_tower(tower, partition, [0, 4], 3, epsilon=0.4, alpha=0.4)

    def test_alpha_floor_checked(self, big_tower):
        tower, partition = big_tower
        with pytest.raises(DomainError):
            paint_tower(tower, partition, [0], 2, epsilon=0.4, alpha=0.6)

    def test_determinism(self):
        tower = genutil.permutation_tower(16, 2**12, seed=35)
        partition = uniform_random_partition(tower, A2, seed=36)
        r1 = paint_tower(tower, partition, [0], 2, epsilon=0.4, alpha=0.3, seed=5)
        r2 = paint_tower(tower, partition, [0], 2, epsilon=0.4, alpha=0.3, seed=5)
        assert np.array_equal(r1.q.labels, r2.q.labels)

    def test_flagged_shifts_left_unclaimed(self):
        tower = genutil.permutation_tower(16, 2**14, seed=37)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 0.5, seed=2)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        report = paint_tower(
            tower.with_flags(in_e1=flags), partition, [0], 2, epsilon=0.4, alpha=0.4
        )
        assert 7 not in report.window_defects
        assert report.e1_mass == pytest.approx(1 / 16)


class TestIterateKrengel:
    def test_zero_steps_identity(self):
        tower = genutil.permutation_tower(8, 64, seed=41)
        partition = uniform_random_partition(tower, A2, seed=42)
        res = iterate_krengel(tower, partition, [2, 3], epsilon=0.4, steps=0)
        assert res.chosen_times == ()
        assert np.array_equal(res.q.labels, partition.labels)

    def test_single_step_matches_paint(self):
        tower = genutil.permutation_tower(32, 2**14, seed=43)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        res = iterate_krengel(tower, partition, [2], epsilon=0.8, steps=1, seed=6)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        direct = paint_tower(
            tower.with_flags(in_e1=flags),
            partition,
            [0],
            2,
            epsilon=0.4,
            alpha=partition.min_symbol_mass() - 1e-9,
            seed=7,
        )
        assert res.chosen_times == (2,)
        assert max(res.reports[0].window_defects.values()) <= 2e-3
        assert max(direct.window_defects.values()) <= 2e-3

    def test_mixing_supply_error_names_step(self):
        tower = genutil.permutation_tower(16, 2**12, seed=44)
        partition = genutil.bit_slice_partition(tower, A2, bits=12)
        # fully dependent copies at every candidate lag
        partition = genutil.copy_corrupt(tower, partition, 5, 3, 1.0, seed=1)
        partition = genutil.copy_corrupt(tower, partition, 6, 4, 1.0, seed=2)
        partition = genutil.copy_corrupt(tower, partition, 7, 5, 1.0, seed=3)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 1.0, seed=4)
        partition = genutil.copy_corrupt(tower, partition, 10, 8, 1.0, seed=5)
        with pytest.raises(MixingSupplyError) as err:
            iterate_krengel(tower, partition, [2], epsilon=0.05, steps=1)
        assert err.value.step == 1

    def test_three_steps_geometric_budgets(self):
        tower = genutil.permutation_tower(64, 2**17, seed=5)
        partition = genutil.bit_slice_partition(tower, A2, bits=17)
        for lvl, src, frac, seed in (
            (12, 10, 0.01, 1),
            (32, 30, 0.01, 2),
            (47, 45, 0.20, 3),
            (23, 20, 0.003, 4),
            (40, 33, 0.0008, 5),
        ):
            partition = genutil.copy_corrupt(tower, partition, lvl, src, frac, seed)
        res = iterate_krengel(
            tower, partition, [2, 3, 7, 11], epsilon=0.8, steps=3, seed=9
        )
        assert res.chosen_times == (2, 3, 7)
        assert res.cumulative_error_mass < 0.8
        assert res.cumulative_distance.max() <= 0.8
        quant_budget = sum(
            r.quantization_level_bound * 8 for r in res.reports
        )
        for i, report in enumerate(res.reports):
            assert max(report.window_defects.values()) <= quant_budget
            assert report.per_level_distance.max() <= (0.8 / 2 ** (i + 1)) / 10 + 1e-12


class TestFiberSurgery:
    @staticmethod
    def _clean_instance(seed, height=12, atoms=4096, bits=12):
        tower = genutil.permutation_tower(height, atoms, seed=seed)
        partition = genutil.bit_slice_partition(tower, A2, bits=bits)
        return tower, partition

    def test_no_bad_levels_identity(self):
        tower, partition = self._clean_instance(51)
        out = fiber_surgery(tower, partition, [0, 3], [])
        assert np.array_equal(out.labels, partition.labels)

    def test_single_offset_relabel_preserves_distribution(self):
        tower, partition = self._clean_instance(52)
        out = fiber_surgery(tower, partition, [0], [4])
        assert np.allclose(out.level_distribution(4), partition.level_distribution(4))
        for lvl in range(tower.height):
            if lvl != 4:
                assert np.array_equal(out.labels[lvl], partition.labels[lvl])

    def test_exact_block_law(self):
        tower, partition = self._clean_instance(53)
        corrupted = genutil.copy_corrupt(tower, partition, 7, 4, 1.0, seed=3)
        out = fiber_surgery(tower, corrupted, [0, 3], [4])
        nu = name_distribution(tower, out, 4, [0, 3])
        assert np.array_equal(nu.table, [0.25, 0.25, 0.25, 0.25])
        for j in range(tower.height - 3):
            nd = name_distribution(tower, out, j, [0, 3])
            assert delta_independence(nd) == 0.0
        touched = {4, 7}
        base_in = base_aligned_labels(tower, corrupted)
        base_out = base_aligned_labels(tower, out)
        for lvl in range(tower.height):
            if lvl not in touched:
                assert np.array_equal(base_in[lvl], base_out[lvl])

    def test_indivisible_errors(self):
        tower = genutil.permutation_tower(6, 10, seed=54)
        labels = np.stack(
            [np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1], dtype=np.int16)] * 6
        )
        partition = LabeledPartition(A2, labels)
        with pytest.raises(QuantizationError):
            fiber_surgery(tower, partition, [0, 2], [1])

    def test_round_mode_bounded_defect(self):
        tower = genutil.permutation_tower(6, 10, seed=54)
        labels = np.stack(
            [np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1], dtype=np.int16)] * 6
        )
        partition = LabeledPartition(A2, labels)
        out = fiber_surgery(tower, partition, [0, 2], [1], on_indivisible="round")
        nd = name_distribution(tower, out, 1, [0, 2])
        assert sup_distance(nd, nd.product_of_marginals()) <= 0.1
