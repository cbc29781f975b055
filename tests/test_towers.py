import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genutil
from margex import (
    Alphabet,
    CapacityError,
    DenseMeasure,
    DomainError,
    IndexSet,
    LabeledPartition,
    MixingSupplyError,
    PositivityError,
    QuantizationError,
    TowerSpec,
    WindowError,
    build_tower_from_base,
    choose_eta,
    correcting_measure,
    delta_independence,
    extend_family_chain,
    fiber_surgery,
    flag_dependent_shifts,
    iterate_krengel,
    name_distribution,
    paint_tower,
    product_measure,
    product_of_marginals,
    project,
    sup_distance,
    uniform_random_partition,
)
from margex import towers
from margex.towers import base_aligned_labels, labels_from_base

A2 = Alphabet(2)


def measure(alphabet, support, table):
    return DenseMeasure(alphabet, IndexSet.of(support), table)


def window_counts_reference(base, windows, size):
    """One int64 ``bincount`` per window of the lexicographic cell codes."""
    rows = []
    for levels in windows:
        codes = np.zeros(base.shape[1], dtype=np.int64)
        for lvl in levels:
            codes = codes * size + base[lvl].astype(np.int64)
        rows.append(np.bincount(codes, minlength=size ** len(levels)))
    return rows


@pytest.fixture(scope="module")
def big_tower():
    tower = genutil.permutation_tower(64, 2**16, seed=42)
    partition = uniform_random_partition(tower, A2, seed=7)
    return tower, partition


class TestTowerSpec:
    @pytest.mark.parametrize("height", [1, 4])
    def test_needs_an_atom(self, height):
        with pytest.raises(DomainError, match="at least one atom"):
            TowerSpec(height, 0)

    def test_transfer_must_be_bijection(self):
        bad = np.zeros((1, 4), dtype=np.int32)
        with pytest.raises(DomainError):
            TowerSpec(2, 4, bad)
        # the atoms level 0 hits leave no mark on the check of level 1
        with pytest.raises(DomainError, match="transfer at level 1 is not a bijection"):
            TowerSpec(3, 4, [[1, 0, 3, 2], [0, 1, 1, 3]])

    @pytest.mark.parametrize(
        "transfer",
        [
            [[1, 2, 3, 4]],
            [[-1, 0, 1, 2]],
            [[0.9, 1.2, 2.5, 3.0]],
            np.array([[0, 2**32 + 1, 2, 3]], dtype=np.int64),
        ],
        ids=["past-last-atom", "negative", "fractional", "wraps-in-int32"],
    )
    def test_transfer_entries_must_be_atom_indices(self, transfer):
        with pytest.raises(DomainError):
            TowerSpec(2, 4, transfer)

    def test_positions_compose_transfer(self):
        transfer = np.array([[1, 2, 3, 0], [2, 3, 0, 1]], dtype=np.int32)
        tower = TowerSpec(3, 4, transfer)
        pos = tower.positions
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
        assert flagged.positions is tower.positions
        assert not flagged.positions.flags.writeable
        assert list(flagged.in_e1) == [False, True, False, False, False]
        assert not tower.in_e1.any()

    @pytest.mark.parametrize("flags", [[0.5, 0, 0, 2.7], [0, 2, 0, 0], [-1, 0, 0, 0], ["yes"] * 4])
    def test_flags_must_be_zero_or_one(self, flags):
        for slot in (3, 4):
            args = [4, 8, None, None, None]
            args[slot] = flags
            with pytest.raises(DomainError):
                TowerSpec(*args)
        tower = TowerSpec(4, 8, None, [1, 0, 0, True], np.array([0.0, 1.0, 0.0, 0.0]))
        assert tower.in_e.tolist() == [True, False, False, True]
        assert tower.in_e1.tolist() == [False, True, False, False]

    def test_with_flags_checks_shape(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        with pytest.raises(DomainError):
            tower.with_flags(in_e=np.zeros(4, dtype=bool))

    def test_transfer_is_read_only(self):
        tower = genutil.permutation_tower(5, 64, seed=1)
        with pytest.raises(ValueError):
            tower.positions[1, 0] = tower.positions[1, 1]

    def test_cell_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setattr(towers, "np", genutil.NoNumpy())
        with pytest.raises(CapacityError):
            TowerSpec(64, 2**40)
        # 256 levels over 2^20 atoms stay legal (checked, not built)
        towers._check_tower_cells(256, 2**20)
        with pytest.raises(CapacityError):
            towers._check_tower_cells(256, 2**20 + 1)


class TestBuildTower:
    def test_tower_cap_fires_before_any_array(self, monkeypatch):
        monkeypatch.setattr(towers, "np", genutil.NoNumpy())
        for rule in ("identity", "plus_minus_shift", "seeded_permutation"):
            with pytest.raises(CapacityError):
                build_tower_from_base([], 64, 2**40, rule)

    def test_identity_rule(self):
        tower = build_tower_from_base(np.ones(8), 4, 16, "identity")
        assert all(np.array_equal(row, np.arange(16)) for row in tower.positions)

    def test_plus_minus_shift_rotates(self):
        orbit = np.array([1, -1, 1, 1])
        tower = build_tower_from_base(orbit, 4, 8, "plus_minus_shift")
        pos = tower.positions
        assert np.array_equal(pos[1], (np.arange(8) + 1) % 8)
        assert np.array_equal(pos[2], np.arange(8))
        assert np.array_equal(pos[3], (np.arange(8) + 1) % 8)

    def test_fractional_orbit_symbol_refused(self):
        # int() would read 0.7 as 0 and leave every level unrotated
        with pytest.raises(DomainError, match="orbit symbol must be an integer, got 0.7"):
            build_tower_from_base([0.7] * 4, 4, 8, "plus_minus_shift")
        whole = build_tower_from_base([1.0, -1.0, 1.0, 1.0], 4, 8, "plus_minus_shift")
        ints = build_tower_from_base([1, -1, 1, 1], 4, 8, "plus_minus_shift")
        assert np.array_equal(whole.positions, ints.positions)

    def test_orbit_too_short(self):
        with pytest.raises(DomainError):
            build_tower_from_base(np.ones(3), 5, 8)

    @pytest.mark.parametrize("rule", ["identity", "plus_minus_shift", "seeded_permutation"])
    def test_single_level_tower(self, rule):
        # one level has no level step, so every rule makes an empty transfer table
        tower = build_tower_from_base([1], 1, 8, rule)
        assert tower.positions.tolist() == [list(range(8))]

    def test_seeded_permutation_reads_no_orbit(self):
        rng = np.random.default_rng(5)
        expected = np.zeros((4, 8), dtype=np.int64)
        expected[0] = np.arange(8)
        for j in range(1, 4):
            expected[j] = rng.permutation(8)[expected[j - 1]]
        tower = build_tower_from_base((), 4, 8, "seeded_permutation", 5)
        assert np.array_equal(tower.positions, expected)

    def test_seeded_permutation_paintable(self):
        tower = build_tower_from_base(
            np.ones(40), 24, 2**14, "seeded_permutation", seed=8
        )
        partition = uniform_random_partition(tower, Alphabet(2), seed=9)
        nd = name_distribution(tower, partition, 0, [0, 5])
        assert float(nd.table.sum()) == pytest.approx(1.0)
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


class TestLabeledPartition:
    @pytest.mark.parametrize(
        "alphabet, labels",
        [
            (A2, np.array([[0, 1, 65536]], dtype=np.int64)),
            (Alphabet(70000), np.array([[0, 1, 65537]], dtype=np.int64)),
            (A2, [[0.5, 1.9, 0.0]]),
        ],
        ids=["wraps-in-int16", "symbol-past-int16", "fractional"],
    )
    def test_labels_checked_before_narrowing(self, alphabet, labels):
        with pytest.raises(DomainError):
            LabeledPartition(alphabet, labels)

    def test_alphabet_past_label_cap_refused(self):
        # labels are int16: a wider alphabet is refused before the draw, not by numpy
        with pytest.raises(DomainError, match="label cap 2\\^15"):
            LabeledPartition(Alphabet(2**15 + 1), np.zeros((2, 8), dtype=np.int16))
        with pytest.raises(DomainError, match="label cap 2\\^15"):
            uniform_random_partition(TowerSpec(2, 8), Alphabet(40000), 1)
        widest = uniform_random_partition(TowerSpec(2, 8), Alphabet(2**15), 1)
        assert widest.labels.dtype == np.int16 and widest.labels.max() < 2**15

    def test_caller_labels_copied_made_labels_handed_over(self):
        # a caller's array is copied, never aliased; labels_from_base and
        # uniform_random_partition hand over the int16 table they just made
        tower = genutil.permutation_tower(32, 2**14, seed=1)
        cells = 32 * 2**14
        own = np.zeros((32, 2**14), dtype=np.int16)
        partition = LabeledPartition(A2, own)
        own[0, 0] = 1
        assert partition.labels[0, 0] == 0 and not partition.labels.flags.writeable
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            drawn = uniform_random_partition(tower, A2, seed=3)
            drawn_peak = tracemalloc.get_traced_memory()[1] - start
            base = base_aligned_labels(tower, drawn)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            back = labels_from_base(tower, base, A2)
            back_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert drawn_peak / cells <= 2.5 and back_peak / cells <= 2.5
        assert np.array_equal(back.labels, drawn.labels)
        assert not np.shares_memory(back.labels, base)
        assert not back.labels.flags.writeable and not drawn.labels.flags.writeable

    def test_handed_over_labels_still_checked(self):
        tower = genutil.permutation_tower(4, 8, seed=1)
        base = np.full((4, 8), 2, dtype=np.int16)
        with pytest.raises(DomainError, match="outside"):
            labels_from_base(tower, base, A2)


class TestNameDistribution:
    def test_single_offset_is_level_distribution(self):
        tower = genutil.permutation_tower(6, 256, seed=3)
        partition = uniform_random_partition(tower, A2, seed=4)
        for j in (0, 3, 5):
            nd = name_distribution(tower, partition, j, [0])
            assert np.allclose(nd.table, partition.distributions()[j])
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

    @pytest.mark.parametrize("base_level, offsets", [(0, [-1]), (1, [-2, 0])])
    def test_window_below_level_zero(self, base_level, offsets):
        # numpy would read a negative level as one counted from the top
        tower = genutil.permutation_tower(4, 32, seed=5)
        partition = uniform_random_partition(tower, A2, seed=6)
        with pytest.raises(WindowError):
            name_distribution(tower, partition, base_level, offsets)

    def test_base_level_read_as_an_integer(self):
        # a fractional level is refused, not passed to numpy as an index;
        # -0.0 is level 0
        tower = genutil.permutation_tower(4, 32, seed=5)
        partition = uniform_random_partition(tower, A2, seed=6)
        with pytest.raises(DomainError, match="base_level must be an integer, got 1.5"):
            name_distribution(tower, partition, 1.5, [0])
        nd = name_distribution(tower, partition, -0.0, [0, 1])
        assert list(nd.support) == [0, 1]
        assert np.array_equal(nd.table, name_distribution(tower, partition, 0, [0, 1]).table)

    @pytest.mark.parametrize("size, base_level, offsets", [(2, 0, [0, 5]), (3, 90, [-7, 0, 9]), (2, 40, [3])])
    def test_tall_tower_matches_full_alignment(self, size, base_level, offsets):
        # only the window's rows are gathered; the law is the whole base's
        tower = genutil.permutation_tower(120, 2**10, seed=size)
        partition = uniform_random_partition(tower, Alphabet(size), seed=17)
        levels = [base_level + k for k in offsets]
        base = base_aligned_labels(tower, partition)
        counts = window_counts_reference(base, [levels], size)[0]
        nd = name_distribution(tower, partition, base_level, offsets)
        assert list(nd.support) == levels
        assert nd.table.tobytes() == (counts / counts.sum()).tobytes()

    def test_random_labels_near_uniform(self):
        tower = genutil.permutation_tower(8, 2**16, seed=11)
        partition = uniform_random_partition(tower, A2, seed=12)
        nd = name_distribution(tower, partition, 0, [0, 5])
        assert sup_distance(nd, DenseMeasure.uniform(A2, nd.support)) <= 4 / np.sqrt(2**16)


class TestJointCounts:
    @pytest.mark.parametrize(
        "size, levels, dtype",
        [
            (2, 15, np.int16),
            (2, 16, np.int32),
            (3, 9, np.int16),
            (3, 10, np.int32),
            (128, 1, np.int16),
            (2**15, 1, np.int32),
        ],
    )
    def test_narrow_codes_match_int64_reference(self, size, levels, dtype):
        # the narrowest signed dtype that holds size^levels - 1 and the
        # multiplier size, at both sides of the int8 and int16 boundaries
        base = np.random.default_rng(size * 100 + levels).integers(
            0, size, size=(levels + 2, 4096), dtype=np.int16
        )
        base[1:, 0] = size - 1
        window = list(range(1, levels + 1))
        expected = window_counts_reference(base, [window], size)[0]
        assert towers._window_codes(base, window, size).dtype == dtype
        got = towers._window_counts(base, [window], size)[0]
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert got[-1] >= 1

    @pytest.mark.parametrize("size", [128, 2**15])
    def test_one_level_law_at_a_wide_alphabet(self, size):
        # a one-level code is multiplied by size once, so its dtype must hold
        # size itself, not only size - 1
        tower = genutil.permutation_tower(3, 2**12, seed=8)
        partition = uniform_random_partition(tower, Alphabet(size), seed=9)
        nd = name_distribution(tower, partition, 1, [0])
        assert np.array_equal(nd.table, partition.distributions()[1])


def pack_size(size, width):
    cells = size**width
    return max([k for k in range(1, 9) if cells**k <= towers.PACK_CELLS], default=1)


class TestWindowCounts:
    """The packed kernel equals one ``bincount`` per window."""

    CASES = [(size, width) for size in (2, 3, 5, 128) for width in (1, 2, 3)] + [(2**15, 1)]

    @pytest.mark.parametrize("size, width", CASES)
    def test_matches_per_window_bincount(self, size, width):
        k = pack_size(size, width)
        rng = np.random.default_rng(size * 10 + width)
        base = rng.integers(0, size, size=(10, 700), dtype=np.int16)
        base[:, 0] = size - 1
        for n in sorted({0, 1, k - 1, k, k + 1}):
            windows = np.sort(rng.choice(10, size=(n, width), replace=True), axis=1)
            got = towers._window_counts(base, windows, size)
            assert got.dtype == np.int64 and got.shape == (n, size**width)
            for row, ref in zip(got, window_counts_reference(base, windows, size)):
                assert np.array_equal(row, ref)

    @pytest.mark.parametrize("size, width", [(2, 1), (2, 2), (3, 1), (5, 1)])
    def test_repeated_levels_across_a_group(self, size, width):
        # one packed code may read a level for several windows of its group
        base = np.random.default_rng(size).integers(0, size, size=(4, 999), dtype=np.int16)
        k = pack_size(size, width)
        windows = [[2] * width] * k + [[1] * width, [2] * width]
        got = towers._window_counts(base, windows, size)
        assert np.array_equal(got, np.array(window_counts_reference(base, windows, size)))

    def test_sixteen_level_binary_window_takes_a_code_alone(self):
        assert pack_size(2, 16) == 1
        base = np.random.default_rng(16).integers(0, 2, size=(18, 2**12), dtype=np.int16)
        windows = [list(range(lo, lo + 16)) for lo in range(3)]
        got = towers._window_counts(base, windows, 2)
        assert got.dtype == np.int64 and got.shape == (3, 2**16)
        assert np.array_equal(got, np.array(window_counts_reference(base, windows, 2)))

    def test_window_past_the_cell_cap_is_refused(self):
        base = np.zeros((3, 8), dtype=np.int16)
        with pytest.raises(CapacityError):
            towers._window_counts(base, np.empty((0, 2), dtype=np.intp), 2**15)


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
            assert sup_distance(project(xi, [i]), margs[i]) <= 1e-12

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

    def test_fractional_offset_refused(self):
        tower = genutil.permutation_tower(8, 256, seed=3)
        partition = uniform_random_partition(tower, A2, seed=4)
        with pytest.raises(DomainError, match="coordinate must be an integer, got 2.5"):
            flag_dependent_shifts(tower, partition, [0, 2.5], 0.4)

    def test_fractional_float32_window_refused(self):
        tower = genutil.permutation_tower(8, 256, seed=3)
        partition = uniform_random_partition(tower, A2, seed=4)
        with pytest.raises(DomainError, match="coordinate must be an integer, got 2.5"):
            flag_dependent_shifts(tower, partition, np.array([0, 2.5], dtype=np.float32), 0.4)

    def test_matches_per_shift_reference(self):
        tower = genutil.permutation_tower(16, 2**12, seed=23)
        partition = uniform_random_partition(tower, A2, seed=24)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 0.5, seed=1)
        partition = genutil.copy_corrupt(tower, partition, 12, 10, 0.08, seed=2)
        expected = genutil.paint_gate_flags(tower, partition, [0, 2], 0.4)
        assert expected.any()
        assert np.array_equal(flag_dependent_shifts(tower, partition, [0, 2], 0.4), expected)

    def test_one_alignment_per_call(self, monkeypatch):
        calls = []

        def counting(tower, partition):
            calls.append(tower.height)
            return base_aligned_labels(tower, partition)

        monkeypatch.setattr(towers, "base_aligned_labels", counting)
        tower = genutil.permutation_tower(16, 2**12, seed=25)
        partition = uniform_random_partition(tower, A2, seed=26)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        assert len(calls) == 1
        paint_tower(tower.with_flags(in_e1=flags), partition, [0], 2, epsilon=0.4, alpha=0.3)
        assert len(calls) == 2
        # paint alone flags in the same pass
        paint_tower(tower, partition, [0], 2, epsilon=0.4, alpha=0.3)
        assert len(calls) == 3

    def test_krengel_aligns_once_per_candidate(self, monkeypatch):
        calls = []

        def counting(tower, partition):
            calls.append(tower.height)
            return base_aligned_labels(tower, partition)

        monkeypatch.setattr(towers, "base_aligned_labels", counting)
        tower = genutil.permutation_tower(16, 2**12, seed=44)
        partition = genutil.bit_slice_partition(tower, A2, bits=12)
        # lags 2 and 3 are fully dependent, so step 1 tries 2, 3 and accepts 4
        partition = genutil.copy_corrupt(tower, partition, 5, 3, 1.0, seed=1)
        partition = genutil.copy_corrupt(tower, partition, 6, 3, 1.0, seed=2)
        res = iterate_krengel(tower, partition, [2, 3, 4], epsilon=0.4, steps=1)
        assert res.chosen_times == (4,)
        assert len(calls) == 3

    def test_wide_window_gates_in_blocks(self, monkeypatch):
        # 2^16 cells per window: four shifts per block of 2^18 cells
        blocks = []
        gates = towers._paint_gates

        def recording(base, painted_base, shifts, offsets, size):
            blocks.append(list(shifts))
            return gates(base, painted_base, shifts, offsets, size)

        monkeypatch.setattr(towers, "_paint_gates", recording)
        tower = genutil.permutation_tower(24, 2**10, seed=27)
        partition = uniform_random_partition(tower, A2, seed=28)
        offsets = list(range(16))
        flags = flag_dependent_shifts(tower, partition, offsets, 0.4)
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]
        assert np.array_equal(flags, genutil.paint_gate_flags(tower, partition, offsets, 0.4))

    @pytest.mark.parametrize(
        "offsets, epsilon", [([-1, 2], 0.4), ([-(2**40), 2], 0.4), ([0, 2], 0.0)]
    )
    def test_negative_offset_or_budget_rejected(self, offsets, epsilon):
        # a negative offset would read below level 0, through numpy's
        # wrap-around; a zero budget cannot be amplified
        tower = genutil.permutation_tower(8, 64, seed=1)
        partition = uniform_random_partition(tower, A2, seed=2)
        with pytest.raises(DomainError):
            flag_dependent_shifts(tower, partition, offsets, epsilon)


class TestPaintedSplit:
    """The painted slice sorts the names as packed int16 keys; the order must
    be a lexsort over every level, level 0 primary, ties by index."""

    @staticmethod
    def lexsort_split(base, fraction):
        order = np.lexsort(tuple(base[lvl] for lvl in reversed(range(base.shape[0]))))
        return np.sort(towers._systematic_split(order, fraction))

    @staticmethod
    def int64_split(base, size, fraction):
        """The split sorted on int64 keys, each packing as many levels as fit."""
        per_key = max(k for k in range(1, 64) if size**k <= 2**63)
        keys = []
        for lo in range(0, len(base), per_key):
            codes = np.zeros(base.shape[1], dtype=np.int64)
            for lvl in range(lo, min(lo + per_key, len(base))):
                codes = codes * size + base[lvl]
            keys.append(codes)
        return np.sort(towers._systematic_split(np.lexsort(keys[::-1]), fraction))

    # 63, 39 and 27 levels fit one int64 key at sizes 2, 3 and 5: three keys each
    @pytest.mark.parametrize("size, height", [(2, 130), (3, 80), (5, 60)])
    def test_packed_order_matches_lexsort(self, size, height):
        base = np.random.default_rng(size).integers(0, size, size=(height, 2**10), dtype=np.int16)
        got = towers._painted_split(base, size, 0.04)
        assert np.array_equal(got, self.lexsort_split(base, 0.04))

    def test_tied_names_break_by_index(self):
        # identity transfer over bit-slice labels: every name is shared by
        # 2^6 atoms, so the split rests on the tie order
        tower = TowerSpec(130, 2**10)
        base = base_aligned_labels(tower, genutil.bit_slice_partition(tower, A2, bits=4))
        got = towers._painted_split(base, 2, 0.04)
        assert np.array_equal(got, self.lexsort_split(base, 0.04))

    # an int16 key holds 15, 9, 6 and 2 levels at sizes 2, 3, 5 and 128, and
    # a key holds one level at 2^15 symbols, the label cap; each pair of
    # heights ends on a full key and on a short one
    @pytest.mark.parametrize(
        "size, height",
        [(2, 30), (2, 31), (3, 18), (3, 19), (5, 12), (5, 13), (128, 8), (128, 7), (2**15, 4), (2**15, 3)],
    )
    @pytest.mark.parametrize("ties", [False, True])
    def test_int16_keys_match_int64_keys(self, size, height, ties):
        rng = np.random.default_rng(size + height)
        atoms = 2**11
        base = rng.integers(0, size, size=(height, atoms), dtype=np.int16)
        if ties:
            # 24 distinct names, each carried by about 85 atoms
            base = base[:, rng.integers(0, 24, size=atoms)]
        for fraction in (0.01, 0.04, 0.3):
            got = towers._painted_split(base, size, fraction)
            assert np.array_equal(got, self.int64_split(base, size, fraction))

    # a short last key may be narrower still
    @pytest.mark.parametrize("size, width", [(2, 2), (3, 2), (128, 2), (2**15, 4)])
    def test_keys_fit_16_bits_up_to_2_15_symbols(self, size, width, monkeypatch):
        seen = []
        lexsort = np.lexsort

        def recording_lexsort(keys):
            seen.extend(k.dtype for k in keys)
            return lexsort(keys)

        monkeypatch.setattr(towers.np, "lexsort", recording_lexsort)
        base = np.random.default_rng(size).integers(0, size, size=(31, 256), dtype=np.int16)
        towers._painted_split(base, size, 0.04)
        assert seen and max(d.itemsize for d in seen) == width
        assert all(d.kind == "i" for d in seen)


class TestPaintGates:
    """The stacked gate rows equal the gate run one window at a time."""

    @staticmethod
    def one_window(base, painted_base, levels, size):
        atoms, m0 = base.shape[1], painted_base.shape[1]

        def counts(table):
            codes = np.zeros(table.shape[1], dtype=np.int64)
            for lvl in levels:
                codes = codes * size + table[lvl]
            return np.bincount(codes, minlength=size ** len(levels))

        full = counts(base)
        kept = full - counts(painted_base)
        joint = full.reshape((size,) * len(levels))
        prod = np.ones(1)
        for a in range(joint.ndim):
            level = np.moveaxis(joint, a, 0).reshape(size, -1).sum(axis=1) / atoms
            prod = np.multiply.outer(prod, level).reshape(-1)
        t = m0 / atoms
        xi = (prod - (1.0 - t) * (kept / (atoms - m0))) / t
        worst = int(np.argmin(xi))
        return kept, xi, worst, float(xi[worst])

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("offsets", [[0, 2], [0, 1, 3]])
    def test_rows_match_per_window_gate(self, size, offsets):
        tower = genutil.permutation_tower(12, 2**12, seed=size)
        partition = uniform_random_partition(tower, Alphabet(size), seed=40 + size)
        base = base_aligned_labels(tower, partition)
        painted_base = base[:, towers._painted_split(base, size, 0.04)]
        shifts = [0, 3, 4, 8]
        kept, xi, worst, margins = towers._paint_gates(
            base, painted_base, shifts, IndexSet.of(offsets), size
        )
        assert kept.shape == xi.shape == (len(shifts), size ** len(offsets))
        for row, j in enumerate(shifts):
            ref = self.one_window(base, painted_base, [j + k for k in offsets], size)
            assert np.array_equal(kept[row], ref[0])
            assert xi[row].tobytes() == ref[1].tobytes()
            assert (int(worst[row]), float(margins[row])) == ref[2:]

    def test_no_shifts(self):
        tower = genutil.permutation_tower(6, 512, seed=2)
        partition = uniform_random_partition(tower, Alphabet(3), seed=3)
        base = base_aligned_labels(tower, partition)
        kept, xi, worst, margins = towers._paint_gates(base, base[:, :20], [], IndexSet.of([0, 2]), 3)
        assert kept.shape == xi.shape == (0, 9)
        assert worst.shape == margins.shape == (0,)


class TestFlagPaintAgreement:
    """Flagging marks exactly the shifts paint's gate rejects, so paint after
    flagging never meets a negative correcting cell."""

    @pytest.mark.parametrize("size", [2, 3])
    def test_sweep_raises_no_positivity_error(self, size):
        alphabet = Alphabet(size)
        for seed in range(40):
            tower = genutil.permutation_tower(32, 2**12, seed)
            partition = uniform_random_partition(tower, alphabet, seed=1000 + seed)
            flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
            paint_tower(tower.with_flags(in_e1=flags), partition, [0], 2, 0.4, alpha=0.0)
            try:
                iterate_krengel(tower, partition, [2, 3, 4], 0.8, steps=1)
            except MixingSupplyError:
                pass  # a refusal: no candidate time mixes enough

    @staticmethod
    def outcome(paint):
        try:
            report = paint()
        except PositivityError as err:  # the chain's own refusal, not the gate's
            return str(err)
        return report.q.labels.tobytes(), report.to_dict()

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("offsets, m", [([0], 2), ([0, 1], 3)])
    def test_paint_alone_equals_flag_then_paint(self, size, offsets, m):
        alphabet, flagged = Alphabet(size), 0
        for seed in range(8):
            tower = genutil.permutation_tower(32, 2**12, seed)
            partition = uniform_random_partition(tower, alphabet, seed=2000 + seed)
            flags = flag_dependent_shifts(tower, partition, offsets + [m], 0.4)
            flagged += int(flags.sum())
            alone = self.outcome(lambda: paint_tower(tower, partition, offsets, m, 0.4, 0.0, seed))
            after = self.outcome(
                lambda: paint_tower(tower.with_flags(in_e1=flags), partition, offsets, m, 0.4, 0.0, seed)
            )
            assert alone == after
        assert flagged > 0

    @pytest.mark.parametrize("offsets, m", [([0, 1], 3), ([1, 2], 4), ([0, 2], 5), ([1, 2], 6)])
    def test_refusal_sweep_paints_or_names_the_refusal(self, offsets, m):
        # past the gate, the chain either extends the window or refuses at a
        # named coordinate with the negative cell it met (about half of these
        # 4096-atom runs refuse)
        for seed in range(10):
            tower = genutil.permutation_tower(16, 2**12, seed)
            partition = uniform_random_partition(tower, A2, seed=1000 + seed)
            try:
                paint_tower(tower, partition, offsets, m, 0.4, 0.0, seed)
            except PositivityError as err:
                assert err.margin < 0
                assert str(err).startswith("extension failed at coordinate")

    def test_clipped_chain_replays(self, monkeypatch):
        # a sweep case whose chain clips: the replay glues each step at the
        # gap its extension run admitted, so the painted chain replays
        chains = []

        def recording_chain(*args, **kwargs):
            chains.append(extend_family_chain(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(towers, "extend_family_chain", recording_chain)
        tower = genutil.permutation_tower(16, 2**12, 6)
        partition = uniform_random_partition(tower, A2, seed=1006)
        paint_tower(tower, partition, [0, 2], 5, 0.4, 0.0, 6)
        (chain,) = chains
        assert max(s.clipped for s in chain.steps) > 0
        dense = chain.dense()
        for i in chain.window:
            assert sup_distance(chain.marginal([i]), project(dense, [i])) <= 1e-12


class TestApportion:
    def test_ties_go_to_the_smaller_index(self):
        # weights from {1, 2, 3} tie exactly; from 17 entries on, numpy's
        # default sort need not keep tied remainders in index order
        rng = np.random.default_rng(5)
        for _ in range(20):
            weights = rng.integers(1, 4, size=int(rng.integers(17, 300))).astype(float)
            total = int(rng.integers(1, 4 * len(weights)))
            quota = weights / weights.sum() * total
            want = np.floor(quota).astype(np.int64)
            remainder = quota - want
            extras = sorted(range(len(weights)), key=lambda i: (-remainder[i], i))
            want[extras[: total - int(want.sum())]] += 1
            assert towers._apportion(weights, total).tolist() == want.tolist()


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

    def test_fresh_time_must_clear_offsets(self, big_tower):
        tower, partition = big_tower
        with pytest.raises(DomainError):
            paint_tower(tower, partition, [0, 4], 3, epsilon=0.4, alpha=0.4)

    def test_negative_offset_rejected(self, big_tower):
        tower, partition = big_tower
        with pytest.raises(DomainError, match="offsets must be >= 0"):
            paint_tower(tower, partition, [-1, 0], 2, epsilon=0.4, alpha=0.4)

    @pytest.mark.parametrize("alpha", [-0.1, float("nan")], ids=["negative", "nan"])
    def test_degenerate_alpha_refused(self, big_tower, alpha):
        tower, partition = big_tower
        with pytest.raises(DomainError, match="alpha must be >= 0"):
            paint_tower(tower, partition, [0], 2, epsilon=0.4, alpha=alpha)

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

    def test_unflagged_dependent_shift_flagged(self):
        # the instance of TestFlagging::test_hard_dependence_flagged, whose
        # flags are [7], painted without them: paint's own gate flags shift 7
        tower = genutil.permutation_tower(16, 2**14, seed=22)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        partition = genutil.copy_corrupt(tower, partition, 9, 7, 0.5, seed=1)
        report = paint_tower(tower, partition, [0], 2, 0.4, alpha=0.0)
        assert 7 not in report.window_defects
        assert sorted(report.window_defects) == [j for j in range(14) if j != 7]
        assert report.e1_mass == 1 / 16

    def test_window_cell_cap_checked_before_split(self):
        # two atoms leave the painted slice empty, so only the window's own
        # cap check can refuse its 2^15001 cells
        tower = TowerSpec(16000, 2)
        partition = uniform_random_partition(tower, A2, seed=3)
        with pytest.raises(CapacityError):
            paint_tower(tower, partition, range(15000), 15001, 0.4, alpha=0.0)


class TestPaintOnlyThePaintedSlice:
    """Paint writes only the painted atoms and re-measures from the kept
    counts plus the painted names; each report field must equal the value a
    whole-base recount of ``report.q`` gives."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("m", [2, 8])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_report_matches_whole_base_recount(self, monkeypatch, size, m, seed):
        alphabet = Alphabet(size)
        tower = genutil.permutation_tower(24, 2**14, seed=seed)
        partition = uniform_random_partition(tower, alphabet, seed=seed + 100)
        offsets, epsilon = [0], 0.4
        window = IndexSet.of(offsets).union((m,))
        flags = flag_dependent_shifts(tower, partition, window, epsilon)
        painted_names = []
        paint_names = towers._paint_names

        def recording(chain, n_rows, paint_seed):
            names = paint_names(chain, n_rows, paint_seed)
            painted_names.append(names.copy())
            return names

        monkeypatch.setattr(towers, "_paint_names", recording)
        report = paint_tower(
            tower.with_flags(in_e1=flags),
            partition,
            offsets,
            m,
            epsilon,
            alpha=partition.min_symbol_mass() - 1e-9,
            seed=seed,
        )
        assert not report.degenerate and report.window_defects

        base = base_aligned_labels(tower, partition)
        order = np.lexsort(tuple(base[lvl] for lvl in reversed(range(tower.height))))
        painted = np.sort(towers._systematic_split(order, epsilon / 10))
        base[:, painted] = painted_names[0].T
        assert np.array_equal(report.q.labels, labels_from_base(tower, base, alphabet).labels)

        recount = towers._level_counts(report.q.labels, size)
        gap = np.abs(recount - towers._level_counts(partition.labels, size)).max(axis=1)
        assert np.array_equal(report.per_level_distribution_gap, gap / tower.atom_count)

        for j, defect in report.window_defects.items():
            nu = name_distribution(tower, report.q, j, window)
            assert defect == delta_independence(nu, "ascending")
            assert report.window_sup_gaps[j] == sup_distance(nu, product_of_marginals(nu))


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

    def test_fractional_bad_level_refused(self):
        # level 0 relabels this tower, so reading 0.9 as 0 would show
        tower, partition = self._clean_instance(55, height=8, atoms=2**8, bits=8)
        relabeled = fiber_surgery(tower, partition, [0, 1], [0])
        assert not np.array_equal(relabeled.labels, partition.labels)
        with pytest.raises(DomainError, match="coordinate must be an integer, got 0.9"):
            fiber_surgery(tower, partition, [0, 1], [0.9])
        assert np.array_equal(fiber_surgery(tower, partition, [0, 1], [0.0]).labels, relabeled.labels)

    def test_single_offset_relabel_preserves_distribution(self):
        tower, partition = self._clean_instance(52)
        out = fiber_surgery(tower, partition, [0], [4])
        assert np.allclose(out.distributions()[4], partition.distributions()[4])
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

    def test_halo_wider_than_a_packed_code(self):
        # offsets {0, 1, 3, 7, 12, 20} at height 80 give shift 30 a 49-level
        # halo; at alphabet 4, 4^48 = 2^96 would push the lowest halo level,
        # 10, out of a 64-bit code. Level 10 reads the top base-4 digit of
        # the atom index, the block's level 31 the lowest, and every other
        # level is constant. No window holds both 10 and 31, so only the
        # halo classes keep the new level 31 independent of level 10.
        alphabet, atoms = Alphabet(4), 4**4
        tower = TowerSpec(80, atoms)
        labels = np.zeros((80, atoms), dtype=np.int16)
        idx = np.arange(atoms)
        labels[10] = idx // 64
        labels[31] = idx % 4
        partition = LabeledPartition(alphabet, labels)
        out = fiber_surgery(tower, partition, [0, 1, 3, 7, 12, 20], [30])
        joint = name_distribution(tower, out, 10, [0, 21])
        assert np.array_equal(joint.table, np.full(16, 1 / 16))
        assert np.array_equal(np.bincount(out.labels[31], minlength=4), [64] * 4)
        assert np.array_equal(np.delete(out.labels, 31, axis=0), np.delete(labels, 31, axis=0))


def _digest(partition):
    return hashlib.sha256(partition.labels.tobytes()).hexdigest()


class TestPinnedLabels:
    """SHA-256 of the labels that paint, Krengel and surgery write. The
    values were recorded while paint still copied the kept and new bases, so
    a change to how the tower tables are held must keep these bits."""

    def test_paint_golden_tower(self):
        tower = genutil.permutation_tower(16, 2**14, seed=5)
        partition = uniform_random_partition(tower, A2, seed=3)
        flags = flag_dependent_shifts(tower, partition, [0, 2], 0.4)
        report = paint_tower(
            tower.with_flags(in_e1=flags),
            partition,
            [0],
            2,
            epsilon=0.4,
            alpha=partition.min_symbol_mass() - 1e-9,
            seed=20210607,
        )
        assert _digest(report.q) == (
            "6b845c2d286e333eec7d64ac5b5975c329948f6ef12fe25cf26c15ea681aedc2"
        )

    def test_two_step_krengel(self):
        tower = genutil.permutation_tower(24, 2**14, seed=5)
        partition = genutil.bit_slice_partition(tower, A2, bits=14)
        res = iterate_krengel(tower, partition, [2, 3, 4], epsilon=0.8, steps=2, seed=11)
        assert res.chosen_times == (2, 3)
        assert _digest(res.q) == (
            "ccef7e36eb5abf6260b9a829ae1e882ceb93cd7a7f6e8e7e0b2ad4b4d8752e88"
        )

    def test_surgery_both_policies(self):
        tower = genutil.permutation_tower(12, 4096, seed=53)
        partition = genutil.bit_slice_partition(tower, A2, bits=12)
        corrupted = genutil.copy_corrupt(tower, partition, 7, 4, 1.0, seed=3)
        exact = fiber_surgery(tower, corrupted, [0, 3], [4])
        assert _digest(exact) == (
            "49ce20b4abd8eff7a3b92ecbcbf5f437405247e58720cb7f0aa26e8943346ef6"
        )


def test_tower_tables_kept_once():
    """A tower keeps one int32 positions table, and paint owns one int16
    aligned base: bounds in traced bytes per label cell."""
    height, atoms = 32, 2**14
    cells = height * atoms
    rng = np.random.default_rng(5)
    transfer = np.stack([rng.permutation(atoms) for _ in range(height - 1)]).astype(np.int32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tower = TowerSpec(height, atoms, transfer)
        flagged = tower.with_flags(in_e1=np.zeros(height, dtype=bool))
        retained = tracemalloc.get_traced_memory()[0] - start
        partition = genutil.bit_slice_partition(flagged, A2, bits=14)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        report = paint_tower(flagged, partition, [0], 2, epsilon=0.4, alpha=0.4)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert not report.degenerate
    assert retained / cells <= 4.5
    assert peak / cells <= 10.0
