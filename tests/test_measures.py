import itertools
import json
import re
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import genutil
from margex import (
    Alphabet,
    CapacityError,
    ConsistencyError,
    DenseMeasure,
    DomainError,
    IndexSet,
    LabeledPartition,
    MarginalFamily,
    SingularityError,
    TowerSpec,
    ZeroMassError,
    consistency_gap,
    delta_independence,
    extend_family,
    extension,
    name_distribution,
    product_of_marginals,
    project,
    relative_product,
    sup_distance,
    tensor,
)
from margex import measures
from margex.measures import DEFAULT_TOL, EMPTY

A2 = Alphabet(2)
A3 = Alphabet(3)


def measure(alphabet, support, table):
    return DenseMeasure(alphabet, IndexSet.of(support), table)


@st.composite
def random_measures(draw, max_coords=3, alphabet_sizes=(2, 3)):
    size = draw(st.sampled_from(alphabet_sizes))
    n = draw(st.integers(1, max_coords))
    support = draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True)
    )
    cells = size ** n
    raw = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=cells, max_size=cells
        )
    )
    table = np.asarray(raw)
    return DenseMeasure(Alphabet(size), IndexSet.of(support), table / table.sum())


@dataclass(frozen=True, eq=False)
class _Result:
    table: np.ndarray
    support: IndexSet
    items: tuple
    by_index: dict
    scalar: object
    nested: object
    hidden: float = 0.0

    def to_dict(self):
        return measures._report(self, "hidden")


class TestReport:
    """A report is its result's fields but the skipped ones, in JSON form."""

    def test_fields_in_json_form(self):
        inner = _Result(np.array([1, 2]), IndexSet.of([3]), (), {}, np.float64(0.5), None)
        outer = _Result(
            np.array([[0.25, 0.75]]),
            IndexSet.of([2, 0]),
            (inner, 1),
            {3: np.int64(4), -1: (np.bool_(True),)},
            np.int64(7),
            DenseMeasure.unit(A2),
        )
        report = outer.to_dict()
        assert report == {
            "table": [[0.25, 0.75]],
            "support": [0, 2],
            "items": [
                {"table": [1, 2], "support": [3], "items": [], "by_index": {}, "scalar": 0.5, "nested": None},
                1,
            ],
            "by_index": {"3": 4, "-1": [True]},
            "scalar": 7,
            "nested": DenseMeasure.unit(A2).to_dict(),
        }
        # Python values only, which the JSON writer takes as they are
        assert json.loads(json.dumps(report)) == report
        assert type(report["scalar"]) is int

    def test_skip_drops_only_the_named_fields(self):
        result = _Result(np.zeros(1), EMPTY, (), {}, 0, None, hidden=1.0)
        assert list(measures._report(result)) == [f.name for f in fields(_Result)]
        kept = ["support", "items", "by_index", "scalar", "nested"]
        assert list(measures._report(result, "table", "hidden")) == kept


class TestIndexSet:
    def test_ordering_and_dedup(self):
        assert IndexSet.of([3, 1, 2]).indices == (1, 2, 3)
        with pytest.raises(DomainError):
            IndexSet((2, 1))
        with pytest.raises(DomainError):
            IndexSet.of([1, 1])

    def test_set_algebra(self):
        k = IndexSet.of([1, 2, 5])
        assert k.union([0]).indices == (0, 1, 2, 5)
        assert k.intersection([2, 5, 9]).indices == (2, 5)
        assert k.difference([2]).indices == (1, 5)
        assert k.positions([2, 5]) == (1, 2)
        assert k.shift(3).indices == (4, 5, 8)

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(-20, 20)), st.sets(st.integers(-20, 20)))
    def test_set_algebra_matches_python_sets(self, a, b):
        k = IndexSet.of(a)
        as_numpy = np.array(sorted(b), dtype=np.int64)
        for other in (IndexSet.of(b), sorted(b, reverse=True), as_numpy):
            for got, want in (
                (k.union(other), a | b),
                (k.intersection(other), a & b),
                (k.difference(other), a - b),
            ):
                assert got == IndexSet.of(want)
                assert all(type(i) is int for i in got)
            assert k.issubset(other) == (a <= b)

    @pytest.mark.parametrize(
        "items", [[0, 2.5], [0.9], [np.float64(1.5), 3], [np.float16(1.5)], [0, np.float32(2.5)]]
    )
    def test_fractional_coordinate_refused(self, items):
        with pytest.raises(DomainError, match="coordinate must be an integer"):
            IndexSet.of(items)
        with pytest.raises(DomainError, match="coordinate must be an integer"):
            IndexSet(tuple(items))

    def test_whole_floats_and_numpy_integers_pass(self):
        for items in (
            [0, 2.0],
            [np.int16(0), np.int64(2)],
            [0, np.float32(2.0)],
            np.array([0.0, 2.0]),
            np.array([0, 2]),
        ):
            got = IndexSet.of(items)
            assert got.indices == (0, 2) and all(type(i) is int for i in got)

    @pytest.mark.parametrize("value", [np.float16(1.5), np.float32(1.5), np.float32(2.5)])
    def test_fractional_numpy_scalar_refused(self, value):
        with pytest.raises(DomainError, match="x must be an integer"):
            measures._spec_int(value, "x")
        assert measures._spec_int(np.float32(2.0), "x") == 2

    def test_bad_input_keeps_its_message(self):
        with pytest.raises(DomainError, match=r"^duplicate coordinates in \(1, 1\)$"):
            IndexSet((1, 1))
        message = "coordinates must be strictly increasing, got (2, 1)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            IndexSet((2, 1))
        with pytest.raises(DomainError, match=r"^duplicate coordinates in \(3, 3\)$"):
            IndexSet.of([3, 3])
        for op in ("union", "intersection", "difference", "issubset"):
            with pytest.raises(DomainError, match=r"^duplicate coordinates in \(3, 3\)$"):
                getattr(IndexSet.of([1]), op)([3, 3])


class TestProjection:
    def test_identity(self):
        m = measure(A2, [1, 2], [0.2, 0.1, 0.4, 0.3])
        assert sup_distance(project(m, [1, 2]), m) <= 0

    def test_whole_support_returns_the_measure(self):
        m = measure(A2, [1, 2], [0.2, 0.1, 0.4, 0.3])
        assert project(m, m.support) is m
        assert project(m, [2, 1]) is m
        scalar = DenseMeasure.unit(A2)
        assert project(scalar, EMPTY) is scalar

    def test_product_marginal(self):
        m = tensor(measure(A2, [1], [0.3, 0.7]), measure(A2, [2], [0.6, 0.4]))
        assert np.allclose(project(m, [1]).table, [0.3, 0.7])

    def test_column_sums(self):
        m = measure(A2, [1, 2], [0.20, 0.10, 0.40, 0.30])
        assert np.allclose(project(m, [2]).table, [0.60, 0.40])

    def test_not_a_subset(self):
        m = measure(A2, [1, 2], [0.25] * 4)
        with pytest.raises(DomainError):
            project(m, [3])

    def test_empty_target_is_total_mass(self):
        m = measure(A2, [1, 2], [0.25] * 4)
        out = project(m, EMPTY)
        assert out.support == EMPTY and out.table.shape == (1,)
        assert float(out.table.sum()) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(random_measures())
    def test_projection_tower(self, m):
        support = list(m.support)
        mid = IndexSet.of(support[: max(1, len(support) - 1)])
        small = IndexSet.of(support[:1])
        direct = project(m, small)
        via = project(project(m, mid), small)
        # sums of sums; only float re-association can separate the two routes
        assert sup_distance(direct, via) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(random_measures())
    def test_mass_conservation(self, m):
        for i in m.support:
            assert abs(float(project(m, [i]).table.sum()) - float(m.table.sum())) <= 1e-12


class TestProductOfMarginals:
    def test_product_is_fixed_point(self):
        m = tensor(measure(A2, [0], [0.3, 0.7]), measure(A2, [1], [0.6, 0.4]))
        assert sup_distance(product_of_marginals(m), m) <= 1e-15

    def test_worked_example(self):
        m = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        assert np.allclose(product_of_marginals(m).table, 0.25)

    def test_signed_rejected(self):
        s = DenseMeasure(A2, IndexSet.of([0]), [0.5, 0.6], "signed")
        with pytest.raises(DomainError):
            product_of_marginals(s)

    @settings(max_examples=100, deadline=None)
    @given(random_measures())
    def test_marginals_preserved(self, m):
        p = product_of_marginals(m)
        for i in m.support:
            assert sup_distance(project(p, [i]), project(m, [i])) <= 1e-12


class TestSupDistanceAndConsistency:
    def test_zero_on_self(self):
        m = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        assert sup_distance(m, m) == 0.0

    def test_worked_gap(self):
        m = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        assert sup_distance(m, product_of_marginals(m)) == pytest.approx(0.01)

    def test_symmetry(self):
        m1 = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        m2 = measure(A2, [0, 1], [0.25] * 4)
        assert sup_distance(m1, m2) == sup_distance(m2, m1)

    def test_nan_and_inf_propagate(self):
        finite = measure(A2, [0], [0.5, 0.5])
        nan = DenseMeasure(A2, IndexSet.of([0]), [np.nan, 0.5], "signed")
        inf = DenseMeasure(A2, IndexSet.of([0]), [np.inf, 0.5], "signed")
        assert np.isnan(sup_distance(nan, finite)) and np.isnan(sup_distance(finite, nan))
        assert sup_distance(inf, finite) == np.inf and sup_distance(finite, inf) == np.inf

    def test_support_mismatch(self):
        with pytest.raises(DomainError):
            sup_distance(measure(A2, [0], [0.5, 0.5]), measure(A2, [1], [0.5, 0.5]))

    def test_self_consistent(self):
        m = measure(A2, [0, 1], [0.26, 0.24, 0.24, 0.26])
        assert consistency_gap(m, m) <= DEFAULT_TOL

    def test_disjoint_probability_measures_consistent(self):
        gap = consistency_gap(measure(A2, [0], [0.5, 0.5]), measure(A2, [5], [0.3, 0.7]))
        assert gap <= DEFAULT_TOL

    def test_inconsistent_pair(self):
        m12 = DenseMeasure.uniform(A2, [1, 2])
        m23 = tensor(measure(A2, [2], [0.6, 0.4]), measure(A2, [3], [0.5, 0.5]))
        assert not consistency_gap(m12, m23) <= DEFAULT_TOL


class TestDeltaIndependence:
    def test_exact_product_is_zero(self):
        m = tensor(measure(A2, [0], [0.3, 0.7]), measure(A2, [1], [0.6, 0.4]))
        assert delta_independence(m) <= 1e-15
        assert delta_independence(m, "scan_all") <= 1e-15

    def test_worked_two_by_two(self):
        e = 0.01
        m = measure(A2, [0, 1], [0.25 + e, 0.25 - e, 0.25 - e, 0.25 + e])
        assert delta_independence(m) == pytest.approx(0.02)

    def test_scan_all_gate(self):
        with pytest.raises(CapacityError):
            delta_independence(DenseMeasure.uniform(A2, range(9)), "scan_all")

    def test_explicit_ordering_must_be_permutation(self):
        m = DenseMeasure.uniform(A2, [0, 1])
        with pytest.raises(DomainError):
            delta_independence(m, (0, 2))

    def test_zero_mass_prefix_atom_errors(self):
        m = measure(A2, [0, 1], [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ZeroMassError):
            delta_independence(m, (0, 1))

    @settings(max_examples=60, deadline=None)
    @given(random_measures(max_coords=3, alphabet_sizes=(2,)))
    def test_product_bound(self, m):
        # approximate independence bounds the gap to the product measure
        d = delta_independence(m)
        gap = sup_distance(m, product_of_marginals(m))
        assert gap <= (len(m.support) - 1) * d + 1e-12 if len(m.support) > 1 else gap <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_measures(max_coords=3, alphabet_sizes=(2,)))
    def test_prefix_projection_monotone(self, m):
        order = tuple(m.support)
        d = delta_independence(m, order)
        for cut in range(1, len(order)):
            sub = project(m, order[:cut])
            assert delta_independence(sub, order[:cut]) <= d + 1e-12

    def test_general_subset_heredity_is_only_observed(self):
        # heredity to arbitrary sub-supports is not relied on; record the
        # worst observed ratio rather than asserting it
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(25):
            t = rng.random(8) + 0.3
            m = DenseMeasure(A2, IndexSet.of([0, 1, 2]), t / t.sum())
            d = delta_independence(m, "scan_all")
            for sub in ([0, 2], [1, 2], [0, 1]):
                ds = delta_independence(project(m, sub), "scan_all")
                if d > 0:
                    worst = max(worst, ds / d)
        assert worst < 10.0  # sanity ceiling only


def _gap_over_massive_atoms(arr):
    """Reference: worst gap of the last axis given a cell of the others,
    over the cells that carry mass."""
    rows = arr.reshape(-1, arr.shape[-1])
    mass = rows.sum(axis=1)
    cond = rows[mass > 0] / mass[mass > 0, None]
    return float(np.abs(cond - rows.sum(axis=0)).max())


def _scan_all_by_public_gaps(m):
    """The subset DP of scan_all, written with the reference conditional_gap."""
    coords = tuple(m.support)
    best = {1 << j: 0.0 for j in range(len(coords))}
    for mask in range(1, 2 ** len(coords)):
        if mask not in best:
            continue
        prefix = tuple(c for b, c in enumerate(coords) if mask & (1 << b))
        for j, c in enumerate(coords):
            if not mask & (1 << j):
                gap, has_zero_atom = genutil.conditional_gap(m, prefix, c)
                if not has_zero_atom:
                    best[mask | 1 << j] = min(best.get(mask | 1 << j, np.inf), max(best[mask], gap))
    return best[2 ** len(coords) - 1]


class TestScanAllProjections:
    def test_one_law_per_coordinate(self, monkeypatch):
        # 8 binary coordinates: one projection per reachable (prefix, next)
        # pair plus one per coordinate's own law
        m = genutil.random_measure(np.random.default_rng(8), A2, range(8))
        expected = _scan_all_by_public_gaps(m)
        calls = []
        real = measures.project

        def counting(mu, target):
            calls.append(target)
            return real(mu, target)

        monkeypatch.setattr(measures, "project", counting)
        defect = delta_independence(m, "scan_all")
        assert len(calls) <= 1024 + 8
        assert np.float64(defect).tobytes() == np.float64(expected).tobytes()


class TestZeroMassRule:
    """Every caller of the conditional gap treats zero-mass atoms alike: the
    gap runs over the atoms that carry mass, and each caller decides what a
    zero-mass atom means for it."""

    # coordinate 0 never takes symbol 1; coordinate 1 takes every symbol
    ROWS = [[0.2, 0.1, 0.1], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]]

    def test_ascending_raises(self):
        m = measure(A3, [0, 1], np.ravel(self.ROWS))
        with pytest.raises(ZeroMassError, match="zero-mass atom"):
            delta_independence(m, "ascending")

    def test_scan_all_takes_the_finite_ordering(self):
        m = measure(A3, [0, 1], np.ravel(self.ROWS))
        expected = _gap_over_massive_atoms(np.asarray(self.ROWS).T)
        assert delta_independence(m, "scan_all") == pytest.approx(expected, abs=1e-15)
        assert delta_independence(m, "scan_all") == delta_independence(m, (1, 0))

    def test_scan_all_raises_when_every_ordering_does(self):
        table = np.zeros((3, 3))
        table[:2, :2] = [[0.1, 0.2], [0.3, 0.4]]
        with pytest.raises(ZeroMassError, match="every ordering"):
            delta_independence(measure(A3, [0, 1], table.ravel()), "scan_all")

    def test_extension_step_skips_zero_mass_overlap_atoms(self):
        mu = measure(A3, [0, 1], np.ravel(self.ROWS))
        family = MarginalFamily(A3, (mu,), alpha=0.1, n_cap=2)
        lam = project(mu, [0])
        _, step = extension._sigma_step(
            family, family.members_containing(1), lam.as_array(), lam.support.indices, 1, 1e-9, None
        )
        expected = _gap_over_massive_atoms(np.asarray(self.ROWS))
        assert step.beta_defect == pytest.approx(expected, abs=1e-12)
        # the step's defect does not raise; gluing onto a zero-mass overlap
        # cell is what fails
        with pytest.raises(SingularityError, match="coordinate 1: .*nonpositive cell"):
            extend_family(family, [0, 1], beta=1.0)

    def test_window_deviation_gap_over_massive_atoms(self):
        labels = np.array(
            [[0, 0, 2, 2, 0, 2], [0, 1, 2, 2, 1, 0], [1, 0, 1, 0, 2, 2]], dtype=np.int16
        )
        tower = TowerSpec(3, 6)
        partition = LabeledPartition(A3, labels)
        nu = name_distribution(tower, partition, 0, [0, 1])
        assert np.any(nu.as_array().sum(axis=1) == 0.0)
        _, gap = genutil.window_deviation(tower, partition, 0, [0, 1])
        assert gap == pytest.approx(_gap_over_massive_atoms(nu.as_array()), abs=1e-15)
        assert np.isfinite(gap)


class TestRelativeProduct:
    def test_overlap_equals_left_support(self):
        sigma = measure(A2, [1, 2], [0.20, 0.10, 0.40, 0.30])
        lam = project(sigma, [1])
        out = relative_product(lam, sigma)
        assert sup_distance(out, sigma) <= 1e-15

    def test_disjoint_is_tensor(self):
        lam = measure(A2, [9], [0.5, 0.5])
        sigma = measure(A2, [1, 2], [0.20, 0.10, 0.40, 0.30])
        out = relative_product(lam, sigma)
        assert sup_distance(out, tensor(lam, sigma)) <= 1e-15

    def test_inconsistent_overlap_raises(self):
        lam = measure(A2, [0], [0.5, 0.5])
        sigma = measure(A2, [0, 1], [0.20, 0.10, 0.40, 0.30])
        with pytest.raises(ConsistencyError):
            relative_product(lam, sigma)

    def test_zero_overlap_cell_raises(self):
        bad_lam = measure(A2, [0], [0.0, 1.0])
        bad_sigma = measure(A2, [0, 1], [0.0, 0.0, 0.5, 0.5])
        with pytest.raises(SingularityError):
            relative_product(bad_lam, bad_sigma)

    @settings(max_examples=60, deadline=None)
    @given(random_measures(max_coords=2, alphabet_sizes=(2,)), st.integers(0, 9))
    def test_restrictions(self, sigma, extra):
        # glue sigma to one of its own marginals extended by a fresh coordinate
        fresh = extra + 10
        lam = tensor(
            project(sigma, [min(sigma.support)]),
            DenseMeasure.uniform(A2, [fresh]),
        )
        out = relative_product(lam, sigma)
        assert sup_distance(project(out, lam.support), lam) <= 1e-12
        assert sup_distance(project(out, sigma.support), sigma) <= 1e-12


class TestGlueAxisOrder:
    """_glue computes in sigma-first axis order; every cell must carry the
    bits of the broadcast in the union's own order."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sets(st.integers(0, 5), min_size=1, max_size=4),
        st.sets(st.integers(0, 5), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @example(2, {0, 1}, {2, 3}, 1)  # empty overlap
    @example(3, {0, 1, 2}, {1, 2}, 2)  # sigma inside lam
    @example(2, {0, 2, 4}, {1, 2, 3}, 3)  # interleaved coordinates
    @example(3, {1}, {0, 1, 2}, 4)  # lam inside sigma
    def test_matches_union_order_broadcast(self, size, lam_support, sigma_support, seed):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(size)
        lam = genutil.random_measure(rng, alphabet, lam_support)
        sigma = genutil.random_measure(rng, alphabet, sigma_support)
        union = lam.support.union(sigma.support)
        rho = project(lam, lam.support.intersection(sigma.support))

        def embed(m):
            return m.as_array().reshape([size if i in m.support else 1 for i in union])

        expected = (embed(lam) * embed(sigma) / embed(rho)).reshape(-1)
        # the two random measures disagree on their overlap: glue at gap 0
        lam_arr, sigma_arr = lam.as_array(), sigma.as_array()
        table, support = measures._glue(
            size, lam_arr, lam.support.indices, sigma_arr, sigma.support.indices, rho.as_array(), 0.0, 0.0
        )
        assert support == union.indices
        assert table.tobytes() == expected.tobytes()


class TestSumOut:
    """``_sum_out`` carries the bits of ``arr.sum(axis=drop)`` on both sides
    of its cell-count crossover. This pins the summation order of the
    installed numpy: a numpy that sums in another order fails here."""

    @staticmethod
    def tables(shape, seed):
        rng = np.random.default_rng(seed)
        signed = rng.standard_normal(shape)
        with_zeros = rng.standard_normal(shape)
        with_zeros[rng.random(shape) < 0.3] = -0.0
        return [rng.random(shape), signed, with_zeros, np.full(shape, -0.0)]

    @pytest.mark.parametrize(
        "shape, edge",
        [((2,) * 10, 10), ((3,) * 7, 7), ((2,) * 13, 3), ((3,) * 8, 3)],
        ids=["2^10", "3^7", "2^13", "3^8"],
    )
    def test_matches_numpy_sum_bit_for_bit(self, shape, edge):
        # below the crossover every kept subset; above it those that keep
        # or drop at most ``edge`` axes
        n = len(shape)
        assert (int(np.prod(shape)) < measures.SUM_OUT_MIN_CELLS) == (edge == n)
        support = tuple(range(5, 5 + n))
        for arr in self.tables(shape, seed=n):
            for r in range(n + 1):
                if min(r, n - r) > edge:
                    continue
                for kept in itertools.combinations(range(n), r):
                    drop = tuple(p for p in range(n) if p not in kept)
                    want = arr.sum(axis=drop) if drop else arr
                    got = measures._sum_out(arr, support, [support[p] for p in kept])
                    assert got.shape == want.shape, kept
                    assert np.array_equal(got, want), kept
                    assert np.array_equal(np.signbit(got), np.signbit(want)), kept


class TestCapacityAndValidation:
    def test_cell_cap(self):
        with pytest.raises(CapacityError):
            DenseMeasure.uniform(A2, range(25))
        # 2^15000 has more digits than Python prints by default
        with pytest.raises(CapacityError):
            DenseMeasure.uniform(A2, range(15000))

    def test_probability_validation(self):
        with pytest.raises(DomainError):
            DenseMeasure(A2, IndexSet.of([0]), [0.6, 0.6])
        with pytest.raises(DomainError):
            DenseMeasure(A2, IndexSet.of([0]), [-0.1, 1.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            DenseMeasure(A2, IndexSet.of([0]), [bad, 1.0])

    def test_opposite_infinities_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            DenseMeasure(A2, IndexSet.of([0]), [np.inf, -np.inf])

    def test_signed_mass_free(self):
        s = DenseMeasure(A2, IndexSet.of([0]), [-1.0, 3.0], "signed")
        assert float(s.table.sum()) == pytest.approx(2.0)

    def test_alphabet_floor(self):
        with pytest.raises(DomainError):
            Alphabet(1)
        with pytest.raises(DomainError):
            Alphabet(3).check_alpha(0.4)
        Alphabet(3).check_alpha(0.33)

    def test_roundtrip_dict(self):
        m = measure(A3, [2, 5], np.arange(1.0, 10.0) / 45.0)
        back = DenseMeasure.from_dict(m.to_dict())
        assert sup_distance(back, m) <= 0 and back.kind == m.kind


class TestMarginalFamilyLookup:
    def test_members_containing_matches_a_scan_in_member_order(self):
        rng = np.random.default_rng(3)
        family = genutil.near_product_family(rng, A2, window_size=6, alpha=0.3)
        members = family.members + (measure(A2, [9], [0.5, 0.5]), measure(A2, [0, 9], [0.25] * 4))
        family = MarginalFamily(A2, members, family.alpha, family.n_cap)
        for n in range(-1, 11):
            expected = [mu for mu in family.members if n in mu.support]
            assert [id(mu) for mu in family.members_containing(n)] == [id(mu) for mu in expected]

    def test_members_containing_returns_a_fresh_list(self):
        family = MarginalFamily(A2, (measure(A2, [0], [0.5, 0.5]),), 0.4, 1)
        family.members_containing(0).clear()
        assert len(family.members_containing(0)) == 1

