import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genutil
import margex
from margex import (
    Alphabet,
    AnchorError,
    CapacityError,
    ConsistencyError,
    DenseMeasure,
    DomainError,
    IndependenceError,
    IndexSet,
    MarginalFamily,
    ProjectionOperator,
    bounded_right_inverse,
    brute_force_extension_exists,
    consistency_gap,
    delta_independence,
    extend_family,
    extend_family_chain,
    inclusion_exclusion_extension,
    product_measure,
    project,
    sup_distance,
    tensor,
    thresholds,
    verify_hypotheses,
)
from margex.measures import DEFAULT_TOL, EMPTY

A2 = Alphabet(2)


def measure(alphabet, support, table):
    return DenseMeasure(alphabet, IndexSet.of(support), table)


class TestThresholds:
    def test_worked_values(self):
        beta, delta = thresholds(0.5, 2, 1.0)
        assert beta == pytest.approx(1 / 16)
        assert delta == pytest.approx(1 / 512)
        beta, delta = thresholds(0.5, 1, 1.0)
        assert beta == pytest.approx(1 / 4)
        assert delta == pytest.approx(1 / 32)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.01, 0.5),
        st.integers(1, 8),
        st.floats(1.0, 100.0),
    )
    def test_delta_below_beta(self, alpha, n_cap, c_prime):
        beta, delta = thresholds(alpha, n_cap, c_prime)
        assert 0 < delta <= beta

    def test_domain(self):
        with pytest.raises(DomainError):
            thresholds(0.6, 2, 1.0)
        with pytest.raises(DomainError):
            thresholds(0.4, 0, 1.0)
        with pytest.raises(DomainError):
            thresholds(0.4, 2, 0.5)


class TestInclusionExclusion:
    def test_single_part(self):
        m = measure(A2, [1], [0.3, 0.7])
        assert np.allclose(inclusion_exclusion_extension([m]).table, m.table)

    def test_two_singletons_uniform_reference(self):
        m1 = measure(A2, [1], [0.3, 0.7])
        m2 = measure(A2, [2], [0.6, 0.4])
        out = inclusion_exclusion_extension([m1, m2])
        assert np.allclose(out.table, [0.20, 0.10, 0.40, 0.30])
        assert out.kind == "signed"
        assert sup_distance(project(out, [1]), m1) <= 1e-12
        assert sup_distance(project(out, [2]), m2) <= 1e-12

    def test_duplicate_parts(self):
        m = measure(A2, [1], [0.3, 0.7])
        assert np.allclose(inclusion_exclusion_extension([m, m]).table, m.table)

    def test_inconsistent_parts_raise(self):
        with pytest.raises(ConsistencyError):
            inclusion_exclusion_extension(
                [measure(A2, [0], [0.3, 0.7]), measure(A2, [0], [0.5, 0.5])]
            )

    def test_reference_must_be_positive(self):
        m1 = measure(A2, [0], [0.3, 0.7])
        q = DenseMeasure(A2, IndexSet.of([0]), [0.0, 1.0])
        with pytest.raises(DomainError):
            inclusion_exclusion_extension([m1], q)

    @pytest.mark.parametrize("seed", range(12))
    def test_projection_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(int(rng.integers(2, 4)))
        parts, _ = genutil.consistent_parts(rng, alphabet, 5, int(rng.integers(2, 5)))
        out = inclusion_exclusion_extension(parts)
        for p in parts:
            assert sup_distance(project(out, p.support), p) <= 1e-9

    def test_projection_identity_with_random_reference(self):
        rng = np.random.default_rng(99)
        parts, _ = genutil.consistent_parts(rng, A2, 4, 3)
        union = EMPTY
        for p in parts:
            union = union.union(p.support)
        q = genutil.random_measure(rng, A2, union)
        out = inclusion_exclusion_extension(parts, q)
        for p in parts:
            assert sup_distance(project(out, p.support), p) <= 1e-9

    def test_signed_parts(self):
        rng = np.random.default_rng(21)
        hidden = DenseMeasure(
            A2,
            IndexSet.of([0, 1, 2]),
            rng.standard_normal(8) / 4 + 0.25,
            "signed",
        )
        parts = [project(hidden, [0, 1]), project(hidden, [1, 2])]
        out = inclusion_exclusion_extension(parts)
        for p in parts:
            assert sup_distance(project(out, p.support), p) <= 1e-9
        assert float(out.table.sum()) == pytest.approx(float(hidden.table.sum()))


class TestRightInverse:
    def test_identity_operator(self):
        dom = IndexSet.of([1, 2])
        op = ProjectionOperator(A2, dom, (dom,))
        v = measure(A2, dom, [0.2, 0.1, 0.4, 0.3])
        b = bounded_right_inverse(op, v, op.apply(v))
        u = np.array([0.25] * 4)
        assert np.allclose(b.evaluate(u).table, [0.25] * 4)

    def test_anchor_pair(self):
        op = ProjectionOperator(A2, IndexSet.of([1, 2]), (IndexSet.of([1]), IndexSet.of([2])))
        v = measure(A2, [1, 2], [0.20, 0.10, 0.40, 0.30])
        w = np.array([0.3, 0.7, 0.6, 0.4])
        b = bounded_right_inverse(op, v, w)
        assert np.max(np.abs(b.evaluate(w).table - v.table)) <= 1e-12

    def test_zero_anchor_rejected(self):
        op = ProjectionOperator(A2, IndexSet.of([0]), (IndexSet.of([0]),))
        v = DenseMeasure(A2, IndexSet.of([0]), [0.0, 0.0], "signed")
        with pytest.raises(DomainError):
            bounded_right_inverse(op, v, op.apply(v))

    def test_bad_anchor_rejected(self):
        op = ProjectionOperator(A2, IndexSet.of([0, 1]), (IndexSet.of([0]),))
        v = DenseMeasure.uniform(A2, [0, 1])
        w = np.array([0.3, 0.7])
        with pytest.raises(AnchorError):
            bounded_right_inverse(op, v, w)

    @pytest.mark.parametrize("cells", [1, 3, 4])
    def test_wrong_length_anchor_rejected(self, cells):
        op = ProjectionOperator(A2, IndexSet.of([0, 1]), (IndexSet.of([0]),))
        v = DenseMeasure.uniform(A2, [0, 1])
        with pytest.raises(DomainError, match="anchor family must belong to the operator"):
            bounded_right_inverse(op, v, np.full(cells, 0.5))

    def test_anchor_is_not_projected_again(self, monkeypatch):
        # the caller already holds w = op.apply(v); the anchor check reads the
        # operator matrix instead of projecting v a second time
        op = ProjectionOperator(A2, IndexSet.of([0, 1, 2]), (IndexSet.of([0, 1]), IndexSet.of([1, 2])))
        v = genutil.random_measure(np.random.default_rng(3), A2, op.domain)
        w = op.apply(v)

        def forbidden(*args, **kwargs):
            raise AssertionError("bounded_right_inverse projected a measure")

        monkeypatch.setattr(margex.measures, "project", forbidden)
        monkeypatch.setattr(margex.extension, "project", forbidden)
        monkeypatch.setattr(ProjectionOperator, "apply", forbidden)
        b = bounded_right_inverse(op, v, w)
        assert np.max(np.abs(b.evaluate(w).table - v.table)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_right_inverse_contract(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(int(rng.integers(2, 4)))
        n = int(rng.integers(1, 5))
        domain = IndexSet.of(range(n))
        k = int(rng.integers(1, 4))
        targets = {domain.indices}
        while len(targets) < k:
            size = int(rng.integers(0, n + 1))
            targets.add(
                IndexSet.of(sorted(rng.choice(n, size=size, replace=False))).indices
            )
        op = ProjectionOperator(alphabet, domain, tuple(IndexSet(t) for t in sorted(targets)))
        v = genutil.random_measure(rng, alphabet, domain)
        b = bounded_right_inverse(op, v, op.apply(v))
        mat = op.matrix()
        u_svd, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(s > s[0] * 1e-12))
        for col in range(rank):
            u = u_svd[:, col]
            assert np.max(np.abs(mat @ b.evaluate(u).table - u)) <= 1e-9
        assert np.isfinite(b.measured_norm) and b.measured_norm > 0


    @pytest.mark.parametrize(
        "size, domain, targets",
        [
            (2, (1, 2), ((1, 2),)),
            (3, (1, 2), ((1,), (2,))),
            (2, (0, 1, 2), ((0, 1), (1,), (1, 2))),
        ],
        ids=["identity", "disjoint", "overlapping"],
    )
    def test_one_svd_matches_pinv_and_per_column_norm(self, size, domain, targets):
        alphabet = Alphabet(size)
        op = ProjectionOperator(alphabet, IndexSet(domain), tuple(IndexSet(t) for t in targets))
        v = genutil.random_measure(np.random.default_rng(len(targets)), alphabet, op.domain)
        w = op.apply(v)
        b = bounded_right_inverse(op, v, w)
        mat = op.matrix()
        pinv = np.linalg.pinv(mat)
        assert b._pinv.tobytes() == pinv.tobytes()
        u_svd, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(s > s[0] * 1e-12))
        if len(targets) == 3:
            assert rank < mat.shape[0]
        corr = v.table - pinv @ w
        norm = 0.0
        for col in range(rank):
            u = u_svd[:, col]
            x = pinv @ u + corr * (w @ u) / float(w @ w)
            norm = max(norm, float(np.max(np.abs(x)) / np.max(np.abs(u))))
        assert b.measured_norm == norm

    @pytest.mark.parametrize(
        "domain, target", [((0, 1, 2), (0, 2)), ((0, 1, 2), ()), ((3, 5), (3, 5)), ((), ())]
    )
    def test_matrix_rows_are_projection_digits(self, domain, target):
        op = ProjectionOperator(Alphabet(3), IndexSet(domain), (IndexSet(target),))
        keep = [domain.index(i) for i in target]
        expected = np.zeros((3 ** len(target), 3 ** len(domain)))
        for col, cell in enumerate(itertools.product(range(3), repeat=len(domain))):
            row = 0
            for pos in keep:
                row = row * 3 + cell[pos]
            expected[row, col] = 1.0
        assert np.array_equal(op.matrix(), expected)
        m = genutil.random_measure(np.random.default_rng(len(domain)), op.alphabet, op.domain)
        assert np.max(np.abs(op.apply(m) - op.matrix() @ m.table)) <= 1e-12


class TestExtendOneIndex:
    """Single extension steps, read off ``extend_family``'s trace."""

    def test_forced_by_prescription(self):
        mu01 = DenseMeasure.uniform(A2, [0, 1])
        family = MarginalFamily(A2, (mu01,), 0.5, 2)
        lam, trace = extend_family(family, [0, 1], beta=0.1)
        assert sup_distance(project(lam, [0]), measure(A2, [0], [0.5, 0.5])) <= 1e-12
        assert sup_distance(lam, mu01) <= 1e-12
        assert trace.steps[1].beta_defect <= 1e-12

    def test_unconstrained_coordinate_is_uniform(self):
        family = MarginalFamily(A2, (DenseMeasure.uniform(A2, [0, 1]),), 0.5, 2)
        lam, trace = extend_family(family, [0, 1, 7], beta=0.1)
        assert sup_distance(project(lam, [0, 1]), DenseMeasure.uniform(A2, [0, 1])) <= 1e-12
        assert trace.steps[2].index == 7 and trace.steps[2].trivial
        assert sup_distance(
            project(lam, [7]), DenseMeasure.uniform(A2, [7])
        ) <= 1e-12

    def test_exact_products_give_products(self):
        margs = [measure(A2, [i], [0.35, 0.65]) for i in range(4)]
        members = tuple(
            tensor(margs[i], margs[i + 1]) for i in range(3)
        )
        family = MarginalFamily(A2, members, 0.3, 3)
        lam, trace = extend_family(family, range(4), beta=0.05)
        assert [step.index for step in trace.steps] == [0, 1, 2, 3]
        assert all(step.beta_defect <= 1e-9 for step in trace.steps)
        assert sup_distance(lam, product_measure(margs)) <= 1e-9


class TestExtendFamily:
    def test_empty_family_uniform(self):
        family = MarginalFamily(A2, (), 0.5, 1)
        out, _ = extend_family(family, range(3), beta=0.1)
        assert np.allclose(out.table, 1 / 8)

    def test_uniform_pair_stays_uniform(self):
        family = MarginalFamily(
            A2,
            (DenseMeasure.uniform(A2, [0, 1]), DenseMeasure.uniform(A2, [1, 2])),
            0.5,
            3,
        )
        out, trace = extend_family(family, range(3), beta=0.1)
        assert np.allclose(out.table, 1 / 8)
        assert trace.max_beta_defect() <= 1e-12

    def test_window_must_cover_supports(self):
        family = MarginalFamily(A2, (DenseMeasure.uniform(A2, [0, 5]),), 0.5, 2)
        with pytest.raises(DomainError):
            extend_family(family, range(3), beta=0.1)

    @pytest.mark.parametrize("beta", [-1e-3, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("driver", [extend_family, extend_family_chain], ids=["dense", "chain"])
    def test_degenerate_budget_refused(self, driver, beta):
        family = MarginalFamily(A2, (DenseMeasure.uniform(A2, [0, 1]),), 0.5, 2)
        with pytest.raises(DomainError, match="independence budget beta must be >= 0"):
            driver(family, range(2), beta)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_product_families(self, seed):
        rng = np.random.default_rng(1000 + seed)
        family = genutil.near_product_family(rng, A2, window_size=6, alpha=0.3)
        beta, delta = thresholds(family.alpha, family.n_cap, 1.0)
        assert verify_hypotheses(family, delta).ok
        out, trace = extend_family(family, range(6), beta)
        assert trace.max_beta_defect() <= beta
        for mu in family.members:
            assert consistency_gap(out, mu) <= 1e-9

    def test_each_prior_measure_projected_once(self, monkeypatch):
        # the step's overlap reduction of the prior table feeds both the
        # right inverse's anchor and the glue. Where the overlap is the whole
        # prior support that reduction is the prior table itself, so only
        # steps with a smaller overlap are counted
        rng = np.random.default_rng(5)
        family = genutil.near_product_family(rng, A2, window_size=6, alpha=0.3)
        priors, reduced = [], []
        step, sum_out = margex.extension._sigma_step, margex.extension._sum_out

        def recording_step(family, members_n, lam, support, n, *args):
            out = step(family, members_n, lam, support, n, *args)
            priors.append((lam, support, out[1]))
            return out

        def counting_sum_out(arr, support, target):
            reduced.append(arr)
            return sum_out(arr, support, target)

        monkeypatch.setattr(margex.extension, "_sigma_step", recording_step)
        monkeypatch.setattr(margex.extension, "_sum_out", counting_sum_out)
        extend_family(family, range(7), thresholds(family.alpha, family.n_cap, 1.0)[0])
        assert [s.trivial for _, _, s in priors] == [False] * 6 + [True]
        counts = [
            sum(arr is lam for arr in reduced)
            for lam, support, s in priors
            if not s.trivial and s.r_bar.indices != support
        ]
        assert counts == [1] * 4

    def test_audit_annotates_failing_index(self):
        rng = np.random.default_rng(3)
        family = genutil.near_product_family(rng, A2, window_size=5, alpha=0.3)
        with pytest.raises(Exception) as err:
            extend_family(family, range(5), beta=1e-15)
        assert "coordinate" in str(err.value)

    @pytest.mark.parametrize("chain", [False, True])
    def test_failure_keeps_structured_fields(self, chain):
        rng = np.random.default_rng(3)
        family = genutil.near_product_family(rng, A2, window_size=5, alpha=0.3)
        driver = extend_family_chain if chain else extend_family
        with pytest.raises(IndependenceError) as err:
            driver(family, range(5), 1e-15)
        assert err.value.budget == 1e-15
        assert err.value.defect > err.value.budget
        assert err.value.index == 1
        assert str(err.value).startswith("extension failed at coordinate 1: ")

    @pytest.mark.parametrize("chain", [False, True])
    def test_every_step_error_names_its_coordinate(self, chain, monkeypatch):
        # whatever error type a step raises, the driver names the coordinate
        # and keeps the type and its fields
        family = genutil.near_product_family(np.random.default_rng(3), A2, window_size=5, alpha=0.3)
        driver = extend_family_chain if chain else extend_family
        real_step = margex.extension._sigma_step
        errors = vars(margex.errors).values()
        kinds = [k for k in errors if isinstance(k, type) and issubclass(k, margex.MargexError)]
        assert AnchorError in kinds and CapacityError in kinds
        for kind in kinds:
            values = {name: t(2) for name, t in kind.fields.items()}

            def failing_step(family, members_n, lam, support, n, tol, pos_tol):
                if n == 2:
                    raise kind("the step failed", **values)
                return real_step(family, members_n, lam, support, n, tol, pos_tol)

            monkeypatch.setattr(margex.extension, "_sigma_step", failing_step)
            with pytest.raises(kind) as err:
                driver(family, range(5), 1.0)
            assert type(err.value) is kind
            assert str(err.value) == "extension failed at coordinate 2: the step failed"
            assert {name: getattr(err.value, name) for name in kind.fields} == values


class TestStructureCache:
    """The process builds one right-inverse structure per shape, with one SVD,
    and every later call shares it read-only; a fresh build gives the bits of
    a shared one."""

    FAMILIES = [(2, 18, 0.3), (3, 12, 0.2)]

    @pytest.mark.parametrize("size, width, alpha", FAMILIES, ids=["binary-18", "ternary-12"])
    def test_cleared_run_matches_cached_run(self, size, width, alpha):
        family = genutil.near_product_family(
            np.random.default_rng(width), Alphabet(size), window_size=width, alpha=alpha
        )
        beta, _ = thresholds(family.alpha, family.n_cap, 1.0)

        def run():
            dense, trace = extend_family(family, range(width), beta)
            chain = extend_family_chain(family, range(width), beta)
            steps = trace.steps + chain.steps
            return dense.table.tobytes(), [
                (s.sigma.table.tobytes(), np.float64(s.b_norm).tobytes()) for s in steps
            ]

        run()
        cached = run()
        margex.extension._structure.cache_clear()
        assert run() == cached

    def test_one_svd_per_structure_per_process(self, monkeypatch):
        # a chain of pairs has three structures: the first coordinate (one
        # empty target), the interior (targets () and the previous
        # coordinate) and the last (the previous coordinate alone)
        family = genutil.near_product_family(np.random.default_rng(1), A2, window_size=10, alpha=0.3)
        beta, _ = thresholds(family.alpha, family.n_cap, 1.0)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        margex.extension._structure.cache_clear()
        extend_family(family, range(10), beta)
        assert len(calls) == 3
        extend_family(family, range(10), beta)
        extend_family_chain(family, range(10), beta)
        assert len(calls) == 3

    def test_shared_structure_is_read_only(self):
        mat, pinv, basis = margex.extension._structure(2, 2, ((), (0,)))
        for arr in (mat, pinv, *(a for entry in basis for a in entry[:2])):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


class TestChainExtension:
    @pytest.mark.parametrize("seed", range(5))
    def test_chain_matches_dense(self, seed):
        rng = np.random.default_rng(50 + seed)
        family = genutil.near_product_family(rng, A2, window_size=7, alpha=0.3)
        beta, _ = thresholds(family.alpha, family.n_cap, 1.0)
        # range(8) ends on a coordinate no member covers: a trivial step
        for window in (range(7), range(8)):
            dense, trace = extend_family(family, window, beta)
            chain = extend_family_chain(family, window, beta)
            assert sup_distance(chain.dense(), dense) <= 1e-9
            assert trace.span == chain.span
            assert np.array_equal(trace.dense().table, dense.table)
            for target in ([1, 4], [1, len(window) - 1]):
                assert sup_distance(
                    chain.marginal(target), project(dense, target)
                ) <= 1e-9

    def test_dense_steps_replay_their_measure(self):
        # members three coordinates wide: a dense step still reads only the
        # trailing span, so the dense run's own steps replay its measure
        hidden = genutil.random_measure(np.random.default_rng(61), A2, range(6))
        supports = ([0, 3], [1, 2, 4], [3, 5])
        family = MarginalFamily(A2, tuple(project(hidden, s) for s in supports), 0.05, 6)
        dense, trace = extend_family(family, range(6), beta=1.0)
        chain = extend_family_chain(family, range(6), beta=1.0)
        assert trace.span == chain.span == 3
        assert sup_distance(trace.dense(), dense) <= 1e-9
        assert sup_distance(trace.marginal([1, 4]), project(dense, [1, 4])) <= 1e-9

    def test_marginal_outside_window(self):
        family = MarginalFamily(A2, (), 0.5, 1)
        chain = extend_family_chain(family, range(3))
        with pytest.raises(DomainError):
            chain.marginal([5])


class TestOracle:
    def test_products_feasible_with_product_witness(self):
        m1 = tensor(measure(A2, [0], [0.3, 0.7]), measure(A2, [1], [0.6, 0.4]))
        m2 = measure(A2, [3], [0.5, 0.5])
        family = MarginalFamily(A2, (m1, m2), 0.3, 2)
        res = brute_force_extension_exists(family, range(4))
        assert res.feasible
        for mu in family.members:
            assert consistency_gap(res.witness, mu) <= 1e-7

    def test_contradictory_family_infeasible(self):
        family = MarginalFamily(
            A2,
            (measure(A2, [0], [0.3, 0.7]), measure(A2, [0], [0.5, 0.5])),
            0.3,
            1,
        )
        res = brute_force_extension_exists(family, [0])
        assert not res.feasible and res.witness is None

    def test_capacity(self):
        family = MarginalFamily(A2, (), 0.5, 1)
        with pytest.raises(CapacityError):
            brute_force_extension_exists(family, range(17))

    def test_import_leaves_scipy_unloaded(self):
        # only the oracle needs scipy, so only the oracle imports it
        src = str(Path(margex.__file__).resolve().parents[1])
        code = (
            "import sys, margex; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("seed", range(6))
    def test_engine_and_oracle_agree(self, seed):
        rng = np.random.default_rng(700 + seed)
        family = genutil.near_product_family(rng, A2, window_size=8, alpha=0.3)
        beta, _ = thresholds(family.alpha, family.n_cap, 1.0)
        out, _ = extend_family(family, range(8), beta)
        res = brute_force_extension_exists(family, range(8))
        assert res.feasible
        for mu in family.members:
            assert consistency_gap(out, mu) <= 1e-7


class TestVerifyHypotheses:
    @pytest.mark.parametrize("delta", [-1e-3, float("nan")], ids=["negative", "nan"])
    def test_degenerate_budget_refused(self, delta):
        family = MarginalFamily(A2, (measure(A2, [0, 1], [0.3, 0.2, 0.2, 0.3]),), 0.4, 2)
        with pytest.raises(DomainError, match="independence budget delta must be >= 0"):
            verify_hypotheses(family, delta)

    def test_products_pass(self):
        margs = [measure(A2, [i], [0.4, 0.6]) for i in range(3)]
        family = MarginalFamily(
            A2, (tensor(margs[0], margs[1]), tensor(margs[1], margs[2])), 0.4, 3
        )
        report = verify_hypotheses(family, delta=1e-9)
        assert report.ok
        assert report.stats["max_defect"] <= 1e-12
        assert report.stats["min_marginal_atom"] == pytest.approx(0.4)

    def test_marginal_floor_violation_located(self):
        family = MarginalFamily(
            A2, (measure(A2, [0], [0.35, 0.65]),), 0.4, 1
        )
        report = verify_hypotheses(family, delta=1e-9)
        assert not report.ok
        checks = {v.check for v in report.violations}
        assert "marginal_floor" in checks
        v = next(v for v in report.violations if v.check == "marginal_floor")
        assert v.magnitude == pytest.approx(0.35)

    def test_overlap_bound_violation(self):
        members = tuple(
            DenseMeasure.uniform(A2, [0, i]) for i in range(1, 5)
        )
        family = MarginalFamily(A2, members, 0.5, 2)
        report = verify_hypotheses(family, delta=1e-6)
        assert any(v.check == "overlap_bound" for v in report.violations)

    def test_inconsistency_flagged(self):
        family = MarginalFamily(
            A2,
            (measure(A2, [0], [0.45, 0.55]), measure(A2, [0], [0.5, 0.5])),
            0.4,
            1,
        )
        report = verify_hypotheses(family, delta=1e-6)
        assert any(v.check == "consistency" for v in report.violations)

    def test_independence_measured_with_scan(self):
        m = measure(A2, [0, 1], [0.3, 0.2, 0.2, 0.3])
        family = MarginalFamily(A2, (m,), 0.4, 2)
        report = verify_hypotheses(family, delta=1e-6)
        assert any(v.check == "independence" for v in report.violations)
        assert report.stats["max_defect"] == pytest.approx(
            delta_independence(m, "scan_all")
        )

    def test_disjoint_pairs_compare_totals(self):
        # members on disjoint supports agree when their totals do; totals
        # that differ in the last bits show up only at a tight tolerance
        rng = np.random.default_rng(11)
        chain = genutil.near_product_family(rng, A2, window_size=7, alpha=0.3)
        parts, _ = genutil.consistent_parts(rng, Alphabet(3), 5, 6)
        scaled = tuple(
            DenseMeasure(A2, (2 * i, 2 * i + 1), np.full(4, 0.25) * (1 + 3e-10 * i))
            for i in range(4)
        )
        families = [
            (chain, DEFAULT_TOL),
            (MarginalFamily(Alphabet(3), tuple(parts), 0.01, 6), DEFAULT_TOL),
            (MarginalFamily(A2, scaled, 0.2, 2), 1e-12),
        ]
        for family, tol in families:
            report = verify_hypotheses(family, 1e-3, tol=tol).to_dict()
            gaps = {
                (i, j): consistency_gap(family.members[i], family.members[j])
                for i, j in itertools.combinations(range(len(family.members)), 2)
            }
            assert report["stats"]["worst_consistency_gap"] == max(gaps.values())
            assert [v for v in report["violations"] if v["check"] == "consistency"] == [
                {"check": "consistency", "location": f"members {i},{j}", "magnitude": g, "limit": tol}
                for (i, j), g in gaps.items()
                if g > tol
            ]
        assert any(v["check"] == "consistency" for v in report["violations"])

    def test_chain_projects_only_overlapping_pairs(self, monkeypatch):
        family = genutil.near_product_family(np.random.default_rng(2), A2, window_size=18, alpha=0.3)
        pairs, empty = [], []
        gap, proj = margex.extension.consistency_gap, margex.measures.project

        def counting_gap(m1, m2):
            pairs.append((m1, m2))
            return gap(m1, m2)

        def counting_project(m, target):
            if not IndexSet.of(target):
                empty.append(m)
            return proj(m, target)

        monkeypatch.setattr(margex.extension, "consistency_gap", counting_gap)
        monkeypatch.setattr(margex.measures, "project", counting_project)
        verify_hypotheses(family, thresholds(family.alpha, family.n_cap, 1.0)[1])
        assert len(family.members) == 17 and len(pairs) == 16
        assert empty == []


# SHA-256 over the engine's outputs on four seeded near-product families, one
# per (alphabet, window length) class, written by the code before the
# extension step moved to tables. A refactor of the engine must keep it.
ENGINE_DIGEST = "c4b123e129539d0538a42e01c266e902410de9503fdf2432b0d93e25d13cff88"


def test_engine_digest_pinned():
    h = hashlib.sha256()
    shapes = [(2, 6, 0.3), (2, 11, 0.3), (3, 5, 0.2), (3, 8, 0.2)]
    for k, (size, width, alpha) in enumerate(shapes):
        family = genutil.near_product_family(np.random.default_rng(90 + k), Alphabet(size), width, alpha)
        beta, delta = thresholds(family.alpha, family.n_cap, 1.0)
        dense, trace = extend_family(family, range(width), beta)
        chain = extend_family_chain(family, range(width), beta)
        h.update(dense.table.tobytes())
        h.update(json.dumps(trace.to_dict()).encode())
        for s in chain.steps:
            h.update(s.sigma.table.tobytes())
            h.update(np.array([s.b_norm, s.beta_defect, s.positivity_margin, s.restriction_gap]).tobytes())
        h.update(chain.dense().table.tobytes())
        # the tiny delta sends every member through the scan_all ordering search
        for d in (delta, delta * 1e-6):
            h.update(json.dumps(verify_hypotheses(family, d).to_dict()).encode())
    m = genutil.random_measure(np.random.default_rng(99), A2, range(8))
    h.update(np.float64(delta_independence(m, "scan_all")).tobytes())
    assert h.hexdigest() == ENGINE_DIGEST
