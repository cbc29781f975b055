"""The named thresholds of ``margex.measures`` and the engine's ``tol``
boundaries, each seen from both sides: just inside passes, just outside
fails."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize

import genutil
from margex import (
    Alphabet,
    AnchorError,
    ConsistencyError,
    DenseMeasure,
    DomainError,
    IndependenceError,
    MarginalFamily,
    MixingSupplyError,
    PositivityError,
    brute_force_extension_exists,
    correcting_measure,
    extend_family,
    extend_family_chain,
    flag_dependent_shifts,
    iterate_krengel,
    paint_tower,
    product_measure,
    uniform_random_partition,
    verify_hypotheses,
)
from margex import extension, towers
from margex.errors import SolverError

A2 = Alphabet(2)
# the values of measures' threshold block, written out so that each test's
# probes stay put when a threshold moves
ROUND_TOL, DEFAULT_TOL, GLUE_FLOOR, ORACLE_TOL, MADE_TOL = 1e-12, 1e-9, 1e-7, 1e-7, 1e-6


def skewed_nu(c):
    """A law on two binary coordinates whose correcting measure at ``t = 0.1``
    has two cells of ``-c``, so clipping them adds ``2 * c`` of mass."""
    e = (0.25 + c) / 9.0
    return DenseMeasure(A2, (0, 1), [0.25 + e, 0.25 - e, 0.25 - e, 0.25 + e])


def overlapping_pair(gap):
    """Members on ``(0,)`` and ``(0, 1)`` whose laws on coordinate 0 differ by ``gap``."""
    return MarginalFamily(
        A2,
        (
            DenseMeasure(A2, (0,), [0.4, 0.6]),
            DenseMeasure(A2, (0, 1), [0.2 + gap, 0.2, 0.3 - gap, 0.3]),
        ),
        0.3,
        2,
    )


class TestRoundTol:
    def test_alphabet_floor(self):
        Alphabet(4).check_alpha(0.25 + ROUND_TOL / 8)
        with pytest.raises(DomainError, match="cannot have all atoms"):
            Alphabet(4).check_alpha(0.25 + ROUND_TOL / 2)

    def test_correcting_margin_floor_at_tol_zero(self):
        correcting_measure(skewed_nu(ROUND_TOL / 2), None, 0.1, tol=0.0)
        with pytest.raises(PositivityError):
            correcting_measure(skewed_nu(2 * ROUND_TOL), None, 0.1, tol=0.0)

    def test_krengel_gate_admits_its_budget_exactly(self):
        # one flagged level of 64 is exactly the step budget eps / 2 / 10
        # plus the rounding slack, and one ulp less of epsilon refuses it
        epsilon = 20 * (1 / 64 - ROUND_TOL)
        assert epsilon / 2 / 10 + ROUND_TOL == 1 / 64
        tower = genutil.permutation_tower(64, 2**10, 0)
        partition = uniform_random_partition(tower, A2, seed=1000)
        flags = flag_dependent_shifts(tower, partition, [0, 1], epsilon / 2)
        in_e = flags.copy()
        in_e[np.flatnonzero(flags)[0]] = False
        tower = tower.with_flags(in_e=in_e)
        assert iterate_krengel(tower, partition, [1], epsilon, steps=1).chosen_times == (1,)
        with pytest.raises(MixingSupplyError):
            iterate_krengel(tower, partition, [1], np.nextafter(epsilon, 0), steps=1)


class TestDefaultTol:
    def test_input_table_entry(self):
        DenseMeasure(A2, (0,), [-DEFAULT_TOL / 2, 1.0 + DEFAULT_TOL / 2])
        with pytest.raises(DomainError, match="entry"):
            DenseMeasure(A2, (0,), [-2 * DEFAULT_TOL, 1.0 + 2 * DEFAULT_TOL])

    def test_input_table_sum(self):
        DenseMeasure(A2, (0,), [0.5, 0.5 + DEFAULT_TOL / 2])
        with pytest.raises(DomainError, match="sums to"):
            DenseMeasure(A2, (0,), [0.5, 0.5 + 2 * DEFAULT_TOL])
        # the public constructor offers no other tolerance
        with pytest.raises(TypeError):
            DenseMeasure(A2, (0,), [0.5, 0.5 + 2 * DEFAULT_TOL], tol=1e-6)

    @pytest.mark.parametrize(
        "gap, tol, error, message",
        [
            # the member-consistency floor is ROUND_TOL per cell, here 2e-12,
            # in both extension functions and in verify_hypotheses, so at tol
            # = 0 both refuse at coordinate 0 exactly the pairs verify reports
            (ROUND_TOL / 2, 1e-9, None, None),
            pytest.param(4 * ROUND_TOL, 1e-9, ConsistencyError, "coordinate 0: two members prescribe",
                         id="4e-12-1e-09-refused-at-0"),
            pytest.param(DEFAULT_TOL / 2, 1e-9, ConsistencyError, "coordinate 0: two members prescribe",
                         id="5e-10-1e-09-refused-at-0"),
            (2 * DEFAULT_TOL, 1e-9, ConsistencyError, "two members prescribe"),
            # past a tol of 1e-10 too
            pytest.param(6e-10, 1e-10, ConsistencyError, "coordinate 0: two members prescribe",
                         id="6e-10-1e-10-refused-at-0"),
            pytest.param(9e-10, 1e-10, ConsistencyError, "coordinate 0: two members prescribe",
                         id="9e-10-1e-10-refused-at-0"),
        ],
    )
    def test_member_floor_and_drift_bound(self, gap, tol, error, message):
        # at tol both extension functions admit the gaps up to tol; the step
        # at coordinate 1 then drifts from the member by the gap, which the
        # drift bound max(tol, ROUND_TOL * cells), the member floor's own, admits
        family = overlapping_pair(gap)
        for at in (0.0, tol):
            refused = error if at == 0.0 else (ConsistencyError if gap > tol else None)
            runs = [
                lambda: extend_family(family, range(2), 1.0, tol=at),
                lambda: extend_family_chain(family, range(2), tol=at),
            ]
            for run in runs:
                if refused is None:
                    run()
                else:
                    with pytest.raises(refused, match=message or "coordinate 0: two members prescribe"):
                        run()
        report = verify_hypotheses(family, 1.0, tol=0.0)
        if error is None:
            assert report.ok
        else:
            assert [v.check for v in report.violations] == ["consistency"]
            assert report.violations[0].limit == 2 * ROUND_TOL

    @pytest.mark.parametrize("drift, error", [(6e-10, None), (9e-10, AnchorError)])
    def test_drift_bound(self, drift, error):
        # the drift bound max(tol, ROUND_TOL * cells) at tol = 8e-10, seen by
        # a step whose prior table drifts from the member's law on coordinate 0
        self.drift_step(drift, 8e-10, error)

    @pytest.mark.parametrize("drift, error", [(ROUND_TOL, None), (4 * ROUND_TOL, AnchorError)])
    def test_drift_floor(self, drift, error):
        # the same bound at tol = 0: ROUND_TOL per cell of v, here 2e-12
        self.drift_step(drift, 0.0, error)

    @staticmethod
    def drift_step(drift, tol, error):
        family = overlapping_pair(0.0)
        lam = np.array([0.4 + drift, 0.6 - drift])
        args = (family, family.members[1:], lam, (0,), 1, tol)
        if error is None:
            extension._sigma_step(*args)
        else:
            with pytest.raises(error, match="disagree on the overlap"):
                extension._sigma_step(*args)

    def test_beta_gate_slack(self):
        rng = np.random.default_rng(7)
        family = genutil.near_product_family(rng, A2, window_size=4)
        defect = extend_family_chain(family, range(4)).max_beta_defect()
        assert defect > 2 * DEFAULT_TOL
        extend_family(family, range(4), defect - DEFAULT_TOL / 2)
        with pytest.raises(IndependenceError):
            extend_family(family, range(4), defect - 2 * DEFAULT_TOL)


class TestGlueFloor:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_replay_glues_within_the_floor(self, factor):
        # move the last kernel's law on its overlap by a gap the run never saw
        rng = np.random.default_rng(3)
        chain = extend_family_chain(genutil.near_product_family(rng, A2, window_size=4), range(4))
        step = chain.steps[-1]
        table = step.sigma.as_array().copy()
        axis = step.s_bar.position(step.r_bar.indices[0])
        low, high = [0] * table.ndim, [0] * table.ndim
        high[axis] = 1
        table[tuple(low)] += factor * GLUE_FLOOR
        table[tuple(high)] -= factor * GLUE_FLOOR
        sigma = DenseMeasure(A2, step.s_bar, table)
        moved = dataclasses.replace(chain, steps=(*chain.steps[:-1], dataclasses.replace(step, sigma=sigma)))
        if factor < 1:
            moved.dense()
        else:
            with pytest.raises(ConsistencyError, match="differ by"):
                moved.dense()


class TestOracleTol:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_solver_residual(self, monkeypatch, factor):
        # the solver's answer, moved by a mass that breaks the last two
        # members' laws: from its largest cell to the one that differs in
        # coordinate 2 alone, so no cell goes negative. The supports form a
        # cycle, so the LP decides
        solve = scipy.optimize.linprog

        def shifted(*args, **kwargs):
            res = solve(*args, **kwargs)
            top = int(np.argmax(res.x))
            res.x[top] -= factor * ORACLE_TOL
            res.x[top ^ 1] += factor * ORACLE_TOL
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", shifted)
        members = [DenseMeasure(A2, (i,), [0.4, 0.6]) for i in range(3)]
        pairs = [(0, 1), (1, 2), (0, 2)]
        family = MarginalFamily(A2, tuple(product_measure([members[i], members[j]]) for i, j in pairs), 0.3, 3)
        if factor < 1:
            residual = brute_force_extension_exists(family, range(3)).max_residual
            assert residual == pytest.approx(factor * ORACLE_TOL, rel=1e-3)
        else:
            with pytest.raises(SolverError, match="residual"):
                brute_force_extension_exists(family, range(3))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_witness_residual(self, monkeypatch, factor):
        # an acyclic pair whose laws on the overlap differ by factor *
        # ORACLE_TOL: the junction-tree witness misses the second member's
        # cells by 0.6 of that, and past the tolerance the LP decides, as the
        # LP alone does
        solve, calls = scipy.optimize.linprog, []
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: calls.append(1) or solve(*a, **k))
        members = [DenseMeasure(A2, (i,), [0.4, 0.6]) for i in range(3)]
        moved = DenseMeasure(A2, (1,), [0.4 + factor * ORACLE_TOL, 0.6 - factor * ORACLE_TOL])
        family = MarginalFamily(A2, (product_measure(members[:2]), product_measure([moved, members[2]])), 0.3, 3)
        res = brute_force_extension_exists(family, range(3))
        assert len(calls) == (factor > 1)
        reference = genutil.lp_oracle_reference(family, range(3))
        assert res.feasible == reference.feasible == (factor < 1)
        if factor < 1:
            assert res.max_residual == pytest.approx(0.6 * factor * ORACLE_TOL, rel=1e-3)


class TestMadeTol:
    def test_correcting_measure_mass(self):
        # the clipped cells' mass is the made table's whole error
        correcting_measure(skewed_nu(MADE_TOL / 4), None, 0.1, tol=1e-5)
        with pytest.raises(DomainError, match="sums to"):
            correcting_measure(skewed_nu(MADE_TOL), None, 0.1, tol=1e-5)


class TestFit:
    """A step whose minimum-norm image has a negative cell is fitted by
    iterative proportional fitting to within ROUND_TOL per cell, or refused."""

    @staticmethod
    def triangle(tables):
        """Members with these tables on (0, 1), (0, 2) and (1, 2)."""
        members = (DenseMeasure(A2, s, t) for s, t in zip([(0, 1), (0, 2), (1, 2)], tables))
        return MarginalFamily(A2, tuple(members), 0.01, 3)

    @staticmethod
    def step(family):
        """The step at coordinate 2 after the first member's law on (0, 1)."""
        lam = family.members[0].as_array()
        return extension._sigma_step(family, family.members_containing(2), lam, (0, 1), 2, 0.0)

    def test_negative_image_is_fitted(self):
        # the pair laws of a positive law on three binary coordinates
        joint = np.array([0.09, 0.17, 0.01, 0.09, 0.45, 0.15, 0.01, 0.03]).reshape(2, 2, 2)
        family = self.triangle([joint.sum(axis=2), joint.sum(axis=1), joint.sum(axis=0)])
        v, step = self.step(family)
        sigma = step.sigma.as_array()
        assert step.positivity_margin < 0 <= sigma.min()
        bound = ROUND_TOL * sigma.size
        assert np.abs(sigma.sum(axis=2) - v).max() <= bound
        assert np.abs(sigma.sum(axis=1) - family.members[1].as_array()).max() <= bound
        assert np.abs(sigma.sum(axis=0) - family.members[2].as_array()).max() <= bound
        assert brute_force_extension_exists(family, range(3)).feasible

    def test_infeasible_step_names_its_residual(self):
        # coordinates 0 and 1 agree with probability 0.9, and 1 and 2, yet 0
        # and 2 differ with probability 0.9: no law has these pairs
        agree, differ = [0.45, 0.05, 0.05, 0.45], [0.05, 0.45, 0.45, 0.05]
        family = self.triangle([agree, differ, agree])
        with pytest.raises(PositivityError, match="no nonnegative fit") as err:
            self.step(family)
        assert err.value.margin < 0 and err.value.residual > ROUND_TOL * 8
        assert not brute_force_extension_exists(family, range(3)).feasible

    @pytest.mark.parametrize("offsets, m, seed", [([1, 2], 6, 15), ([0, 1], 3, 5)])
    def test_sweep_cases_paint(self, monkeypatch, offsets, m, seed):
        # two sweep cases whose minimum-norm images dip below 0: both are
        # fitted and paint
        chains = []

        def recording_chain(*args, **kwargs):
            chains.append(extend_family_chain(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(towers, "extend_family_chain", recording_chain)
        tower = genutil.permutation_tower(16, 2**12, seed)
        partition = uniform_random_partition(tower, A2, seed=1000 + seed)
        paint_tower(tower, partition, offsets, m, 0.4, 0.0, seed)
        (chain,) = chains
        assert min(s.positivity_margin for s in chain.steps) < 0
        assert min(s.sigma.table.min() for s in chain.steps) >= 0


class TestPaintBudget:
    def test_e1_budget_is_strict(self):
        # one flagged level of 20 is e1 mass 1/20 = epsilon / 10, over budget
        tower = genutil.permutation_tower(20, 2**12, 0)
        partition = uniform_random_partition(tower, A2, seed=1000)
        assert not flag_dependent_shifts(tower, partition, [0, 2], 0.5).any()
        report = paint_tower(tower, partition, [0], 2, 0.5, 0.0)
        assert report.e1_mass == 0.0 and report.budget_ok["e1"]
        flags = np.zeros(20, dtype=bool)
        flags[0] = True
        report = paint_tower(tower.with_flags(in_e1=flags), partition, [0], 2, 0.5, 0.0)
        assert report.e1_mass == 0.5 / 10 and not report.budget_ok["e1"]
