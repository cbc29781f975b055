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
        "gap, pos_tol, error, message",
        [
            # the member-consistency floor is ROUND_TOL per cell, here 2e-12,
            # in both drivers and in verify_hypotheses, so at tol = 0 the
            # drivers refuse at coordinate 0 exactly the pairs verify reports,
            # whatever pos_tol is
            (ROUND_TOL / 2, 1e-9, None, None),
            pytest.param(4 * ROUND_TOL, 1e-9, ConsistencyError, "coordinate 0: two members prescribe",
                         id="4e-12-1e-09-refused-at-0"),
            pytest.param(DEFAULT_TOL / 2, 1e-9, ConsistencyError, "coordinate 0: two members prescribe",
                         id="5e-10-1e-09-refused-at-0"),
            (2 * DEFAULT_TOL, 1e-9, ConsistencyError, "two members prescribe"),
            # below the drift bound 4 * pos_tol * cells (8e-10) and above it:
            # the member check refuses both before the bound is read
            pytest.param(6e-10, 1e-10, ConsistencyError, "coordinate 0: two members prescribe",
                         id="6e-10-1e-10-refused-at-0"),
            pytest.param(9e-10, 1e-10, ConsistencyError, "coordinate 0: two members prescribe",
                         id="9e-10-1e-10-refused-at-0"),
        ],
    )
    def test_member_floor_and_drift_bound(self, gap, pos_tol, error, message):
        family = overlapping_pair(gap)
        runs = [
            lambda: extend_family(family, range(2), 1.0, tol=0.0),
            lambda: extend_family_chain(family, range(2), tol=0.0, pos_tol=pos_tol),
        ]
        for run in runs:
            if error is None:
                run()
            else:
                with pytest.raises(error, match=message):
                    run()
        report = verify_hypotheses(family, 1.0, tol=0.0)
        if error is None:
            assert report.ok
        else:
            assert [v.check for v in report.violations] == ["consistency"]
            assert report.violations[0].limit == 2 * ROUND_TOL

    @pytest.mark.parametrize("drift, error", [(6e-10, None), (9e-10, AnchorError)])
    def test_drift_bound(self, drift, error):
        # the drift bound 4 * pos_tol * cells, here 8e-10, seen by a step
        # whose prior table drifts from the member's law on coordinate 0; no
        # family the drivers accept was seen to reach it (paint's clipped
        # chains drift by at most a twentieth of it)
        family = overlapping_pair(0.0)
        lam = np.array([0.4 + drift, 0.6 - drift])
        args = (family, family.members[1:], lam, (0,), 1, 0.0, 1e-10)
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


class TestClipping:
    @staticmethod
    def clipped_family(gap):
        """A pair whose first member has a cell of ``-5e-10``, which the
        step at coordinate 1 clips, and whose second member's law on
        coordinate 1 is off by ``gap`` on two symbols."""
        x = np.array([[-5e-10, 0.15, 0.2], [0.1, 0.1, 0.1], [0.1, 0.1, 0.15 + 5e-10]])
        y = np.outer(x.sum(axis=0) + [0.0, gap, -gap], [0.3, 0.3, 0.4])
        a3 = Alphabet(3)
        members = (DenseMeasure(a3, (0, 1), x.ravel()), DenseMeasure(a3, (1, 2), y.ravel()))
        return MarginalFamily(a3, members, 0.1, 3)

    def test_prescription_gap_within_four_clips_per_cell(self):
        # 4 * clipped * cells is 1.8e-8; the step misses the prescription by
        # about a quarter of the gap
        chain = extend_family_chain(self.clipped_family(5e-8), range(3), tol=0.0, pos_tol=1e-7)
        assert chain.steps[1].clipped == pytest.approx(5e-10)
        with pytest.raises(ConsistencyError, match="misses the prescription"):
            extend_family_chain(self.clipped_family(1e-7), range(3), tol=0.0, pos_tol=1e-7)

    @pytest.mark.parametrize(
        "offsets, m, seed, refused",
        [([1, 2], 6, 15, False), ([0, 1], 3, 5, True)],
    )
    def test_paint_slack(self, monkeypatch, offsets, m, seed, refused):
        # two sweep cases whose worst cell lies just inside and just past
        # paint's clipping slack, 0.05 * alpha ** len(window)
        slack = []

        def recording_chain(*args, **kwargs):
            slack.append(kwargs["pos_tol"])
            return extend_family_chain(*args, **kwargs)

        monkeypatch.setattr(towers, "extend_family_chain", recording_chain)
        tower = genutil.permutation_tower(16, 2**12, seed)
        partition = uniform_random_partition(tower, A2, seed=1000 + seed)
        if refused:
            with pytest.raises(PositivityError) as err:
                paint_tower(tower, partition, offsets, m, 0.4, 0.0, seed)
            assert 1.0 < -err.value.margin / slack[0] < 1.05
        else:
            report = paint_tower(tower, partition, offsets, m, 0.4, 0.0, seed)
            assert 0.95 < report.engine_max_clip / slack[0] <= 1.0


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
