"""Every reader of a ledger uses the tolerances the ledger was built at.

Two small LPs sit between the default tolerances and ``LOOSE``: on each,
the ledger's tolerances and the defaults give different verdicts, so a
reader that fell back to the defaults would be seen.  The limit law's
boundary band is read from its spec's ledger too: at ``WIDE_BAND`` the
eight cones of line N=3 with p=1 count boundary hits that the default band
never sees.
"""

import numpy as np
import pytest

import lplimits as lpl
from conftest import line_problem

LOOSE = lpl.DEFAULT_TOLS.with_(feas_tol=1e-4, dedup_tol=1e-4)
LOOSE_FEAS = lpl.DEFAULT_TOLS.with_(feas_tol=1e-4)
WIDE_BAND = lpl.DEFAULT_TOLS.with_(boundary_tol=0.5)


def tight_support_lp():
    """x* = (1 - 1e-5, 1e-5, 0): its second coordinate lies between the default feas_tol and LOOSE's.

    Its interior margin is 5e-6, so Slater holds at the default feas_tol only.
    """
    return lpl.make_lp([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1e-5], [1.0, 0.0, 1.0])


def close_duals_lp():
    """Optimal bases {0, 1} and {0, 2} of one vertex, with duals (1, 0) and (1, 1e-5).

    The second basis has reduced cost -1e-5, so it is kept at LOOSE's feas_tol only.
    """
    return lpl.make_lp([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 0.0], [1.0, 0.0, 1.0 + 1e-5])


class TestLedgerTolerances:
    def test_ledger_records_its_tolerances(self):
        assert lpl.enumerate_ledger(tight_support_lp(), LOOSE).tols is LOOSE
        assert lpl.enumerate_ledger(tight_support_lp()).tols is lpl.DEFAULT_TOLS

    def test_support_partition(self):
        loose = lpl.support_partition(lpl.enumerate_ledger(tight_support_lp(), LOOSE))
        assert loose == lpl.SupportPartition(pos=(0,), tz=(2,), dz=(1,))
        default = lpl.support_partition(lpl.enumerate_ledger(tight_support_lp()))
        assert default == lpl.SupportPartition(pos=(0, 1), tz=(2,), dz=())

    @pytest.mark.parametrize("tols, partition, halfspaces", [
        (LOOSE, ((0,), (2,), (1,)), 1),
        (lpl.DEFAULT_TOLS, ((0, 1), (2,), ()), 0),
    ])
    def test_limit_law_spec(self, tols, partition, halfspaces):
        spec = lpl.LimitLawSpec(lpl.enumerate_ledger(tight_support_lp(), tols), lpl.TieBreak.MIN_INDEX,
                                np.eye(2), "sqrt(n)")
        assert spec.partition == lpl.SupportPartition(*partition)
        assert [c.halfspace_normals.shape for c in spec.cones] == [(halfspaces, 2)]

    def test_repeated_solver_feasibility(self):
        rhs = np.array([[1.0, -1e-5]])  # basis {0, 1} gives x_2 = -1e-5
        _, _, chosen, _ = lpl.RepeatedSolver(lpl.enumerate_ledger(tight_support_lp(), LOOSE)).solve_batch(rhs)
        assert chosen.tolist() == [0]
        _, _, chosen, _ = lpl.RepeatedSolver(lpl.enumerate_ledger(tight_support_lp())).solve_batch(rhs)
        assert chosen.tolist() == [-1]

    def test_repeated_solver_deduplication(self):
        rhs = np.array([1.0, 1e-5])  # the two optimal bases give points 1e-5 apart
        assert len(lpl.RepeatedSolver(lpl.enumerate_ledger(close_duals_lp(), LOOSE)).vertices_at(rhs)) == 1
        assert len(lpl.RepeatedSolver(lpl.enumerate_ledger(close_duals_lp(), LOOSE_FEAS)).vertices_at(rhs)) == 2

    def test_check_assumptions_slater(self):
        assert not lpl.check_assumptions(lpl.enumerate_ledger(tight_support_lp(), LOOSE)).slater
        assert lpl.check_assumptions(lpl.enumerate_ledger(tight_support_lp())).slater

    @pytest.mark.parametrize("tols, witness", [(LOOSE, (0, 1)), (LOOSE_FEAS, None)])
    def test_check_assumptions_a3(self, tols, witness):
        ledger = lpl.enumerate_ledger(close_duals_lp(), tols)
        assert ledger.optimal_count == 2
        report = lpl.check_assumptions(ledger)
        assert report.a3_witness == witness
        assert report.a3_distinct_optimal_duals is (witness is None)


@pytest.fixture(scope="module")
def wide_band_spec():
    return lpl.ot_limit_spec(line_problem(1.0), lpl.TwoSample(0.5), tols=WIDE_BAND)


class TestSpecBand:
    def test_sample_limit_counts_at_the_specs_band(self, wide_band_spec):
        result = lpl.sample_limit(wide_band_spec, 2000, seed=0)
        assert result.boundary_hits.sum() == 11_396

    def test_evaluate_limit_defaults_to_the_specs_band(self, wide_band_spec):
        g = lpl.sample_limit(wide_band_spec, 2000, seed=0).gaussian_directions
        own = lpl.evaluate_limit(wide_band_spec, g, seed=0)
        assert own.boundary_hits.sum() == 11_396
        explicit = lpl.evaluate_limit(wide_band_spec, g, seed=0, tol=WIDE_BAND.boundary_tol)
        np.testing.assert_array_equal(own.boundary_hits, explicit.boundary_hits)
        assert own.samples.tobytes() == explicit.samples.tobytes()
        narrow = lpl.evaluate_limit(wide_band_spec, g, seed=0, tol=lpl.DEFAULT_TOLS.boundary_tol)
        assert narrow.boundary_hits.sum() == 0

    def test_build_cones_is_the_specs_cones(self, wide_band_spec):
        cones = lpl.build_cones(wide_band_spec.ledger, wide_band_spec.m0)
        assert len(cones) == len(wide_band_spec.cones) == 8
        for cone, own in zip(cones, wide_band_spec.cones, strict=True):
            assert cone.halfspace_normals.shape == own.halfspace_normals.shape == (2, 5)
            assert cone.halfspace_normals.tobytes() == own.halfspace_normals.tobytes()
