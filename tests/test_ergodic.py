import math

import numpy as np
import pytest

from qpjacobi.ergodic import (
    DeviationReport,
    U_FLOOR,
    birkhoff_avg,
    deviation_measure,
    ldt_decay_fit,
)
from qpjacobi.errors import AllZero
from qpjacobi.greens import avg_logdet, logdet_grid, midpoint_grid


def u_at(model, lam, E, N, x):
    return float(logdet_grid(model, lam, E, (1, N), np.array([x]))[0]) / (N * model.l)


class TestBirkhoff:
    def test_single_step_is_u(self, maryland):
        x = 0.1234
        got = birkhoff_avg(maryland, 5.0, 1.0, 2, x, 1)
        assert got == pytest.approx(u_at(maryland, 5.0, 1.0, 2, x), abs=1e-12)

    def test_zero_rotation_constant_orbit(self, maryland):
        x = 0.37
        got = birkhoff_avg(maryland, 5.0, 1.0, 2, x, 50, omega=0.0)
        assert got == pytest.approx(u_at(maryland, 5.0, 1.0, 2, x), abs=1e-10)

    def test_converges_to_torus_average(self, maryland):
        ref = avg_logdet(maryland, 50.0, 1.0, 4, midpoint_grid(8192)).value
        got = birkhoff_avg(maryland, 50.0, 1.0, 4, 0.123, 10_000)
        assert abs(got - ref) < 0.05

    def test_time_reversal_agreement(self, maryland):
        lam, E, N, Q, x = 5.0, 1.0, 3, 400, 0.1234
        w = maryland.omega
        fwd = birkhoff_avg(maryland, lam, E, N, x, Q)
        back = birkhoff_avg(maryland, lam, E, N, (x + (Q - 1) * w) % 1.0, Q, omega=-w)
        assert abs(fwd - back) < 1e-12

    def test_invalid_q(self, maryland):
        with pytest.raises(ValueError):
            birkhoff_avg(maryland, 5.0, 1.0, 2, 0.1, 0)


class TestDeviationMeasure:
    def test_huge_threshold_gives_zero(self, maryland):
        rep = deviation_measure(maryland, 50.0, 1.0, 4, 10, 1e6, 0.3, midpoint_grid(1000))
        assert rep.bad_fraction == 0.0

    def test_zero_threshold_gives_one(self, maryland):
        rep = deviation_measure(maryland, 50.0, 1.0, 4, 10, 0.0, 0.3, midpoint_grid(1000))
        assert rep.bad_fraction == 1.0
        assert rep.threshold == 0.0

    def test_single_term_average_deviates(self, maryland):
        rep = deviation_measure(maryland, 50.0, 1.0, 4, 1, 1e-6, 0.3, midpoint_grid(1000))
        assert rep.bad_fraction > 0.99

    def test_large_q_golden_decays_to_zero(self, maryland):
        rep = deviation_measure(maryland, 50.0, 1.0, 4, 10_000, 1.0, 0.3, midpoint_grid(2000))
        assert rep.bad_fraction == 0.0

    def test_rational_orbit_stays_bad(self, maryland):
        rep = deviation_measure(
            maryland, 50.0, 1.0, 4, 1000, 1.0, 0.3, midpoint_grid(1000), omega=0.5
        )
        assert rep.bad_fraction > 0.3

    def test_grid_size_enforced(self, maryland):
        with pytest.raises(ValueError):
            deviation_measure(maryland, 50.0, 1.0, 4, 10, 1.0, 0.3, midpoint_grid(100))

    def test_empty_window_rejected(self, maryland):
        with pytest.raises(ValueError, match="N must be >= 1"):
            deviation_measure(maryland, 50.0, 1.0, 0, 10, 1.0, 0.3, midpoint_grid(1000))


def _report(Q, bad, sigma=0.5, S=1.0):
    return DeviationReport(
        Q=Q, threshold=S * Q ** (-sigma), bad_fraction=bad, grid_size=1000,
        S=S, sigma=sigma, integral=0.0, floored=0,
    )


class TestDecayFit:
    def test_recovers_planted_slope(self):
        qs = [10, 40, 90, 160, 250]
        reports = [_report(q, math.exp(-2.0 * q**0.5)) for q in qs]
        c10, monotone = ldt_decay_fit(reports)
        assert c10 == pytest.approx(2.0, abs=1e-6)
        assert monotone

    def test_constant_fraction_is_flat_not_decaying(self):
        reports = [_report(q, 0.25) for q in (10, 20, 40, 80)]
        c10, monotone = ldt_decay_fit(reports)
        assert c10 == pytest.approx(0.0, abs=1e-12)
        assert not monotone

    def test_all_zero_raises(self):
        reports = [_report(q, 0.0) for q in (10, 20, 40, 80)]
        with pytest.raises(AllZero):
            ldt_decay_fit(reports)

    def test_too_few_q_values(self):
        reports = [_report(q, 0.5) for q in (10, 20, 40)]
        with pytest.raises(ValueError):
            ldt_decay_fit(reports)

    def test_mixed_sigma_rejected(self):
        reports = [_report(10, 0.5), _report(20, 0.4, sigma=0.3),
                   _report(40, 0.3), _report(80, 0.2)]
        with pytest.raises(ValueError):
            ldt_decay_fit(reports)


class TestUnderflowFloor:
    def test_floor_applied_and_counted(self, maryland):
        # site phase exactly 0 makes the single-site determinant exactly zero,
        # so u underflows to -inf and is floored
        x = 1.0 - maryland.omega
        val = birkhoff_avg(maryland, 1.0, 0.0, 1, x, 1)
        assert val == U_FLOOR
