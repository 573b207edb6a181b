import functools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import GOLDEN
from qpjacobi import bundled, ergodic, greens
from qpjacobi.ergodic import (
    DeviationReport,
    U_FLOOR,
    _orbit_average,
    deviation_measure,
    ldt_decay_fit,
)
from qpjacobi.errors import AllZero
from qpjacobi.greens import avg_logdet, logdet_grid, midpoint_grid
from qpjacobi.symbols import reduce_phase


def u_at(model, lam, E, N, x):
    return float(logdet_grid(model, lam, E, (1, N), np.array([x]))[0]) / (N * model.l)


class TestBirkhoff:
    def test_single_step_is_u(self, maryland):
        x = 0.1234
        got, _ = _orbit_average(maryland, 5.0, 1.0, 2, 1, np.array([x]))
        assert got[0] == pytest.approx(u_at(maryland, 5.0, 1.0, 2, x), abs=1e-12)

    def test_zero_rotation_constant_orbit(self, maryland):
        x, still = 0.37, maryland.with_omega(0.0)
        got, _ = _orbit_average(still, 5.0, 1.0, 2, 50, np.array([x]))
        assert got[0] == pytest.approx(u_at(still, 5.0, 1.0, 2, x), abs=1e-10)

    def test_converges_to_torus_average(self, maryland):
        ref = avg_logdet(maryland, 50.0, 1.0, 4, midpoint_grid(8192)).value
        got, _ = _orbit_average(maryland, 50.0, 1.0, 4, 10_000, np.array([0.123]))
        assert abs(got[0] - ref) < 0.05

    def test_time_reversal_agreement(self, maryland):
        # the reversed rotation visits the same windows in reverse order, and
        # reversing a window leaves the determinant of a scalar Jacobi matrix
        # with constant hopping unchanged
        lam, E, N, Q, x = 5.0, 1.0, 3, 400, 0.1234
        w = maryland.omega
        fwd, _ = _orbit_average(maryland, lam, E, N, Q, np.array([x]))
        end = np.array([(x + (Q + N) * w) % 1.0])
        back, _ = _orbit_average(maryland.with_omega(-w), lam, E, N, Q, end)
        assert abs(fwd[0] - back[0]) < 1e-12

    def test_invalid_q(self, maryland):
        with pytest.raises(ValueError, match="Q must be >= 1"):
            deviation_measure(maryland, 5.0, 1.0, 2, 0, 1.0, 0.3, midpoint_grid(1000))


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

    @pytest.mark.parametrize(
        "S,sigma", [(math.nan, 0.3), (1.0, math.nan), (-1.0, 0.3), (1.0, 0.0)]
    )
    def test_bad_threshold_scale_rejected(self, maryland, S, sigma):
        with pytest.raises(ValueError, match="require S >= 0 and sigma > 0"):
            deviation_measure(maryland, 50.0, 1.0, 4, 10, S, sigma, midpoint_grid(1000))

    def test_a_nan_rotation_override_is_rejected_by_name(self, maryland):
        # not a TooManyExclusions from an orbit of NaN phases
        with pytest.raises(ValueError, match="^omega must be finite$"):
            deviation_measure(
                maryland, 50.0, 1.0, 4, 10, 1.0, 0.3, midpoint_grid(1000), omega=math.nan
            )


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

    def test_one_nonzero_fraction_cannot_be_fitted(self):
        reports = [_report(q, b) for q, b in ((10, 0.5), (20, 0.0), (40, 0.0), (80, 0.0))]
        with pytest.raises(ValueError, match="^need at least 2 nonzero bad fractions to fit$"):
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
        avg, floored = _orbit_average(maryland, 1.0, 0.0, 1, 1, np.array([x]))
        assert (avg.tolist(), floored) == ([U_FLOOR], 1)


# -- running sums resumed across calls -------------------------------------

LAM, E = 50.0, 1.0
GRID = midpoint_grid(64)
#: with this chunk an orbit slice holds 16 steps on maryland and 4 on mero2,
#: so short ladders cross several slice boundaries; at N = 20 (maryland) and
#: N = 6 (mero2) the grid splits into two blocks of columns
SMALL_CHUNK = 1 << 10
ORBITS = [("maryland", 3, None), ("maryland", 3, 0.5), ("mero2", 2, None), ("mero2", 2, 0.5)]
ORBITS += [("maryland", 20, None), ("mero2", 6, None)]


def _cold(model, N, Q, xs=GRID, lam=LAM):
    ergodic._orbit_sum = None
    return _orbit_average(model, lam, E, N, Q, xs)


@functools.lru_cache(maxsize=None)
def _ladder_truth(name, N, omega):
    """The model, a Q ladder around the first slice boundaries, and per Q the
    cold call (at the package's own chunk) and the oracle average."""
    model = bundled(name)
    model = model if omega is None else model.with_omega(omega)
    s = SMALL_CHUNK // (GRID.size * model.l**2)
    ladder = sorted({1, 2, 7, s - 1, s, s + 1, 2 * s + 1, 3 * s})
    assert len(ladder) == 8
    cold = {Q: _cold(model, N, Q) for Q in ladder}
    oracle = {Q: oracles.orbit_average(model, LAM, E, N, Q, GRID, U_FLOOR) for Q in ladder}
    return model, ladder, cold, oracle


class TestResumedSums:
    @pytest.mark.parametrize("name,N,omega", ORBITS)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=10))
    @example(list(range(8)))
    @example(list(range(7, -1, -1)))
    @example([0, 0, 6, 6, 3, 3])
    def test_ladder_in_any_order_equals_cold_calls(self, name, N, omega, picks):
        model, ladder, cold, oracle = _ladder_truth(name, N, omega)
        ergodic._orbit_sum = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greens, "TABLE_CHUNK", SMALL_CHUNK)
            for i in picks:
                Q = ladder[i]
                avg, floored = _orbit_average(model, LAM, E, N, Q, GRID)
                assert np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]
                want, want_floored = oracle[Q]
                assert np.max(np.abs(avg - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                assert floored == want_floored

    def test_interleaved_orbits_keep_their_own_sums(self, maryland):
        orbits = [(LAM, GRID), (20.0, GRID), (LAM, GRID + 0.5 / GRID.size)]
        Qs = (5, 40, 17)
        cold = {
            (i, Q): _cold(maryland, 3, Q, xs, lam) for i, (lam, xs) in enumerate(orbits) for Q in Qs
        }
        ergodic._orbit_sum = None
        for Q in Qs:
            for i, (lam, xs) in enumerate(orbits):
                avg, floored = _orbit_average(maryland, lam, E, 3, Q, xs)
                assert np.array_equal(avg, cold[i, Q][0]) and floored == cold[i, Q][1]

    def test_mutating_a_returned_average_leaves_later_calls_unchanged(self, maryland):
        want = {Q: _cold(maryland, 3, Q)[0] for Q in (10, 20)}
        avg, _ = _cold(maryland, 3, 10)
        avg += 1.0
        assert np.array_equal(_orbit_average(maryland, LAM, E, 3, 10, GRID)[0], want[10])
        assert np.array_equal(_orbit_average(maryland, LAM, E, 3, 20, GRID)[0], want[20])

    def test_an_interrupted_call_leaves_no_half_advanced_sum(self, maryland, monkeypatch):
        want = _cold(maryland, 3, 40)
        _cold(maryland, 3, 10)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return window_logdets(*args)

        window_logdets = greens.window_logdets
        monkeypatch.setattr(greens, "TABLE_CHUNK", SMALL_CHUNK)
        monkeypatch.setattr(greens, "window_logdets", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            _orbit_average(maryland, LAM, E, 3, 40, GRID)
        monkeypatch.setattr(greens, "window_logdets", window_logdets)
        avg, floored = _orbit_average(maryland, LAM, E, 3, 40, GRID)
        assert np.array_equal(avg, want[0]) and floored == want[1]

    def test_a_ladder_computes_each_orbit_row_once(self, maryland):
        # the benchmark's ldt ladder at grid 1000: a run is 16 terms.  Under
        # omega = 1/2 the phase of site k depends only on the parity of k and
        # on the binade of x + k/2, so a run repeats the run before bit for
        # bit except near a power of two; under omega = 0 each call evaluates
        # its first run only
        xs, ladder = midpoint_grid(1000), (10, 32, 100, 316, 1000)
        rows = []

        def counted(tab, lam, E, n):
            out = window_logdets(tab, lam, E, n)
            rows.append(len(out))
            return out

        window_logdets = greens.window_logdets
        for omega, evaluated in ((None, 1000), (0.5, 224), (0.0, 74)):
            model = maryland if omega is None else maryland.with_omega(omega)
            cold = {Q: _cold(model, 4, Q, xs) for Q in ladder}
            rows.clear()
            ergodic._orbit_sum = None
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(greens, "window_logdets", counted)
                for Q in ladder:
                    avg, floored = _orbit_average(model, LAM, E, 4, Q, xs)
                    assert np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]
            assert sum(rows) == evaluated, omega
            # one running sum is kept: the largest Q of the last orbit
            assert ergodic._orbit_sum[1] == 1000

    def test_a_half_rotation_reuses_runs_at_every_grid_size(self, maryland):
        # grid 3000 has runs of 16384 // 3000 = 5 terms rounded down to 4: under
        # omega = 1/2 a run of odd length never repeats the run before, and the
        # ladder would evaluate all 1000 terms
        model, ladder, rows = maryland.with_omega(0.5), (10, 32, 100, 316, 1000), []

        def counted(tab, lam, E, n):
            out = window_logdets(tab, lam, E, n)
            rows.append(len(out))
            return out

        window_logdets = greens.window_logdets
        evaluated = {}
        for grid in (2000, 3000):
            rows.clear()
            ergodic._orbit_sum = None
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(greens, "window_logdets", counted)
                for Q in ladder:
                    _orbit_average(model, LAM, E, 4, Q, midpoint_grid(grid))
            evaluated[grid] = sum(rows)
        assert evaluated == {2000: 144, 3000: 88}

    def test_new_rows_that_repeat_after_changed_kept_rows_are_evaluated(self, monkeypatch):
        # omega = 1/2, N = 3 and runs of 4 terms: run j0 holds sites j0+1..j0+6
        # and keeps two.  For x in (1/2, 1), x + k/2 reaches 4, 8 and 16 at
        # sites 7, 15 and 31, where the rounding of x changes.  The run at 12
        # keeps sites 13 and 14 below 8 and adds sites 15..18 above it; the
        # run at 16 adds sites 19..22, the same phases as 15..18, but its kept
        # sites 17 and 18 are not 13 and 14.  So the run at 16 is evaluated,
        # the runs at 20 and 24 repeat it, and the run at 28 adds sites above 16
        model, N, Q = bundled("maryland").with_omega(0.5), 3, 40
        xs = 0.5 + (np.arange(8) + GOLDEN) / 16
        assert np.any(reduce_phase(xs + 6.5) != reduce_phase(xs + 8.5))
        cold = _cold(model, N, Q, xs)
        want, want_floored = oracles.orbit_average(model, LAM, E, N, Q, xs, U_FLOOR)
        rows = []

        def counted(tab, lam, E, n):
            out = window_logdets(tab, lam, E, n)
            rows.append(len(out))
            return out

        window_logdets = greens.window_logdets
        monkeypatch.setattr(greens, "window_logdets", counted)
        monkeypatch.setattr(greens, "TABLE_CHUNK", 4 * xs.size)
        avg, floored = _cold(model, N, Q, xs)
        assert np.array_equal(avg, cold[0]) and floored == cold[1]
        assert np.max(np.abs(avg - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert floored == want_floored
        # the runs at 0, 4, 8, 12, 16, 28 and 32 are evaluated
        assert rows == [4] * 7

    def test_threads_sharing_an_orbit_get_cold_results(self, maryland):
        Qs = list(range(1, 21))
        cold = {Q: _cold(maryland, 3, Q) for Q in Qs}
        ergodic._orbit_sum = None
        wrong = []

        def ladder(seed):
            order = Qs * 5
            random.Random(seed).shuffle(order)
            for Q in order:
                try:
                    avg, floored = _orbit_average(maryland, LAM, E, 3, Q, GRID)
                except Exception as exc:  # a race shows as an error in the thread
                    wrong.append(repr(exc))
                    return
                if not (np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]):
                    wrong.append(Q)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ladder, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert ergodic._orbit_sum[1] == max(Qs)


# -- one buffer set per call -----------------------------------------------

#: (model, N, omega, E, chunk): with GRID the columns split into blocks of
#: 32 (N = 2, two steps a slice) or of 21, 21 and 22 (N = 6, a lone last
#: column joined to the block before; five or six steps a slice).  The last
#: orbit puts one grid node on phase 0 at every other step, where the
#: one-site determinant at E = 0 vanishes, so a term is floored
BUFFER_ORBITS = [
    (name, N, omega, E, chunk * GRID.size * l2)
    for name, l2 in (("maryland", 1), ("mero2", 4))
    for omega in (None, 0.5)
    for N, chunk in ((2, 1), (6, 2))
] + [("maryland", 1, 2.0**-7, 0.0, GRID.size)]
BUFFER_LADDER = (1, 2, 3, 4, 7, 12)


@functools.lru_cache(maxsize=None)
def _buffer_truth(name, N, omega, E):
    """Per Q of BUFFER_LADDER the cold call at the package's own chunk (one
    slice, no row moves) and the oracle average."""
    model = bundled(name)
    model = model if omega is None else model.with_omega(omega)
    cold = {}
    for Q in BUFFER_LADDER:
        ergodic._orbit_sum = None
        cold[Q] = _orbit_average(model, LAM, E, N, Q, GRID)
    oracle = {Q: oracles.orbit_average(model, LAM, E, N, Q, GRID, U_FLOOR) for Q in BUFFER_LADDER}
    return model, cold, oracle


class TestBufferSet:
    @pytest.mark.parametrize("name,N,omega,E,chunk", BUFFER_ORBITS)
    @given(st.lists(st.integers(0, len(BUFFER_LADDER) - 1), min_size=1, max_size=10))
    @example(list(range(len(BUFFER_LADDER))))
    @example(list(range(len(BUFFER_LADDER) - 1, -1, -1)))
    def test_small_slices_equal_cold_calls(self, name, N, omega, E, chunk, picks):
        model, cold, oracle = _buffer_truth(name, N, omega, E)
        assert max(1, chunk // (GRID.size * model.l**2)) in (1, 2)
        ergodic._orbit_sum = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greens, "TABLE_CHUNK", chunk)
            for i in picks:
                Q = BUFFER_LADDER[i]
                avg, floored = _orbit_average(model, LAM, E, N, Q, GRID)
                assert np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]
                want, want_floored = oracle[Q]
                assert np.max(np.abs(avg - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                assert floored == want_floored

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("width", [GRID.size, 1])
    def test_a_term_floored_in_a_later_slice(self, order, width, monkeypatch):
        # slices of 4 steps; the last node reaches phase 0 at site 6, in term
        # j = 5 of the second slice, where the one-site determinant at E = 0
        # vanishes.  A one-node grid is the one whose sum numpy could take pairwise
        model = bundled("maryland").with_omega(2.0**-7)
        xs = GRID[:width] + 1.0 / 512
        xs[-1] = 122.0 / 128.0
        ladder = (1, 3, 4, 5, 6, 8, 12, 48)
        cold = {}
        for Q in ladder:
            ergodic._orbit_sum = None
            cold[Q] = _orbit_average(model, LAM, 0.0, 1, Q, xs)
        ergodic._orbit_sum = None
        monkeypatch.setattr(greens, "TABLE_CHUNK", 4 * xs.size)
        for Q in ladder[::order]:
            avg, floored = _orbit_average(model, LAM, 0.0, 1, Q, xs)
            want, want_floored = oracles.orbit_average(model, LAM, 0.0, 1, Q, xs, U_FLOOR)
            assert np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]
            assert np.max(np.abs(avg - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert floored == want_floored == (Q >= 6)

    def test_the_floored_orbit_floors_terms(self):
        _, cold, _ = _buffer_truth("maryland", 1, 2.0**-7, 0.0)
        assert cold[12][1] == 6 and np.all(cold[12][0] > U_FLOOR)

    def test_writes_into_results_and_buffers_leave_the_kept_sum(self, maryland, monkeypatch):
        want = {Q: _cold(maryland, 6, Q) for Q in (5, 9, 14)}
        seen = []

        def spy(tab, lam, E, n):
            out = window_logdets(tab, lam, E, n)
            seen.append((tab, out))
            return out

        window_logdets = greens.window_logdets
        monkeypatch.setattr(greens, "window_logdets", spy)
        monkeypatch.setattr(greens, "TABLE_CHUNK", 2 * GRID.size)
        ergodic._orbit_sum = None
        for Q in (5, 9, 14):
            avg, floored = _orbit_average(maryland, LAM, E, 6, Q, GRID)
            assert np.array_equal(avg, want[Q][0]) and floored == want[Q][1]
            # the average, each slice's table and its log-determinants
            avg[...] = np.nan
            for tab, out in seen:
                out[...] = np.nan
                for a in tab.arrays():
                    a[...] = np.nan
        assert ergodic._orbit_sum[1] == 14 and np.all(np.isfinite(ergodic._orbit_sum[2]))


# -- one slicer for the orbit and the grid ----------------------------------

#: (model, N, grid, chunk): blocks of columns with a run of terms each.  At
#: N = 3 the 64 columns split into 21, 21 and 22 (a lone last column joins
#: the block before); at chunk 4, 8 or 16 the blocks are two columns wide and a
#: run holds fewer terms than the N - 1 rows it keeps, so the kept rows
#: overlap their target; one and three phases give one block of 2 and 3
SLICER_CASES = [
    ("maryland", 3, 64, 63),
    ("maryland", 6, 64, 4),
    ("maryland", 4, 1, 4),
    ("maryland", 2, 3, 4),
    ("mero2", 2, 64, 128),
    ("mero2", 6, 64, 16),
    ("mero2", 3, 1, 8),
]
#: at Q = 40 a lone column, which numpy would sum pairwise, changes the bits
SLICER_LADDER = (1, 2, 3, 5, 9, 14, 40)


class TestOrbitWindows:
    @pytest.mark.parametrize("name,N,size,chunk", SLICER_CASES)
    @pytest.mark.parametrize("order", [1, -1])
    def test_split_columns_equal_cold_calls(self, name, N, size, chunk, order, monkeypatch):
        # ascending, each call resumes the sum before it; descending, each is cold
        model = bundled(name)
        xs = GRID if size == GRID.size else (np.arange(size) + 0.3) / size
        cold = {Q: _cold(model, N, Q, xs) for Q in SLICER_LADDER}
        ergodic._orbit_sum = None
        monkeypatch.setattr(greens, "TABLE_CHUNK", chunk)
        for Q in SLICER_LADDER[::order]:
            avg, floored = _orbit_average(model, LAM, E, N, Q, xs)
            assert np.array_equal(avg, cold[Q][0]) and floored == cold[Q][1]

    @pytest.mark.parametrize("name,N", [("maryland", 8), ("mero2", 4)])
    def test_a_large_grid_holds_a_bounded_table(self, name, N):
        # one table across the whole grid would peak at 63 MiB (maryland) and
        # 101 MiB (mero2); the column blocks keep it near TABLE_CHUNK phases.
        # At omega = 1/2 and Q = 24 a block makes 3 (maryland) or 6 (mero2)
        # runs, and each run after the first repeats the one before: it keeps
        # a copy of its log-determinants and yields another
        xs = midpoint_grid(65536)
        for omega, Q in ((None, 4), (0.5, 24)):
            model = bundled(name) if omega is None else bundled(name).with_omega(omega)
            ergodic._orbit_sum = None
            tracemalloc.start()
            try:
                _orbit_average(model, LAM, E, N, Q, xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                ergodic._orbit_sum = None
            assert peak < 8 * 2**20, omega

    def test_a_repeating_ladder_peaks_no_higher_than_one_that_evaluates_every_run(self, maryland):
        # the benchmark's ldt pair: grid 2000, N = 4, runs of 8 terms in a
        # table of 11 rows.  The golden ladder evaluates every run, and the
        # kept copy of the omega = 1/2 ladder must not lift its peak above that
        xs, peaks = midpoint_grid(2000), []
        for model in (maryland, maryland.with_omega(0.5)):
            ergodic._orbit_sum = None
            tracemalloc.start()
            try:
                for Q in (10, 32, 100, 316, 1000):
                    _orbit_average(model, LAM, E, 4, Q, xs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                ergodic._orbit_sum = None
        table = (8 + 3) * xs.size * 9 * 8  # bytes of the nine table arrays
        assert peaks[1] <= peaks[0] < 2 * table
