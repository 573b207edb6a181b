import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qpjacobi.greens import green_solve, logdet_abs, midpoint_grid, avg_logdet
from qpjacobi import localization
from qpjacobi.localization import (
    FIT_FLOOR,
    FIT_MIN_POINTS,
    DecayFit,
    block_profile,
    decay_fit,
    eigensolve,
    green_decay_scan,
    localize,
    lyapunov_rates,
    resolvent_patch_check,
)
from qpjacobi.operator import OperatorParams, assemble_hamiltonian, assemble_regularized
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly

from conftest import (
    atomic_maryland,
    counted_eigvalsh,
    pole_free_x,
    random_model,
    well_conditioned_params,
)


def constant_diag_model(a, omega=0.0):
    f = MeroScalar.from_ratio(TrigPoly.constant(a))
    r = MeroScalar.from_ratio(TrigPoly.zero())
    return BlockModel(
        W=[[TrigPoly.constant(1.0)]], R=[[r]], F=[[f]],
        omega=omega, dioph=Dioph(2.0, 0.1),
    )


class TestEigensolve:
    def test_decoupled_sites_give_diagonal_entries(self, maryland):
        model = atomic_maryland(maryland)
        params = OperatorParams(lam=2.0, x=0.1, E=0.0, window=(1, 6))
        h = assemble_hamiltonian(model, params)
        energies, _, _ = eigensolve(h)
        assert np.allclose(energies, np.sort(np.diag(h)), rtol=1e-14)

    def test_two_site_closed_form(self):
        model = constant_diag_model(0.7)
        h = assemble_hamiltonian(model, OperatorParams(lam=1.0, x=0.0, E=0.0, window=(1, 2)))
        energies, _, _ = eigensolve(h)
        assert energies.tolist() == pytest.approx([0.7 - 1.0, 0.7 + 1.0], abs=1e-12)

    def test_against_independent_dense_solver(self, maryland):
        params = OperatorParams(lam=2.0, x=0.1, E=0.0, window=(-32, 31))
        h = assemble_hamiltonian(maryland, params)
        energies, _, _ = eigensolve(h)
        oracle = scipy.linalg.eigh(h, eigvals_only=True)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(energies - oracle)) <= 1e-9 * scale

    def test_residuals_and_orthonormality(self, mero2):
        rng = np.random.default_rng(61)
        x = pole_free_x(mero2, rng, (1, 8))
        h = assemble_hamiltonian(mero2, OperatorParams(lam=3.0, x=x, E=0.0, window=(1, 8)))
        energies, vmat, residuals = eigensolve(h)
        for energy, vector, residual in zip(energies, vmat.T, residuals):
            assert residual <= 1e-8 * max(1.0, abs(energy))
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        gram = vmat.T @ vmat
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


class TestBlockProfile:
    def test_scalar_blocks_are_absolute_values(self):
        v = np.array([0.3, -0.4, 0.5])
        assert np.allclose(block_profile(v, 1), np.abs(v))

    def test_delta_vector(self):
        v = np.zeros(10)
        v[6] = 1.0
        prof = block_profile(v, 2)
        assert np.allclose(prof, [0, 0, 0, 1, 0])

    @given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_unit_norm_is_preserved(self, l, nsites, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=l * nsites)
        v /= np.linalg.norm(v)
        prof = block_profile(v, l)
        assert np.sum(prof**2) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_profile(np.ones(5), 2)


class TestDecayFit:
    def test_recovers_planted_profile(self):
        j = np.arange(64)
        prof = np.exp(-0.7 * np.abs(j - 10))
        fit = decay_fit(prof)
        assert fit.center == 10
        assert fit.rate == pytest.approx(0.7, abs=1e-6)
        assert fit.residual < 1e-9

    def test_flat_profile_has_zero_rate(self):
        prof = np.full(32, 1.0 / math.sqrt(32.0))
        fit = decay_fit(prof)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        prof = np.zeros(32)
        prof[7] = 1.0
        fit = decay_fit(prof)
        assert (fit.center, fit.n_points) == (7, 0)
        assert math.isnan(fit.rate) and math.isnan(fit.residual)

    @given(st.integers(0, 20))
    @settings(max_examples=15)
    def test_shift_equivariance(self, shift):
        j = np.arange(80)
        base = np.exp(-0.41 * np.abs(j - 25))
        moved = np.roll(np.pad(base, (0, 30)), shift)[: base.size + 20]
        fit_a = decay_fit(base)
        fit_b = decay_fit(moved)
        assert fit_b.center == fit_a.center + shift
        assert fit_b.rate == pytest.approx(fit_a.rate, abs=1e-9)

    def test_ties_break_to_smallest_index(self):
        prof = np.full(16, 1e-3)
        prof[4] = 0.5
        prof[9] = 0.5
        assert decay_fit(prof).center == 4


#: profile entries: zero, the fit floor and values either side of it, and
#: repeated values that tie for the peak
PROFILE_VALUES = st.one_of(
    st.sampled_from([0.0, 1e-15, FIT_FLOOR, 2e-14, 0.5, 1.0]), st.floats(1e-13, 1.0)
)


@st.composite
def profile_stacks(draw):
    """Stacks of equal-length profiles: arbitrary, flat and planted exponential
    rows, which between them have too few fit points, ties and zero slopes."""
    n = draw(st.integers(1, 40))
    arbitrary = st.lists(PROFILE_VALUES, min_size=n, max_size=n)
    flat = PROFILE_VALUES.map(lambda v: [v] * n)
    planted = st.builds(
        lambda c, r: np.exp(-r * np.abs(np.arange(n) - c)).tolist(),
        st.integers(0, n - 1),
        st.floats(0.0, 5.0),
    )
    rows = draw(st.lists(st.one_of(arbitrary, flat, planted), min_size=1, max_size=6))
    return np.array(rows)


def _close(got, want):
    """Within 1e-12 relative; NaN, infinities and the sign of a zero exactly."""
    if not math.isfinite(want):
        return got == want or math.isnan(got) and math.isnan(want)
    if got == want == 0.0:
        return math.copysign(1.0, got) == math.copysign(1.0, want)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestDecayFitOracle:
    """The stacked closed-form fit against one lstsq call per profile."""

    @given(profile_stacks())
    @settings(max_examples=200)
    def test_stack_matches_the_per_profile_oracle(self, profiles):
        fit = decay_fit(profiles)
        for i, prof in enumerate(profiles):
            row = DecayFit(*(a[i].item() for a in fit))
            # one profile is the stack of one: the same numbers, as numpy scalars
            one = tuple(decay_fit(prof))
            assert all(isinstance(a, np.generic) for a in one)
            assert np.array_equal(one, tuple(row), equal_nan=True)
            want = oracles.decay_fit(prof)
            if want is None:
                assert row.n_points < FIT_MIN_POINTS
                assert row.center == int(np.argmax(prof))
                assert math.isnan(row.rate) and math.isnan(row.residual)
                continue
            assert (row.center, row.n_points) == (want.center, want.n_points)
            assert _close(row.rate, want.rate), (row, want)
            assert _close(row.residual, want.residual), (row, want)

    def test_leading_axes_are_kept(self):
        profiles = np.exp(-0.5 * np.abs(np.arange(12) - np.arange(6)[:, None])).reshape(2, 3, 12)
        fit = decay_fit(profiles)
        assert fit.center.shape == fit.rate.shape == fit.residual.shape == (2, 3)
        assert fit.n_points.tolist() == [[10, 9, 9], [9, 9, 9]]
        assert np.allclose(fit.rate, 0.5, atol=1e-12)


#: the phases x0 of the benchmark's windowed jobs
X0_GRID = tuple(round(0.11 + 0.05 * v, 2) for v in range(8))


def assert_same_report(got, want):
    """Equal reports, except that fitted rates and residuals may move in their
    last bits."""
    assert list(got.counts.items()) == list(want.counts.items())
    assert got.aggregate_fraction == want.aggregate_fraction
    assert got.max_eigen_residual == want.max_eigen_residual
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        assert g._replace(rate=0.0, fit_residual=0.0) == w._replace(rate=0.0, fit_residual=0.0)
        assert _close(g.rate, w.rate) and _close(g.fit_residual, w.fit_residual), (g, w)


class TestLocalizeOracle:
    """localize against the per-pair fit and status ladder it replaced."""

    @pytest.mark.parametrize("lam", [0.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("name", ["maryland", "analytic2", "mero2"])
    def test_bundled_models(self, request, name, lam):
        model = request.getfixturevalue(name)
        for x0 in X0_GRID:
            want = oracles.localize(model, lam, x0, 24, margin=6)
            assert_same_report(localize(model, lam, x0, 24, margin=6), want)

    def test_delta_and_no_fit_pairs(self, maryland):
        # decoupled sites give one-site profiles; three sites leave no pair a fit
        for model, lam, x0, N, status, count in (
            (atomic_maryland(maryland), 5.0, 0.1, 6, "delta", 13),
            (constant_diag_model(0.7), 1.0, 0.0, 1, "no_fit", 3),
        ):
            got = localize(model, lam, x0, N, margin=0)
            assert got.counts[status] == count
            assert_same_report(got, oracles.localize(model, lam, x0, N, margin=0))

    def test_one_decay_fit_call(self, maryland, monkeypatch):
        calls = []
        fit = localization.decay_fit
        monkeypatch.setattr(localization, "decay_fit", lambda p: calls.append(p.shape) or fit(p))
        localize(maryland, 20.0, 0.1, 16, margin=4)
        assert calls == [(33, 33)]


def lyapunov_rate(model, lam, E, n_steps, x=0.0):
    return lyapunov_rates(model, lam, [E], n_steps, x=x)[0]


class TestLyapunov:
    def test_free_laplacian_is_elliptic(self, maryland):
        rate = lyapunov_rate(maryland, 0.0, 0.0, 40_000, x=0.1)
        assert abs(rate) < 0.02

    def test_large_coupling_matches_torus_average(self, maryland):
        # at strong coupling, the growth rate tracks the torus average of the
        # log-determinant density at a single site shifted by log 2
        lam = 1e4
        rate = lyapunov_rate(maryland, lam, 0.0, 50_000, x=0.1)
        ref = avg_logdet(maryland, lam, 0.0, 1, midpoint_grid(8192)).value + math.log(2.0)
        assert abs(rate - ref) <= 0.05 * abs(ref)

    def test_step_doubling_converges(self, maryland):
        a = lyapunov_rate(maryland, 20.0, 0.5, 20_000, x=0.1)
        b = lyapunov_rate(maryland, 20.0, 0.5, 40_000, x=0.1)
        assert abs(b - a) <= 0.01 * abs(a)

    def test_batched_matches_scalar(self, maryland):
        es = np.array([0.3, 1.1])
        batch = lyapunov_rates(maryland, 20.0, es, 5_000, x=0.1)
        for e, want in zip(es, batch):
            got = lyapunov_rate(maryland, 20.0, float(e), 5_000, x=0.1)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 20.0])
    def test_maryland_rates_match_the_closed_form(self, maryland, lam):
        energies = np.linspace(-6.0, 6.0, 25)
        got = lyapunov_rates(maryland, lam, energies, 20_000, x=0.31)
        assert np.max(np.abs(got - oracles.maryland_lyapunov(lam, energies))) < 2e-3

    @pytest.mark.parametrize("lam", [2.5, 4.0, 20.0])
    def test_almost_mathieu_rates_on_the_spectrum_are_log_half_lam(self, lam):
        # every 4th eigenvalue of a 129-site window, away from its edges;
        # measured deviations 2.4e-4, 2.0e-4 and 1.1e-4
        amo = oracles.almost_mathieu()
        h = assemble_hamiltonian(amo, OperatorParams(lam=lam, x=0.1, E=0.0, window=(-64, 64)))
        energies = np.linalg.eigvalsh(h)[20:-20:4]
        got = lyapunov_rates(amo, lam, energies, 20_000, x=0.3)
        assert np.max(np.abs(got - oracles.almost_mathieu_lyapunov(lam))) < 1e-3

    def test_requires_scalar_blocks(self, mero2):
        with pytest.raises(ValueError, match="requires block size 1"):
            lyapunov_rates(mero2, 1.0, [0.0], 100)

    def test_an_orbit_with_no_usable_step_is_rejected(self, maryland):
        # the one step sits on the pole of tan(2 pi x) at phase 1/4
        with pytest.raises(ValueError, match=r"^no usable transfer steps"):
            lyapunov_rates(maryland, 5.0, [0.5, 1.0], 1, x=0.25)

    @pytest.mark.parametrize(
        "lam, energies, n_steps", [(1e307, [0.5], 64), (1e306, [0.5, -3.0], 10_000)]
    )
    def test_an_overflowed_product_raises_instead_of_returning_nan(
        self, maryland, lam, energies, n_steps
    ):
        # lam * tan overflows at an orbit site near a pole, and inf / inf then
        # turns the whole product into NaN, which the step-by-step loop returns
        with np.errstate(over="ignore", invalid="ignore"):
            seed = oracles.lyapunov_rates(maryland, lam, energies, min(n_steps, 200), x=0.1)
            assert np.isnan(seed).all()
            with pytest.raises(
                np.linalg.LinAlgError,
                match=r"^transfer product overflowed: the rate at E = 0\.5 is not finite$",
            ):
                lyapunov_rates(maryland, lam, energies, n_steps, x=0.1)
            # a coupling a decade lower keeps every entry finite
            assert np.isfinite(lyapunov_rates(maryland, lam / 10, energies, 64, x=0.1)).all()

    def test_pole_steps_skipped(self, maryland):
        # site 3 of this orbit sits exactly on the tangent pole
        x = (0.25 - 3.0 * maryland.omega) % 1.0
        want, skipped = oracles.lyapunov_transfer(maryland, 5.0, 0.0, 50, x=x)
        assert skipped >= 1
        rate = lyapunov_rate(maryland, 5.0, 0.0, 50, x=x)
        assert np.isfinite(rate)
        # same skipped steps; the oracle's 2-norm and the Frobenius norm agree
        # on the nearly rank-one product
        assert rate == pytest.approx(want, rel=1e-9)


class TestGreenDecayScan:
    def test_energy_outside_spectrum_all_good(self, maryland):
        params = OperatorParams(lam=5.0, x=0.1, E=0.0, window=(-24, 24))
        h = assemble_hamiltonian(maryland, params)
        e_far = float(np.max(np.abs(np.linalg.eigvalsh(h)))) + 10.0
        rep = green_decay_scan(maryland, 5.0, e_far, 0.1, 8, range(-8, 9))
        assert rep.counts["bad"] == 0
        assert rep.counts["near_singular"] == 0
        assert rep.good_fraction == 1.0

    def test_eigenvalue_energy_flagged_near_singular(self, maryland):
        shift = 3
        params = OperatorParams(lam=20.0, x=0.1, E=0.0, window=(-8 + shift, 8 + shift))
        evals = np.linalg.eigvalsh(assemble_hamiltonian(maryland, params))
        e_bad = float(evals[np.argmin(np.abs(evals - 0.4))])
        rep = green_decay_scan(maryland, 20.0, e_bad, 0.1, 8, range(shift - 3, shift + 4))
        statuses = {r.shift: r.status for r in rep.records}
        assert statuses[shift] == "near_singular"

    def test_pole_windows_skipped(self, maryland):
        x0 = (0.25 - 5.0 * maryland.omega) % 1.0
        rep = green_decay_scan(maryland, 20.0, 0.5, x0, 4, range(-2, 12))
        assert rep.counts["pole"] >= 1

    def test_slack_is_the_direct_pair_maximum(self, mero2):
        lam, E, x0, n0 = 20.0, 0.5, 0.1, 3
        rep = green_decay_scan(mero2, lam, E, x0, n0, range(0, 4), c11=0.0)
        scanned = [r for r in rep.records if r.status in ("good", "bad")]
        assert scanned
        for rec in scanned:
            window = (-n0 + rec.shift, n0 + rec.shift)
            g = green_solve(mero2, OperatorParams(lam=lam, x=x0, E=E, window=window))[0]
            p = np.arange(g.shape[0]) // mero2.l
            dist = np.abs(p[:, None] - p[None, :])
            want = np.max(np.log(np.abs(g)) + dist * math.log(lam + abs(E)))
            assert rec.slack == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "N0, shifts, match",
        [
            (0, range(-2, 3), "N0 must be >= 1"),
            (-1, [0], "N0 must be >= 1"),
            (4, range(3, 3), "no shifts"),
        ],
    )
    def test_empty_window_or_shift_list_rejected(self, maryland, N0, shifts, match):
        with pytest.raises(ValueError, match=match):
            green_decay_scan(maryland, 20.0, 0.5, 0.1, N0, shifts)

    @pytest.mark.parametrize(
        "lam, E, match",
        [(0.0, 0.0, r"^lam \+ \|E\| must be > 0$"), (20.0, math.nan, "^E must be finite$")],
        ids=["lam_and_E_zero", "E_nan"],
    )
    def test_energy_outside_the_domain_rejected(self, maryland, lam, E, match):
        # the slack adds |p - p'| log(lam + |E|), which is -inf only at lam = E = 0
        with pytest.raises(ValueError, match=match):
            green_decay_scan(maryland, lam, E, 0.1, 2, range(-3, 4))

    def test_overflowed_rate_raises(self, maryland):
        # lam + |E| = 2e308 overflows, and a slack with log(lam + |E|) = inf judges nothing
        match = r"^log\(lam \+ \|E\|\) is not finite at lam=1e\+308, E=1e\+308$"
        with pytest.raises(np.linalg.LinAlgError, match=match):
            green_decay_scan(maryland, 1e308, 1e308, 0.1, 2, range(-3, 4))

    def test_underflowed_windows_are_not_judged(self, maryland, monkeypatch):
        # at lam 1e100 the six |G| entries of each 5-site window that are 3 or 4
        # sites apart (about lam^-3 and lam^-4) underflow to 0: no slack is known
        args = (maryland, 1e100, 0.5, 0.1, 2, range(-3, 4))
        match = r"^\|G\| underflowed on a window c11 is fitted over$"
        with pytest.raises(np.linalg.LinAlgError, match=match):
            green_decay_scan(*args)
        with pytest.raises(np.linalg.LinAlgError, match=match):
            oracles.green_decay_scan(*args)
        stacks = counted_eigvalsh(monkeypatch)
        rep = green_decay_scan(*args, c11=0.5)
        # ||G||_F ~ 1/lam settles every window without an eigensolve
        assert stacks == [] and rep.eigensolved == 0
        records, _, counts = oracles.green_decay_scan(*args, c11=0.5)
        assert rep.counts == counts and counts["underflowed"] == 7
        assert list(rep.records) == records and rep.good_fraction == 0.0
        want = {("underflowed", math.inf, False)}
        assert {(r.status, r.slack, r.resonant) for r in records} == want

    @pytest.mark.parametrize("lam, E", [(20.0, 0.0), (0.0, -5e-7)])
    def test_energy_near_zero_scanned(self, maryland, lam, E):
        # c11 is given: at lam 0 every 5-site window holds the eigenvalue 0
        rep = green_decay_scan(maryland, lam, E, 0.1, 2, range(-3, 4), c11=0.5)
        assert rep.rate0 == math.log(lam + abs(E))
        assert rep.counts["good"] + rep.counts["bad"] == 7
        assert all(math.isfinite(r.slack) for r in rep.records)

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_band_centre_is_continuous_in_E(self, request, name):
        # E = 0 is an energy like any other: c11 there is within rounding of
        # its value at E = +-1e-9 (measured 4.9e-9 and 1.5e-9 relative)
        model = request.getfixturevalue(name)
        at = {E: green_decay_scan(model, 20.0, E, 0.1, 2, range(-3, 4)) for E in (0.0, 1e-9, -1e-9)}
        for rep in at.values():
            assert rep.counts == at[0.0].counts
            assert rep.c11 == pytest.approx(at[0.0].c11, rel=1e-6)

    @pytest.mark.parametrize("c11", [math.nan, math.inf, -math.inf])
    def test_non_finite_c11_rejected(self, maryland, c11):
        # inf would mark every window good, NaN every window bad
        with pytest.raises(ValueError, match="^c11 must be finite$"):
            green_decay_scan(maryland, 20.0, 0.5, 0.1, 2, range(-3, 4), c11=c11)

    def test_window_scalar_scan_takes_no_eigensolve(self, maryland, monkeypatch):
        # the benchmark's window-scalar scan: the norm bound settles all 512 windows
        stacks = counted_eigvalsh(monkeypatch)
        rep = green_decay_scan(maryland, 20.0, 0.5, 0.11, 16, range(-256, 256))
        assert stacks == [] and rep.eigensolved == 0
        assert rep.counts["good"] == 512 and not any(r.resonant for r in rep.records)

    def test_eigensolves_stay_near_the_resonant_windows(self, analytic2):
        # 43 of these 200 windows are resonant; the bound leaves 46 open
        args = (analytic2, 2.0, 0.3, 0.2, 8, range(-100, 100))
        rep = green_decay_scan(*args)
        records, c11, counts = oracles.green_decay_scan(*args)
        assert list(rep.records) == records and rep.c11 == c11 and rep.counts == counts
        resonant = sum(r.resonant for r in records)
        assert resonant == 43 and resonant <= rep.eigensolved <= 50

    def test_a_resonance_below_the_max_entry_bound_is_found(self, maryland):
        # the 5-site free Laplacian's eigenvalue sqrt(3) lies 0.27 from E = 2,
        # within exp(-N0/2) = 0.37; no |G_ij| reaches exp(N0/2), ||G||_F does
        args = (maryland, 0.0, 2.0, 0.1, 2, range(0, 4))
        cut = math.exp(-1.0)
        for j in args[-1]:
            params = OperatorParams(lam=0.0, x=0.1, E=2.0, window=(j - 2, j + 2))
            g = green_solve(maryland, params)[0]
            assert np.max(np.abs(g)) * cut < 1.0 < np.linalg.norm(g) * cut
        rep = green_decay_scan(*args, c11=1.0)
        assert list(rep.records) == oracles.green_decay_scan(*args, c11=1.0)[0]
        assert all(r.resonant for r in rep.records) and rep.eigensolved == 4

    def test_a_loose_inverse_is_left_to_the_eigensolve(self, maryland, monkeypatch):
        # a residual of 0.5 on 5-site windows leaves 1 - 5 * 0.5 < 0 of the
        # bound (1 - 0.5 would still settle them): every window is eigensolved
        args = (maryland, 20.0, 0.5, 0.1, 2, range(-3, 4))
        windows = localization.green_windows

        def loose(tab, lam, E):
            g, residual = windows(tab, lam, E)
            return g, np.full_like(residual, 0.5)

        monkeypatch.setattr(localization, "green_windows", loose)
        rep = green_decay_scan(*args, c11=0.5)
        assert rep.eigensolved == 7 and rep.counts["near_singular"] == 7
        want = oracles.green_decay_scan(*args, c11=0.5)[0]
        assert [r.resonant for r in rep.records] == [r.resonant for r in want]

    def test_every_window_resonant_cannot_fit_c11(self, maryland):
        # at lam = 0 the windows are the free Laplacian on 5 sites, whose
        # spectrum holds E = 2 * cos(pi / 6) ~ 1.73; E = 2 lies within
        # exp(-N0 / 2) ~ 0.37 of it in every window
        with pytest.raises(ValueError, match=r"^every scanned window is resonant; cannot fit c11$"):
            green_decay_scan(maryland, 0.0, 2.0, 0.1, 2, range(0, 4))
        # a given c11 needs no fit
        rep = green_decay_scan(maryland, 0.0, 2.0, 0.1, 2, range(0, 4), c11=1.0)
        assert rep.counts["good"] + rep.counts["bad"] == 4


class TestResolventPatch:
    def test_single_window_reduces_to_direct_check(self, maryland):
        lam, E, x0, n0 = 20.0, 0.5, 0.1, 8
        patch = resolvent_patch_check(maryland, lam, E, x0, n0, 4, c11=0.3, shifts=[5])
        g = green_solve(maryland, OperatorParams(lam=lam, x=x0, E=E, window=(-n0 + 5, n0 + 5)))[0]
        p = np.arange(g.shape[0])
        dist = np.abs(p[:, None] - p[None, :])
        far = dist > 0.4
        slack = np.log(np.abs(g)) + dist * math.log(lam + abs(E))
        assert patch.worst_slack == pytest.approx(float(np.max(slack[far])), rel=1e-12)
        assert patch.window == (-3, 13)

    def test_norm_bound_when_energy_is_far(self, maryland):
        rng = np.random.default_rng(71)
        for _ in range(5):
            model = random_model(rng, l=1)
            x = pole_free_x(model, rng, (-6, 6))
            params = OperatorParams(lam=1.5, x=x, E=0.0, window=(-6, 6))
            h = assemble_hamiltonian(model, params)
            evals = np.linalg.eigvalsh(h)
            e_far = float(evals.max()) + 1.5
            g = green_solve(model, params._replace(E=e_far))[0]
            d = float(np.min(np.abs(evals - e_far)))
            assert d >= 1.0
            assert np.linalg.norm(g, 2) <= 1.0 / d + 1e-9
            assert np.max(np.abs(g)) <= 1.0 / d + 1e-9

    def test_disconnected_union_rejected(self, maryland):
        with pytest.raises(ValueError):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 2, 16, c11=0.3, shifts=[0, 40])

    def test_default_shifts_cover_sqrt_n2_to_2_n2(self, maryland):
        # N2 = 10: shifts 4..19, so the union runs from 4 - N0 to 19 + N0
        default = resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 3, 10, c11=0.3)
        given = resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 3, 10, c11=0.3, shifts=range(4, 20))
        assert default.window == given.window == (1, 22)
        assert default == given

    @pytest.mark.parametrize(
        "lam, E, match",
        [(0.0, 0.0, r"^lam \+ \|E\| must be > 0$"), (20.0, math.nan, "^E must be finite$")],
        ids=["lam_and_E_zero", "E_nan"],
    )
    def test_energy_outside_the_domain_rejected(self, maryland, lam, E, match):
        # the scan's rule, whose c11 the check takes
        with pytest.raises(ValueError, match=match):
            resolvent_patch_check(maryland, lam, E, 0.1, 2, 4, c11=0.3, shifts=[5, 6])

    def test_overflowed_rate_raises(self, maryland):
        # the scan's rule: log(lam + |E|) = inf would turn every slack into NaN
        match = r"^log\(lam \+ \|E\|\) is not finite at lam=1e\+308, E=1e\+308$"
        with pytest.raises(np.linalg.LinAlgError, match=match):
            resolvent_patch_check(maryland, 1e308, 1e308, 0.1, 2, 4, c11=0.3, shifts=[5, 6])

    def test_window_without_sites_rejected(self, maryland):
        # the scan's rule, checked before the shift gaps are
        with pytest.raises(ValueError, match=r"^N0 must be >= 1$"):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 0, 16, c11=0.3)

    def test_underflowed_far_pairs_fail_the_check(self, maryland):
        # every |G| of the 783-site window more than 40 sites apart underflows
        # to 0 at lam 1e8, which leaves the worst slack -inf: below any bar
        patch = resolvent_patch_check(maryland, 1e8, 0.5, 0.1, 2, 400, c11=0.3)
        assert patch.window == (19, 801) and patch.worst_slack == -math.inf
        assert patch.underflowed == patch.pairs_checked == 551306
        assert not patch.passed

    def test_tiny_energy_without_coupling_checked(self, maryland):
        # the 6-site free window (3, 8) has no eigenvalue at 0
        patch = resolvent_patch_check(maryland, 0.0, -5e-7, 0.1, 2, 4, c11=0.3, shifts=[5, 6])
        assert patch.passed and patch.pairs_checked == 30 and patch.underflowed == 0

    def test_band_centre_checked(self, maryland):
        # c11 from the scan at E = 0 over the default shifts 5..31 of N2 = 16
        scan = green_decay_scan(maryland, 20.0, 0.0, 0.1, 8, range(5, 32))
        patch = resolvent_patch_check(maryland, 20.0, 0.0, 0.1, 8, 16, scan.c11)
        # the 43 sites of (-3, 39), less the pairs at distance 0 or 1
        assert patch.window == (-3, 39) and patch.pairs_checked == 43 * 43 - 43 - 2 * 42
        assert patch.passed

    @pytest.mark.parametrize("c11", [math.nan, math.inf, -math.inf])
    def test_non_finite_c11_rejected(self, maryland, c11):
        # inf would pass any slack with the bar inf
        with pytest.raises(ValueError, match="^c11 must be finite$"):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 2, 16, c11=c11)

    @pytest.mark.parametrize("c11", [0.3, -100.0])
    def test_window_with_no_far_pair_rejected(self, maryland, c11):
        # no two sites of the 5-site window are N2/10 = 100 apart, so nothing
        # is checked and no c11, however small, could fail the check
        match = r"^no pair of the window \(3, 7\) is more than N2/10 = 100 apart$"
        with pytest.raises(ValueError, match=match):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 2, 1000, c11=c11, shifts=[5])

    @pytest.mark.parametrize("shifts", [[], range(5, 5)])
    def test_empty_shift_list_rejected(self, maryland, shifts):
        with pytest.raises(ValueError, match=r"^no shifts to scan$"):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 2, 16, c11=0.3, shifts=shifts)
        # N2 = 1 leaves the default range 2..1 empty as well
        with pytest.raises(ValueError, match=r"^no shifts to scan$"):
            resolvent_patch_check(maryland, 20.0, 0.5, 0.1, 2, 1, c11=0.3)


class TestSpectralConsistency:
    def test_logdet_tracks_eigenvalues_and_regularizer(self, mero2):
        rng = np.random.default_rng(73)
        for _ in range(3):
            n = 8
            params = well_conditioned_params(mero2, rng, (1, n))
            h = assemble_hamiltonian(mero2, params)
            ht = assemble_regularized(mero2, params)
            evals = np.linalg.eigvalsh(h)
            m_logs = 0.0
            for site in range(1, n + 1):
                y = mero2.site_phase(params.x, site)
                m_logs += float(np.sum(np.log(np.abs(mero2.m_values(y)))))
            nl = n * mero2.l
            want = (
                float(np.sum(np.log(np.abs(evals - params.E))))
                + m_logs
                - 0.5 * nl * math.log(1.0 + params.E**2)
            )
            assert logdet_abs(ht) == pytest.approx(want, abs=1e-6)


class TestBoundaryCoupling:
    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_truncation_residual_is_boundary_hopping(self, name, request):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(79)
        x = pole_free_x(model, rng, (-12, 12))
        big = OperatorParams(lam=4.0, x=x, E=0.0, window=(-12, 12))
        energies, vectors, _ = eigensolve(assemble_hamiltonian(model, big))
        energy, vector = energies[len(energies) // 2], vectors[:, len(energies) // 2]
        l = model.l
        u, v = -5, 6
        sub = OperatorParams(lam=4.0, x=x, E=0.0, window=(u, v))
        h_sub = assemble_hamiltonian(model, sub)
        # block coordinates inside the big window
        def blk(site):
            idx = site - big.window[0]
            return vector[idx * l : (idx + 1) * l]
        phi_sub = np.concatenate([blk(s) for s in range(u, v + 1)])
        resid = (h_sub - energy * np.eye(h_sub.shape[0])) @ phi_sub
        w_u = model.w_values(model.site_phase(x, u))
        w_v1 = model.w_values(model.site_phase(x, v + 1))
        want_u = w_u.T @ blk(u - 1)
        want_v = w_v1 @ blk(v + 1)
        assert np.max(np.abs(resid[:l] - want_u)) <= 1e-9
        assert np.max(np.abs(resid[-l:] - want_v)) <= 1e-9
        assert np.max(np.abs(resid[l:-l])) <= 1e-9


class TestLocalize:
    @pytest.mark.parametrize("name,N", [("maryland", 256), ("analytic2", 256), ("mero2", 128)])
    def test_eigen_residual_is_reported(self, request, name, N):
        # the benchmark's localize sizes
        rep = localize(request.getfixturevalue(name), 20.0, 0.31, N, margin=32)
        assert 0.0 < rep.max_eigen_residual < 1e-10
        doc = rep.to_dict()
        assert doc["max_eigen_residual"] == rep.max_eigen_residual
        assert "max_eigen_residual" not in doc["counts"]

    @pytest.mark.parametrize("lam", [2.0, 20.0])
    @pytest.mark.parametrize("x0", [0.11, 0.31])
    def test_maryland_rates_follow_the_lyapunov_exponent(self, maryland, lam, x0):
        # interior fit pairs (449 of them): median rate/L(E) 1.000 to 1.011,
        # 5th to 95th percentile within [0.943, 1.089]
        rep = localize(maryland, lam, x0, 256)
        fits = [r for r in rep.records if r.interior and r.status == "fit"]
        assert len(fits) >= 400
        ratio = [r.rate for r in fits] / oracles.maryland_lyapunov(lam, [r.energy for r in fits])
        assert 0.98 <= np.median(ratio) <= 1.03
        assert 0.92 <= np.percentile(ratio, 5) and np.percentile(ratio, 95) <= 1.11

    def test_a_corrupted_eigenvector_raises_the_residual(self, maryland, monkeypatch):
        clean = localize(maryland, 20.0, 0.31, 32, margin=4).max_eigen_residual
        eigh = np.linalg.eigh

        def corrupted(a):
            evals, vecs = eigh(a)
            vecs[0, 7] += 1e-3  # (H - E) e_0 holds a unit hopping entry
            return evals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        assert localize(maryland, 20.0, 0.31, 32, margin=4).max_eigen_residual > 1e-4 > 1e6 * clean

    def test_an_overflowed_window_raises_instead_of_reporting_nan_pairs(self, maryland):
        # at lam = 1e308 the on-site values overflow H and eigh returns NaN energies
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite energy"):
                localize(maryland, 1e308, 0.1, 8, margin=0)
            # at lam = 1e200 every energy is finite and every pair a delta, while
            # the squares of one residual column overflow: it is taken again scaled
            rep = localize(maryland, 1e200, 0.1, 8, margin=0)
        h = assemble_hamiltonian(maryland, OperatorParams(lam=1e200, x=0.1, E=0.0, window=(-8, 8)))
        assert all(math.isfinite(r.energy) for r in rep.records)
        assert rep.counts["delta"] == 17
        assert math.isfinite(rep.max_eigen_residual)
        assert rep.max_eigen_residual <= 1e-12 * np.max(np.abs(h))

    def test_a_finite_window_with_an_overflowed_energy_raises(self):
        # every entry of H is finite, but the top energy a + sqrt(2) w of this
        # constant 3-site window (a = w = 8e307) lies beyond the largest float
        model = constant_diag_model(8e307)._replace(W=[[TrigPoly.constant(8e307)]])
        h = assemble_hamiltonian(model, OperatorParams(lam=1.0, x=0.1, E=0.0, window=(-1, 1)))
        assert np.isfinite(h).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="^eigensolve returned a non-finite"):
                localize(model, 1.0, 0.1, 1, margin=0)

    def test_atomic_limit_is_fully_localized(self, maryland):
        model = atomic_maryland(maryland)
        rep = localize(model, 5.0, 0.1, 24, margin=4)
        assert rep.counts["delta"] == len(rep.records)
        assert rep.aggregate_fraction == 1.0

    @pytest.mark.parametrize("N", [0, 3])
    def test_zero_coupling_and_zero_energy_give_the_target_minus_inf(self, maryland, N):
        # at lam = 0 the decoupled maryland window is the zero matrix: every
        # energy is exactly 0, so lam + |E| = 0 and log(lam + |E|) = -inf
        model = maryland if N == 0 else atomic_maryland(maryland)
        rep = localize(model, 0.0, 0.1, N, margin=0)
        assert [r.energy for r in rep.records] == [0.0] * (2 * N + 1)
        assert [r.target_rate for r in rep.records] == [-math.inf] * (2 * N + 1)
        # such a pair is localized only by the delta convention
        assert rep.counts["delta"] == 2 * N + 1 and rep.aggregate_fraction == 1.0
        assert_same_report(rep, oracles.localize(model, 0.0, 0.1, N, margin=0))

    @pytest.mark.parametrize(
        "N, margin, match", [(-1, 0, "^N must be >= 0$"), (4, -1, "^margin must be >= 0$")]
    )
    def test_negative_half_width_or_margin_rejected(self, maryland, N, margin, match):
        with pytest.raises(ValueError, match=match):
            localize(maryland, 20.0, 0.1, N, margin=margin)

    def test_free_laplacian_not_localized(self, maryland):
        rep = localize(maryland, 0.0, 0.1, 64, margin=8)
        assert rep.aggregate_fraction <= 0.05

    def test_reported_rates_follow_reliability_rule(self, maryland):
        rep = localize(maryland, 20.0, 0.1, 64, margin=8)
        for rec in rep.records:
            if rec.status == "fit":
                assert rec.fit_residual < 0.5
                assert rec.rate >= 0.0
            if rec.status == "unreliable":
                assert math.isnan(rec.rate)

    def test_centers_inside_window(self, maryland):
        rep = localize(maryland, 20.0, 0.1, 32, margin=4)
        for rec in rep.records:
            assert -32 <= rec.center_site <= 32
