import math

import numpy as np
import pytest

from qpjacobi.ergodic import deviation_measure
from qpjacobi.errors import PoleProximity
from qpjacobi.greens import (
    avg_logdet,
    check_det_lower_bound,
    check_minor_bound,
    logdet_grid,
    midpoint_grid,
)
from qpjacobi.localization import (
    green_decay_scan,
    localize,
    lyapunov_rates,
    resolvent_patch_check,
)
from qpjacobi.operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
    comparison_rate,
    dense_blocks,
    hamiltonian_blocks,
    regularization_scale,
    regularized_blocks,
    window_tables,
)

import oracles
from conftest import GOLDEN, atomic_maryland, band_blocks, pole_free_x, random_model


GRID_1000 = midpoint_grid(1000)


class TestParams:
    def test_zero_coupling_allowed(self):
        OperatorParams(lam=0.0, x=0.0, E=0.0, window=(1, 4))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            OperatorParams(lam=-1.0, x=0.0, E=0.0, window=(1, 4))

    # each sweep checks the coupling before it takes a logarithm of it
    sweeps = pytest.mark.parametrize(
        "call",
        [
            lambda m, lam: deviation_measure(m, lam, 1.0, 2, 10, 1.0, 0.3, GRID_1000),
            lambda m, lam: logdet_grid(m, lam, 1.0, (1, 2), midpoint_grid(8)),
            lambda m, lam: green_decay_scan(m, lam, 0.2, 0.1, 2, range(2)),
            lambda m, lam: resolvent_patch_check(m, lam, 0.2, 0.1, 2, 4, 0.3),
            lambda m, lam: check_minor_bound(m, [2], [1.0, lam], [1.0], x_count=1),
            lambda m, lam: check_det_lower_bound(m, [1.0, lam], [1.0], [2], midpoint_grid(512)),
            lambda m, lam: lyapunov_rates(m, lam, [0.5, 1.0], 100),
        ],
        ids=["deviation_measure", "logdet_grid", "green_decay_scan", "resolvent_patch_check",
             "check_minor_bound", "check_det_lower_bound", "lyapunov_rates"],
    )

    @sweeps
    @pytest.mark.parametrize("lam", [-0.5, -5.0, float("nan")])
    def test_sweeps_reject_a_negative_or_nan_coupling(self, maryland, call, lam):
        with pytest.raises(ValueError, match="^coupling lam must be >= 0$"):
            call(maryland, lam)

    @sweeps
    def test_sweeps_reject_an_infinite_coupling(self, maryland, call):
        with pytest.raises(ValueError, match="^coupling lam must be finite$"):
            call(maryland, math.inf)

    # each entry point names the energy or phase argument that is not finite;
    # a NaN phase among many would otherwise drop out of a fraction unseen
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda m, v: lyapunov_rates(m, 5.0, [0.5, v], 10), "energies"),
            (lambda m, v: lyapunov_rates(m, 5.0, [0.5], 10, x=v), "x"),
            (lambda m, v: deviation_measure(m, 1.0, v, 2, 10, 1.0, 0.3, GRID_1000), "E"),
            (lambda m, v: deviation_measure(
                m, 1.0, 1.0, 2, 10, 1.0, 0.3, np.where(GRID_1000 < 0.5, v, GRID_1000)),
             "x_grid"),
            (lambda m, v: logdet_grid(m, 1.0, v, (1, 2), midpoint_grid(8)), "E"),
            (lambda m, v: logdet_grid(m, 1.0, 1.0, (1, 2), [0.1, v]), "xs"),
            (lambda m, v: avg_logdet(m, 1.0, v, 2, midpoint_grid(512)), "E"),
            (lambda m, v: avg_logdet(m, 1.0, 1.0, 2, np.r_[midpoint_grid(511), v]), "x_grid"),
            (lambda m, v: check_det_lower_bound(m, [1.0], [1.0, v], [2], midpoint_grid(512)),
             "E_list"),
            (lambda m, v: check_det_lower_bound(
                m, [1.0], [1.0], [2], np.r_[midpoint_grid(511), v]), "x_grid"),
            (lambda m, v: check_minor_bound(m, [2], [1.0], [1.0, v], x_count=1), "E_list"),
            (lambda m, v: green_decay_scan(m, 1.0, v, 0.1, 2, range(2)), "E"),
            (lambda m, v: green_decay_scan(m, 1.0, 0.2, v, 2, range(2)), "x0"),
            (lambda m, v: resolvent_patch_check(m, 1.0, v, 0.1, 2, 4, 0.3), "E"),
            (lambda m, v: resolvent_patch_check(m, 1.0, 0.2, v, 2, 4, 0.3), "x0"),
            (lambda m, v: localize(m, 1.0, v, 4), "x0"),
        ],
        ids=["lyapunov_rates-E", "lyapunov_rates-x", "deviation_measure-E",
             "deviation_measure-x", "logdet_grid-E", "logdet_grid-x", "avg_logdet-E",
             "avg_logdet-x", "check_det_lower_bound-E", "check_det_lower_bound-x",
             "check_minor_bound-E", "green_decay_scan-E",
             "green_decay_scan-x", "resolvent_patch_check-E", "resolvent_patch_check-x",
             "localize-x"],
    )
    def test_entry_points_reject_a_non_finite_energy_or_phase(self, maryland, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(maryland, bad)

    def test_det_lower_bound_needs_positive_coupling(self, maryland):
        with pytest.raises(ValueError, match="needs lambda > 0"):
            check_det_lower_bound(maryland, [1.0, 0.0], [1.0], [2], midpoint_grid(512))

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            OperatorParams(lam=1.0, x=0.0, E=0.0, window=(3, 1))

    def test_replace_validates_and_normalizes(self):
        params = OperatorParams(lam=1.0, x=0.0, E=0.0, window=(1.0, 4.0))
        moved = params._replace(window=(2.0, 3.0))
        assert params.window == (1, 4) and moved.window == (2, 3)
        assert all(type(s) is int for s in (*params.window, *moved.window))
        for bad in ({"window": (3, 1)}, {"lam": -1.0}, {"lam": math.inf}):
            with pytest.raises(ValueError):
                params._replace(**bad)


class TestAssembleHamiltonian:
    def test_maryland_window(self, maryland):
        params = OperatorParams(lam=2.0, x=0.0, E=0.0, window=(1, 3))
        diag, lower, upper = band_blocks(assemble_hamiltonian(maryland, params), 1)
        expect = [2.0 * math.tan(2.0 * math.pi * ((n * GOLDEN) % 1.0)) for n in (1, 2, 3)]
        assert np.allclose(diag.ravel(), expect, rtol=1e-12)
        assert np.allclose(upper.ravel(), [-1.0, -1.0])
        assert np.allclose(lower.ravel(), [-1.0, -1.0])

    def test_zero_coupling_is_block_diagonal(self, maryland):
        model = atomic_maryland(maryland)
        params = OperatorParams(lam=2.0, x=0.1, E=0.0, window=(1, 5))
        dense = assemble_hamiltonian(model, params)
        assert np.allclose(dense, np.diag(np.diag(dense)))

    def test_dense_symmetry(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, l=2)
        x = pole_free_x(model, rng, (1, 4))
        dense = assemble_hamiltonian(
            model, OperatorParams(lam=1.3, x=x, E=0.0, window=(1, 4))
        )
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * max(1.0, np.max(np.abs(dense)))

    def test_translation_covariance_exact_arithmetic(self, maryland):
        # dyadic rotation and base phase make both phase paths bitwise equal,
        # isolating the indexing structure from float rounding
        model = maryland.with_omega(0.375)
        x = 13.0 / 128.0
        a = assemble_hamiltonian(model, OperatorParams(lam=2.0, x=x, E=0.0, window=(2, 6)))
        b = assemble_hamiltonian(
            model, OperatorParams(lam=2.0, x=x + 0.375, E=0.0, window=(1, 5))
        )
        assert np.array_equal(a, b)

    def test_translation_covariance_generic(self, mero2):
        rng = np.random.default_rng(3)
        x = pole_free_x(mero2, rng, (1, 6), margin=0.05)
        a = assemble_hamiltonian(mero2, OperatorParams(lam=2.0, x=x, E=0.0, window=(2, 6)))
        b = assemble_hamiltonian(
            mero2, OperatorParams(lam=2.0, x=x + mero2.omega, E=0.0, window=(1, 5))
        )
        (a_diag, _, a_upper), (b_diag, _, b_upper) = (band_blocks(m, mero2.l) for m in (a, b))
        scale = max(1.0, np.max(np.abs(a_diag)))
        assert np.max(np.abs(a_diag - b_diag)) <= 1e-12 * scale
        assert np.max(np.abs(a_upper - b_upper)) <= 1e-12 * scale

    def test_pole_reports_site(self, maryland):
        # site 2 lands exactly on the cosine zero
        x = (0.25 - 2.0 * GOLDEN) % 1.0
        with pytest.raises(PoleProximity) as err:
            assemble_hamiltonian(maryland, OperatorParams(lam=1.0, x=x, E=0.0, window=(1, 3)))
        assert err.value.site == 2


class TestOverflow:
    @pytest.mark.parametrize(
        "assemble, lam, E, message",
        [
            # lam * tan(2 pi x) overflows where |tan| > 1.8, first at site 1 (x = 0.718)
            (assemble_hamiltonian, 1e308, 0.5, "non-finite energy or hopping of H at site 1$"),
            # E * E overflows, so the scale is 1 / |E|; the numerator overflows, first at site 2
            (assemble_regularized, 1.7e308, 1e308, "non-finite entry of Ht at site 2$"),
        ],
    )
    def test_an_overflowed_entry_raises_naming_its_site(self, maryland, assemble, lam, E, message):
        params = OperatorParams(lam=lam, x=0.1, E=E, window=(1, 20))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                assemble(maryland, params)

    @pytest.mark.parametrize("E", [1e300, -1e300])
    def test_a_huge_energy_keeps_the_diagonal_of_order_one(self, maryland, E):
        # E * E overflows: the scale is 1 / |E|, so the diagonal is about -E * M / |E|
        params = OperatorParams(lam=1.0, x=0.1, E=E, window=(1, 3))
        ht = assemble_regularized(maryland, params)
        m = window_tables(maryland, params).m[:, 0]
        assert np.allclose(np.diag(ht), -math.copysign(1.0, E) * m, rtol=1e-15, atol=0.0)
        assert np.all(np.abs(m) > 0.1)
        # the hopping entries -W * M / |E| (W = 1) are tiny but not zero
        assert np.allclose(np.diag(ht, 1), -m[1:] / abs(E), rtol=1e-15, atol=0.0)
        assert np.allclose(np.diag(ht, -1), -m[:-1] / abs(E), rtol=1e-15, atol=0.0)

    def test_the_scale_is_the_old_expression_wherever_that_is_finite(self):
        E = np.geomspace(1e-3, 1e154, 4001)
        E = np.concatenate([E, -E, [0.0]]).tolist()
        assert [regularization_scale(e) for e in E] == [1.0 / math.sqrt(1.0 + e * e) for e in E]
        # beyond 2**27, 1 + E*E rounds to E*E, and sqrt(E*E) is |E|: the two branches meet
        big = [e for e in E if abs(e) >= 2.0**27]
        assert [1.0 / abs(e) for e in big] == [1.0 / math.sqrt(1.0 + e * e) for e in big]
        assert regularization_scale(-1e300) == 1e-300 and regularization_scale(1.7e308) > 0.0

    def test_a_nan_phase_raises(self):
        for x, E, name in ((math.nan, 0.5, "x"), (0.1, math.nan, "E"), (0.1, -math.inf, "E")):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                OperatorParams(lam=2.0, x=x, E=E, window=(-2, 2))


class TestComparisonRate:
    def test_the_rate_is_log_lam_plus_abs_e_bit_for_bit(self):
        for lam, E in ((20.0, 0.5), (3, -2.5), (0.0, 1e-300), (1e-300, 0.0), (1e308, -1e308)):
            assert comparison_rate(lam, E) == math.log(lam + abs(E))

    def test_zero_coupling_at_zero_energy_gives_minus_inf(self):
        # the localize convention: such a pair is localized only as a delta
        assert comparison_rate(0.0, 0.0) == comparison_rate(0, -0.0) == -math.inf


class TestAssembleRegularized:
    def test_single_site_value(self, maryland):
        ht = assemble_regularized(
            maryland, OperatorParams(lam=1.0, x=0.0, E=0.0, window=(1, 1))
        )
        assert ht[0, 0] == pytest.approx(math.sin(2.0 * math.pi * GOLDEN), abs=1e-15)

    def test_zero_energy_matches_h_times_m(self, maryland):
        rng = np.random.default_rng(11)
        x = pole_free_x(maryland, rng, (1, 5))
        params = OperatorParams(lam=2.0, x=x, E=0.0, window=(1, 5))
        ht = assemble_regularized(maryland, params)
        h = assemble_hamiltonian(maryland, params)
        m = np.diag(oracles.row_prefactors(maryland, params))  # E=0 so scale is exactly 1
        direct = h @ m
        assert np.max(np.abs(ht - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_two_route_equality(self, mero2):
        rng = np.random.default_rng(29)
        x = pole_free_x(mero2, rng, (1, 4))
        params = OperatorParams(lam=1.7, x=x, E=0.6, window=(1, 4))
        ht = assemble_regularized(mero2, params)
        h = assemble_hamiltonian(mero2, params)
        scale = 1.0 / math.sqrt(1.0 + params.E**2)
        m = np.zeros_like(h)
        for idx, site in enumerate(range(1, 5)):
            y = mero2.site_phase(params.x, site)
            m[idx * 2 : idx * 2 + 2, idx * 2 : idx * 2 + 2] = np.diag(mero2.m_values(y))
        direct = (h - params.E * np.eye(h.shape[0])) @ m * scale
        assert np.max(np.abs(ht - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_pole_cancellation(self, name, request):
        model = request.getfixturevalue(name)
        s1, s2, s3 = oracles.onsite_sup_bound(model)
        lam, E = 5.0, 2.0
        hop = oracles.hopping_sup_bound(model)
        zeros = [z for i in range(model.l) for z in model.F[i][i].zeros]
        assert zeros
        for z in zeros:
            for offset in (1e-6, -1e-6, 1e-9):
                # place site 2 of the window within `offset` of the pole
                x = (z + offset - 2.0 * model.omega) % 1.0
                ht = assemble_regularized(
                    model, OperatorParams(lam=lam, x=x, E=E, window=(1, 4))
                )
                diag, _, upper = band_blocks(ht, model.l)
                worst = max(np.max(np.abs(diag)), np.max(np.abs(upper)))
                assert worst <= lam * s1 + s2 + abs(E) * s3 + hop + 1e-9
                assert worst <= (s1 + s2 + s3 + hop) * (lam + abs(E))

    def test_hopping_uniform_bound(self, mero2):
        rng = np.random.default_rng(4)
        bound = oracles.hopping_sup_bound(mero2)
        ys = rng.uniform(size=1000)
        worst = 0.0
        for i in range(mero2.l):
            for j in range(mero2.l):
                m_col = mero2.F[j][j].den(ys) * mero2.R[j][j].den(ys)
                worst = max(worst, np.max(np.abs(mero2.W[i][j](ys) * m_col)))
        assert worst <= bound + 1e-12

    def test_finite_at_pole_phase(self, maryland):
        # the plain operator is undefined here, the regularized one is not
        x = (0.25 - GOLDEN) % 1.0
        with pytest.raises(PoleProximity):
            assemble_hamiltonian(maryland, OperatorParams(lam=1.0, x=x, E=0.0, window=(1, 2)))
        ht = assemble_regularized(
            maryland, OperatorParams(lam=1.0, x=x, E=0.0, window=(1, 2))
        )
        assert np.all(np.isfinite(ht))


class TestDenseBlocks:
    def test_single_block_dense(self):
        dense = dense_blocks(np.ones((1, 2, 2)), np.empty((0, 2, 2)), np.empty((0, 2, 2)))
        assert np.array_equal(dense, np.ones((2, 2)))

    def test_two_site_scalar(self):
        dense = dense_blocks(
            np.array([[[1.0]], [[2.0]]]), np.array([[[3.0]]]), np.array([[[4.0]]])
        )
        assert np.array_equal(dense, np.array([[1.0, 4.0], [3.0, 2.0]]))

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_assembly_is_the_dense_band_of_the_stacked_blocks(self, name, request):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(2)
        params = OperatorParams(lam=3.0, x=pole_free_x(model, rng, (-2, 4)), E=0.7, window=(-2, 4))
        tab = window_tables(model, params)
        l, n = model.l, params.n_sites
        p = np.arange(n * l) // l
        off = np.abs(p[:, None] - p[None, :]) > 1
        for got, blocks in (
            (assemble_hamiltonian(model, params), hamiltonian_blocks(tab, 3.0)),
            (assemble_regularized(model, params), regularized_blocks(tab, 3.0, 0.7)),
        ):
            assert got.shape == (n * l, n * l)
            assert np.array_equal(got, dense_blocks(*blocks))
            for have, want in zip(band_blocks(got, l), blocks):
                assert np.array_equal(have, want)
            assert np.count_nonzero(off) > 0 and not got[off].any()
