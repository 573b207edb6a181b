import math

import numpy as np
import pytest

import oracles
from qpjacobi import ergodic, greens
from qpjacobi.errors import NearSingular, TooManyExclusions
from qpjacobi.greens import (
    avg_logdet,
    check_det_lower_bound,
    check_minor_bound,
    green_solve,
    logdet_grid,
    logdet_abs,
    midpoint_grid,
    minor_logabs,
)
from qpjacobi.operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
    window_tables,
)
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly, symbol_tables

from conftest import GOLDEN, atomic_maryland, random_model, well_conditioned_params


def det_cofactor(a):
    """Brute-force cofactor expansion; the independent determinant oracle."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        sub = np.delete(a[1:], j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(sub)
    return total


class TestLogdet:
    def test_identity(self):
        assert logdet_abs(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert logdet_abs(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            want = math.log(abs(det_cofactor(a)))
            assert logdet_abs(a) == pytest.approx(want, rel=1e-9)

    def test_singular_returns_neg_infinity(self):
        a = np.ones((3, 3))
        assert logdet_abs(a) == float("-inf")

    def test_matches_eigenvalue_sum_for_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(8, 8))
            a = a + a.T
            want = float(np.sum(np.log(np.abs(np.linalg.eigvalsh(a)))))
            assert logdet_abs(a) == pytest.approx(want, rel=1e-9)


def logdet_lu_stack(mat):
    """logdet_abs from the LU oracle: one logdet_lu call per matrix of the stack."""
    a = np.asarray(mat, dtype=float)
    out = np.array([oracles.logdet_lu(m) for m in a.reshape((-1,) + a.shape[-2:])])
    return float(out[0]) if a.ndim == 2 else out.reshape(a.shape[:-2])


def _close_to_lu(got, want):
    """Equal -inf masks, and finite values within 1e-13 * max(1, |value|)."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    return np.array_equal(np.isfinite(got), finite) and bool(
        np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(want[finite])))
    )


class TestStackedLogdet:
    def test_random_stacks_match_lu_oracle(self):
        rng = np.random.default_rng(12)
        for shape in ((7, 5, 5), (2, 3, 4, 4), (1, 12, 12)):
            a = rng.normal(size=shape) * rng.uniform(0.1, 100.0, size=shape[:-2] + (1, 1))
            got = logdet_abs(a)
            assert got.shape == shape[:-2]
            assert _close_to_lu(got, logdet_lu_stack(a))

    @pytest.mark.parametrize("name", ["mero2", "analytic2"])
    @pytest.mark.parametrize("N", [4, 16])
    def test_model_windows_match_lu_oracle(self, name, N, request):
        model = request.getfixturevalue(name)
        xs = midpoint_grid(32)
        for lam, E in ((2.0, 0.5), (100.0, 3.0)):
            got = logdet_grid(model, lam, E, (1, N), xs)
            want = [
                oracles.logdet_lu(
                    assemble_regularized(model, OperatorParams(lam, float(x), E, (1, N)))
                )
                for x in xs
            ]
            assert _close_to_lu(got, want)

    def test_singular_member_of_a_stack(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 6, 6))
        a[2, :, 3] = 0.0
        got = logdet_abs(a)
        assert got[2] == float("-inf") and oracles.logdet_lu(a[2]) == float("-inf")
        keep = [0, 1, 3]
        assert np.array_equal(got[keep], [logdet_abs(a[k]) for k in keep])
        assert np.all(np.isfinite(got[keep])) and _close_to_lu(got[keep], logdet_lu_stack(a[keep]))

    def test_non_finite_entry_is_neg_infinity(self):
        for bad in (np.nan, np.inf):
            a = np.eye(3)
            a[1, 2] = bad
            assert logdet_abs(a) == float("-inf")
            assert logdet_abs(np.stack([2.0 * np.eye(3), a])).tolist() == [
                3.0 * math.log(2.0),
                float("-inf"),
            ]

    def test_empty_matrix(self):
        got = logdet_abs(np.zeros((0, 0)))
        assert got == 0.0 and isinstance(got, float)
        assert logdet_abs(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]

    def test_pole_orbit_counts_match_lu_oracle(self, mero2, monkeypatch):
        # The first site of the first nodes sits on a pole of a diagonal
        # denominator.  The last of them, x = 1 - omega, puts it at phase 0,
        # where the numerator of F[0][0] and R[0][1] vanish exactly: at lam = 0
        # and this E the first entry of the one-site matrix is exactly 0 and
        # the matrix is singular.
        poles = [z for i in range(2) for sym in (mero2.F[i][i], mero2.R[i][i]) for z in sym.zeros]
        xs = midpoint_grid(1000)
        xs[: len(poles)] = (np.array(poles) - mero2.omega) % 1.0
        xs[len(poles)] = 1.0 - mero2.omega
        tab = symbol_tables(mero2, np.zeros(1))
        E = float(-tab.rnum[0, 0] / tab.rden[0, 0])
        singular = OperatorParams(0.0, 1.0 - mero2.omega, E, (1, 1))
        assert assemble_regularized(mero2, singular)[0, 0] == 0.0

        def counts():
            monkeypatch.setattr(ergodic, "_orbit_sum", None)
            excluded = [avg_logdet(mero2, lam, E, 1, xs).excluded for lam in (0.0, 5.0)]
            floored = [ergodic._orbit_average(mero2, lam, E, 1, 3, xs)[1] for lam in (0.0, 5.0)]
            return excluded, floored

        got = counts()
        monkeypatch.setattr(greens, "logdet_abs", logdet_lu_stack)
        assert counts() == got == ([1, 0], [1, 0])


class TestRotatedPair:
    """The l >= 2 paths checked against two l = 1 ones, with no oracle from
    the code under test: conjugation by I (x) U splits the rotated pair into
    two scalar operators (see oracles.rotated_pair).  W = I is its own
    transpose, so these tests cannot show a swap of W and W^T."""

    @pytest.mark.parametrize("lam, E, N", [(4.0, 0.3, 8), (20.0, 0.5, 16), (2.5, 1.1, 32)])
    def test_dense_logdet_is_the_sum_of_the_scalar_recurrences(self, lam, E, N):
        pair, scalars = oracles.rotated_pair()
        xs = midpoint_grid(512)
        got = logdet_grid(pair, lam, E, (0, N - 1), xs)
        want = sum(logdet_grid(m, lam, E, (0, N - 1), xs) for m in scalars)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_window_spectrum_is_the_union_of_the_scalar_spectra(self, lam):
        pair, scalars = oracles.rotated_pair()
        params = OperatorParams(lam, 0.1, 0.0, (-32, 32))
        got = np.linalg.eigvalsh(assemble_hamiltonian(pair, params))
        want = np.concatenate([np.linalg.eigvalsh(assemble_hamiltonian(m, params)) for m in scalars])
        assert np.max(np.abs(got - np.sort(want))) < 1e-9


class TestMeromorphicPair:
    """The l >= 2 paths checked against two l = 1 ones on a pair with poles
    on both diagonals and a different M per component (see
    oracles.meromorphic_pair).  A hopping that takes the other component's M
    moves the log-determinants below by 10.5, 4.83 and 19.7, one that drops M
    by 7.21, 6.5 and 13.3.  W = I, so these tests cannot show row scaling in
    place of column scaling."""

    @pytest.mark.parametrize("lam, E, N", [(4.0, 0.3, 8), (20.0, 0.5, 16), (2.5, 1.1, 32)])
    def test_dense_logdet_is_the_sum_of_the_scalar_recurrences(self, lam, E, N):
        # measured 5.8e-14, 9.9e-14 and 1.9e-13
        pair, scalars = oracles.meromorphic_pair()
        xs = midpoint_grid(512)
        got = logdet_grid(pair, lam, E, (0, N - 1), xs)
        want = sum(logdet_grid(m, lam, E, (0, N - 1), xs) for m in scalars)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_window_spectrum_is_the_union_of_the_scalar_spectra(self, lam):
        # measured 8.5e-14 and 2.8e-13
        pair, scalars = oracles.meromorphic_pair()
        params = OperatorParams(lam, 0.1, 0.0, (-32, 32))
        got = np.linalg.eigvalsh(assemble_hamiltonian(pair, params))
        want = np.concatenate([np.linalg.eigvalsh(assemble_hamiltonian(m, params)) for m in scalars])
        assert np.max(np.abs(got - np.sort(want))) < 1e-9

    @pytest.mark.parametrize("lam, E, n_gap", [(2.0, 0.3, -0.235), (20.0, 0.5, -0.006)])
    def test_thouless_gap_shrinks_like_one_over_n(self, lam, E, n_gap):
        # the components are Maryland models of coupling lam and lam / 2, and
        # each M, a shifted cosine, has <log|M|> = -log 2, so gap(N) =
        # (1/2N)<log|det Ht|> + log 2 + log(1 + E^2)/2 - (L(lam, E) + L(lam/2, E))/2.
        # N*gap at N = 8, 32, 128: -0.235/-0.234/-0.236 and -0.0061/-0.0055/-0.0057
        pair, _ = oracles.meromorphic_pair()
        L = 0.5 * float(oracles.maryland_lyapunov(lam, E) + oracles.maryland_lyapunov(0.5 * lam, E))
        gaps = []
        for n in (8, 32, 128):
            u = logdet_grid(pair, lam, E, (1, n), midpoint_grid(8192))
            assert np.all(np.isfinite(u))
            gaps.append(np.mean(u) / (2 * n) + math.log(2.0) + 0.5 * math.log1p(E * E) - L)
            assert abs(n * gaps[-1] - n_gap) <= 0.015
        assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])


class TestMinorOracle:
    """minor_logabs against closed forms and numpy's inverse."""

    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert math.exp(minor_logabs(a, 1, 1)) == pytest.approx(4.0)

    def test_identity_off_diagonal(self):
        assert minor_logabs(np.eye(3), 1, 2) == float("-inf")

    def test_single_entry_gives_empty_determinant(self):
        assert minor_logabs(np.array([[7.0]]), 1, 1) == 0.0

    def test_cramer_cross_check(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4))
        inv = np.linalg.inv(a)
        det = np.linalg.det(a)
        for alpha in range(1, 5):
            for ap in range(1, 5):
                lhs = abs(inv[alpha - 1, ap - 1]) * abs(det)
                rhs = math.exp(minor_logabs(a, alpha, ap))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_dimension_checks(self):
        with pytest.raises(IndexError):
            minor_logabs(np.eye(2), 3, 1)
        with pytest.raises(IndexError):
            minor_logabs(np.eye(2), 1, 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            minor_logabs(np.ones((2, 3)), 1, 1)


class TestCramerIdentity:
    def test_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            model = random_model(rng)
            n = int(rng.integers(2, max(3, 20 // model.l + 1)))
            params = well_conditioned_params(model, rng, (1, n))
            ht = assemble_regularized(model, params)
            inv = np.linalg.inv(ht)
            det = abs(np.linalg.det(ht))
            nl = ht.shape[0]
            for _ in range(50):
                a = int(rng.integers(1, nl + 1))
                b = int(rng.integers(1, nl + 1))
                lhs = abs(inv[a - 1, b - 1]) * det
                rhs = math.exp(minor_logabs(ht, a, b))
                assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-30)


class TestGreenFull:
    def test_scalar_closed_form(self, maryland):
        lam, E, x = 3.0, 0.7, 0.05
        g = green_solve(maryland, OperatorParams(lam=lam, x=x, E=E, window=(1, 1)))[0]
        want = 1.0 / (lam * math.tan(2.0 * math.pi * ((x + GOLDEN) % 1.0)) - E)
        assert g[0, 0] == pytest.approx(want, rel=1e-12)

    def test_matches_direct_inverse(self, mero2):
        rng = np.random.default_rng(37)
        params = well_conditioned_params(mero2, rng, (1, 4))
        g = green_solve(mero2, params)[0]
        h = assemble_hamiltonian(mero2, params)
        direct = np.linalg.inv(h - params.E * np.eye(h.shape[0]))
        assert np.max(np.abs(g - direct)) <= 1e-9 * np.max(np.abs(direct))

    def test_symmetric(self, maryland):
        rng = np.random.default_rng(41)
        params = well_conditioned_params(maryland, rng, (1, 6))
        g = green_solve(maryland, params)[0]
        assert np.max(np.abs(g - g.T)) <= 1e-10 * max(1.0, np.max(np.abs(g)))

    def test_residual_definition_matches_hamiltonian(self, maryland):
        rng = np.random.default_rng(43)
        params = well_conditioned_params(maryland, rng, (1, 8))
        g = green_solve(maryland, params)[0]
        h = assemble_hamiltonian(maryland, params)
        defect = np.max(np.abs((h - params.E * np.eye(h.shape[0])) @ g - np.eye(h.shape[0])))
        assert defect <= 1e-8

    def test_near_singular_energy(self, maryland):
        params = OperatorParams(lam=2.0, x=0.05, E=0.0, window=(1, 6))
        evals = np.linalg.eigvalsh(assemble_hamiltonian(maryland, params))
        bad = OperatorParams(lam=2.0, x=0.05, E=float(evals[2]), window=(1, 6))
        with pytest.raises(NearSingular):
            green_solve(maryland, bad)


def cramer_abs(model, params):
    """|G| over the window from Cramer's rule on the regularized matrix:
    |G(a, b)| = |m_a| / sqrt(1 + E^2) * |minor(a, b)| / |det Ht|, where m_a
    is the denominator product of the site and component of row a."""
    ht = assemble_regularized(model, params)
    a, b = np.indices(ht.shape) + 1
    pref = np.abs(window_tables(model, params).m.reshape(-1, 1)) / math.sqrt(1.0 + params.E**2)
    return pref * np.exp(minor_logabs(ht, a, b) - logdet_abs(ht))


class TestGreenEntryCramer:
    def test_scalar_reduces_to_green(self, maryland):
        lam, x = 2.5, 0.03
        params = OperatorParams(lam=lam, x=x, E=0.0, window=(1, 1))
        got = cramer_abs(maryland, params)[0, 0]
        want = 1.0 / (lam * abs(math.tan(2.0 * math.pi * ((x + GOLDEN) % 1.0))))
        assert got == pytest.approx(want, rel=1e-10)

    def test_diagonal_matrix_reciprocal(self, maryland):
        model = atomic_maryland(maryland)
        rng = np.random.default_rng(47)
        params = well_conditioned_params(model, rng, (1, 4))
        h = assemble_hamiltonian(model, params)
        got = np.diag(cramer_abs(model, params))
        want = 1.0 / np.abs(np.diag(h) - params.E)
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero_minor_gives_zero_entry(self, maryland):
        model = atomic_maryland(maryland)
        params = well_conditioned_params(model, np.random.default_rng(47), (1, 4))
        assert cramer_abs(model, params)[0, 2] == 0.0

    def test_matches_green_full(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, l=2)
        params = well_conditioned_params(model, rng, (1, 3))
        g = np.abs(green_solve(model, params)[0])
        got = cramer_abs(model, params)
        assert np.all(np.abs(got - g) <= 1e-8 * np.maximum(np.maximum(got, g), 1e-30))


class TestMinorBound:
    def test_diagonal_pairs_have_finite_slack(self, maryland):
        rep = check_minor_bound(maryland, [4], [10.0], [1.0], x_count=4)
        assert np.isfinite(rep.fitted_constant)

    def test_stability_across_n(self, maryland):
        rep = check_minor_bound(maryland, [4, 8, 16], [100.0], [1.0], x_count=16)
        assert np.isfinite(rep.fitted_constant)
        # the spread of the per-N constants relative to the largest of them
        vals = list(rep.group_constants.values())
        assert len(vals) == 3 and np.all(np.isfinite(vals))
        assert (max(vals) - min(vals)) / max(map(abs, vals)) < 0.5

    def test_decoupled_sites_zero_minors(self, maryland):
        model = atomic_maryland(maryland)
        rep = check_minor_bound(model, [4], [10.0], [1.0], x_count=4)
        assert rep.sweep["zero_minors"] > 0
        assert np.isfinite(rep.fitted_constant)

    def test_an_overflowed_log_term_is_not_a_zero_minor(self, maryland, monkeypatch):
        # at lam = 1e308 and E = 0.5, log1p(lam / |E|) overflows while every minor
        # is finite: the sweep raises before it factors any, even those of lam = 10
        def no_factorization(*args):
            raise AssertionError("a minor was factored")

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "slogdet", no_factorization)
            with pytest.raises(np.linalg.LinAlgError, match=r"not finite at lam=1e\+308, E=0.5"):
                check_minor_bound(maryland, [2], [10.0, 1e308], [0.5], x_count=2)
        rep = check_minor_bound(maryland, [2], [1e300], [0.5], x_count=2)
        want = oracles.minor_sweep(maryland, [2], [1e300], [0.5], x_count=2, e_min=1e-6)
        assert rep.sweep["rows"] == want["rows"] and rep.sweep["zero_minors"] == 0
        assert np.isfinite(rep.fitted_constant)

    def test_small_energy_excluded(self, maryland):
        rep = check_minor_bound(maryland, [4], [10.0], [1e-9, 1.0], x_count=4)
        assert rep.sweep["skipped_small_E"] == 1

    def test_size_cap(self, maryland):
        with pytest.raises(ValueError):
            check_minor_bound(maryland, [64], [10.0], [1.0])


class TestAvgLogdet:
    def test_closed_form(self, maryland):
        res = avg_logdet(maryland, 10.0, 0.0, 1, midpoint_grid(4096))
        assert res.excluded == 0
        assert res.value == pytest.approx(math.log(10.0) - math.log(2.0), abs=1e-3)

    def test_almost_mathieu_average_is_log_half_lam(self):
        # no poles, so M = 1 and only the scale 1/sqrt(1 + E^2) is taken off;
        # measured -3.8e-5 from log 2
        res = avg_logdet(oracles.almost_mathieu(), 4.0, 0.3, 64, midpoint_grid(2048))
        got = res.value + 0.5 * math.log1p(0.3**2)
        assert abs(got - oracles.almost_mathieu_lyapunov(4.0)) < 1e-3

    @pytest.mark.parametrize(
        "lam, E, n_gap", [(0.5, 1.0, -0.333), (2.0, 0.3, -0.155), (20.0, 0.5, -0.003)]
    )
    def test_maryland_thouless_gap_shrinks_like_one_over_n(self, maryland, lam, E, n_gap):
        # gap(N) = (1/N)<log|det Ht|> - <log|m|> + log(1 + E^2)/2 - L(E), with
        # m = cos(2 pi x), whose torus average of log|m| is -log 2.  N*gap at
        # N = 8, 32, 128 on 65536 nodes: -0.336/-0.331/-0.330, -0.155 at each N,
        # and -0.0025/-0.0026/-0.0025; 8192 nodes stay within 0.003 of that
        L = float(oracles.maryland_lyapunov(lam, E))
        gaps = []
        for n in (8, 32, 128):
            u = logdet_grid(maryland, lam, E, (1, n), midpoint_grid(8192))
            assert np.all(np.isfinite(u))
            gaps.append(np.mean(u) / n + math.log(2.0) + 0.5 * math.log1p(E * E) - L)
            assert abs(n * gaps[-1] - n_gap) <= 0.015
        assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])

    def test_coupling_homogeneity(self, maryland):
        grid = midpoint_grid(512)
        base = avg_logdet(maryland, 7.0, 0.0, 1, grid).value
        scaled = avg_logdet(maryland, 21.0, 0.0, 1, grid).value
        assert scaled - base == pytest.approx(math.log(3.0), abs=1e-12)

    def test_shift_invariance_smooth_integrand(self, analytic2):
        # energy far outside the spectrum keeps the integrand analytic, where
        # the midpoint rule converges fast enough for a 1e-6 comparison
        grid = midpoint_grid(512)
        lam, E = 2.0, 10.0
        a = avg_logdet(analytic2, lam, E, 3, grid).value
        b = avg_logdet(analytic2, lam, E, 3, (grid + analytic2.omega) % 1.0).value
        assert abs(a - b) <= 1e-6

    def test_grid_size_enforced(self, maryland):
        with pytest.raises(ValueError):
            avg_logdet(maryland, 10.0, 0.0, 1, midpoint_grid(128))

    @pytest.mark.parametrize("window", [(1, 0), (5, 2)])
    def test_empty_window_rejected(self, maryland, window):
        with pytest.raises(ValueError, match="at least one site"):
            logdet_grid(maryland, 10.0, 1.0, window, midpoint_grid(8))

    def test_degenerate_model_excluded_nodes(self, maryland):
        zero = MeroScalar.from_ratio(TrigPoly.zero())
        model = BlockModel(
            W=[[TrigPoly.zero()]], R=[[zero]], F=[[zero]],
            omega=GOLDEN, dioph=Dioph(2.0, 0.1),
        )
        with pytest.raises(TooManyExclusions):
            avg_logdet(model, 10.0, 0.0, 2, midpoint_grid(512))


class TestDetLowerBound:
    def test_closed_form_constant(self, maryland):
        rep = check_det_lower_bound(maryland, [math.e], [0.0], [1], midpoint_grid(4096))
        assert rep.fitted_constant == pytest.approx(math.log(2.0), abs=2e-3)

    def test_doubling_stability(self, maryland):
        rep = check_det_lower_bound(
            maryland, [100.0, 200.0], [0.5], [4], midpoint_grid(1024)
        )
        c1 = rep.group_constants[100.0]
        c2 = rep.group_constants[200.0]
        assert abs(c2 - c1) <= 0.1 * abs(c1)

    @pytest.mark.parametrize("N_list", [[4, 0], [0], [-1, 2]])
    def test_window_below_one_site_raises_before_any_work(self, maryland, monkeypatch, N_list):
        def no_work(*args):
            raise AssertionError("a log-determinant average was computed")

        monkeypatch.setattr(greens, "avg_logdet", no_work)
        with pytest.raises(ValueError, match=r"det sweep needs N >= 1"):
            check_det_lower_bound(maryland, [10.0], [0.5], N_list, midpoint_grid(512))

    @pytest.mark.parametrize(
        "lists, name",
        [
            (([], [0.5], [4]), "lambda_list"),
            (([10.0], [], [4]), "E_list"),
            (([10.0], [0.5], []), "N_list"),
        ],
    )
    def test_an_empty_list_raises_before_any_work(self, maryland, monkeypatch, lists, name):
        calls = []
        monkeypatch.setattr(greens, "avg_logdet", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^det sweep needs a nonempty {name}$"):
            check_det_lower_bound(maryland, *lists, midpoint_grid(512))
        assert calls == []

    def test_rational_rotation_also_reported(self, maryland):
        # the torus-average inequality is checked for rational rotations too;
        # only finiteness is asserted, no sharper claim
        rep = check_det_lower_bound(
            maryland.with_omega(0.5), [100.0], [0.5], [4], midpoint_grid(1024)
        )
        assert np.isfinite(rep.fitted_constant)
