"""symbol_tables and every consumer built on it, checked against the
one-site-at-a-time reference paths in oracles.py."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qpjacobi.ergodic import U_FLOOR, _orbit_average, deviation_measure
from qpjacobi.errors import PoleProximity
from qpjacobi.greens import check_minor_bound, logdet_grid, midpoint_grid, minor_logabs
from qpjacobi.localization import lyapunov_rates, lyapunov_transfer
from qpjacobi.operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
    row_prefactors,
)
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly, symbol_tables

from conftest import GOLDEN, atomic_maryland, pole_free_x, random_model

MODELS = ("maryland", "analytic2", "mero2")


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    return float(np.max(np.abs(got - want), initial=0.0)) / (scale if scale else 1.0)


def _same_blocks(got, want, tol=1e-14):
    for name in ("diag", "lower", "upper"):
        assert _rel_err(getattr(got, name), getattr(want, name)) <= tol, name


# -- symbol_tables ----------------------------------------------------------

coeff = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t))
# TrigPoly makes a table Hermitian: c_{-k} = conj(c_k)
table = st.dictionaries(st.integers(0, 3), coeff, max_size=4)


def _den(raw):
    p = TrigPoly(raw)
    return p if not p.is_zero else TrigPoly.constant(1.0)


@st.composite
def models(draw):
    l = draw(st.integers(1, 2))

    def grid(diag):
        g = [[None] * l for _ in range(l)]
        for i in range(l):
            g[i][i] = diag()
            for j in range(i + 1, l):
                g[i][j] = g[j][i] = TrigPoly(draw(table))
        return g

    def mero():
        return MeroScalar(TrigPoly(draw(table)), _den(draw(table)), ())

    return BlockModel(
        l=l,
        W=grid(lambda: TrigPoly(draw(table))),
        R=grid(mero),
        F=grid(mero),
        omega=draw(st.floats(0.05, 0.95)),
        dioph=Dioph(2.0, 0.1),
    )


phase_arrays = st.one_of(
    st.floats(-3, 3).map(np.float64),
    st.lists(st.floats(-3, 3), min_size=1, max_size=6).map(np.array),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-3, 3), min_size=3, max_size=3), min_size=n, max_size=n
        ).map(np.array)
    ),
)


class TestSymbolTables:
    @given(models(), phase_arrays)
    def test_every_entry_equals_the_symbol(self, model, y):
        tab = symbol_tables(model, y)
        l = model.l
        shape = np.shape(y)
        for i in range(l):
            F, R = model.F[i][i], model.R[i][i]
            assert np.array_equal(tab.fnum[..., i], F.num(y))
            assert np.array_equal(tab.fden[..., i], F.den(y))
            assert np.array_equal(tab.rnum[..., i], R.num(y))
            assert np.array_equal(tab.rden[..., i], R.den(y))
            assert np.array_equal(tab.m[..., i], F.den(y) * R.den(y))
            for j in range(l):
                assert np.array_equal(tab.w[..., i, j], model.W[i][j](y))
                if i != j:
                    assert np.array_equal(tab.f_off[..., i, j], model.F[i][j](y))
                    assert np.array_equal(tab.r_off[..., i, j], model.R[i][j](y))
                else:
                    assert not np.any(tab.f_off[..., i, i]) and not np.any(tab.r_off[..., i, i])
        assert tab.fnum.shape == shape + (l,) and tab.w.shape == shape + (l, l)

    @given(models(), st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    def test_values_do_not_depend_on_the_array_shape(self, model, ys):
        arr = symbol_tables(model, np.array(ys))
        for k, y in enumerate(ys):
            one = symbol_tables(model, y)
            for name in ("fnum", "fden", "rnum", "rden", "f_off", "r_off", "w", "m"):
                assert np.array_equal(getattr(arr, name)[k], getattr(one, name)), name

    @given(st.integers(0, 40), st.integers(0, 12), st.integers(1, 12))
    def test_pole_window_raises_like_the_seed_guard(self, maryland, pole_site, left, right):
        # maryland's denominator cos(2 pi y) vanishes at 1/4
        x = 0.25 - pole_site * maryland.omega
        u, v = pole_site - left, pole_site + right
        want = None
        for site in range(u, v + 1):
            try:
                oracles.check_poles(maryland, maryland.site_phase(x, site), site=site)
            except PoleProximity as exc:
                want = exc
                break
        assert want is not None
        params = OperatorParams(lam=1.0, x=x, E=0.0, window=(u, v))
        with pytest.raises(PoleProximity) as got:
            assemble_hamiltonian(maryland, params)
        assert (got.value.site, got.value.phase) == (want.site, want.phase)
        assert str(got.value) == str(want)
        with pytest.raises(PoleProximity) as scalar:
            maryland.check_poles(maryland.site_phase(x, want.site), site=want.site)
        assert (scalar.value.site, scalar.value.phase) == (want.site, want.phase)

    def test_views_follow_the_table(self, mero2):
        y = 0.3125
        tab = symbol_tables(mero2, y)
        assert np.array_equal(mero2.w_values(y), tab.w)
        assert np.array_equal(mero2.m_values(y), tab.m)
        assert np.array_equal(mero2.f_values(y), oracles._matrix(mero2.F, y, 2))
        assert np.array_equal(mero2.r_values(y), oracles._matrix(mero2.R, y, 2))


# -- window assembly --------------------------------------------------------


@pytest.mark.parametrize("name", MODELS)
def test_assembly_matches_per_site_oracle(name, request):
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    for window in ((1, 1), (1, 6), (-9, 4)):
        for _ in range(3):
            params = OperatorParams(
                lam=float(rng.uniform(0.0, 30.0)),
                x=pole_free_x(model, rng, window),
                E=float(rng.uniform(-3.0, 3.0)),
                window=window,
            )
            _same_blocks(assemble_hamiltonian(model, params), oracles.assemble_hamiltonian(model, params))
            _same_blocks(assemble_regularized(model, params), oracles.assemble_regularized(model, params))
            assert _rel_err(row_prefactors(model, params), oracles.row_prefactors(model, params)) <= 1e-14


@pytest.mark.parametrize("name", MODELS)
def test_regularized_assembly_is_finite_on_a_pole(name, request):
    model = request.getfixturevalue(name)
    pole = model.F[0][0].zeros[0] if model.F[0][0].zeros else 0.25
    params = OperatorParams(lam=3.0, x=pole - 2 * model.omega, E=0.5, window=(0, 5))
    got = assemble_regularized(model, params)
    _same_blocks(got, oracles.assemble_regularized(model, params))
    assert np.all(np.isfinite(got.to_dense()))


@pytest.mark.parametrize("name", MODELS)
def test_logdet_grid_matches_per_node_factorization(name, request):
    model = request.getfixturevalue(name)
    xs = midpoint_grid(40)
    got = logdet_grid(model, 7.0, 0.5, (-1, 3), xs)
    want = oracles.logdet_per_node(model, 7.0, 0.5, (-1, 3), xs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    if model.l > 1:
        assert np.array_equal(got, want)


# -- Birkhoff sums along the orbit -----------------------------------------


@pytest.mark.parametrize(
    "name,N,Q,omega",
    [("maryland", 4, 37, None), ("maryland", 1, 9, None), ("maryland", 3, 20, 0.5), ("mero2", 2, 3, None)],
)
def test_deviation_measure_matches_per_orbit_point_oracle(name, N, Q, omega, request):
    model = request.getfixturevalue(name)
    m = model.with_omega(omega) if omega is not None else model
    xs = midpoint_grid(1000)
    lam, E = 50.0, 1.0
    want, want_floored = oracles.orbit_average(m, lam, E, N, Q, xs, U_FLOOR)
    avg, floored = _orbit_average(m, lam, E, N, Q, xs)
    assert np.max(np.abs(avg - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert floored == want_floored
    ref = float(np.mean(want))
    for S in (0.05, 0.5, 5.0):
        rep = deviation_measure(model, lam, E, N, Q, S, 0.3, xs, omega=omega, ref=ref)
        bad = np.count_nonzero(np.abs(want - ref) >= rep.threshold)
        assert rep.bad_fraction == bad / xs.size
        assert rep.floored == want_floored


# -- transfer matrices ------------------------------------------------------


def test_lyapunov_matches_seed_loop_on_a_pole_orbit(maryland):
    x = 0.25 - 3 * GOLDEN  # site 3 lands on maryland's pole
    energies = np.linspace(-12.0, 12.0, 9)
    got = lyapunov_rates(maryland, 5.0, energies, 3000, x=x)
    assert np.array_equal(got, oracles.lyapunov_rates(maryland, 5.0, energies, 3000, x=x))
    for E in (0.0, 2.5):
        # elementwise products in place of a 2x2 matmul: same steps, other rounding
        rate, skipped = lyapunov_transfer(maryland, 5.0, E, 3000, x=x, full_output=True)
        want_rate, want_skipped = oracles.lyapunov_transfer(maryland, 5.0, E, 3000, x=x)
        assert rate == pytest.approx(want_rate, rel=1e-12)
        assert skipped == want_skipped >= 1


def test_lyapunov_matches_seed_loop_with_varying_coupling():
    model = random_model(np.random.default_rng(8), l=1, mero=True)
    energies = np.linspace(-4.0, 4.0, 5)
    got = lyapunov_rates(model, 2.0, energies, 1500, x=0.3)
    assert np.array_equal(got, oracles.lyapunov_rates(model, 2.0, energies, 1500, x=0.3))
    rate, skipped = lyapunov_transfer(model, 2.0, 0.7, 1500, x=0.3, full_output=True)
    want_rate, want_skipped = oracles.lyapunov_transfer(model, 2.0, 0.7, 1500, x=0.3)
    assert rate == pytest.approx(want_rate, rel=1e-12) and skipped == want_skipped


# -- minor sweep rows -------------------------------------------------------


def test_minor_rows_match_the_per_instance_resweep(mero2):
    args = ([1, 2], [10.0, 100.0], [1.0, 1e-9, -5.0])
    rep = check_minor_bound(mero2, *args, x_count=3)
    assert rep.sweep["rows"] == oracles.minor_rows(mero2, *args, x_count=3, e_min=1e-6)
    assert len(rep.sweep["rows"]) == 2 * 2 * 2 * 3


def test_minor_rows_with_sampled_pairs_cover_each_instance(maryland):
    rep = check_minor_bound(maryland, [4], [10.0], [1.0, 2.0], x_count=2, pairs_per_instance=3)
    rows = rep.sweep["rows"]
    assert len(rows) == 4
    assert max(r[5] for r in rows) == rep.fitted_constant


def test_stacked_minors_equal_the_per_pair_oracle(mero2):
    ht = assemble_regularized(mero2, OperatorParams(lam=10.0, x=0.3, E=1.0, window=(1, 3))).to_dense()
    a, b = np.indices(ht.shape).reshape(2, -1) + 1
    want = [oracles.minor_logabs(ht, int(i), int(j)) for i, j in zip(a, b)]
    assert minor_logabs(ht, a, b).tolist() == want
    assert minor_logabs(ht, a.reshape(6, 6), b.reshape(6, 6)).ravel().tolist() == want
    got = minor_logabs(ht, 2, 5)
    assert type(got) is float and got == oracles.minor_logabs(ht, 2, 5)
    assert minor_logabs(np.array([[7.0]]), 1, 1) == 0.0
    with pytest.raises(IndexError):
        minor_logabs(ht, np.array([1, 7]), 1)


@pytest.mark.parametrize(
    "name, N_list, E_list, pairs",
    [
        ("mero2", [1, 2, 4], [1.0, 1e-9, -5.0], None),
        ("mero2", [2, 4], [1.0, -5.0], 6),
        ("maryland", [4, 8], [1.0, 2.0], 5),
        ("atomic", [2, 4], [1.0, -2.0], None),
        ("atomic", [4, 8], [1.0], 7),
    ],
)
def test_minor_sweep_equals_the_per_pair_oracle(request, maryland, name, N_list, E_list, pairs):
    model = atomic_maryland(maryland) if name == "atomic" else request.getfixturevalue(name)
    args = (N_list, [10.0, 100.0], E_list)
    rep = check_minor_bound(model, *args, x_count=3, pairs_per_instance=pairs, seed=5)
    want = oracles.minor_sweep(model, *args, x_count=3, e_min=1e-6, pairs_per_instance=pairs, seed=5)
    assert rep.sweep["rows"] == want["rows"]
    assert rep.samples == want["samples"]
    assert rep.sweep["zero_minors"] == want["zero_minors"]
    assert rep.group_constants == want["groups"]
    assert rep.fitted_constant == max(want["groups"].values())
    if name == "atomic":
        assert want["zero_minors"] > 0


@pytest.mark.parametrize("x_count, E_list", [(0, [1.0]), (3, [1e-9, -1e-7])])
def test_minor_sweep_without_an_instance_raises(maryland, x_count, E_list):
    with pytest.raises(ValueError, match="no instance"):
        check_minor_bound(maryland, [4], [10.0], E_list, x_count=x_count)


def test_minor_row_reports_the_first_pair_reaching_the_worst_slack(maryland, monkeypatch):
    # with log(lam + |E|) = L, the log-minors (L, 0, 0, L - 1) of the pairs
    # (1,1), (1,2), (2,1), (2,2) give equal slacks to the first three pairs
    L = float(np.log(2.0))
    calls = []

    def fake_minors(ht, a, b):
        calls.append((a.tolist(), b.tolist()))
        return np.array([L, 0.0, 0.0, L - 1.0])

    monkeypatch.setattr("qpjacobi.greens.minor_logabs", fake_minors)
    rep = check_minor_bound(maryland, [2], [1.0], [1.0], x_count=1)
    assert calls == [([1, 1, 2, 2], [1, 2, 1, 2])]
    (row,) = rep.sweep["rows"]
    assert row[4] == L / 2 and row[5] == L / 2 - np.log1p(1.0)
