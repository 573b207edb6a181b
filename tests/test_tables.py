"""symbol_tables and every consumer built on it, checked against the
one-site-at-a-time reference paths in oracles.py."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qpjacobi.ergodic import U_FLOOR, _orbit_average, deviation_measure
from qpjacobi.errors import PoleProximity
from qpjacobi import greens, localization
from qpjacobi.greens import (
    _scalar_logdets,
    avg_logdet,
    check_minor_bound,
    green_solve,
    logdet_abs,
    logdet_grid,
    midpoint_grid,
    minor_logabs,
    window_logdets,
)
from qpjacobi.localization import green_decay_scan, lyapunov_rates
from qpjacobi.operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
    regularization_scale,
    regularized_blocks,
)
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly, symbol_tables

from conftest import (
    GOLDEN,
    atomic_maryland,
    band_blocks,
    counted_eigvalsh,
    pole_free_x,
    random_model,
)

MODELS = ("maryland", "analytic2", "mero2")


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    return float(np.max(np.abs(got - want), initial=0.0)) / (scale if scale else 1.0)


def _same_blocks(got, want, l, tol=1e-14):
    """Dense window matrices that agree block family by block family and vanish off the band."""
    for name, g, w in zip(("diag", "lower", "upper"), band_blocks(got, l), band_blocks(want, l)):
        assert _rel_err(g, w) <= tol, name
    p = np.arange(got.shape[0]) // l
    off = np.abs(p[:, None] - p[None, :]) > 1
    assert not got[off].any() and not want[off].any()


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
        return MeroScalar(TrigPoly(draw(table)), _den(draw(table)))

    return BlockModel(
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

    @pytest.mark.parametrize("name", MODELS)
    @given(y=phase_arrays)
    def test_bundled_tables_equal_one_exponential_per_mode(self, request, name, y):
        self._equals_one_exponential_per_mode(request.getfixturevalue(name), y)

    @given(st.dictionaries(st.integers(-5, 5), coeff, min_size=1, max_size=6), phase_arrays)
    def test_random_table_equals_one_exponential_per_mode(self, raw, y):
        p = TrigPoly(raw)
        sym = MeroScalar.from_ratio(p)
        model = BlockModel([[p]], [[sym]], [[sym]], GOLDEN, Dioph(2.0, 0.1))
        self._equals_one_exponential_per_mode(model, y)
        assert np.array_equal(p(y), oracles.real_values(p, np.mod(y, 1.0)))

    @staticmethod
    def _equals_one_exponential_per_mode(model, y):
        tab = symbol_tables(model, y)
        ry = np.mod(y, 1.0)
        for i in range(model.l):
            F, R = model.F[i][i], model.R[i][i]
            diag = ((tab.fnum, F.num), (tab.fden, F.den), (tab.rnum, R.num), (tab.rden, R.den))
            for got, sym in diag:
                assert np.array_equal(got[..., i], oracles.real_values(sym, ry))
            for j in range(model.l):
                off = [(tab.f_off, model.F), (tab.r_off, model.R)] if i != j else []
                for got, grid in [(tab.w, model.W), *off]:
                    assert np.array_equal(got[..., i, j], oracles.real_values(grid[i][j], ry))

    @pytest.mark.parametrize("kind", ["real", "imaginary", "mixed"])
    @given(data=st.data(), y=phase_arrays)
    def test_table_bytes_equal_one_exponential_per_mode(self, kind, data, y):
        # array_equal would let a -0.0 stand for +0.0; the bytes must match
        part = st.floats(-2, 2)
        c = {"real": part.map(complex), "imaginary": part.map(lambda t: complex(0.0, t))}
        polys = st.dictionaries(st.integers(-4, 4), c.get(kind, coeff), min_size=1, max_size=5)
        num, den, w = TrigPoly(data.draw(polys)), _den(data.draw(polys)), TrigPoly(data.draw(polys))
        f = MeroScalar(num, den)
        model = BlockModel([[w]], [[MeroScalar.from_ratio(w)]], [[f]], GOLDEN, Dioph(2.0, 0.1))
        tab = symbol_tables(model, y)
        ry = np.mod(y, 1.0)
        for got, sym in ((tab.fnum, num), (tab.fden, den), (tab.rnum, w), (tab.w[..., 0], w)):
            assert got[..., 0].tobytes() == oracles.real_values(sym, ry).tobytes()

    def test_views_follow_the_table(self, mero2):
        y = 0.3125
        tab = symbol_tables(mero2, y)
        assert np.array_equal(mero2.w_values(y), tab.w)
        assert np.array_equal(mero2.m_values(y), tab.m)
        assert np.array_equal(mero2.f_values(y), oracles._matrix(mero2.F, y, 2))
        assert np.array_equal(mero2.r_values(y), oracles._matrix(mero2.R, y, 2))

    @pytest.mark.parametrize("name", ["mero2", "analytic2"])
    def test_views_of_a_phase_array_hold_the_scalar_views(self, name, request):
        # the quotients go onto the diagonal of each matrix, not the diagonal
        # of the (..., l) quotient array
        model = request.getfixturevalue(name)
        ys = np.array([[0.1, 0.2, 0.3], [0.45, 0.6, 0.95]])
        for view, grid in ((model.f_values, model.F), (model.r_values, model.R)):
            got = view(ys)
            assert got.shape == ys.shape + (2, 2)
            for y, mat in zip(ys.ravel(), got.reshape(-1, 2, 2)):
                assert np.array_equal(mat, view(y))
                assert np.array_equal(mat, oracles._matrix(grid, y, 2))


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
            for package, oracle in (
                (assemble_hamiltonian, oracles.assemble_hamiltonian),
                (assemble_regularized, oracles.assemble_regularized),
            ):
                _same_blocks(package(model, params), oracle(model, params), model.l)


@pytest.mark.parametrize("name", MODELS)
def test_regularized_assembly_is_finite_on_a_pole(name, request):
    model = request.getfixturevalue(name)
    pole = model.F[0][0].zeros[0] if model.F[0][0].zeros else 0.25
    params = OperatorParams(lam=3.0, x=pole - 2 * model.omega, E=0.5, window=(0, 5))
    got = assemble_regularized(model, params)
    _same_blocks(got, oracles.assemble_regularized(model, params), model.l)
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("name", MODELS)
def test_logdet_grid_matches_per_node_factorization(name, request):
    model = request.getfixturevalue(name)
    xs = midpoint_grid(40)
    got = logdet_grid(model, 7.0, 0.5, (-1, 3), xs)
    want = oracles.logdet_per_node(model, 7.0, 0.5, (-1, 3), xs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    if model.l > 1:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("window", [(1, 4), (-3, 5)])
@pytest.mark.parametrize("size", [1, 3, 40])
def test_logdet_grid_in_column_blocks_matches_the_oracles(
    name, window, size, request, monkeypatch
):
    # blocks of 13 columns: 40 phases split into 13, 13 and 14, the lone last
    # column joining the block before; 1 and 3 phases make one block
    model = request.getfixturevalue(name)
    n, lam, E = window[1] - window[0] + 1, 7.0, 0.5
    xs = (np.arange(size) + 0.3) / size
    monkeypatch.setattr(greens, "TABLE_CHUNK", 13 * n * model.l**2)
    got = logdet_grid(model, lam, E, window, xs)
    if model.l == 1:
        sites = np.arange(window[0], window[1] + 1)[:, None]
        tab = symbol_tables(model, model.site_phase(xs[None, :], sites))
        a = regularized_blocks(tab, lam, E)[0][..., 0, 0]
        scale = regularization_scale(E)
        want = oracles.scalar_logdets(a, tab.w[..., 0, 0], tab.m[..., 0], scale, n)[0]
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, oracles.logdet_per_node(model, lam, E, window, xs))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_logdet_grid_of_no_phase_is_empty(name, shape, request):
    model = request.getfixturevalue(name)
    assert logdet_grid(model, 7.0, 0.5, (1, 4), np.empty(shape)).shape == shape


# -- the l = 1 recurrence --------------------------------------------------


def _recurrence_inputs(kind, n, rng):
    """(a, w, m) of an n-site recurrence with 3 extra starts and 8 grid columns."""
    shape = (n + 3, 8)
    a = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    w, m = rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape)
    up, down = slice(None), slice(0, 0)
    if kind == "none":
        up = slice(0, 0)
    elif kind == "down":
        up, down = slice(0, 0), slice(None)
    elif kind == "mixed":
        up, down = slice(0, 3), slice(3, 6)
        a[:, 6], w[:, 6] = 0.0, 0.0  # an exactly singular column: log 0
    a[:, up] *= 1e120  # every D_i leaves 1e100 upward
    a[:, down] *= 1e-60  # D_i sinks below 1e-100 from i = 2 on
    w[:, down] *= 1e-60
    return a, w, m


@pytest.mark.parametrize("kind", ["up", "down", "mixed", "none"])
@pytest.mark.parametrize("n", range(1, 17))
def test_recurrence_bytes_equal_the_rescale_every_step_loop(kind, n):
    rng = np.random.default_rng(100 * n + len(kind))
    a, w, m = _recurrence_inputs(kind, n, rng)
    got = _scalar_logdets(a, w, m, 0.7, n)
    want = oracles.scalar_logdets(a, w, m, 0.7, n)
    assert got.shape == want.shape == (4, 8)
    assert got.tobytes() == want.tobytes()
    if kind != "none" and n >= 7:
        # |log D_n| beyond 745 is out of reach of an unrescaled double
        assert np.max(np.abs(got[np.isfinite(got)])) > 745.0


@pytest.mark.parametrize("lam, E", [(1e120, 0.5), (50.0, 1.0), (0.0, 3.0)])
def test_diagonal_only_logdets_equal_the_block_diagonal(maryland, lam, E):
    xs = midpoint_grid(500)
    tab = symbol_tables(maryland, maryland.site_phase(xs[None, :], np.arange(1, 9)[:, None]))
    diag = regularized_blocks(tab, lam, E)[0][..., 0, 0]
    scale = 1.0 / np.sqrt(1.0 + E * E)
    for n in (1, 4, 8):
        want = oracles.scalar_logdets(diag, tab.w[..., 0, 0], tab.m[..., 0], scale, n)
        assert window_logdets(tab, lam, E, n).tobytes() == want.tobytes()


def test_a_first_product_overflow_starts_only_its_rows_over():
    # columns 0-3: |a| near 1e160, so a_2 D_1 is inf; columns 4-7 as in "up"
    n = 6
    a, w, m = _recurrence_inputs("up", n, np.random.default_rng(7))
    a[:, :4] *= 1e40
    with np.errstate(over="ignore"):
        got = _scalar_logdets(a, w, m, 0.7, n)
    want = oracles.scalar_logdets(a[:, 4:], w[:, 4:], m[:, 4:], 0.7, n)
    assert got[:, 4:].tobytes() == want.tobytes()
    # the tridiagonal matrices whose determinants the recurrence expands
    up, low = 0.7 * w[1:] * m[1:], 0.7 * w[1:] * m[:-1]
    for s in range(4):
        for c in range(4):
            t = np.diag(a[s : s + n, c])
            t += np.diag(up[s : s + n - 1, c], 1) + np.diag(low[s : s + n - 1, c], -1)
            assert got[s, c] == pytest.approx(logdet_abs(t), rel=1e-12)


@pytest.mark.parametrize("lam", [1e160, 1e200])
def test_logdet_grid_past_a_first_product_overflow(maryland, lam):
    # from a coupling of about 1e155 on, a_2 D_1 overflows
    xs = np.r_[0.1, 0.3, midpoint_grid(40)]
    with np.errstate(over="ignore"):
        got = logdet_grid(maryland, lam, 1.0, (1, 4), xs)
    want = oracles.logdet_per_node(maryland, lam, 1.0, (1, 4), xs)
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


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
    # the reference is the torus integral on a grid four times finer than xs
    ref = avg_logdet(m, lam, E, N, midpoint_grid(4 * xs.size)).value
    for S in (0.05, 0.5, 5.0):
        rep = deviation_measure(model, lam, E, N, Q, S, 0.3, xs, omega=omega)
        threshold = S * Q ** -0.3
        assert (rep.integral, rep.threshold) == (ref, threshold)
        bad = np.count_nonzero(np.abs(want - rep.integral) >= threshold)
        assert rep.bad_fraction == bad / xs.size
        assert rep.floored == want_floored


# -- transfer matrices ------------------------------------------------------


def test_lyapunov_matches_seed_loop_on_a_pole_orbit(maryland):
    x = 0.25 - 3 * GOLDEN  # site 3 lands on maryland's pole
    energies = np.linspace(-12.0, 12.0, 9)
    got = lyapunov_rates(maryland, 5.0, energies, 3000, x=x)
    assert np.array_equal(got, oracles.lyapunov_rates(maryland, 5.0, energies, 3000, x=x))
    assert oracles.lyapunov_transfer(maryland, 5.0, 0.0, 3000, x=x)[1] >= 1


def test_lyapunov_matches_seed_loop_with_varying_coupling():
    model = random_model(np.random.default_rng(8), l=1, mero=True)
    energies = np.linspace(-4.0, 4.0, 5)
    got = lyapunov_rates(model, 2.0, energies, 1500, x=0.3)
    assert np.array_equal(got, oracles.lyapunov_rates(model, 2.0, energies, 1500, x=0.3))


#: with this chunk and four energies the transfer loop takes 16 steps at a time
SMALL_CHUNK = 64
FOUR_ENERGIES = np.array([-7.5, -0.25, 1.0, 6.0])


def _lyapunov_pair(model, energies, n_steps, x, lam=5.0):
    got = lyapunov_rates(model, lam, energies, n_steps, x=x)
    return got, oracles.lyapunov_rates(model, lam, energies, n_steps, x=x)


@pytest.mark.parametrize("n_steps", [15, 16, 17, 50])
def test_lyapunov_chunks_match_the_seed_loop(maryland, monkeypatch, n_steps):
    # one chunk less a step, one chunk, one chunk and a step, three chunks and a part
    monkeypatch.setattr(localization, "TABLE_CHUNK", SMALL_CHUNK)
    got, want = _lyapunov_pair(maryland, FOUR_ENERGIES, n_steps, 0.1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("pole_step", [15, 16])
def test_lyapunov_skips_a_pole_step_on_a_chunk_boundary(maryland, monkeypatch, pole_step):
    # the last step of the first chunk, or the step right after it
    monkeypatch.setattr(localization, "TABLE_CHUNK", SMALL_CHUNK)
    x = (0.25 - pole_step * maryland.omega) % 1.0
    got, want = _lyapunov_pair(maryland, FOUR_ENERGIES, 40, x)
    assert np.array_equal(got, want)
    assert oracles.lyapunov_transfer(maryland, 5.0, 0.0, 40, x=x)[1] == 1


def test_lyapunov_with_one_used_step(maryland):
    # at omega = 1/4 steps 0 and 2 sit on the poles 1/4 and 3/4 of tan(2 pi x)
    quarter = maryland.with_omega(0.25)
    got, want = _lyapunov_pair(quarter, FOUR_ENERGIES, 3, 0.25)
    assert np.array_equal(got, want)
    assert oracles.lyapunov_transfer(quarter, 5.0, 0.0, 3, x=0.25)[1] == 2


@pytest.mark.parametrize("energies", [np.float64(0.5), np.linspace(-6.0, 6.0, 12).reshape(3, 4)])
def test_lyapunov_keeps_the_shape_of_the_energies(maryland, monkeypatch, energies):
    monkeypatch.setattr(localization, "TABLE_CHUNK", SMALL_CHUNK)
    got, want = _lyapunov_pair(maryland, energies, 100, 0.1)
    assert np.shape(got) == np.shape(energies)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("energies", [FOUR_ENERGIES, np.linspace(-7.0, 7.0, 5)])
@pytest.mark.parametrize("n_steps", [63, 64, 65, 200])
def test_lyapunov_orbit_chunks_match_the_seed_loop(maryland, monkeypatch, energies, n_steps):
    # the orbit goes SMALL_CHUNK steps at a time: a chunk less a step, one
    # chunk, one and a step, three and a part; five energies take product
    # chunks of 12 steps, which end inside an orbit chunk
    monkeypatch.setattr(localization, "TABLE_CHUNK", SMALL_CHUNK)
    got, want = _lyapunov_pair(maryland, energies, n_steps, 0.1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("zero_site", [63, 64, 65])
def test_lyapunov_counts_the_skipped_steps_across_orbit_chunks(maryland, monkeypatch, zero_site):
    # site zero_site sits on the pole at phase 1/4, where a cosine hopping
    # vanishes too: step zero_site - 1 (w_{j+1} ~ 0) and step zero_site go;
    # w_64 is the last phase of the first orbit chunk and the first of the next
    monkeypatch.setattr(localization, "TABLE_CHUNK", SMALL_CHUNK)
    model = maryland._replace(W=((TrigPoly.cosine(),),))
    x = (0.25 - zero_site * model.omega) % 1.0
    got, used = localization._transfer_product(model, 5.0, FOUR_ENERGIES, 150, x)
    assert np.array_equal(got, oracles.lyapunov_rates(model, 5.0, FOUR_ENERGIES, 150, x=x))
    assert used == 150 - oracles.lyapunov_transfer(model, 5.0, 0.0, 150, x=x)[1] == 148


def test_lyapunov_holds_one_orbit_chunk_at_a_time(maryland, monkeypatch):
    # one table over this orbit peaks at 1.2 MiB; 1024 phases at a time, at 0.17 MiB
    monkeypatch.setattr(localization, "TABLE_CHUNK", 1024)
    tracemalloc.start()
    try:
        lyapunov_rates(maryland, 5.0, FOUR_ENERGIES, 10_000, x=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


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
    ht = assemble_regularized(mero2, OperatorParams(lam=10.0, x=0.3, E=1.0, window=(1, 3)))
    a, b = np.indices(ht.shape).reshape(2, -1) + 1
    want = [oracles.minor_logabs(ht, int(i), int(j)) for i, j in zip(a, b)]
    assert minor_logabs(ht, a, b).tolist() == want
    assert minor_logabs(ht, a.reshape(6, 6), b.reshape(6, 6)).ravel().tolist() == want
    got = minor_logabs(ht, 2, 5)
    assert type(got) is float and got == oracles.minor_logabs(ht, 2, 5)
    assert minor_logabs(np.array([[7.0]]), 1, 1) == 0.0
    with pytest.raises(IndexError):
        minor_logabs(ht, np.array([1, 7]), 1)


def test_sliced_minors_equal_one_stacked_call(mero2, monkeypatch):
    ht = assemble_regularized(mero2, OperatorParams(lam=10.0, x=0.3, E=1.0, window=(1, 4)))
    a, b = np.indices(ht.shape).reshape(2, -1) + 1
    whole = minor_logabs(ht, a, b).tolist()
    args = ([1, 3], [10.0, 100.0], [1.0, -5.0])
    sweep = check_minor_bound(mero2, *args, x_count=3, seed=2)
    sampled = check_minor_bound(mero2, *args, x_count=3, pairs_per_instance=5, seed=2)
    slogdet, sizes = np.linalg.slogdet, []

    def sized(mats):
        sizes.append(mats.size)
        return slogdet(mats)

    monkeypatch.setattr(np.linalg, "slogdet", sized)
    for budget in (1, 49, 50, 7 * 49 + 3):
        monkeypatch.setattr("qpjacobi.greens.STACK_CHUNK", budget)
        sizes.clear()
        assert minor_logabs(ht, a, b).tolist() == whole
        # each call stays within the budget, or holds one matrix if that exceeds it
        assert sum(sizes) == 64 * 49 and max(sizes) == max(49, budget - budget % 49)
        assert minor_logabs(ht, a.reshape(8, 8), b.reshape(8, 8)).ravel().tolist() == whole
        assert minor_logabs(ht, 2, 5) == whole[1 * 8 + 4]
        assert check_minor_bound(mero2, *args, x_count=3, seed=2) == sweep
        assert check_minor_bound(mero2, *args, x_count=3, pairs_per_instance=5, seed=2) == sampled


@pytest.mark.parametrize(
    "budget", [1 << 18, greens.STACK_CHUNK, 3 * 64 * 49, 64 * 49 - 1, 5 * 49, 1]
)
def test_stacked_minors_equal_per_matrix_calls(mero2, monkeypatch, budget):
    stack = np.array([
        [
            assemble_regularized(mero2, OperatorParams(lam=lam, x=x, E=1.0, window=(1, 4)))
            for x in (0.1, 0.3, 0.7)
        ]
        for lam in (10.0, 100.0)
    ])
    stack[1, 2, :, 0] = 0.0  # a singular matrix
    a, b = np.indices((8, 8)).reshape(2, -1) + 1
    pairs = [(2, 5), (a, b), (a.reshape(4, 16), b.reshape(4, 16)), (np.array([[3], [8]]), a[:5])]
    want = [
        [[oracles.minor_logabs(m, i, j) for i, j in zip(*map(np.ravel, np.broadcast_arrays(*pair)))]
         for m in stack.reshape(6, 8, 8)]
        for pair in pairs
    ]
    slogdet, shapes = np.linalg.slogdet, []

    def sized(mats):
        shapes.append(mats.shape)
        return slogdet(mats)

    monkeypatch.setattr(np.linalg, "slogdet", sized)
    monkeypatch.setattr("qpjacobi.greens.STACK_CHUNK", budget)
    for pair, rows in zip(pairs, want):
        shape = np.broadcast(*pair).shape
        one = [minor_logabs(m, *pair) for m in stack.reshape(6, 8, 8)]
        assert [np.ravel(v).tolist() for v in one] == rows
        shapes.clear()
        got = minor_logabs(stack, *pair)
        assert got.shape == (2, 3) + shape
        assert got.reshape(6, -1).tolist() == rows
        # every call stays within the budget, or holds one submatrix if that exceeds it
        assert sum(k for k, _, _ in shapes) == 6 * len(rows[0])
        assert all(k * 49 <= max(budget, 49) for k, _, _ in shapes)
        assert minor_logabs(stack.reshape(6, 8, 8), *pair).reshape(6, -1).tolist() == rows
    # the zero first column leaves only the minors that delete it (alpha = 1) finite
    assert np.isfinite(want[1][5][:8]).all() and want[1][5][8:] == [float("-inf")] * 56
    if budget == 3 * 64 * 49:
        shapes.clear()
        minor_logabs(stack, a, b)
        assert shapes == [(3 * 64, 7, 7)] * 2


def test_stacked_minors_of_order_one_and_bad_arguments():
    stack = np.array([[[7.0]], [[0.0]], [[-2.0]]])
    assert minor_logabs(stack, 1, 1).tolist() == [0.0] * 3
    assert minor_logabs(stack, np.ones((2, 2), dtype=int), 1).shape == (3, 2, 2)
    with pytest.raises(ValueError, match="square"):
        minor_logabs(np.ones((2, 3, 4)), 1, 1)
    with pytest.raises(ValueError, match="square"):
        minor_logabs(np.ones(3), 1, 1)
    with pytest.raises(IndexError):
        minor_logabs(np.ones((2, 3, 3)), np.array([1, 4]), 1)
    with pytest.raises(IndexError):
        minor_logabs(np.ones((2, 3, 3)), 1, 0)


def test_benchmark_sized_minor_instance_is_one_slogdet_call(maryland, monkeypatch):
    shapes = []
    slogdet = np.linalg.slogdet

    def counted(mats):
        shapes.append(mats.shape)
        return slogdet(mats)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    check_minor_bound(maryland, [16], [10.0], [1.0], x_count=2)
    # each x is one call: its 256 * 15**2 elements fit in STACK_CHUNK, two do not
    assert shapes == [(256, 15, 15)] * 2


def test_a_full_minor_sweep_holds_under_2_mib(maryland, mero2):
    # the benchmark sweeps: a few slogdet stacks of STACK_CHUNK doubles
    # (512 KiB each) and the rows of the sweep
    for model, N, x_count in ((maryland, [4, 8, 16], 16), (mero2, [4, 8], 8)):
        tracemalloc.start()
        try:
            check_minor_bound(model, N, [10.0, 100.0, 1000.0], [1.0, 10.0, 100.0], x_count=x_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21, model.l


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

    def fake_minors(hts, a, b):
        calls.append((a.tolist(), b.tolist()))
        return np.array([[L, 0.0, 0.0, L - 1.0]])  # one row per instance

    monkeypatch.setattr("qpjacobi.greens.minor_logabs", fake_minors)
    rep = check_minor_bound(maryland, [2], [1.0], [1.0], x_count=1)
    assert calls == [([1, 1, 2, 2], [1, 2, 1, 2])]
    (row,) = rep.sweep["rows"]
    assert row[4] == L / 2 and row[5] == L / 2 - np.log1p(1.0)


def test_minor_sweep_evaluates_one_symbol_table(maryland, monkeypatch):
    calls = []

    def counted(model, phases):
        calls.append(np.shape(phases))
        return symbol_tables(model, phases)

    monkeypatch.setattr("qpjacobi.greens.symbol_tables", counted)
    check_minor_bound(maryland, [4, 8, 2], [10.0, 100.0], [1.0, 1e-9, 2.0], x_count=3)
    assert calls == [(8, 3)]


@pytest.mark.parametrize("N_list", [[0], [4, -2]])
def test_minor_sweep_rejects_a_window_without_sites(maryland, N_list):
    with pytest.raises(ValueError, match="N >= 1"):
        check_minor_bound(maryland, N_list, [10.0], [1.0], x_count=2)


# -- batched Green-decay scan -----------------------------------------------


def _bits(records):
    return [(r.shift, r.status, r.slack.hex(), r.resonant) for r in records]


def _window_h(model, lam, x0, N0, shifts):
    """The H of the windows of `shifts`, each assembled on its own, stacked."""
    return np.stack([
        assemble_hamiltonian(model, OperatorParams(lam=lam, x=x0, E=0.0, window=(j - N0, j + N0)))
        for j in shifts
    ])


def _near_singular_energy(maryland):
    params = OperatorParams(lam=20.0, x=0.1, E=0.0, window=(-5, 11))
    evals = np.linalg.eigvalsh(assemble_hamiltonian(maryland, params))
    return float(evals[np.argmin(np.abs(evals - 0.4))])


# model, lam, E, x0, N0, shifts, and a status the scan must meet (x0 None: a
# pole at site 5; E None: an eigenvalue of one window)
SCANS = {
    "maryland": ("maryland", 20.0, 0.5, 0.1, 8, range(-40, 40), "good"),
    "pole_orbit": ("maryland", 20.0, 0.5, None, 4, range(-8, 12), "pole"),
    "mero2": ("mero2", 20.0, 0.5, 0.11, 6, range(-30, 31), "good"),
    "analytic2": ("analytic2", 5.0, 0.3, 0.2, 6, range(-20, 21), "good"),
    "near_singular": ("maryland", 20.0, None, 0.1, 8, range(0, 7), "near_singular"),
}


@pytest.mark.parametrize("case", SCANS)
def test_scan_equals_the_per_window_oracle(request, monkeypatch, case):
    name, lam, E, x0, N0, shifts, met = SCANS[case]
    model = request.getfixturevalue(name)
    if x0 is None:
        x0 = (0.25 - 5.0 * model.omega) % 1.0
    if E is None:
        E = _near_singular_energy(model)
    records, c11, counts = oracles.green_decay_scan(model, lam, E, x0, N0, shifts)
    assert counts[met] > 0
    live = [r.shift for r in records if r.status != "pole"]
    left_open = {j for j in live if oracles.norm_bound_leaves_open(model, lam, E, x0, N0, j)}
    # the bound settles no resonant window
    assert {r.shift for r in records if r.resonant} <= left_open
    stacks = counted_eigvalsh(monkeypatch)
    size = ((2 * N0 + 1) * model.l) ** 2
    for per_chunk in (1, 3, localization.STACK_CHUNK // size):
        monkeypatch.setattr("qpjacobi.localization.STACK_CHUNK", per_chunk * size + size - 1)
        stacks.clear()
        rep = green_decay_scan(model, lam, E, x0, N0, shifts)
        assert _bits(rep.records) == _bits(records)
        assert rep.c11 == c11 and rep.counts == counts
        assert rep.eigensolved == len(left_open)
        # one eigvalsh stack per chunk that leaves a window open, holding
        # exactly the H of those windows
        chunks = [live[s : s + per_chunk] for s in range(0, len(live), per_chunk)]
        want = [[j for j in c if j in left_open] for c in chunks]
        want = [w for w in want if w]
        assert [len(h) for h in stacks] == [len(w) for w in want]
        for h, w in zip(stacks, want):
            assert np.array_equal(h, _window_h(model, lam, x0, N0, w))


GREEN_CASES = pytest.mark.parametrize("name, lam, E, x", [
    ("maryland", 20.0, 0.5, 0.1),
    ("maryland", 2.0, 1.5, 0.21),
    ("mero2", 20.0, 0.5, 0.11),
    ("mero2", 3.0, 0.7, 0.31),
])
GREEN_SITES = pytest.mark.parametrize("sites", [17, 33, 129, 201])


@GREEN_CASES
@GREEN_SITES
def test_green_full_equals_the_lu_oracle(request, name, lam, E, x, sites):
    model = request.getfixturevalue(name)
    params = OperatorParams(lam=lam, x=x, E=E, window=(-(sites // 2), sites // 2))
    assert np.array_equal(green_solve(model, params)[0], oracles.green_full(model, params))


@GREEN_CASES
@GREEN_SITES
def test_green_full_agrees_with_scipy_lu(request, name, lam, E, x, sites):
    # another LAPACK build may differ in the last bits, never in a zero entry
    # or in log|G| beyond 1e-9 (at most 3.9e-11 measured, and only for mero2
    # at lam 3 with 129 and 201 sites)
    model = request.getfixturevalue(name)
    params = OperatorParams(lam=lam, x=x, E=E, window=(-(sites // 2), sites // 2))
    got, want = np.abs(green_solve(model, params)[0]), np.abs(oracles.green_scipy_lu(model, params))
    assert np.array_equal(got == 0.0, want == 0.0)
    nonzero = got != 0.0
    assert np.max(np.abs(np.log(got[nonzero]) - np.log(want[nonzero]))) <= 1e-9


def test_an_exactly_singular_window_fails_alone(maryland, monkeypatch):
    args = (maryland, 20.0, 0.5, 0.1, 4, range(-3, 4))
    ref = green_decay_scan(*args)
    records = oracles.green_decay_scan(*args)[0]
    blocks, inv, solves = greens.regularized_blocks, np.linalg.inv, []

    def singular_second_window(tab, lam, E):
        diag, lower, upper = blocks(tab, lam, E)
        for b in (diag, lower, upper):
            b[:, 1] = 0.0
        return diag, lower, upper

    def counted(a):
        solves.append(a.shape)
        return inv(a)

    monkeypatch.setattr("qpjacobi.greens.regularized_blocks", singular_second_window)
    monkeypatch.setattr(np.linalg, "inv", counted)
    stacks = counted_eigvalsh(monkeypatch)
    got = green_decay_scan(*args, c11=ref.c11)
    # one stacked inverse meets the zero matrix, then each window is inverted alone
    assert solves == [(7, 9, 9)] + [(9, 9)] * 7
    assert got.records[1].status == "near_singular" and got.counts["near_singular"] == 1
    # its NaN inverse leaves only it to the eigensolve, which decides as the oracle does
    assert ref.eigensolved == 0 and got.eigensolved == 1
    assert len(stacks) == 1 and np.array_equal(stacks[0], _window_h(maryland, 20.0, 0.1, 4, [-2]))
    assert got.records[1].resonant == ref.records[1].resonant == records[1].resonant
    others = [r for k, r in enumerate(got.records) if k != 1]
    assert _bits(others) == _bits(r for k, r in enumerate(ref.records) if k != 1)
