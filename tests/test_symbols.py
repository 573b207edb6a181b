import functools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpjacobi.errors import AllDegenerate, DegenerateSymbol, PoleProximity
from qpjacobi.symbols import (
    DEFAULT_POLE_TOL,
    BlockModel,
    Dioph,
    MeroScalar,
    TrigPoly,
    check_nondegeneracy,
    is_diophantine,
    locate_zeros,
    reduce_phase,
    symbol_tables,
)

from conftest import GOLDEN, random_trig
from oracles import trig_product, trig_sum


def tan_symbol():
    return MeroScalar.from_ratio(TrigPoly.sine(), TrigPoly.cosine())


#: signed zeros, integers, the edge of exact integers, huge values, the
#: fractional parts next to 0 and 1, and negatives so small that x + 1
#: rounds to 1.0
EDGE_PHASES = (
    0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 0.5, -0.5,
    2.0**52 + 0.5, -(2.0**52) - 0.5, 2.0**53, -(2.0**53), 1e300, -1e300,
    1.0 - 2.0**-53, -(1.0 - 2.0**-53), 2.0**-53, -(2.0**-53), -(2.0**-54), -1e-20,
    5e-324, -5e-324,
)


def _bytes(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _examples(values):
    return lambda test: functools.reduce(lambda t, x: example(x)(t), values, test)


class TestReducePhase:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @_examples(EDGE_PHASES)
    def test_equals_np_mod_by_bytes(self, x):
        assert _bytes(reduce_phase(x)) == _bytes(np.mod(x, 1.0))
        arr = np.array([x, -x, x + 0.5])
        assert _bytes(reduce_phase(arr)) == _bytes(np.mod(arr, 1.0))

    def test_random_doubles_equal_np_mod_by_bytes(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64)
        scaled = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.integers(-40, 20, 100_000)
        for x in (bits[np.isfinite(bits)], -bits[np.isfinite(bits)], scaled):
            assert _bytes(reduce_phase(x)) == _bytes(np.mod(x, 1.0))

    def test_a_scalar_gives_a_float(self):
        assert type(reduce_phase(2.75)) is float and reduce_phase(2.75) == 0.75
        assert type(reduce_phase(np.float64(-0.25))) is float
        assert reduce_phase(-1e-20) == 1.0
        model = BlockModel([[TrigPoly.constant(1.0)]], [[tan_symbol()]], [[tan_symbol()]],
                           GOLDEN, Dioph(2.0, 0.1))
        assert type(model.site_phase(0.1, 3)) is float


class TestTrigPoly:
    def test_constant(self):
        p = TrigPoly.constant(1.0)
        assert p(0.37) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_values(self):
        p = TrigPoly.cosine()
        assert p(0.0) == pytest.approx(1.0, abs=1e-15)
        assert p(1.0 / 6.0) == pytest.approx(0.5, abs=1e-15)

    @given(
        st.dictionaries(
            st.integers(-4, 4),
            st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t)),
            max_size=6,
        ),
        st.floats(0, 1, exclude_max=True),
    )
    def test_hermitian_symmetrization_gives_real_values(self, raw, x):
        p = TrigPoly(raw)
        for k, c in p.items():
            assert p.coeff(-k) == c.conjugate()
        assert abs(complex(p.eval_complex(x)).imag) < 1e-12

    def test_vectorized_eval(self):
        p = TrigPoly.cosine()
        xs = np.array([0.0, 1.0 / 6.0, 0.25])
        assert np.allclose(p(xs), [1.0, 0.5, 0.0], atol=1e-12)


class TestMeroScalar:
    def test_tan_values(self):
        t = tan_symbol()
        assert t(1.0 / 8.0) == pytest.approx(1.0, abs=1e-12)
        assert t(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_tan_pole(self):
        with pytest.raises(PoleProximity):
            tan_symbol()(0.25)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateSymbol):
            MeroScalar.from_ratio(TrigPoly.sine(), TrigPoly.zero())

    def test_pole_guard_matches_denominator_magnitude(self):
        t = tan_symbol()
        for x in np.linspace(0.2, 0.3, 41):
            d = abs(t.den(x))
            if d < DEFAULT_POLE_TOL:
                with pytest.raises(PoleProximity):
                    t(float(x))
            else:
                t(float(x))


class TestLocateZeros:
    def test_cosine_zeros(self):
        zeros = locate_zeros(TrigPoly.cosine())
        assert len(zeros) == 2
        assert zeros[0] == pytest.approx(0.25, abs=1e-9)
        assert zeros[1] == pytest.approx(0.75, abs=1e-9)
        den = TrigPoly.cosine()
        assert all(abs(den(z)) <= 1e-10 for z in zeros)

    def test_constant_has_no_zeros(self):
        assert locate_zeros(TrigPoly.constant(1.0)) == ()

    def test_zero_symbol_rejected(self):
        with pytest.raises(DegenerateSymbol):
            locate_zeros(TrigPoly.zero())

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_against_fine_grid_scan(self, seed):
        rng = np.random.default_rng(seed)
        den = trig_sum(random_trig(rng, 3), TrigPoly.cosine(k=3))
        zeros = locate_zeros(den)
        # brute-force oracle: sign changes on a million-point grid
        xs = np.arange(1_000_000) / 1_000_000
        vals = den(xs)
        flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        oracle = (xs[flips] + xs[flips + 1]) / 2.0
        if vals[-1] * vals[0] < 0:
            oracle = np.append(oracle, (xs[-1] + 1.0) / 2.0 % 1.0)
        assert len(zeros) == len(oracle)
        for z in zeros:
            gap = np.min(np.minimum(np.abs(oracle - z), 1.0 - np.abs(oracle - z)))
            assert gap < 2e-6


def mp_zeros(den):
    """Phases of the roots of z^d * den on the unit circle, from mpmath at 50 digits."""
    d = den.degree
    coeffs = [mpmath.mpc(den.coeff(k).real, den.coeff(k).imag) for k in range(d, -d - 1, -1)]
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=300)
        return sorted(
            float(mpmath.arg(z) / (2 * mpmath.pi) % 1) for z in roots if abs(abs(z) - 1) < 1e-6
        )


def _circle_gap(a, b):
    gap = abs(a - b) % 1.0
    return min(gap, 1.0 - gap)


class TestLocateZerosAgainstMpmath:
    def test_exact_cosine_and_sine_zeros(self):
        assert locate_zeros(TrigPoly.cosine()) == (0.25, 0.75)
        assert locate_zeros(TrigPoly.sine()) == (0.0, 0.5)

    def test_zero_at_phase_zero_stays_in_the_unit_interval(self):
        # the root at z = 1 comes out with a tiny negative angle, whose phase
        # np.mod rounds up to 1.0
        two_plus_cos = trig_sum(TrigPoly.constant(2.0), TrigPoly.cosine(shift=0.1))
        den = trig_product(TrigPoly.sine(), two_plus_cos)
        assert locate_zeros(den) == (0.0, 0.5)

    @pytest.mark.parametrize("seed", [3, 11, 42])  # the denominators of test_against_fine_grid_scan
    def test_simple_zeros(self, seed):
        rng = np.random.default_rng(seed)
        den = trig_sum(random_trig(rng, 3), TrigPoly.cosine(k=3))
        zeros, want = locate_zeros(den), mp_zeros(den)
        assert len(zeros) == len(want)
        assert max((_circle_gap(z, w) for z, w in zip(zeros, want)), default=0.0) <= 1e-12

    def test_close_pair(self):
        # two simple zeros 4.5e-5 apart: one cell of a 4096-point scan holds both
        den = trig_sum(TrigPoly.cosine(shift=0.123), TrigPoly.constant(-0.99999999))
        zeros, want = locate_zeros(den), mp_zeros(den)
        assert len(zeros) == len(want) == 2
        assert max(_circle_gap(z, w) for z, w in zip(zeros, want)) <= 1e-12

    def test_tangential_zero_listed_twice(self):
        den = trig_sum(TrigPoly.constant(1.0), TrigPoly.cosine(amp=-1.0, shift=0.123))
        zeros, want = locate_zeros(den), mp_zeros(den)
        assert len(zeros) == len(want) == 2
        assert max(_circle_gap(z, w) for z, w in zip(zeros, want)) <= 1e-7
        assert max(_circle_gap(z, 0.123) for z in zeros) <= 1e-7

    def test_double_zeros_of_a_square(self):
        rng = np.random.default_rng(7)
        p = trig_sum(random_trig(rng, 2), TrigPoly.cosine(k=2))
        simple = locate_zeros(p)
        zeros, want = locate_zeros(trig_product(p, p)), mp_zeros(trig_product(p, p))
        assert simple and len(zeros) == len(want) == 2 * len(simple)
        assert max(_circle_gap(z, w) for z, w in zip(zeros, want)) <= 1e-7
        assert max(_circle_gap(z, s) for z, s in zip(zeros, np.repeat(simple, 2))) <= 1e-7

    def test_near_tangential_without_zeros(self):
        den = trig_sum(TrigPoly.cosine(shift=0.123), TrigPoly.constant(-1.0000001))
        assert locate_zeros(den) == () and mp_zeros(den) == []

    def test_large_coefficients_keep_their_zeros(self):
        den = trig_sum(TrigPoly.cosine(k=3, amp=1e6, shift=0.1), TrigPoly.constant(1e6 * 0.3))
        zeros, want = locate_zeros(den), mp_zeros(den)
        assert len(zeros) == len(want) == 6
        assert max(_circle_gap(z, w) for z, w in zip(zeros, want)) <= 1e-12


class TestDiophantine:
    def test_golden_ratio_passes(self):
        chk = is_diophantine(GOLDEN, 2.0, 0.1, 10_000)
        assert chk.ok

    def test_rational_fails_at_denominator(self):
        chk = is_diophantine(1.0 / 3.0, 2.0, 0.1, 100)
        assert not chk.ok
        assert chk.worst_k == 3

    def test_zero_rotation_fails_immediately(self):
        chk = is_diophantine(0.0, 2.0, 0.1, 100)
        assert not chk.ok
        assert chk.worst_k == 1

    @pytest.mark.parametrize(
        "A, C0, Kmax, message",
        [
            (2.0, 0.1, 0, "^Kmax must be >= 1$"),
            (2.0, 0.1, 0.5, "^Kmax must be >= 1$"),
            (1.0, 0.1, 100, r"^require A > 1 and C0 > 0$"),
            (0.5, 0.1, 100, r"^require A > 1 and C0 > 0$"),
            (2.0, 0.0, 100, r"^require A > 1 and C0 > 0$"),
        ],
    )
    def test_bad_arguments_rejected(self, A, C0, Kmax, message):
        with pytest.raises(ValueError, match=message):
            is_diophantine(GOLDEN, A, C0, Kmax)

    @given(
        st.floats(0.01, 0.99),
        st.floats(1.5, 3.0),
        st.floats(0.01, 0.5),
        st.floats(0.1, 0.99),
    )
    @settings(max_examples=30)
    def test_monotone_in_c0(self, omega, A, c0, shrink):
        big = is_diophantine(omega, A, c0, 200)
        small = is_diophantine(omega, A, c0 * shrink, 200)
        if big.ok:
            assert small.ok


def _denominator_model():
    # F denominators (cos, 1), R denominators (1, cos)
    one = TrigPoly.constant(1.0)
    zero = TrigPoly.zero()
    f0 = MeroScalar.from_ratio(TrigPoly.sine(), TrigPoly.cosine())
    f1 = MeroScalar.from_ratio(TrigPoly.sine())
    r0 = MeroScalar.from_ratio(TrigPoly.zero())
    r1 = MeroScalar.from_ratio(TrigPoly.zero(), TrigPoly.cosine())
    return BlockModel(
        W=[[one, zero], [zero, one]],
        R=[[r0, zero], [zero, r1]],
        F=[[f0, zero], [zero, f1]],
        omega=GOLDEN,
        dioph=Dioph(2.0, 0.1),
    )


class TestValueTypes:
    """BlockModel validates on every construction and compares by value;
    SymbolTables is an object with identity equality."""

    def test_every_construction_path_validates_and_normalizes(self, maryland):
        assert maryland.with_omega(1.25).omega == 0.25
        assert maryland._replace(omega=-0.75).omega == 0.25
        assert maryland._replace(W=[[TrigPoly.zero()]]).W == ((TrigPoly.zero(),),)
        with pytest.raises(ValueError):
            maryland._replace(F=[[TrigPoly.zero()]])
        with pytest.raises(ValueError, match="^block size l must be >= 1$"):
            BlockModel._make(((), (), (), *maryland[3:]))

    @pytest.mark.parametrize(
        "field, grid, message",
        [
            ("W", lambda m: [[m.W[0][0]]], r"^W must be an 2x2 grid of symbols$"),
            ("R", lambda m: [m.R[0], m.R[1][:1]], r"^R must be an 2x2 grid of symbols$"),
            ("F", lambda m: [[m.F[0][0], m.F[1][1]], list(m.F[1])],
             r"^F\[0\]\[1\] must be a TrigPoly$"),
            ("W", lambda m: [[m.W[0][0], TrigPoly.constant(0.25)], list(m.W[1])],
             r"^W is not symmetric at \(0,1\)$"),
        ],
    )
    def test_malformed_grid_rejected(self, mero2, field, grid, message):
        with pytest.raises(ValueError, match=message):
            mero2._replace(**{field: grid(mero2)})

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_rotation_is_rejected(self, maryland, omega):
        with pytest.raises(ValueError, match="^omega must be finite$"):
            maryland.with_omega(omega)

    @pytest.mark.parametrize("pole_tol", [np.nan, np.inf, 0.0, -1e-8])
    def test_pole_tol_must_be_finite_and_positive(self, maryland, pole_tol):
        # a NaN pole_tol would compare false with every denominator and so
        # turn the pole guard off
        with pytest.raises(ValueError, match="^pole_tol must be finite and > 0$"):
            maryland._replace(pole_tol=pole_tol)

    def test_equal_fields_compare_and_hash_equal(self, mero2):
        again = BlockModel(*mero2)
        assert again is not mero2 and again == mero2 and hash(again) == hash(mero2)
        f = mero2.F[0][0]
        assert MeroScalar(*f) == f and hash(MeroScalar(*f)) == hash(f)
        assert hash(Dioph(2.0, 0.1)) == hash(Dioph(2.0, 0.1))
        assert mero2.with_omega(0.5) != mero2

    def test_symbol_tables_slice_phases_and_compare_by_identity(self, mero2):
        tab = symbol_tables(mero2, np.array([0.1, 0.2]))
        assert not isinstance(tab, tuple)
        assert tab == tab and tab[:] != tab
        assert tab[1:].phases.tolist() == [0.2] and tab[1:].w.shape == (1, 2, 2)
        with pytest.raises(AttributeError):
            tab.w = None


class TestRegularizerDiag:
    def test_maryland_values(self, maryland):
        assert np.allclose(np.diag(maryland.m_values(0.0)), [[1.0]], atol=1e-15)
        assert np.allclose(np.diag(maryland.m_values(0.25)), [[0.0]], atol=1e-12)

    def test_block_denominator_products(self):
        m = _denominator_model()
        d = np.diag(m.m_values(1.0 / 6.0))
        assert np.allclose(np.diag(d), [0.5, 0.5], atol=1e-12)
        assert np.allclose(d, np.diag(np.diag(d)))

    def test_product_of_diagonal_evaluations(self, mero2):
        rng = np.random.default_rng(5)
        for x in rng.uniform(size=100):
            got = mero2.m_values(x)
            want = [
                mero2.F[i][i].den(x) * mero2.R[i][i].den(x) for i in range(mero2.l)
            ]
            assert np.max(np.abs(got - np.array(want))) <= 1e-14


class TestNondegeneracy:
    def test_maryland_witnesses(self, maryland):
        xs = np.arange(4096) / 4096
        rep = check_nondegeneracy(maryland, [-1.0, 0.0, 1.0], xs)
        assert rep.ok
        assert all(x is not None for _, x, _ in rep.witnesses)

    def test_constant_multiple_of_identity_degenerates(self):
        t0 = 0.8
        f = MeroScalar.from_ratio(TrigPoly.constant(t0))
        r = MeroScalar.from_ratio(TrigPoly.zero())
        model = BlockModel(
            W=[[TrigPoly.constant(1.0)]], R=[[r]], F=[[f]],
            omega=GOLDEN, dioph=Dioph(2.0, 0.1),
        )
        xs = np.arange(512) / 512
        with pytest.raises(AllDegenerate) as err:
            check_nondegeneracy(model, [t0], xs)
        assert err.value.failed == (t0,)
        # other t values pass
        assert check_nondegeneracy(model, [t0 + 0.5], xs).ok

    @pytest.mark.parametrize("ts, xs", [([], [0.1, 0.2]), ([0.0], []), ([], [])])
    def test_empty_grid_rejected(self, maryland, ts, xs):
        with pytest.raises(ValueError, match="^t_grid and x_grid must be nonempty$"):
            check_nondegeneracy(maryland, ts, xs)

    def test_agrees_with_dense_scan(self):
        rng = np.random.default_rng(17)
        from conftest import random_model

        model = random_model(rng, l=2, mero=True)
        ts = [-1.0, 0.0, 1.0]
        coarse = check_nondegeneracy(model, ts, np.arange(1024) / 1024)
        dense = check_nondegeneracy(model, ts, np.arange(100_000) / 100_000)
        assert coarse.ok == dense.ok
