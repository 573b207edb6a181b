"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from qpjacobi.ergodic import deviation_measure, ldt_decay_fit
from qpjacobi.greens import (
    avg_logdet,
    check_det_lower_bound,
    check_minor_bound,
    green_solve,
    midpoint_grid,
    minor_logabs,
)
from qpjacobi.localization import (
    decay_fit,
    eigensolve,
    green_decay_scan,
    localize,
    lyapunov_rates,
    resolvent_patch_check,
)
from qpjacobi.operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
)

import oracles
from conftest import band_blocks, pole_free_x, random_model, well_conditioned_params


def _verdict(number, description, checks, started, limit_s):
    elapsed = time.perf_counter() - started
    ok = all(bool(c) for c in checks)
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {description} "
          f"({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit_s, f"criterion {number} exceeded its runtime limit"


def test_criterion_1_cramer_minor_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    instances = 0
    while instances < 200:
        model = random_model(rng)
        n = int(rng.integers(2, 20 // model.l + 1))
        params = well_conditioned_params(model, rng, (1, n))
        ht = assemble_regularized(model, params)
        inv = np.linalg.inv(ht)
        det = abs(np.linalg.det(ht))
        nl = ht.shape[0]
        for _ in range(3):
            a = int(rng.integers(1, nl + 1))
            b = int(rng.integers(1, nl + 1))
            lhs = abs(inv[a - 1, b - 1]) * det
            rhs = math.exp(minor_logabs(ht, a, b))
            worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-30))
        instances += 1
    _verdict(
        1,
        f"inverse-entry times determinant equals minor (worst rel err {worst:.2e})",
        [worst <= 1e-8],
        started,
        10.0,
    )


def test_criterion_2_regularized_route_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        n = int(rng.integers(2, 32 // model.l + 1))
        params = well_conditioned_params(model, rng, (1, n))
        g = green_solve(model, params)[0]
        h = assemble_hamiltonian(model, params)
        direct = np.linalg.inv(h - params.E * np.eye(h.shape[0]))
        worst = max(worst, np.max(np.abs(g - direct)) / np.max(np.abs(direct)))
    _verdict(
        2,
        f"regularized Green route equals direct inverse (worst rel err {worst:.2e})",
        [worst <= 1e-9],
        started,
        30.0,
    )


def test_criterion_3_minor_upper_bound(maryland):
    started = time.perf_counter()
    per_n = {}
    for lam in (10.0, 100.0, 1000.0):
        rep = check_minor_bound(
            maryland, [4, 8, 16], [lam], [1.0, math.sqrt(lam), lam], x_count=16
        )
        for key, val in rep.group_constants.items():
            per_n[key] = max(per_n.get(key, float("-inf")), val)
    vals = list(per_n.values())
    spread = (max(vals) - min(vals)) / max(abs(v) for v in vals)
    _verdict(
        3,
        f"minor-bound constant finite and stable in N (per-N {per_n}, spread {spread:.2f})",
        [all(np.isfinite(v) for v in vals), spread < 0.5],
        started,
        300.0,
    )


def test_criterion_4_determinant_lower_bound(maryland):
    started = time.perf_counter()
    # closed form at a single site: torus average of log|sin| is -log 2,
    # confirmed by a million-node oracle quadrature before the 4096-node check
    oracle = avg_logdet(maryland, 1.0, 0.0, 1, midpoint_grid(1_000_000)).value
    oracle_ok = abs(oracle - (-math.log(2.0))) <= 1e-4
    closed_ok = True
    for lam in (math.e, 10.0, 1000.0):
        got = avg_logdet(maryland, lam, 0.0, 1, midpoint_grid(4096)).value
        closed_ok = closed_ok and abs(got - (math.log(lam) - math.log(2.0))) <= 1e-3
    rep = check_det_lower_bound(
        maryland, [100.0, 200.0, 1000.0, 2000.0], [0.5], [4, 16], midpoint_grid(1024)
    )
    drift_100 = abs(
        rep.group_constants["lambda=200"] - rep.group_constants["lambda=100"]
    ) / abs(rep.group_constants["lambda=100"])
    drift_1000 = abs(
        rep.group_constants["lambda=2000"] - rep.group_constants["lambda=1000"]
    ) / abs(rep.group_constants["lambda=1000"])
    _verdict(
        4,
        f"determinant lower bound (C1 {rep.fitted_constant:.3f}, doubling drift "
        f"{max(drift_100, drift_1000):.4f})",
        [oracle_ok, closed_ok, rep.fitted_constant < 5.0, drift_100 < 0.1, drift_1000 < 0.1],
        started,
        120.0,
    )


def test_criterion_4_determinant_lower_bound_mero2(mero2):
    # the block model has no closed form; the bound and its stability are checked.
    # The model measures C1 1.143 and drift 0.0014 / 0.0003; an operator that
    # drops lam from its diagonal numerators (C1 3.44, drift 0.0120) or swaps
    # F and R on the diagonal (C1 2.30, drift 0.0131) must fail.
    started = time.perf_counter()
    rep = check_det_lower_bound(
        mero2, [100.0, 200.0, 1000.0, 2000.0], [0.5], [4, 16], midpoint_grid(1024)
    )
    drift_100 = abs(
        rep.group_constants["lambda=200"] - rep.group_constants["lambda=100"]
    ) / abs(rep.group_constants["lambda=100"])
    drift_1000 = abs(
        rep.group_constants["lambda=2000"] - rep.group_constants["lambda=1000"]
    ) / abs(rep.group_constants["lambda=1000"])
    excluded = sum(row[5] for row in rep.sweep["rows"])
    _verdict(
        4,
        f"mero2 determinant lower bound (C1 {rep.fitted_constant:.3f}, doubling drift "
        f"{drift_100:.4f} / {drift_1000:.4f}, {excluded} excluded nodes)",
        [rep.fitted_constant < 2.0, drift_100 < 0.005, drift_1000 < 0.005],
        started,
        120.0,
    )


def test_criterion_5_large_deviations(maryland):
    started = time.perf_counter()
    grid = midpoint_grid(2000)
    ladder = (10, 32, 100, 316, 1000)
    golden = [
        deviation_measure(maryland, 50.0, 1.0, 4, Q, 1.0, 0.3, grid).bad_fraction
        for Q in ladder
    ]
    rational = [
        deviation_measure(maryland, 50.0, 1.0, 4, Q, 1.0, 0.3, grid, omega=0.5).bad_fraction
        for Q in ladder
    ]
    golden_monotone = all(b2 <= b1 for b1, b2 in zip(golden, golden[1:]))
    rational_decays = (
        all(b2 <= b1 for b1, b2 in zip(rational, rational[1:]))
        and rational[-1] < rational[0]
    )
    _verdict(
        5,
        f"large-deviation fractions golden {golden} vs rational {rational}",
        [golden_monotone, not rational_decays],
        started,
        300.0,
    )


def test_criterion_5_bad_set_decay_fit(maryland):
    # at S = 0.1 the golden bad fractions stay off zero, so the fit can fail
    started = time.perf_counter()
    grid = midpoint_grid(1000)
    ladder = (10, 32, 100, 316)
    golden = [deviation_measure(maryland, 50.0, 1.0, 4, Q, 0.1, 0.3, grid) for Q in ladder]
    rational = [
        deviation_measure(maryland, 50.0, 1.0, 4, Q, 0.1, 0.3, grid, omega=0.5) for Q in ladder
    ]
    fractions = [r.bad_fraction for r in golden]
    c10, golden_monotone = ldt_decay_fit(golden)
    _, rational_monotone = ldt_decay_fit(rational)
    _verdict(
        5,
        f"bad-set decay at S=0.1: golden {fractions} (c10 {c10:.2f}) vs rational "
        f"{[r.bad_fraction for r in rational]}",
        [
            all(b2 < b1 for b1, b2 in zip(fractions, fractions[1:])),
            golden_monotone,
            c10 > 0.0,
            not rational_monotone,
        ],
        started,
        60.0,
    )


def test_criterion_5_bad_set_decay_fit_mero2(mero2):
    # the block model through the same S = 0.1 ladder as maryland
    started = time.perf_counter()
    grid = midpoint_grid(1000)
    ladder = (10, 32, 100, 316)
    golden = [deviation_measure(mero2, 50.0, 1.0, 4, Q, 0.1, 0.3, grid) for Q in ladder]
    rational = [
        deviation_measure(mero2, 50.0, 1.0, 4, Q, 0.1, 0.3, grid, omega=0.5) for Q in ladder
    ]
    fractions = [r.bad_fraction for r in golden]
    c10, golden_monotone = ldt_decay_fit(golden)
    _, rational_monotone = ldt_decay_fit(rational)
    _verdict(
        5,
        f"mero2 bad-set decay at S=0.1: golden {fractions} (c10 {c10:.2f}) vs rational "
        f"{[r.bad_fraction for r in rational]}",
        [
            all(b2 < b1 for b1, b2 in zip(fractions, fractions[1:])),
            golden_monotone,
            c10 > 0.0,
            not rational_monotone,
        ],
        started,
        60.0,
    )


def test_criterion_6_localization(maryland):
    started = time.perf_counter()
    rep = localize(maryland, 20.0, 0.1, 256, margin=32)
    interior_fits = [r for r in rep.records if r.interior and r.status == "fit"]
    energies = np.array([r.energy for r in interior_fits])
    rates = np.array([r.rate for r in interior_fits])
    oracle = lyapunov_rates(maryland, 20.0, energies, 20_000, x=0.1)
    median_rel = float(np.median(np.abs(rates - oracle) / np.abs(oracle)))
    control = localize(maryland, 0.0, 0.1, 256, margin=32)
    _verdict(
        6,
        f"localization aggregate {rep.aggregate_fraction:.3f}, Lyapunov median rel err "
        f"{median_rel:.3f}, free control {control.aggregate_fraction:.3f}",
        [
            rep.aggregate_fraction >= 0.9,
            median_rel <= 0.25,
            control.aggregate_fraction <= 0.05,
        ],
        started,
        120.0,
    )


def test_criterion_7_sublinear_bad_shifts(maryland):
    started = time.perf_counter()
    scan = green_decay_scan(maryland, 20.0, 0.5, 0.1, 16, range(-256, 256))
    bad = scan.counts["bad"] + scan.counts["near_singular"]
    limit = 512**0.9
    good = [r.shift for r in scan.records if r.status == "good"]
    patch_shifts = [n for n in range(9, 128) if n in set(good)]
    patch = resolvent_patch_check(
        maryland, 20.0, 0.5, 0.1, 16, 64, scan.c11, shifts=patch_shifts
    )
    _verdict(
        7,
        f"bad shifts {bad} <= {limit:.0f}; patch worst {patch.worst_slack:.2f} "
        f"vs bar {patch.threshold:.2f}",
        [bad <= limit, patch.passed],
        started,
        300.0,
    )


def test_criterion_7_held_out_shifts(maryland):
    # c11 is fitted on the negative shifts only and then classifies the others
    started = time.perf_counter()
    fit = green_decay_scan(maryland, 20.0, 0.5, 0.1, 16, range(-256, 0))
    held = green_decay_scan(maryland, 20.0, 0.5, 0.1, 16, range(0, 256), c11=fit.c11)
    bad = held.counts["bad"] + held.counts["near_singular"]
    limit = 256**0.9
    # a smaller constant must turn shifts bad, or the held-out count shows nothing
    tight = green_decay_scan(maryland, 20.0, 0.5, 0.1, 16, range(0, 256), c11=0.2)
    _verdict(
        7,
        f"held-out bad shifts {bad} <= {limit:.0f} with c11 {fit.c11:.5f} fitted on "
        f"shifts -256..-1 (c11 0.2: {tight.counts['bad']} bad)",
        [bad <= limit, held.c11 == fit.c11, tight.counts["bad"] > 0],
        started,
        300.0,
    )


def test_criterion_8_invariant_suite(maryland, mero2):
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    checks = []

    # translation covariance (exact dyadic arithmetic isolates the indexing)
    model = maryland.with_omega(0.375)
    a = assemble_hamiltonian(model, OperatorParams(lam=2.0, x=13.0 / 128.0, E=0.0, window=(2, 6)))
    b = assemble_hamiltonian(
        model, OperatorParams(lam=2.0, x=13.0 / 128.0 + 0.375, E=0.0, window=(1, 5))
    )
    checks.append(np.array_equal(a, b))

    # pole cancellation: regularized entries bounded near a pole orbit
    s1, s2, s3 = oracles.onsite_sup_bound(mero2)
    hop = oracles.hopping_sup_bound(mero2)
    lam, E = 5.0, 2.0
    z = mero2.F[0][0].zeros[0]
    x = (z + 1e-6 - 2.0 * mero2.omega) % 1.0
    ht = assemble_regularized(mero2, OperatorParams(lam=lam, x=x, E=E, window=(1, 4)))
    diag, _, upper = band_blocks(ht, mero2.l)
    worst = max(np.max(np.abs(diag)), np.max(np.abs(upper)))
    checks.append(worst <= (s1 + s2 + s3 + hop) * (lam + abs(E)))

    # symmetry of H and G on a random meromorphic instance
    params = well_conditioned_params(mero2, rng, (1, 5))
    h = assemble_hamiltonian(mero2, params)
    g = green_solve(mero2, params)[0]
    checks.append(np.max(np.abs(h - h.T)) <= 1e-14 * max(1.0, np.max(np.abs(h))))
    checks.append(np.max(np.abs(g - g.T)) <= 1e-10 * max(1.0, np.max(np.abs(g))))

    # eigen residuals and orthonormality
    energies, vmat, residuals = eigensolve(assemble_hamiltonian(mero2, params))
    checks.append(bool(np.all(residuals <= 1e-8 * np.maximum(1.0, np.abs(energies)))))
    checks.append(np.max(np.abs(vmat.T @ vmat - np.eye(vmat.shape[1]))) <= 1e-10)

    # boundary-coupling identity on an interior truncation
    x0 = pole_free_x(maryland, rng, (-12, 12))
    big = OperatorParams(lam=4.0, x=x0, E=0.0, window=(-12, 12))
    energies, vectors, _ = eigensolve(assemble_hamiltonian(maryland, big))
    energy, vector = energies[12], vectors[:, 12]
    u, v = -5, 6
    h_sub = assemble_hamiltonian(
        maryland, OperatorParams(lam=4.0, x=x0, E=0.0, window=(u, v))
    )
    idx = lambda s: s - big.window[0]
    phi = vector[idx(u) : idx(v) + 1]
    resid = (h_sub - energy * np.eye(h_sub.shape[0])) @ phi
    w_u = float(maryland.w_values(maryland.site_phase(x0, u))[0, 0])
    w_v1 = float(maryland.w_values(maryland.site_phase(x0, v + 1))[0, 0])
    checks.append(abs(resid[0] - w_u * vector[idx(u - 1)]) <= 1e-9)
    checks.append(abs(resid[-1] - w_v1 * vector[idx(v + 1)]) <= 1e-9)
    checks.append(np.max(np.abs(resid[1:-1])) <= 1e-9)

    # decay-fit plant recovery
    prof = np.exp(-0.7 * np.abs(np.arange(64) - 10.0))
    fit = decay_fit(prof)
    checks.append(fit.center == 10 and abs(fit.rate - 0.7) <= 1e-6)

    _verdict(
        8,
        f"invariant suite ({len(checks)} checks)",
        checks,
        started,
        120.0,
    )
