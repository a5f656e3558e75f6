"""
Acceptance suite: every exit criterion at its stated tolerance, one printed
pass/fail line per criterion.

Two checks are implemented exactly as specified and are expected to fail;
the failures are analytic properties of the quantities being measured, not
implementation defects, and each failure message carries the measurement
that pins this down (the implementation side is cross-validated by an
independent route in both cases):

* criterion 5b: a field mode driven by data with Fourier tail <xi>^{-q}
  decays like t^{-q} (times the resolvent constant), so the <t>^{q-1}-
  weighted series has log-log slope near -1, not >= -0.5.  The tail-matched
  <t>^q weighting is near-flat, which is printed alongside.
* criterion 10: the stated pointwise-bound constant 1/(2 sqrt(pi)) drops
  the torus measure; the Cauchy-Schwarz argument gives 1/sqrt(2), and an
  x-independent gaussian already violates the smaller constant at
  (k, xi, alpha, beta) = (0, 0, 0, 0).  The inequality with the corrected
  constant is covered in test_grids.
"""

import time

import numpy as np
import pytest
from conftest import random_band_limited

import hmflab as H
from hmflab.cli import (crosscheck_run_config, damping_run_config, finite_m2_run_config, measure_crosscheck,
                        measure_damping, measure_finite_m2, measure_penrose_scan, measure_scattering,
                        measure_unstable, measure_volterra_analytic, scattering_run_config,
                        unstable_run_config)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{cid}: {detail}"


def timed_run(cfg):
    t0 = time.monotonic()
    traj = H.run(cfg)
    return traj, time.monotonic() - t0


@pytest.fixture(scope="module")
def damping_traj():
    return timed_run(damping_run_config())


@pytest.fixture(scope="module")
def scattering_data():
    traj, secs = timed_run(scattering_run_config())
    return traj, H.scattering_limit(traj), secs


@pytest.fixture(scope="module")
def m2_traj():
    return timed_run(finite_m2_run_config())


@pytest.fixture(scope="module")
def unstable_traj():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return timed_run(unstable_run_config())


@pytest.fixture(scope="module")
def crosscheck_data():
    traj, secs = timed_run(crosscheck_run_config())
    return traj, measure_crosscheck(traj)[0], secs


def test_criterion_01_volterra_analytic_oracle():
    t0 = time.monotonic()
    _, err, ratio = measure_volterra_analytic()
    secs = time.monotonic() - t0
    report("criterion 1", err <= 1e-6 and 3.2 <= ratio <= 4.8 and secs < 1.0,
           f"max|z - exp(-t)| = {err:.3e} <= 1e-6, halving ratio {ratio:.3f} in [3.2, 4.8], "
           f"runtime {secs:.2f}s < 1s")


def test_criterion_02_penrose_threshold():
    t0 = time.monotonic()
    t_c, rep, cosine_stable = measure_penrose_scan()
    secs = time.monotonic() - t0
    ok = abs(t_c - 0.5) <= 1e-3 and cosine_stable and secs < 10.0
    report("criterion 2", ok,
           f"T_c = {t_c:.5f} (|T_c - 0.5| <= 1e-3), cosine stable={rep.stable} "
           f"winding={rep.modes[0].winding}, runtime {secs:.1f}s < 10s")


def test_criterion_03_linear_crossvalidation(crosscheck_data):
    _, rel, secs = crosscheck_data
    report("criterion 3", rel <= 1e-4 and secs < 60.0,
           f"relative sup discrepancy {rel:.3e} <= 1e-4 (T=20, n_max=4, n_xi=4097), "
           f"runtime {secs:.1f}s < 60s")


def test_criterion_04_volterra_boundedness():
    t0 = time.monotonic()
    rows = H.lemvolterra_harness(H.InteractionKernel.cosine(), H.maxwellian(1.0), gammas=[2, 3, 4, 5, 6],
                                 t_values=[50.0, 100.0], dt=0.02)
    by_gamma = {}
    for g, T, r in rows:
        by_gamma.setdefault(g, {})[T] = r
    changes = {g: abs(v[100.0] - v[50.0]) / v[50.0] for g, v in by_gamma.items()}
    secs = time.monotonic() - t0
    worst = max(changes.values())
    report("criterion 4", worst < 0.10 and secs < 30.0,
           f"max ratio change T=50 -> T=100 over gamma in 2..6: {100 * worst:.2f}% < 10%, "
           f"runtime {secs:.1f}s < 30s")


def test_criterion_05a_damping_exponent(damping_traj):
    traj, secs = damping_traj
    slope, r2 = measure_damping(traj)
    report("criterion 5a", slope <= -5.5 and secs < 300.0,
           f"log-log slope of |z_1| on [10, 80] = {slope:.3f} <= -5.5 (r2={r2:.4f}), "
           f"runtime {secs:.1f}s < 5min")


def test_criterion_05b_weighted_series_flatness(damping_traj):
    traj, _ = damping_traj
    tail = traj.config.perturbations[0].tail_exponent      # q = 7
    stated = H.weighted_mode_series(traj.field_modes, tail - 1.0, mode=1)
    slope, r2 = H.decay_fit(stated, (10.0, 80.0), mode=1)
    matched = H.weighted_mode_series(traj.field_modes, tail, mode=1)
    slope_matched, _ = H.decay_fit(matched, (40.0, 88.0), mode=1)
    report("criterion 5b", slope >= -0.5,
           f"<t>^{tail - 1:.0f}|z_1| slope on [10, 80] = {slope:.3f} (required >= -0.5); "
           f"a mode with prescribed tail <xi>^-{tail:.0f} decays like t^-{tail:.0f}, so this "
           f"weighting slopes to -1; the tail-matched <t>^{tail:.0f} weighting is near-flat "
           f"(late-window slope {slope_matched:+.3f})")


def test_criterion_06_scattering_rate(scattering_data):
    traj, result, secs = scattering_data
    slope, _ = measure_scattering(traj, result)
    bound = -(traj.config.s - 4) + 1
    report("criterion 6", slope <= bound and secs < 300.0,
           f"||g(t) - g_inf||_H1 log-log slope on the final decade = {slope:.2f} <= {bound}, "
           f"runtime {secs:.1f}s (run: scattering_run_config())")


def test_criterion_07_conservation_suite(damping_traj, scattering_data, m2_traj,
                                         unstable_traj, crosscheck_data):
    runs = {
        "damping": damping_traj[0],
        "scattering": scattering_data[0],
        "finite-M2": m2_traj[0],
        "unstable": unstable_traj[0],
        "crosscheck": crosscheck_data[0],
    }
    details = []
    ok = True
    for name, traj in runs.items():
        mass, l2, reality = H.conservation_drifts(traj)
        good = mass <= 1e-12 and l2 <= 1e-6 and reality <= 1e-10
        ok = ok and good
        details.append(f"{name}: mass {mass:.1e}, L2 {l2:.1e}, reality {reality:.1e}")
    report("criterion 7", ok, "; ".join(details) + " (bounds 1e-12 / 1e-6 / 1e-10)")


def test_criterion_08_instability_contrapositive(unstable_traj):
    growth, fitted, lam, rel = measure_unstable(unstable_traj[0])
    report("criterion 8", growth >= 10.0 and rel <= 0.2,
           f"|z_1| grew {growth:.1f}x >= 10x over [0, 30]; fitted rate {fitted:.4f} vs "
           f"resolvent root {lam:.4f} ({100 * rel:.1f}% <= 20%)")


def test_criterion_09_finite_mode_preset(m2_traj):
    traj, secs = m2_traj
    _, ratio, fits = measure_finite_m2(traj)
    slopes = {k: slope for k, (_, slope, _) in fits.items()}
    ok = ratio < 2.0 and all(s >= -0.5 for s in slopes.values())
    report("criterion 9", ok,
           f"monitor growth T/2 -> T: {ratio:.3f} < 2; weighted slopes "
           f"<t>^9|z_1|: {slopes[1]:+.3f}, <t>^7|z_2|: {slopes[2]:+.3f} (both >= -0.5); "
           f"runtime {secs:.1f}s")


def test_criterion_10_embedding_with_stated_constant():
    stated_constant = 1.0 / (2.0 * np.sqrt(np.pi))
    rng = np.random.default_rng(42)
    grid = H.make_grid(3, 16.0, 513, 1)
    worst = 0.0
    for _ in range(100):
        f = random_band_limited(rng, grid)
        norms = H.norm_ladder(f, 3)
        absf = np.abs(f.values)
        kk = grid.modes[:, None].astype(float)
        xx = grid.xi[None, :]
        for alpha in range(4):
            for beta in range(4 - alpha):
                n = alpha + beta
                rhs = (2.0 ** (n / 2) * stated_constant
                       * (1 + kk * kk) ** (-alpha / 2) * (1 + xx * xx) ** (-beta / 2) * norms[n])
                worst = max(worst, float(np.max(absf / rhs)))
    report("criterion 10", worst <= 1.0,
           f"max lhs/rhs over 100 random band-limited fields, alpha+beta <= 3, with "
           f"C = 1/(2 sqrt(pi)): {worst:.3f} (required <= 1); the Cauchy-Schwarz constant "
           f"is 1/sqrt(2) = sqrt(2 pi) * C, and the inequality holds with it (max ratio "
           f"{worst * stated_constant / H.embedding_constant(1):.3f}, see test_grids)")
