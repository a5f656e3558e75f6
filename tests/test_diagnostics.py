"""Norm monitors, rate fits, conservation drifts, scattering limit, and the weak limit."""

import dataclasses

import numpy as np
import pytest

import hmflab as H

COS = H.InteractionKernel.cosine()


@pytest.fixture(scope="module")
def small_run():
    """Stable weakly nonlinear run with per-step snapshots."""
    grid = H.make_grid(2, 26.0, 521, 1)
    cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                      perturbations=H.Perturbation(mode=1, amplitude=1.0),
                      epsilon=0.02, dt=0.025, t_final=12.0, record_every=1, s=7,
                      check_stability=False)
    return H.run(cfg)


def snapshot_at(traj, t):
    """The recorded snapshot nearest t."""
    return traj.snapshots[int(np.argmin(np.abs(traj.snapshot_times - t)))]


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.arange(0, 2001) * 0.05
        series = H.ModeSeries(t, {1: np.where(t > 0, t, 1.0) ** -6.0 + 0j})
        slope, r2 = H.decay_fit(series, (2.0, 90.0))
        assert slope == pytest.approx(-6.0, abs=1e-3)
        assert r2 > 0.999999

    def test_exponential_looks_steep(self):
        t = np.arange(0, 421) * 0.05
        series = H.ModeSeries(t, {1: np.exp(-t) + 0j})
        slope, r2 = H.decay_fit(series, (5.0, 20.0))
        assert slope < -10.0
        assert r2 < 1.0

    def test_window_must_start_past_one(self):
        t = np.arange(0, 101) * 0.1
        series = H.ModeSeries(t, {1: np.ones_like(t) + 0j})
        with pytest.raises(ValueError, match="t >= 1"):
            H.decay_fit(series, (0.5, 8.0))

    def test_needs_twenty_samples(self):
        t = np.arange(0, 101) * 0.1
        series = H.ModeSeries(t, {1: np.ones_like(t) + 0j})
        with pytest.raises(ValueError, match="20 samples"):
            H.decay_fit(series, (9.0, 10.0))

    def test_underflow_reports_usable_subwindow(self):
        t = np.arange(0, 2001) * 0.05
        vals = np.exp(-t).astype(complex)      # underflows 1e-14 near t = 32
        series = H.ModeSeries(t, {1: vals})
        with pytest.raises(ValueError, match="usable sub-window"):
            H.decay_fit(series, (5.0, 90.0))


class TestQMonitor:
    def test_zero_trajectory(self):
        grid = H.make_grid(1, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=0.0),
                          epsilon=0.0, dt=0.1, t_final=10.0, record_every=100, s=7,
                          check_stability=False)
        mon = H.q_monitor(H.run(cfg))
        assert np.all(mon.growth_part == 0.0)
        assert np.all(mon.mode_part == 0.0)
        assert np.all(mon.low_part == 0.0)

    def test_parts_match_recorded_series(self, small_run):
        mon = H.q_monitor(small_run)
        t = small_run.times
        w = np.sqrt(1 + t * t)
        assert np.allclose(mon.growth_part, small_run.norm_history[:, 7] / w ** 3)
        assert np.allclose(mon.low_part, small_run.norm_history[:, 3])
        expected_mode = np.maximum(w ** 6 * np.abs(small_run.field_modes.mode(1)),
                                   w ** 6 * np.abs(small_run.field_modes.mode(-1)))
        assert np.allclose(mon.mode_part, expected_mode)

    def test_q_series_nondecreasing(self, small_run):
        mon = H.q_monitor(small_run)
        assert np.all(np.diff(mon.q_series) >= -1e-15)

    def test_bounded_flag(self, small_run):
        # the finite-M2 preset's reading: the monitor no longer grows from T/2 to T
        mon = H.q_monitor(small_run)
        assert mon.growth_from_halfway() < 2.0

    def test_two_mode_kernel_monitor_exponents(self):
        # with M = 2 the growth weight is <t>^{2M+1} = <t>^5 and the low
        # order is s - 2M - 2; mode 2 carries the <t>^{s-3} weight
        grid = H.make_grid(2, 6.0, 121, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)),
                          profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=0.5),
                          epsilon=0.0, dt=0.05, t_final=2.0, record_every=40, s=10,
                          check_stability=False)
        traj = H.run(cfg)
        mon = H.q_monitor(traj)
        assert np.array_equal(mon.times, traj.snapshot_times)
        w = np.sqrt(1 + traj.snapshot_times ** 2)
        assert np.allclose(mon.growth_part, traj.norm_history[:, 10] / w ** 5)
        assert np.allclose(mon.low_part, traj.norm_history[:, 10 - 6])
        w = np.sqrt(1 + traj.times ** 2)
        expected = np.zeros_like(traj.times)
        for k in (-2, -1, 1, 2):
            expected = np.maximum(expected,
                                  w ** (11 - 2 * abs(k)) * np.abs(traj.field_modes.mode(k)))
        assert np.allclose(mon.mode_part, expected[cfg.snapshot_steps])

    def test_q_series_sees_the_mode_part_at_every_step(self):
        grid = H.make_grid(1, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=1.0),
                          epsilon=0.02, dt=0.05, t_final=10.0, record_every=7, s=7,
                          check_stability=False)
        traj = H.run(cfg)
        mon = H.q_monitor(traj)
        w = np.sqrt(1 + traj.times ** 2)
        per_step = np.maximum(w ** 6 * np.abs(traj.field_modes.mode(1)),
                              w ** 6 * np.abs(traj.field_modes.mode(-1)))
        running = np.maximum.accumulate(per_step)[cfg.snapshot_steps]
        # the mode part peaks between snapshots, so the samples alone would miss its sup
        assert np.any(running > np.maximum.accumulate(mon.mode_part))
        assert np.all(mon.q_series >= running)
        assert np.array_equal(mon.q_series, np.maximum.accumulate(mon.growth_part) + running
                              + np.maximum.accumulate(mon.low_part))

    def test_growth_from_halfway_refuses_the_last_snapshot(self):
        grid = H.make_grid(1, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=1.0),
                          epsilon=0.02, dt=0.1, t_final=10.0, record_every=100, s=7,
                          check_stability=False)
        mon = H.q_monitor(H.run(cfg))
        with pytest.raises(H.InvariantViolation, match="record_every"):
            mon.growth_from_halfway()


class TestScatteringLimit:
    def test_static_when_nothing_moves(self):
        grid = H.make_grid(1, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0, mass=0.0),
                          perturbations=H.Perturbation(mode=1, amplitude=1.0),
                          epsilon=0.0, dt=0.1, t_final=10.0, record_every=1, s=7,
                          check_stability=False)
        traj = H.run(cfg)
        res = H.scattering_limit(traj)
        assert np.max(np.abs(res.field.values - traj.snapshots[0].values)) == 0.0
        assert res.tail_estimate == 0.0

    def test_sparse_snapshots_give_the_last_one(self, small_run):
        grid = small_run.config.grid
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=1.0),
                          epsilon=0.0, dt=0.1, t_final=10.0, record_every=2, s=7,
                          check_stability=False)
        traj = H.run(cfg)
        res = H.scattering_limit(traj)
        assert np.array_equal(res.field.values, traj.snapshots[-1].values)
        assert res.t_final == traj.snapshot_times[-1] == 10.0
        rhs = H.assemble_rhs(traj.snapshots[-1], 10.0, cfg)
        assert res.tail_estimate == H.sobolev_norm(rhs, cfg.s - 4) * np.sqrt(1.0 + 10.0 ** 2)

    def test_split_and_resume_additivity(self, small_run):
        full = H.scattering_limit(small_run)
        half = H.scattering_limit(small_run, up_to=6.0)
        resumed = H.scattering_limit(small_run, carry=half)
        assert np.max(np.abs(resumed.field.values - full.field.values)) <= 1e-12
        assert resumed.t_final == full.t_final
        with pytest.raises(ValueError, match="empty accumulation range"):
            H.scattering_limit(small_run, up_to=6.0, carry=full)

    def test_distance_decreases_late(self, small_run):
        res = H.scattering_limit(small_run)
        cfg = small_run.config
        t_half = int(round(0.5 * cfg.t_final / cfg.dt))
        norms = []
        for i in (t_half, int(0.75 * cfg.t_final / cfg.dt), cfg.n_steps - 1):
            diff = H.SpectralField(cfg.grid, small_run.snapshots[i].values - res.field.values,
                                   real_valued=False)
            norms.append(H.sobolev_norm(diff, 1))
        assert norms[0] > norms[1] > norms[2]

    def test_scattering_state_is_the_snapshot_at_the_horizon(self, small_run):
        # the integrand is dg/dt, so g(0) + int_0^T rhs = g(T) exactly
        assert np.array_equal(H.scattering_limit(small_run).field.values, small_run.snapshots[-1].values)
        half = H.scattering_limit(small_run, up_to=6.0)
        assert half.t_final == pytest.approx(6.0)
        assert np.array_equal(half.field.values, snapshot_at(small_run, 6.0).values)

    def test_convergence_series_on_log_spaced_snapshots(self, small_run):
        res = H.scattering_limit(small_run)
        idx = np.unique(np.round(np.geomspace(1, len(small_run.snapshots) - 1, 64)).astype(int))
        times, dist = H.convergence_series(small_run, res.field, idx)
        snap_t = small_run.snapshot_times
        assert len(times) <= 64 and np.all(np.diff(times) > 0)
        assert times[0] == snap_t[1] and times[-1] == snap_t[-1]
        gaps = np.diff(np.log(times[len(times) // 2:]))      # log spacing past the rounding
        assert np.max(gaps) / np.min(gaps) < 1.5
        assert np.array_equal(times, snap_t[idx])
        # the stacked ladder is bitwise the per-index loop it replaced
        for j, i in enumerate(idx):
            diff = H.SpectralField(small_run.config.grid, small_run.snapshots[i].values - res.field.values,
                                   real_valued=False)
            assert dist[j] == H.sobolev_norm(diff, 1), f"index {i}"


class TestConservationDrifts:
    def test_reads_each_series(self, small_run):
        n = len(small_run.times)
        doctored = dataclasses.replace(small_run, mass_series=np.full(n, 1.0 + 0j),
                                       l2_series=np.full(n, 2.0), reality_series=np.zeros(n))
        doctored.mass_series[-1] += 3e-3j
        doctored.l2_series[5] = 2.2
        doctored.reality_series[7] = 4e-11
        assert H.conservation_drifts(doctored) == pytest.approx((3e-3, 0.1, 4e-11), rel=1e-12)


class TestWeakLimit:
    def test_zero_coupling_returns_background(self, small_run):
        res = H.scattering_limit(small_run)
        prof = H.weak_limit_profile(res.field, small_run.config.profile, 0.0)
        v = prof.v_samples
        assert np.array_equal(v, np.linspace(-12.0, 12.0, 961))   # a narrow background keeps the first window
        assert np.max(np.abs(prof.eta_samples - H.profile_values(H.maxwellian(1.0), v))) == 0.0

    # on [-12, 12] these backgrounds kept mass 0.8413, 0.9836 and 0.99994
    @pytest.mark.parametrize("prof, n_v", [(H.two_stream(1.0, 11.0), 1921), (H.maxwellian(25.0), 3841),
                                           (H.maxwellian(9.0), 3841)])
    def test_wide_background_keeps_its_mass(self, prof, n_v):
        # with g_inf = 0 the result is the background itself, on a window wide
        # enough that both ends are below 1e-16 of the peak
        grid = H.make_grid(1, 8.0, 65, 1)
        out = H.weak_limit_profile(H.SpectralField(grid, np.zeros(grid.shape)), prof, 0.02)
        v, eta = out.v_samples, out.eta_samples
        assert v.size == n_v and v[-1] == -v[0] == 0.0125 * (n_v - 1)
        assert np.max(np.abs(np.diff(v) - 0.025)) < 1e-13
        assert np.array_equal(eta, H.profile_values(prof, v))
        assert max(eta[0], eta[-1]) < 1e-16 * eta.max()
        assert abs(out.mass - 1.0) <= 1e-15   # measured 2.2e-16 and 0

    def test_mass_shift_formula(self, small_run):
        cfg = small_run.config
        res = H.scattering_limit(small_run)
        prof = H.weak_limit_profile(res.field, cfg.profile, cfg.epsilon)
        mid = (cfg.grid.n_xi - 1) // 2
        expected = 1.0 + cfg.epsilon * np.real(res.field.values[cfg.grid.row(0), mid])
        assert prof.mass == pytest.approx(expected, abs=1e-6)

    def test_weak_convergence_of_spatial_average(self, small_run):
        # |ghat_0(t, xi) - ghat_inf_0(xi)| decays in t at fixed xi
        cfg = small_run.config
        res = H.scattering_limit(small_run)
        # times in the first half of the run: near T the gap to g_inf(T) = g(T)
        # vanishes by construction, whatever the decay
        for xi in (0.5, 1.0, 2.0):
            gaps = []
            for t in (1.5, 3.0, 6.0):
                snap = snapshot_at(small_run, t)
                gaps.append(abs(snap.interp(0, xi) - res.field.interp(0, xi)))
            assert gaps[1] < 0.7 * gaps[0] and gaps[2] < 0.7 * gaps[1], f"xi={xi}: {gaps}"


class TestWeightedModeSeries:
    def test_weights_applied(self):
        t = np.arange(0, 11) * 0.5
        s = H.ModeSeries(t, {2: np.ones_like(t, dtype=complex)})
        w = H.weighted_mode_series(s, 3.0, mode=2)
        assert np.allclose(np.abs(w.mode(2)), (1 + t * t) ** 1.5)
