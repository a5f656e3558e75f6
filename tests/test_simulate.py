"""Gliding-frame spectral integrator: mode extraction, right-hand side, stepping."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hmflab as H
from hmflab import simulate, volterra
from hmflab.grids import MARGIN, symmetrized_values

COS = H.InteractionKernel.cosine()


def small_config(epsilon=0.0, t_final=10.0, dt=0.01, amplitude=1.0, n_max=2,
                 envelope="gaussian", profile=None, s=7, record_every=10 ** 9,
                 check_stability=False):
    dxi = 0.1
    xi_max = np.ceil(n_max * t_final + 1.0)
    n_xi = int(round(2 * xi_max / dxi)) + 1
    grid = H.make_grid(n_max, float(xi_max), n_xi, 1)
    return H.SimConfig(grid=grid, kernel=COS, profile=profile or H.maxwellian(1.0),
                       perturbations=H.Perturbation(mode=1, amplitude=amplitude, envelope=envelope),
                       epsilon=epsilon, dt=dt, t_final=t_final, record_every=record_every,
                       s=s, check_stability=check_stability)


class TestExtractFieldModes:
    def test_on_node_at_time_zero(self):
        grid = H.make_grid(1, 8.0, 65, 1)
        f = H.synth_initial([H.Perturbation(mode=1, amplitude=1.0)], grid)
        modes = H.extract_field_modes(f.values, 0.0, COS, grid)
        assert modes[1] == pytest.approx(1.0, abs=1e-13)

    def test_reality_pairing(self):
        grid = H.make_grid(1, 8.0, 129, 1)
        rng = np.random.default_rng(9)
        f = symmetrized_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        modes = H.extract_field_modes(f, 1.3, COS, grid)
        assert modes[-1] == pytest.approx(np.conj(modes[1]), abs=1e-13)

    def test_off_node_accuracy_with_refinement_oracle(self):
        exact = np.exp(-0.09)
        for n_xi, tol in ((65, 5e-4), (513, 5e-7)):   # dxi = 0.25 then 0.03125
            grid = H.make_grid(1, 8.0, n_xi, 1)
            vals = np.zeros(grid.shape, dtype=complex)
            vals[grid.row(1)] = np.exp(-grid.xi ** 2)
            vals[grid.row(-1)] = np.exp(-grid.xi ** 2)
            got = H.extract_field_modes(vals, 0.3, COS, grid)[1]
            assert abs(got - exact) <= tol

    def test_out_of_window_read_fails_hard(self):
        grid = H.make_grid(1, 8.0, 65, 1)
        f = H.synth_initial([H.Perturbation(mode=1)], grid)
        with pytest.raises(RuntimeError, match="safe window"):
            H.extract_field_modes(f.values, 7.95, COS, grid)

    def test_window_reads_match_whole_rows_and_fail_past_its_columns(self):
        grid = H.make_grid(1, 8.0, 65, 1)
        values = H.synth_initial([H.Perturbation(mode=1)], grid).values
        window = values[:, 10:55].copy()        # nodes -5.5..5.5, two cells inside: |xi| <= 5
        for t in (0.0, 0.3, 4.9, 5.0):
            assert H.extract_field_modes(window, t, COS, grid) == H.extract_field_modes(values, t, COS, grid)
        with pytest.raises(RuntimeError, match="safe window"):
            H.extract_field_modes(window, 5.01, COS, grid)

    def test_signed_modes_once_per_kernel_content(self):
        # kernels built separately with equal coefficients share one tuple
        a, b = H.InteractionKernel((0.5, 0.0, 0.25)), H.InteractionKernel((0.5, 0.0, 0.25))
        assert a is not b
        assert simulate._active_modes(a) == (-3, -1, 1, 3)
        assert simulate._active_modes(a) is simulate._active_modes(b)
        assert simulate._active_modes(H.InteractionKernel((0.0, 0.25))) == (-2, 2)
        grid = H.make_grid(3, 8.0, 65, 1)
        values = H.synth_initial([H.Perturbation(mode=1)], grid).values
        assert list(H.extract_field_modes(values, 0.5, b, grid)) == [-3, -1, 1, 3]


class TestAssembleRhs:
    def test_free_transport_exactly_filtered(self):
        # eps = 0 with a massless background: nothing moves
        cfg = small_config(profile=H.maxwellian(1.0, mass=0.0), t_final=5.0)
        state = H.synth_initial(cfg.perturbations, cfg.grid)
        rhs = H.assemble_rhs(state, 1.7, cfg)
        assert np.all(rhs.values == 0.0)

    def test_mass_mode_entry_is_stationary(self):
        cfg = small_config(epsilon=0.05, t_final=5.0)
        state = H.synth_initial(cfg.perturbations, cfg.grid)
        rhs = H.assemble_rhs(state, 2.0, cfg)
        mid = (cfg.grid.n_xi - 1) // 2
        assert rhs.values[cfg.grid.row(0), mid] == 0.0

    def test_linear_term_hand_value(self):
        # state with ghat_1 == 1 everywhere makes z_1(t) = 1; at n=1, xi=0,
        # t=2 the linear term is p_1 * 1 * etahat(-2) * (2 - 0) = e^{-2}
        cfg = small_config(t_final=5.0)
        vals = np.zeros(cfg.grid.shape, dtype=complex)
        vals[cfg.grid.row(1)] = 1.0
        vals[cfg.grid.row(-1)] = 1.0
        state = H.SpectralField(cfg.grid, vals)
        rhs = H.assemble_rhs(state, 2.0, cfg)
        mid = (cfg.grid.n_xi - 1) // 2
        assert rhs.values[cfg.grid.row(1), mid] == pytest.approx(np.exp(-2.0), rel=1e-12)


class TestStep:
    # an RK4 step leaves a state fixed, bitwise, when the rhs is exactly zero
    # at the state for the step's three stage times
    def test_zero_state_fixed(self):
        cfg = small_config(epsilon=0.05, t_final=5.0)
        z = H.SpectralField(cfg.grid, np.zeros(cfg.grid.shape))
        for t in (0.0, 0.5 * cfg.dt, cfg.dt):
            assert np.all(H.assemble_rhs(z, t, cfg).values == 0.0)

    def test_identity_without_background_or_coupling(self):
        cfg = small_config(profile=H.maxwellian(1.0, mass=0.0), t_final=5.0)
        state = H.synth_initial(cfg.perturbations, cfg.grid)
        for t in (1.0, 1.0 + 0.5 * cfg.dt, 1.0 + cfg.dt):
            assert np.all(H.assemble_rhs(state, t, cfg).values == 0.0)

    def test_non_finite_state_aborts(self):
        # finite data whose first step overflows
        cfg = small_config(epsilon=1.0, t_final=5.0, dt=0.5, amplitude=1e150)
        with pytest.raises(H.NonFiniteState, match=r"non-finite state at t=0\.5 \(step 1\)"):
            H.run(cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_one_non_finite_entry_aborts_at_its_step(self, monkeypatch, bad):
        # the drift check sees a single nan or inf entry of an otherwise finite state
        step_values = simulate._step_values
        steps = []

        def poisoned(values, t, t_next, *args):
            out = step_values(values, t, t_next, *args)
            steps.append(t_next)
            if len(steps) == 5:
                out[0, MARGIN + 7] = bad
            return out

        monkeypatch.setattr(simulate, "_step_values", poisoned)
        cfg = small_config(epsilon=0.05, t_final=1.0, dt=0.1)
        with pytest.raises(H.NonFiniteState, match=r"non-finite state at t=0\.5 \(step 5\)"):
            H.run(cfg)
        assert len(steps) == 5

    def test_fourth_order_richardson(self):
        # coarse/half-step/reference on one grid: the fixed spatial bias
        # cancels in the differences, isolating the time-stepping order
        def final_mode(dt):
            cfg = small_config(epsilon=0.05, amplitude=0.5, t_final=5.0, dt=dt)
            traj = H.run(cfg)
            return traj.field_modes.mode(1)[-1]

        ref = final_mode(0.03125)
        e1 = abs(final_mode(0.25) - ref)
        e2 = abs(final_mode(0.125) - ref)
        assert 10.0 < e1 / e2 < 25.0, f"expected ~16x, got {e1 / e2}"


class TestRun:
    def test_zero_amplitude_trajectory(self):
        cfg = small_config(amplitude=0.0, t_final=2.0)
        traj = H.run(cfg)
        assert np.max(np.abs(traj.field_modes.mode(1))) == 0.0
        assert len(traj.field_modes.times) == cfg.n_steps + 1

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_mode_0_data_leaves_every_field_mode_zero(self, epsilon):
        # every z_k(0) is 0 and every rhs term carries a z_k, so the state never
        # moves; scatter refuses such data before the run for this reason
        cfg = replace(small_config(epsilon=epsilon, t_final=2.0, dt=0.05),
                      perturbations=(H.Perturbation(mode=0), H.Perturbation(mode=0, envelope="algebraic")))
        traj = H.run(cfg)
        for k, series in traj.field_modes.values.items():
            assert np.all(series == 0.0), k
        assert np.array_equal(traj.snapshots[-1].values, traj.snapshots[0].values)

    def test_linear_run_matches_volterra(self):
        cfg = small_config(epsilon=0.0, t_final=10.0, dt=0.01)
        traj = H.run(cfg)
        forcing = traj.snapshots[0].interp(1, traj.times)
        vol = H.solve_volterra(lambda t: H.memory_kernel(COS, cfg.profile, 1, t),
                               forcing, dt=cfg.dt, mode=1)
        rel = (np.max(np.abs(traj.field_modes.mode(1) - vol.mode(1)))
               / np.max(np.abs(vol.mode(1))))
        assert rel <= 1e-4

    def test_conservation_suite(self):
        cfg = small_config(epsilon=0.05, t_final=8.0, dt=0.02)
        traj = H.run(cfg)
        assert np.max(np.abs(traj.mass_series - traj.mass_series[0])) <= 1e-12
        l2_drift = np.max(np.abs(traj.l2_series - traj.l2_series[0])) / traj.l2_series[0]
        assert l2_drift <= 1e-6
        # per-step symmetry drift before re-enforcement stays at roundoff level
        assert np.max(traj.reality_series) <= 1e-13

    def test_coupling_moves_z1_at_second_order_in_eps(self):
        # single-mode data: rows 0 and +-2 start empty and z_1 feels eps only through
        # them, so the first correction to the linear run is O(eps^2).  The eps = 0
        # run is the reference: against the Volterra solve it carries a 7.86e-6
        # discretization floor that would mix with the eps^2 term.
        # Measured: max|z_1(eps) - z_1(0)| / eps^2 = 0.0910 for eps = 0.02 .. 0.0025,
        # and the gap falls by 3.99986 and 3.99997 per halving of eps from 0.02.
        def z1(eps):
            return H.run(small_config(epsilon=eps, t_final=8.0, dt=0.02)).field_modes.mode(1)

        linear = z1(0.0)
        gaps = np.array([np.max(np.abs(z1(e) - linear)) for e in (0.02, 0.01, 0.005)])
        per_halving = gaps[:-1] / gaps[1:]
        assert np.all((3.99 <= per_halving) & (per_halving <= 4.01)), f"gap ratios per halving {per_halving}"

    def test_gaussian_run_mode_envelope_decays(self):
        # stable weakly coupled run: block maxima of |z_1| fall monotonically
        # once the initial transient has passed
        cfg = small_config(epsilon=0.01, t_final=20.0, dt=0.02)
        traj = H.run(cfg)
        z = np.abs(traj.field_modes.mode(1))
        t = traj.times
        blocks = [np.max(z[(t >= a) & (t < a + 3.0)]) for a in (5.0, 8.0, 11.0, 14.0, 17.0)]
        assert all(b2 < b1 for b1, b2 in zip(blocks, blocks[1:])), blocks

    def test_unstable_background_warns_and_continues(self):
        grid = H.make_grid(1, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel.anticosine(),
                          profile=H.maxwellian(0.4),
                          perturbations=H.Perturbation(mode=1, amplitude=1e-6),
                          epsilon=0.0, dt=0.05, t_final=10.0, record_every=10 ** 9, s=7,
                          check_stability=True)
        with pytest.warns(RuntimeWarning, match="stability"):
            traj = H.run(cfg)
        assert traj.stability is not None and not traj.stability.stable


def reference_run(cfg, rhs=None):
    """run()'s states, symmetry drifts and L2 norms as the plain-expression
    RK4 loop gave them on the configured grid, one fresh array per operation
    (``rhs(values, t)`` defaults to ``assemble_rhs``)."""
    grid = cfg.grid
    if rhs is None:
        rhs = lambda v, t: H.assemble_rhs(H.SpectralField(grid, v, real_valued=False), t, cfg).values
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    dt = cfg.dt
    tw = grid.trapz_weights()
    eta = H.profile_hat(cfg.profile, grid.xi)
    row0 = grid.row(0)

    def full_l2(values):
        f = cfg.epsilon * values
        f0 = f[row0] + eta
        total = np.sum(np.abs(f) ** 2 * tw) + np.sum((np.abs(f0) ** 2 - np.abs(f[row0]) ** 2) * tw)
        return np.sqrt(total)

    state = H.synth_initial(cfg.perturbations, grid).values
    states, drifts, l2 = [state], [0.0], [full_l2(state)]
    for t, t_next in zip(times[:-1], times[1:]):
        k1 = rhs(state, t)
        k2 = rhs(state + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(state + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(state + dt * k3, t_next)
        raw = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drifts.append(float(np.max(np.abs(raw[::-1, ::-1] - np.conj(raw)))))
        state = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
        states.append(state)
        l2.append(full_l2(state))
    return states, np.array(drifts), np.array(l2)


def buffer_case(case):
    """(config, reachable band r) of one ``test_bitwise_equal_to_plain_loop`` case."""
    if case == "cosine":
        return small_config(epsilon=0.05, t_final=3.0, dt=0.05, record_every=1), 2
    if case == "linear_cosine":
        return small_config(n_max=4, t_final=3.0, dt=0.05, record_every=1), 1
    if case == "linear_full":
        return small_config(n_max=1, t_final=3.0, dt=0.05, record_every=1), 1
    if case in ("linear_narrow_gaussian", "linear_narrow_algebraic"):
        # the column window holds 203 of 481 columns; the algebraic tail puts
        # nonzero data on the columns left out
        grid = H.make_grid(4, 24.0, 481, 1)
        envelope = case.rsplit("_", 1)[1]
        return H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                           perturbations=H.Perturbation(mode=1, amplitude=1.0, envelope=envelope),
                           epsilon=0.0, dt=0.05, t_final=1.0, record_every=1, s=7,
                           check_stability=False), 1
    m2 = H.InteractionKernel((0.5, 0.25))
    if case == "linear_mode3":
        grid = H.make_grid(4, 16.0, 321, 1)
        return H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                           perturbations=(H.Perturbation(mode=1, amplitude=1.0),
                                          H.Perturbation(mode=3, amplitude=0.5, envelope="algebraic")),
                           epsilon=0.0, dt=0.05, t_final=3.0, record_every=1, s=7,
                           check_stability=False), 3
    if case == "linear_two_mode_m0_2":
        grid = H.make_grid(4, 16.0, 321, 2)
        return H.SimConfig(grid=grid, kernel=m2, profile=H.maxwellian(1.0),
                           perturbations=H.Perturbation(mode=1, amplitude=1.0),
                           epsilon=0.0, dt=0.05, t_final=3.0, record_every=1, s=10,
                           check_stability=False), 2
    grid = H.make_grid(3, 16.0, 321, 1)
    return H.SimConfig(grid=grid, kernel=m2, profile=H.maxwellian(1.0),
                       perturbations=(H.Perturbation(mode=1, amplitude=1.0),
                                      H.Perturbation(mode=2, amplitude=0.5)),
                       epsilon=0.05, dt=0.05, t_final=3.0, record_every=1, s=10,
                       check_stability=False), 3


class TestRunBuffers:
    @pytest.mark.parametrize("case", ["cosine", "two_mode", "linear_cosine", "linear_mode3",
                                      "linear_two_mode_m0_2", "linear_full", "linear_narrow_gaussian",
                                      "linear_narrow_algebraic"])
    def test_bitwise_equal_to_plain_loop(self, case):
        cfg, r = buffer_case(case)
        traj = H.run(cfg)
        states, drifts, l2 = reference_run(cfg)
        assert traj.config is cfg
        assert len(traj.snapshots) == len(states)
        outside = np.abs(cfg.grid.modes) > r
        for i, (snap, ref) in enumerate(zip(traj.snapshots, states)):
            assert snap.grid == cfg.grid
            assert np.array_equal(snap.values, ref), f"step {i}"
            assert np.all(snap.values[outside] == 0.0), f"step {i}"
            ladder = H.norm_ladder(H.SpectralField(cfg.grid, ref, real_valued=False), cfg.s)
            if r == cfg.grid.n_max:
                assert np.array_equal(traj.norm_history[i], ladder), f"step {i}"
            else:
                # the zero rows left out regroup the ladder's final sum
                assert np.max(np.abs(traj.norm_history[i] - ladder) / ladder) <= 1e-15, f"step {i}"
        assert np.array_equal(traj.reality_series, drifts)
        assert np.array_equal(traj.mass_series, [ref[cfg.grid.row(0), (cfg.grid.n_xi - 1) // 2]
                                                 for ref in states])
        # |f|^2 as re^2 + im^2 and eps^2 factored out: L2 moves at roundoff only
        assert np.max(np.abs(traj.l2_series - l2) / l2) <= 1e-14

    def test_linear_run_l2_is_the_background_norm(self):
        cfg = small_config(epsilon=0.0, t_final=1.0, dt=0.05)
        traj = H.run(cfg)
        tw = cfg.grid.trapz_weights()
        background = np.sqrt(np.sum(np.abs(H.profile_hat(cfg.profile, cfg.grid.xi)) ** 2 * tw))
        assert np.all(traj.l2_series == traj.l2_series[0])
        assert traj.l2_series[0] == pytest.approx(background, rel=1e-14)


def marched_width(cfg):
    """Columns of the window run() marches on ``cfg``: those its factors serve
    through the last stage time (the window does not depend on n_max)."""
    columns = simulate._StageFactors(cfg, cfg.n_steps * cfg.dt).columns
    assert columns.start + columns.stop == cfg.grid.n_xi      # centred on xi = 0
    return columns.stop - columns.start


class TestColumnWindow:
    """The columns a linear run marches: see "The reachable band" in docs/conventions.md."""

    def test_benchmark_crosscheck_shape(self):
        grid = H.make_grid(4, 40.96, 2049, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0), perturbations=H.Perturbation(mode=1),
                          epsilon=0.0, dt=5e-3, t_final=1.0, record_every=100, s=7)
        assert marched_width(cfg) == 501

    def test_stencil_columns_hold_the_reads_of_a_one_cell_support(self):
        # no background: the forcing support is one cell, and the window's two
        # stencil columns alone keep the field-mode reads inside it
        cfg, _ = buffer_case("linear_narrow_algebraic")
        cfg = replace(cfg, profile=replace(cfg.profile, mass=0.0))
        assert marched_width(cfg) == 27
        traj = H.run(cfg)
        states, drifts, _ = reference_run(cfg)
        for i, (snap, ref) in enumerate(zip(traj.snapshots, states, strict=True)):
            assert np.array_equal(snap.values, ref), f"step {i}"
            for k, zk in H.extract_field_modes(ref, traj.times[i], COS, cfg.grid).items():
                assert traj.field_modes.mode(k)[i] == zk, f"step {i}, mode {k}"
        assert np.array_equal(traj.reality_series, drifts)

    @pytest.mark.parametrize("case", ["nonlinear", "tabulated", "map_unstable"])
    def test_whole_row(self, case):
        cfg, _ = buffer_case("linear_narrow_gaussian")
        if case == "nonlinear":
            cfg = replace(cfg, epsilon=0.05)
        elif case == "tabulated":
            cfg = replace(cfg, profile=tabulated_maxwellian())
        else:
            # the stability map's unstable run reaches 30 + 14.8 = 44.8, past xi_max = 32
            cfg = H.SimConfig(grid=H.make_grid(1, 32.0, 641, 1), kernel=H.InteractionKernel.anticosine(),
                              profile=H.maxwellian(0.365), perturbations=H.Perturbation(mode=1, amplitude=1e-6),
                              epsilon=0.0, dt=0.1, t_final=30.0, record_every=50, s=7)
        assert marched_width(cfg) == cfg.grid.n_xi

    def test_assemble_rhs_serves_whole_rows(self):
        cfg, _ = buffer_case("linear_narrow_gaussian")
        assert simulate._StageFactors(cfg).columns == slice(0, cfg.grid.n_xi)

    @pytest.mark.parametrize("epsilon, width", [(0.0, 203), (0.05, 481)])
    def test_run_marches_the_window(self, epsilon, width, monkeypatch):
        shapes = []
        step = simulate._step_values

        def recorded(values, *args):
            shapes.append(values.shape)
            return step(values, *args)

        monkeypatch.setattr(simulate, "_step_values", recorded)
        cfg, _ = buffer_case("linear_narrow_algebraic")
        cfg = replace(cfg, epsilon=epsilon)
        H.run(cfg)
        rows = 3 if epsilon == 0.0 else cfg.grid.shape[0]
        assert shapes == [(rows, width + 2 * MARGIN)] * cfg.n_steps
        # the linear narrow cases of test_bitwise_equal_to_plain_loop leave out most columns
        assert marched_width(cfg) == width and (epsilon > 0.0 or 2 * width < cfg.grid.n_xi)

    def test_rhs_is_positive_zero_outside_the_window(self):
        cfg, _ = buffer_case("linear_narrow_algebraic")
        grid = cfg.grid
        outside = np.ones(grid.n_xi, dtype=bool)
        outside[simulate._StageFactors(cfg, cfg.t_final).columns] = False
        rng = np.random.default_rng(11)
        state = H.SpectralField(grid, symmetrized_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)))
        for t in (0.0, 0.025, 0.5, 0.975, 1.0):
            rhs = H.assemble_rhs(state, t, cfg).values[:, outside]
            assert rhs.tobytes() == np.zeros_like(rhs).tobytes(), f"t={t}"

    def test_initial_data_is_a_fixed_point_of_a_zero_step(self):
        # where the rhs is +0.0 a step adds +0.0 and re-symmetrises; synth_initial's
        # data comes back bitwise, signed zeros included, so run() may leave it unmarched
        grid = H.make_grid(3, 24.0, 481, 1)
        perts = (H.Perturbation(mode=1), H.Perturbation(mode=3, amplitude=0.5, envelope="algebraic"),
                 H.Perturbation(mode=0, amplitude=0.25, envelope="algebraic"), H.Perturbation(mode=-2, amplitude=0.0),
                 H.Perturbation(mode=2, amplitude=-0.0, envelope="algebraic"), H.Perturbation(mode=1, amplitude=3.0))
        values = H.synth_initial(perts, grid).values
        stepped = symmetrized_values(values + (0.5 * 0.05) * np.zeros_like(values))
        assert stepped.tobytes() == values.tobytes()


M2 = H.InteractionKernel((0.5, 0.25))


def reach_config(kernel, perturbations, epsilon, n_max, t_final=1.0, s=10):
    """A run of ``t_final`` with steps of 0.05 on a grid of dxi = 0.1 just wide enough for n_max."""
    xi_max = n_max * t_final + 1.0
    grid = H.make_grid(n_max, xi_max, int(round(20 * xi_max)) + 1, 1)
    return H.SimConfig(grid=grid, kernel=kernel, profile=H.maxwellian(1.0), perturbations=perturbations,
                       epsilon=epsilon, dt=0.05, t_final=t_final, record_every=3, s=s, check_stability=False)


def run_outputs(traj):
    """Every array run() returns, by name."""
    out = {"times": traj.times, "mass": traj.mass_series, "l2": traj.l2_series, "ladder": traj.norm_history,
           "drift": traj.reality_series, "snapshot_times": traj.snapshot_times,
           "snapshots": np.stack([snap.values for snap in traj.snapshots])}
    out.update({f"z_{k}": z for k, z in traj.field_modes.values.items()})
    return out


class TestReachedModes:
    """The rows a run's data reaches (``SimConfig.reached_modes``), which bound the band run() marches."""

    M3 = H.InteractionKernel((0.5, 0.25, 0.1))
    CASES = {
        "amplitude 0 at eps 0": ((COS, (H.Perturbation(mode=1), H.Perturbation(mode=3, amplitude=0.0)), 0.0, 4),
                                 {-1, 1}),
        # mode-2 data under (0.5, 0.25) stays on the even rows
        "parity": ((M2, H.Perturbation(mode=2), 0.05, 2), {-2, 0, 2}),
        "parity at eps 0": ((M2, H.Perturbation(mode=2), 0.0, 2), {-2, 2}),
        # rows 2 and 3 meet in row 3 - 2 = 1 through z_{-2}
        "rows 2 and 3 meet in row 1": ((M3, (H.Perturbation(mode=2), H.Perturbation(mode=3)), 0.05, 3),
                                       {-3, -2, -1, 0, 1, 2, 3}),
        "mode 3 alone": ((M3, H.Perturbation(mode=3), 0.05, 3), {-3, 0, 3}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_closure(self, case):
        args, reached = self.CASES[case]
        assert reach_config(*args).reached_modes == reached

    @pytest.fixture
    def whole_grid(self, monkeypatch):
        """run() with every row reached: the march over the whole grid."""
        def run(cfg):
            with monkeypatch.context() as m:
                m.setattr(H.SimConfig, "reached_modes",
                          property(lambda c: set(range(-c.grid.n_max, c.grid.n_max + 1))))
                return H.run(cfg)

        return run

    @staticmethod
    def marched_rows(cfg, monkeypatch):
        """(trajectory, n_max of the band run() marches) of one run of ``cfg``."""
        bands = []
        make_grid = simulate.make_grid

        def recorded(n_max, *args):
            bands.append(n_max)
            return make_grid(n_max, *args)

        with monkeypatch.context() as m:
            m.setattr(simulate, "make_grid", recorded)
            traj = H.run(cfg)
        return traj, bands[0]

    BANDS = {
        "amplitude 0 on mode 3 at eps 0": ((COS, (H.Perturbation(mode=1, envelope="algebraic"),
                                                  H.Perturbation(mode=3, amplitude=0.0)), 0.0, 4), 1),
        "parity at eps 0": ((M2, H.Perturbation(mode=2), 0.0, 4), 2),
        "mode 3 under (0.5, 0.25)": ((M2, H.Perturbation(mode=3, envelope="algebraic"), 0.05, 4), 3),
        "parity": ((M2, H.Perturbation(mode=2, envelope="algebraic"), 0.05, 3), 2),
    }

    @pytest.mark.parametrize("case", BANDS)
    def test_band_matches_the_whole_grid_march(self, case, monkeypatch, whole_grid):
        args, r = self.BANDS[case]
        cfg = reach_config(*args)
        traj, band = self.marched_rows(cfg, monkeypatch)
        assert band == r < cfg.grid.n_max
        ref = run_outputs(whole_grid(cfg))
        for name, values in run_outputs(traj).items():
            if name == "ladder":
                # the zero rows left out regroup the ladder's final sum
                assert np.allclose(values, ref[name], rtol=1e-15, atol=0.0), name
            else:
                assert values.tobytes() == ref[name].tobytes(), name
        if case == "parity":
            assert np.max(np.abs(traj.field_modes.mode(2))) > 0.0 and np.all(traj.field_modes.mode(1) == 0.0)


class TestRecordSchedule:
    @pytest.mark.parametrize("record_every", [1, 3, 10 ** 9])
    def test_times_are_the_step_grid(self, record_every):
        cfg = small_config(epsilon=0.05, t_final=2.0, dt=0.05, record_every=record_every)
        traj = H.run(cfg)
        assert cfg.times.tobytes() == (np.arange(cfg.n_steps + 1) * cfg.dt).tobytes()
        assert traj.times.tobytes() == cfg.times.tobytes()
        # the times the snapshots were taken at: 0.0 for the initial state, then the step grid's
        accumulated = [0.0] + [cfg.times[i] for i in cfg.snapshot_steps[1:]]
        assert traj.snapshot_times.tobytes() == np.asarray(accumulated).tobytes()

    @pytest.mark.parametrize("record_every", [1, 3, 10 ** 9])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_ladder_rows_are_the_snapshot_ladders(self, epsilon, record_every):
        cfg = small_config(epsilon=epsilon, t_final=2.0, dt=0.05, record_every=record_every)
        traj = H.run(cfg)
        assert traj.norm_history.shape == (len(cfg.snapshot_steps), cfg.s + 1)
        assert np.array_equal(traj.snapshot_times, traj.times[cfg.snapshot_steps])
        for j, snap in enumerate(traj.snapshots):
            ladder = H.norm_ladder(snap, cfg.s)
            if epsilon > 0:
                assert np.array_equal(traj.norm_history[j], ladder), f"snapshot {j}"
            else:
                # the linear run's band leaves out zero rows, which regroup the final sum
                assert np.max(np.abs(traj.norm_history[j] - ladder) / ladder) <= 1e-15, f"snapshot {j}"

    @pytest.mark.parametrize("record_every", [1, 3, 10 ** 9])
    def test_run_takes_the_ladder_once_per_snapshot(self, record_every, monkeypatch):
        # one stacked call, made after the last step, receives every snapshot's
        # marched rows exactly once, as views of the snapshot
        calls, steps = [], []
        ladders, step = H.simulate.norm_ladders, H.simulate._step_values

        def counted_ladders(grid, values, max_order):
            values = list(values)
            calls.append((len(steps), values))
            return ladders(grid, values, max_order)

        def counted_step(*args):
            steps.append(args[1])
            return step(*args)

        monkeypatch.setattr(H.simulate, "norm_ladders", counted_ladders)
        monkeypatch.setattr(H.simulate, "_step_values", counted_step)
        cfg = small_config(epsilon=0.05, t_final=2.0, dt=0.05, record_every=record_every)
        traj = H.run(cfg)
        assert [after for after, _ in calls] == [cfg.n_steps]
        fields = calls[0][1]
        owners = [[j for j, snap in enumerate(traj.snapshots) if np.shares_memory(values, snap.values)]
                  for values in fields]
        assert owners == [[j] for j in range(len(cfg.snapshot_steps))]

    def test_memory_grows_with_the_snapshots_alone(self):
        # what run() holds beyond its snapshots' values (the march's buffers, the
        # ladder's block of 18 fields, the per-step series and the snapshots' own
        # objects) moves by under 1.5 kB per step from 50 to 400 steps, where one
        # stack of every snapshot's ladder terms would take 48 bytes per entry,
        # 43 kB per step, on this 5 x 181 grid
        peaks = []
        for n_steps in (50, 400):
            cfg = small_config(epsilon=0.05, t_final=4.0, dt=4.0 / n_steps, record_every=1)
            H.run(cfg)      # the caches a first run fills
            tracemalloc.start()
            try:
                traj = H.run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.snapshots) == n_steps + 1
            peaks.append(peak - sum(snap.values.nbytes for snap in traj.snapshots))
        assert abs(peaks[1] - peaks[0]) <= 512 * 1024, peaks


def tabulated_maxwellian():
    v = np.linspace(-8.0, 8.0, 161)
    return H.tabulated(v, np.exp(-v * v / 2.0) / np.sqrt(2.0 * np.pi))


PROFILES = {"maxwellian": lambda: H.maxwellian(1.0), "two_stream": lambda: H.two_stream(0.5, 1.5),
            "tabulated": tabulated_maxwellian}


def memo_free_rhs(cfg):
    """The rhs with one profile_hat call per row and stage time: assemble_rhs
    at a massless copy of the background gives the coupling term alone (its
    forcing rows add zeros), and each forcing row is built whole and added as
    run() adds it, on the nodes with |xi - n t| within the forcing support."""
    prof = cfg.profile
    if prof.kind == "tabulated":
        massless = H.tabulated(prof.v_samples, 0.0 * prof.eta_samples)
    else:
        massless = replace(prof, mass=0.0)
    coupling = replace(cfg, profile=massless)
    grid, kernel = cfg.grid, cfg.kernel
    support = simulate._StageFactors(cfg).support

    def rhs(values, t):
        out = H.assemble_rhs(H.SpectralField(grid, values, real_valued=False), t, coupling).values.copy()
        for n, zn in H.extract_field_modes(values, t, kernel, grid).items():
            base = grid.xi - n * t
            row = zn * ((-n * kernel.coefficient(n)) * base * H.profile_hat(prof, base))
            kept = np.abs(base) <= support
            out[grid.row(n), kept] += row[kept]
        return out

    return rhs


class TestBackgroundMemo:
    @pytest.mark.parametrize("kernel", [(0.5,), (0.5, 0.25)], ids=["cosine", "two_mode"])
    def test_one_transform_per_mode_and_stage_time(self, kernel, monkeypatch):
        calls = []

        def counted(prof, xi):
            calls.append(np.size(xi))
            return H.profile_hat(prof, xi)

        monkeypatch.setattr(H.simulate, "profile_hat", counted)
        grid = H.make_grid(2, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel(kernel), profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1), epsilon=0.05, dt=0.05, t_final=3.0,
                          record_every=10 ** 9, s=10, check_stability=False)
        H.run(cfg)
        n = cfg.n_steps
        m = len(cfg.kernel.active_modes())
        # one for the monitors, then per positive mode: k1 at t = 0 and two
        # stage times a step, since k4 runs at the next k1's time (without the
        # memo, 8 a step per mode)
        assert len(calls) == 1 + m * (1 + 2 * n)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_run_bitwise_equal_to_memo_free_rhs(self, profile, epsilon):
        grid = H.make_grid(2, 6.0, 121, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)), profile=PROFILES[profile](),
                          perturbations=H.Perturbation(mode=1), epsilon=epsilon, dt=0.05, t_final=0.5,
                          record_every=1, s=10, check_stability=False)
        traj = H.run(cfg)
        states, drifts, _ = reference_run(cfg, memo_free_rhs(cfg))
        for i, (snap, ref) in enumerate(zip(traj.snapshots, states)):
            assert np.array_equal(snap.values, ref), f"step {i}"
        assert np.array_equal(traj.reality_series, drifts)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_assemble_rhs_bitwise_equal_to_memo_free_rhs(self, profile, epsilon):
        grid = H.make_grid(3, 12.0, 241, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)), profile=PROFILES[profile](),
                          perturbations=H.Perturbation(mode=1), epsilon=epsilon, dt=0.05, t_final=2.0,
                          s=10, check_stability=False)
        rng = np.random.default_rng(3)
        state = H.SpectralField(grid, symmetrized_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)))
        reference = memo_free_rhs(cfg)
        for t in (0.0, 0.05, 0.37, 1.0, 2.5):
            got = H.assemble_rhs(state, t, cfg).values
            assert np.array_equal(got, reference(state.values, t)), f"t={t}"


# a two-stream whose cos(v0 xi) vanishes on the node xi = 8.8, next to where
# the envelope falls below 1e-16 of the peak (support 8.8 on dxi = 0.1)
SUPPORT_PROFILES = {"maxwellian": lambda: H.maxwellian(1.0),
                    "two_stream_zero_near_edge": lambda: H.two_stream(1.0, 5.5 * math.pi / 8.8)}


class TestForcingSupport:
    @staticmethod
    def config(profile):
        grid = H.make_grid(2, 24.0, 481, 1)
        return H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)), profile=profile,
                           perturbations=H.Perturbation(mode=1), epsilon=0.05, dt=0.05, t_final=2.0,
                           s=10, check_stability=False)

    @staticmethod
    def edge_times(factors):
        """Stage times that put an edge n t -+ L of a row's support on a node,
        one ulp either side of it, or mid-cell, with the support on the grid."""
        grid, support = factors.cfg.grid, factors.support
        for n in factors.cfg.kernel.active_modes():
            for j in range(grid.n_xi // 2 + 95, grid.n_xi - 90, 17):
                for frac in (0.0, 0.5, 0.25):
                    t = (grid.xi[j] + frac * grid.dxi - support) / n
                    yield from (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf))

    @pytest.mark.parametrize("profile", sorted(SUPPORT_PROFILES))
    def test_rows_on_their_support_match_the_whole_row(self, profile):
        cfg = self.config(SUPPORT_PROFILES[profile]())
        grid, kernel = cfg.grid, cfg.kernel
        factors = simulate._StageFactors(cfg)
        assert math.isfinite(factors.support) and factors.support < 9.0
        for t in self.edge_times(factors):
            factors.at(t)
            for n in kernel.active_modes():
                columns, row = factors.background[n]
                base = grid.xi - n * t
                whole = (-n * kernel.coefficient(n)) * base * H.profile_hat(cfg.profile, base)
                kept = np.abs(base) <= factors.support
                lo, hi = np.flatnonzero(kept)[[0, -1]]
                assert columns == slice(lo + MARGIN, hi + 1 + MARGIN) and np.all(kept[lo:hi + 1]), f"n={n}, t={t!r}"
                assert np.array_equal(row, whole[kept]), f"n={n}, t={t!r}"
                # every dropped entry is below 1e-16 of the row's peak
                assert np.max(np.abs(whole[~kept])) <= 1e-16 * np.max(np.abs(whole)), f"n={n}, t={t!r}"

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_mirror_rows_conjugate_reversed(self, profile):
        cfg = self.config(PROFILES[profile]())
        factors = simulate._StageFactors(cfg)
        n_xi = cfg.grid.n_xi
        for t in (0.0, 0.05, 0.37, 1.3, 4.05, 9.95):
            factors.at(t)
            for n in cfg.kernel.active_modes():
                columns, row = factors.background[n]
                mirror_columns, mirror = factors.background[-n]
                assert mirror_columns == slice(n_xi + 2 * MARGIN - columns.stop, n_xi + 2 * MARGIN - columns.start)
                assert np.array_equal(mirror, np.conj(row)[::-1])

    def test_tabulated_profile_keeps_the_whole_row(self):
        cfg = self.config(tabulated_maxwellian())
        factors = simulate._StageFactors(cfg)
        # the table's transform does not fall below 1e-16 of its peak on the grid
        assert factors.support == math.inf
        for t in (0.0, 0.37, 9.95):
            factors.at(t)
            for n, (columns, row) in factors.background.items():
                assert columns == slice(MARGIN, cfg.grid.n_xi + MARGIN) and row.size == cfg.grid.n_xi


def per_tap_rhs(cfg):
    """The rhs as it was assembled on plain rows before the state carried
    zero margins: each of a shift's four taps added into a strided slice,
    and each forcing row as (-n p_n z_n)(xi - n t) etahat(xi - n t)."""
    grid, kernel = cfg.grid, cfg.kernel
    xi, n_max = grid.xi, grid.n_max

    def shift_add(out, block, shift, scale):
        x = -float(shift) / grid.dxi
        f = math.floor(x)
        th = x - f
        lo = int(np.searchsorted(xi - shift, -grid.xi_max, side="left"))
        hi = int(np.searchsorted(xi - shift, grid.xi_max, side="right"))
        weights = (-th * (th - 1.0) * (th - 2.0) / 6.0, (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0,
                   -th * (th + 1.0) * (th - 2.0) / 2.0, th * (th + 1.0) * (th - 1.0) / 6.0)
        for tap, w in zip(range(f - 1, f + 3), weights):
            a, b = max(lo, -tap), min(hi, grid.n_xi - tap)
            if a < b:
                out[..., a:b] += (scale * w) * block[..., a + tap:b + tap]

    def rhs(values, t):
        modes = H.extract_field_modes(values, t, kernel, grid)
        out = np.zeros_like(values)
        for k, zk in modes.items():
            lo, hi = max(-n_max, k - n_max), min(n_max, k + n_max)
            shift_add(out[grid.row(lo):grid.row(hi) + 1], values[grid.row(lo - k):grid.row(hi - k) + 1],
                      k * t, -k * kernel.coefficient(k) * zk)
        out *= cfg.epsilon * (xi - grid.modes[:, None] * t)
        for n, zn in modes.items():
            base = xi - n * t
            out[grid.row(n)] += (-n * kernel.coefficient(n) * zn) * base * H.profile_hat(cfg.profile, base)
        return out

    return rhs


class TestMarginedRun:
    def test_scattering_shape_matches_the_per_tap_rhs(self):
        # the benchmark's scattering shape (5 x 361, eps 0.01, dt 0.04, every
        # step recorded) on a short horizon
        grid = H.make_grid(2, 18.0, 361, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1, amplitude=1.0, envelope="algebraic"),
                          epsilon=0.01, dt=0.04, t_final=1.2, record_every=1, s=7, check_stability=False)
        traj = H.run(cfg)
        states, drifts, l2 = reference_run(cfg, per_tap_rhs(cfg))
        assert len(traj.snapshots) == len(states) == cfg.n_steps + 1
        scale = max(np.max(np.abs(ref)) for ref in states)
        for i, (snap, ref) in enumerate(zip(traj.snapshots, states)):
            assert np.max(np.abs(snap.values - ref)) <= 1e-14 * np.max(np.abs(ref)), f"step {i}"
        mass = np.array([ref[grid.row(0), (grid.n_xi - 1) // 2] for ref in states])
        assert np.max(np.abs(traj.mass_series - mass)) <= 1e-14 * scale
        assert np.max(np.abs(traj.reality_series - drifts)) <= 1e-15 * scale
        assert np.max(traj.reality_series) <= 1e-15 * scale
        assert np.max(np.abs(traj.l2_series - l2) / l2) <= 1e-14


class TestConfigValidation:
    def test_window_invariant_message_reports_minimum(self):
        grid = H.make_grid(1, 10.0, 201, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1),
                          epsilon=0.0, dt=0.05, t_final=20.0)
        with pytest.raises(H.InvariantViolation, match=r"xi_max >= n_max\*t_final"):
            cfg.validate()

    def test_monitor_index_floor_scales_with_kernel(self):
        grid = H.make_grid(2, 30.0, 601, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)),
                          profile=H.maxwellian(1.0), perturbations=H.Perturbation(mode=1),
                          epsilon=0.0, dt=0.05, t_final=10.0, s=7)
        with pytest.raises(H.InvariantViolation, match="s=7"):
            cfg.validate()

    def test_kernel_needs_rows(self):
        grid = H.make_grid(1, 30.0, 601, 1)
        cfg = H.SimConfig(grid=grid, kernel=H.InteractionKernel((0.5, 0.25)),
                          profile=H.maxwellian(1.0), perturbations=H.Perturbation(mode=1),
                          epsilon=0.0, dt=0.05, t_final=10.0, s=10)
        with pytest.raises(H.InvariantViolation, match="n_max"):
            cfg.validate()

    def test_dt_divides_t_final(self):
        grid = H.make_grid(1, 30.0, 601, 1)
        cfg = H.SimConfig(grid=grid, kernel=COS, profile=H.maxwellian(1.0),
                          perturbations=H.Perturbation(mode=1),
                          epsilon=0.0, dt=0.3, t_final=10.0)
        with pytest.raises(H.InvariantViolation, match="multiple"):
            cfg.validate()

    @pytest.mark.parametrize("dt, t_final, message", [
        (0.0, 10.0, "dt must be positive, got 0.0"),
        (-0.05, 10.0, "dt must be positive, got -0.05"),
        (0.05, 0.0, "t_final must be positive, got 0.0"),
        (0.0, -1.0, "t_final must be positive, got -1.0"),   # both bad: t_final is checked first
        (0.3, 10.0, "t_final=10.0 is not a multiple of dt=0.3"),
    ])
    def test_step_messages_are_those_of_step_count(self, dt, t_final, message):
        cfg = small_config(dt=0.05, t_final=10.0)
        with pytest.raises(H.InvariantViolation) as info:
            replace(cfg, dt=dt, t_final=t_final).validate()
        assert str(info.value) == message
        if t_final > 0:
            with pytest.raises(ValueError) as raw:
                volterra.step_count(t_final, dt)
            assert str(raw.value) == message


class TestTabulatedRun:
    """run() on a tabulated background, whose stage rows take chirp-z, checked against
    the dense sum and against the closed-form maxwellian."""

    @staticmethod
    def config(profile, **kw):
        grid = H.make_grid(2, 18.0, 361, 1)
        return H.SimConfig(grid=grid, kernel=H.InteractionKernel.cosine(), profile=profile,
                           perturbations=H.Perturbation(mode=1, envelope="algebraic", tail_exponent=7.0),
                           epsilon=0.01, dt=0.04, **kw)

    def test_matches_the_dense_sum(self, monkeypatch):
        table = tabulated_maxwellian()
        fast = H.run(self.config(table, t_final=0.8, check_stability=False))
        monkeypatch.setattr(H.profiles, "_is_uniform", lambda taus: False)
        slow = H.run(self.config(table, t_final=0.8, check_stability=False))
        # measured: 8.3e-17 on the field modes, 7.1e-15 on the snapshots (|g| up to 1)
        for k in fast.field_modes.modes:
            assert np.max(np.abs(fast.field_modes.mode(k) - slow.field_modes.mode(k))) < 1e-13
        for a, b in zip(fast.snapshots, slow.snapshots, strict=True):
            assert np.max(np.abs(a.values - b.values)) < 1e-13

    def test_matches_the_closed_form_maxwellian(self):
        v = np.linspace(-12.0, 12.0, 961)
        table = H.tabulated(v, np.exp(-v * v / 2.0) / np.sqrt(2.0 * np.pi))
        got = H.run(self.config(table, t_final=8.0, record_every=10))
        ref = H.run(self.config(H.maxwellian(1.0), t_final=8.0, record_every=10))
        assert (got.stability.stable, got.stability.modes[0].winding) == (True, 0)
        assert abs(got.stability.kappa_est - ref.stability.kappa_est) < 1e-7      # measured 1.2e-8
        # measured: 4.6e-10 on the field modes and 5.4e-10 on the snapshots, the
        # spline table's own transform error (1.2e-9 on the run's stage rows)
        for k in ref.field_modes.modes:
            assert np.max(np.abs(got.field_modes.mode(k) - ref.field_modes.mode(k))) < 2e-9
        for a, b in zip(got.snapshots, ref.snapshots, strict=True):
            assert np.max(np.abs(a.values - b.values)) < 2e-9
