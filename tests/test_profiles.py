"""Homogeneous profiles, their velocity transforms, and initial perturbations."""

import gc
import tracemalloc

import numpy as np
import pytest

import hmflab as H
from hmflab import profiles
from hmflab.profiles import gauss_panels


class TestProfileHat:
    def test_mass_normalization(self):
        assert H.profile_hat(H.maxwellian(1.0), 0.0) == pytest.approx(1.0, abs=0)

    def test_maxwellian_closed_forms(self):
        assert H.profile_hat(H.maxwellian(1.0), 1.0) == pytest.approx(np.exp(-0.5), rel=1e-14)
        assert H.profile_hat(H.maxwellian(0.5), 2.0) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_bounded_by_mass(self):
        xi = np.linspace(-30, 30, 401)
        for prof in (H.maxwellian(0.7), H.two_stream(1.0, 2.5), H.maxwellian(2.0, mass=3.0)):
            assert np.max(np.abs(H.profile_hat(prof, xi))) <= prof.mass + 1e-12

    def test_maxwellian_log_concave_in_xi_squared(self):
        prof = H.maxwellian(1.3)
        u = np.linspace(0.0, 9.0, 40)          # u = xi^2
        vals = np.log(np.abs(H.profile_hat(prof, np.sqrt(u))))
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-10)

    def test_two_stream_even_and_real(self):
        prof = H.two_stream(0.8, 1.5)
        xi = np.linspace(-10, 10, 101)
        vals = H.profile_hat(prof, xi)
        assert np.allclose(vals, vals[::-1])
        assert np.allclose(np.imag(vals), 0.0)
        # closed form: exp(-T xi^2/2) cos(v0 xi)
        assert vals[60] == pytest.approx(np.exp(-0.8 * xi[60] ** 2 / 2) * np.cos(1.5 * xi[60]), rel=1e-13)

    def test_tabulated_matches_closed_form(self):
        v = np.arange(-12.0, 12.0 + 1e-12, 0.005)
        eta = np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
        prof = H.tabulated(v, eta)
        xi = np.array([0.0, 0.5, 1.0, 3.0, 7.0])
        got = H.profile_hat(prof, xi)
        assert np.max(np.abs(got - np.exp(-xi * xi / 2))) < 1e-10

    def test_tabulated_conjugate_symmetry(self):
        v = np.arange(-10.0, 10.0 + 1e-12, 0.01)
        eta = np.exp(-((v - 0.7) ** 2))         # real but not even
        prof = H.tabulated(v, eta)
        z = H.profile_hat(prof, 2.3)
        zm = H.profile_hat(prof, -2.3)
        assert zm == pytest.approx(np.conj(z), rel=1e-12)


    def test_quadrature_rule_not_inherited_from_freed_profile(self):
        # a table built after another was freed may get the freed one's id();
        # its transform must come from its own samples
        v = np.arange(-16.0, 16.0 + 1e-12, 0.02)
        for _ in range(10):
            first = H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi))
            assert H.profile_hat(first, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-8)
            del first
            gc.collect()
            second = H.tabulated(v, np.exp(-v * v / 8) / np.sqrt(8 * np.pi))
            assert second.mass == pytest.approx(1.0, abs=1e-8)
            assert H.profile_hat(second, 1.0) == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_transform_does_not_depend_on_call_history(self):
        # a transform at a larger |xi| must not leave a finer rule for later calls
        v = np.linspace(-12.0, 12.0, 961)
        used, fresh = (H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi)) for _ in range(2))
        H.profile_hat(used, 400.0)
        xi = np.linspace(-30.0, 30.0, 601)
        assert np.array_equal(H.profile_hat(used, xi), H.profile_hat(fresh, xi))

    def test_one_rule_per_panel_subdivision(self, monkeypatch):
        # every transform of a 40-step run on a 961-point table needs one panel per
        # table interval (max|xi - n t| < 160), so the table's mass rule serves them all
        built = []

        def counting(a, b, n_panels, rule):
            built.append(n_panels)
            return gauss_panels(a, b, n_panels, rule)

        monkeypatch.setattr(profiles, "gauss_panels", counting)
        v = np.linspace(-12.0, 12.0, 961)
        prof = H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi))
        cfg = H.SimConfig(grid=H.make_grid(1, 13.0, 261, 1), kernel=H.InteractionKernel.cosine(), profile=prof,
                          perturbations=H.Perturbation(mode=1), epsilon=0.02, dt=0.05, t_final=2.0,
                          check_stability=False)
        H.run(cfg)
        assert built == [960]
        H.profile_hat(prof, np.array([200.0, 0.0]))        # per = 2
        H.profile_hat(prof, 1.0)
        assert built == [960, 1920]


class TestFourierSum:
    def test_same_bits_whatever_the_block_split(self, monkeypatch):
        rng = np.random.default_rng(7)
        nodes, weights = rng.uniform(0, 9, (40, 16)), rng.normal(size=(40, 16)) + 1j * rng.normal(size=(40, 16))
        targets = np.concatenate([rng.uniform(-30, 30, 37), rng.uniform(-30, 30, 6) - 1j * rng.uniform(0, 2, 6)])
        whole = profiles.fourier_sum(nodes, weights, targets)
        for pairs in (1, 640, 3 * 640 + 1, 11 * 640 - 1):       # 1, 1, 3 and 10 targets per block
            monkeypatch.setattr(profiles, "_PAIR_BLOCK", pairs)
            assert np.array_equal(profiles.fourier_sum(nodes, weights, targets), whole), pairs
        # one target at a time, and in the shape of the targets
        assert np.array_equal([profiles.fourier_sum(nodes, weights, t) for t in targets], whole)
        assert np.array_equal(profiles.fourier_sum(nodes, weights, targets[:42].reshape(6, 7)).ravel(), whole[:42])

    def test_tabulated_transform_memory_bounded(self):
        # 961-point table (weak_limit_profile's), 2049 targets: 7680 nodes
        v = np.linspace(-12.0, 12.0, 961)
        prof = H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi))
        xi = np.linspace(-40.96, 40.96, 2049)
        tracemalloc.start()
        try:
            vals = H.profile_hat(prof, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"      # one dense block: 504 MB
        # the closed form up to the cubic spline's error at this spacing
        assert np.max(np.abs(vals - np.exp(-xi * xi / 2))) < 1e-8


    def test_scattered_targets_memory_bounded(self):
        # the same table at 2049 scattered targets: the dense sum, in blocks
        v = np.linspace(-12.0, 12.0, 961)
        prof = H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi))
        xi = np.sort(np.random.default_rng(11).uniform(-40.96, 40.96, 2049))
        tracemalloc.start()
        try:
            vals = H.profile_hat(prof, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(vals, profiles.fourier_sum(*profiles._tabulated_rule(prof, float(np.max(np.abs(xi)))), xi))
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
        assert np.max(np.abs(vals - np.exp(-xi * xi / 2))) < 1e-8


def table_maxwellian(n=961, half_width=12.0):
    v = np.linspace(-half_width, half_width, n)
    return H.tabulated(v, np.exp(-v * v / 2) / np.sqrt(2 * np.pi))


def dense_hat(prof, x, every=1):
    """The tabulated transform as the dense sum on the rule profile_hat takes for
    ``x``, at every ``every``-th target of its last axis."""
    return profiles.fourier_sum(*profiles._tabulated_rule(prof, float(np.max(np.abs(x)))), x[..., ::every])


class TestChirpZ:
    """The chirp-z path against the dense sum it replaces (measured: at most 5.1e-14
    absolute on these cases, against 1e-10 here)."""

    @pytest.mark.parametrize("n_xi, xi_max", [(361, 18.0), (881, 44.0)])
    def test_weak_limit_transform_matches_dense_sum(self, n_xi, xi_max):
        # weak_limit_profile's sum: n_xi cell-centred xi nodes onto 961 targets -v
        grid = H.make_grid(2, xi_max, n_xi, 1)
        rng = np.random.default_rng(5)
        weights = grid.trapz_weights() * (1 + 0.3j) * np.exp(-grid.xi ** 2 / 8) * (1 + 0.1 * rng.normal(size=n_xi))
        v = np.linspace(-12.0, 12.0, 961)
        got = profiles.chirp_z(weights, grid.xi[0] - 0.5 * grid.dxi, grid.dxi, 0.0, -v)
        assert np.max(np.abs(got - profiles.fourier_sum(grid.xi, weights, -v))) < 1e-10

    @pytest.mark.parametrize("n_xi, xi_max", [(361, 18.0), (1841, 92.0)])
    def test_stage_rows_match_dense_sum(self, n_xi, xi_max):
        prof = table_maxwellian()
        grid = H.make_grid(2, xi_max, n_xi, 1)
        for n in (1, 2, -1):
            for t in (0.0, 0.05, 3.7, 20.0, 40.0):
                x = grid.xi - n * t
                got = H.profile_hat(prof, x)[::5]
                assert np.max(np.abs(got - dense_hat(prof, x, every=5))) < 1e-10, (n, t)

    def test_mirror_rows_bitwise(self):
        # row -n of a run is conj(row n) reversed; the direct transform must agree bitwise
        prof = H.tabulated(np.linspace(-10.0, 10.0, 801), np.exp(-(np.linspace(-10.0, 10.0, 801) - 0.7) ** 2))
        xi = H.make_grid(2, 12.0, 241, 1).xi
        for t in (0.0, 0.05, 0.37, 2.5):
            for n in (1, 2):
                row = H.profile_hat(prof, xi - n * t)
                assert np.array_equal(H.profile_hat(prof, xi + n * t), np.conj(row)[::-1]), (n, t)
        assert np.array_equal(H.profile_hat(prof, xi), np.conj(H.profile_hat(prof, xi))[::-1])

    def test_scattered_and_short_targets_take_the_dense_sum(self):
        prof = table_maxwellian(161, 8.0)
        xi = np.linspace(-20.0, 20.0, 201)
        bent = xi + 1e-9 * np.sin(xi)                 # off uniform by far more than roundoff
        for x in (bent, np.array([0.3]), (xi ** 3 / 400.0).reshape(3, 67)):
            assert np.array_equal(H.profile_hat(prof, x), dense_hat(prof, x))

    def test_uniform_rows_of_a_batch_are_each_a_family(self):
        prof = table_maxwellian(161, 8.0)
        x = np.linspace(0.0, 30.0, 151)[None, :] + np.array([[0.0], [0.013], [-4.2]])
        got = H.profile_hat(prof, x)
        for row, fam in zip(got, x):
            assert np.array_equal(row, H.profile_hat(prof, fam))
        assert np.max(np.abs(got - dense_hat(prof, x))) < 1e-10

    def test_refuses_targets_that_are_no_progression(self):
        w = np.ones((10, 2))
        for taus in (np.array([0.0, 1.0, 3.0]), np.array([1.0]), np.ones((2, 3)), np.array([0.0, 1.0, np.nan])):
            with pytest.raises(ValueError, match="uniform progression"):
                profiles.chirp_z(w, 0.0, 0.1, np.array([-0.05, 0.05]), taus)


def scipy_chirp_z(weights, a, step, offsets, taus):
    """chirp_z's body as it was on ``scipy.fft``, the reference for the numpy.fft path."""
    from scipy import fft as sp_fft

    fw = np.reshape(weights, (len(weights), -1))
    n_panels, n_tau = fw.shape[0], taus.size
    alpha = step * (taus[-1] - taus[0]) / (n_tau - 1)
    jc, pc = (n_tau - 1) // 2, (n_panels - 1) // 2
    j = np.arange(n_tau) - jc
    p = np.arange(n_panels) - pc
    lags = np.arange(1 - n_panels, n_tau) - (jc - pc)
    size = sp_fft.next_fast_len(n_panels + n_tau - 1)
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[:n_tau] = np.exp(0.5j * alpha * lags[n_panels - 1:] ** 2)
    chirp[size - n_panels + 1:] = np.exp(0.5j * alpha * lags[:n_panels - 1] ** 2)
    x = fw.T * np.exp(-1j * (taus[jc] * step * p + 0.5 * alpha * p * p))
    conv = sp_fft.ifft(sp_fft.fft(x, size, axis=-1) * sp_fft.fft(chirp), axis=-1)[:, :n_tau]
    outer = np.exp(-1j * np.multiply.outer(taus, a + (pc + 0.5) * step + np.atleast_1d(offsets)))
    return np.add.reduce(outer * (conv * np.exp(-0.5j * alpha * j * j)).T, axis=1)


class TestAgainstScipy:
    """The numpy paths against the scipy calls they replace.  The bitwise
    checks pin the installed numpy and scipy: both wrap pocketfft, and
    ``_spline`` takes ``CubicSpline``'s arithmetic step for step."""

    def test_next_fast_len(self):
        from scipy.fft import next_fast_len

        assert all(profiles._next_fast_len(n) == next_fast_len(n, real=False) for n in range(1, 20001))

    @pytest.mark.parametrize("n_tau", [601, 2001])
    @pytest.mark.parametrize("n_panels", [44, 45, 97, 128, 211, 300])
    def test_chirp_z_bitwise_scipy_fft_on_scan_shapes(self, n_panels, n_tau):
        # a Penrose scan: weights per (panel, 16 Gauss offsets), taus symmetric about 0
        rng = np.random.default_rng(n_panels * n_tau)
        fw = rng.normal(size=(n_panels, 16)) + 1j * rng.normal(size=(n_panels, 16))
        hp = 60.0 / n_panels
        offsets = (0.5 * hp) * np.polynomial.legendre.leggauss(16)[0]
        taus = np.linspace(-8.0 / hp, 8.0 / hp, n_tau)
        assert np.array_equal(profiles.chirp_z(fw, 0.0, hp, offsets, taus),
                              scipy_chirp_z(fw, 0.0, hp, offsets, taus))

    @pytest.mark.parametrize("n_xi, xi_max", [(361, 18.0), (881, 44.0)])
    def test_chirp_z_bitwise_scipy_fft_on_one_node_per_panel(self, n_xi, xi_max):
        # weak_limit_profile's inverse transform: 1-D weights, a scalar offset
        grid = H.make_grid(2, xi_max, n_xi, 1)
        weights = grid.trapz_weights() * (1 + 0.3j) * np.exp(-grid.xi ** 2 / 8)
        args = (weights, grid.xi[0] - 0.5 * grid.dxi, grid.dxi, 0.0, -np.linspace(-12.0, 12.0, 961))
        assert np.array_equal(profiles.chirp_z(*args), scipy_chirp_z(*args))

    @pytest.mark.parametrize("n", [4, 5, 161, 961, 1921])
    def test_spline_matches_cubic_spline(self, n):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        v = np.linspace(-12.0, 12.0, n)
        x = np.concatenate([v, rng.uniform(v[0], v[-1], 4000), [np.nextafter(v[0], 0.0), np.nextafter(v[-1], 0.0)]])
        for y in (np.exp(-v * v / 2) / np.sqrt(2 * np.pi), rng.normal(size=n)):
            got = profiles._spline(v, y)(x)
            assert np.max(np.abs(got - CubicSpline(v, y)(x))) <= 1e-15 * np.max(np.abs(y))


def per_line_profile_csv(prof, path):
    """save_profile_csv's writer before it took grids.write_series_csv."""
    with open(path, "w") as fh:
        fh.write("v,eta\n")
        for vi, ei in zip(prof.v_samples, prof.eta_samples):
            fh.write(f"{vi:.17g},{ei:.17g}\n")


class TestProfileCsv:
    def test_bytes_equal_to_per_line_writer(self, tmp_path):
        v = np.linspace(-12.0, 12.0, 961)
        eta = np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
        eta[[0, 1, 2, 3, 4]] = [-0.0, 5e-324, 1e300, -1.0 / 3.0, 0.1]
        prof = H.tabulated(v, eta)
        H.save_profile_csv(prof, tmp_path / "new.csv")
        per_line_profile_csv(prof, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_roundtrip(self, tmp_path):
        v = np.linspace(-8, 8, 801)
        prof = H.maxwellian(1.0)
        path = tmp_path / "profile.csv"
        H.save_profile_csv(H.tabulated(v, H.profile_values(prof, v)), path)
        assert path.read_text().splitlines()[0] == "v,eta"
        back = H.load_profile_csv(path)
        assert back.kind == "tabulated"
        assert np.allclose(H.profile_values(back, v[100:700]), H.profile_values(prof, v[100:700]),
                           atol=1e-12)

    def test_closed_form_profile_refused(self, tmp_path):
        with pytest.raises(ValueError, match="only tabulated"):
            H.save_profile_csv(H.maxwellian(1.0), tmp_path / "profile.csv")

    def test_nonuniform_grid_rejected(self):
        v = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(ValueError, match="uniform"):
            H.tabulated(v, np.ones_like(v))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected_with_first_index(self, bad):
        v = np.linspace(-4.0, 4.0, 9)
        eta = np.exp(-v * v / 2)
        eta[[5, 7]] = bad
        with pytest.raises(ValueError, match=rf"eta_samples\[5\] is {bad}"):
            H.tabulated(v, eta)


class TestSynthInitial:
    def test_zero_amplitude(self):
        grid = H.make_grid(2, 8.0, 65, 1)
        f = H.synth_initial([H.Perturbation(mode=1, amplitude=0.0)], grid)
        assert np.all(f.values == 0.0)

    def test_gaussian_both_rows(self):
        grid = H.make_grid(2, 8.0, 65, 1)
        f = H.synth_initial([H.Perturbation(mode=1, amplitude=1.0, envelope="gaussian")], grid)
        mid = (grid.n_xi - 1) // 2
        assert f.values[grid.row(1), mid] == pytest.approx(1.0, abs=0)
        assert f.values[grid.row(-1), mid] == pytest.approx(1.0, abs=0)

    def test_algebraic_tail_value(self):
        grid = H.make_grid(1, 8.0, 65, 1)
        f = H.synth_initial([H.Perturbation(mode=1, amplitude=1.0, envelope="algebraic",
                                            tail_exponent=7.0)], grid)
        j = np.argmin(np.abs(grid.xi - 1.0))
        assert f.values[grid.row(1), j] == pytest.approx(2.0 ** -3.5, rel=1e-14)

    def test_mode_out_of_range(self):
        grid = H.make_grid(1, 8.0, 65, 1)
        with pytest.raises(ValueError, match="mode"):
            H.synth_initial([H.Perturbation(mode=3)], grid)

    def test_reality_invariant(self):
        grid = H.make_grid(3, 8.0, 65, 1)
        perts = (H.Perturbation(mode=1, amplitude=0.7),
                 H.Perturbation(mode=2, amplitude=0.3, envelope="algebraic", tail_exponent=5.0))
        f = H.synth_initial(perts, grid)
        assert np.max(np.abs(f.values[::-1, ::-1] - np.conj(f.values))) < 1e-15

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            H.Perturbation(mode=1, amplitude=-1.0)
