"""Memory kernel, its half-plane transform, and the winding stability check."""

import time

import numpy as np
import pytest
from scipy.special import wofz

import hmflab as H
from hmflab import penrose, profiles

COS = H.InteractionKernel.cosine()
ANTI = H.InteractionKernel.anticosine()
TWO = H.InteractionKernel((0.5, 0.25))


def khat_closed_form(p1, T, tau):
    """Transform of -p1 * t * exp(-T t^2 / 2) on t >= 0 via the Faddeeva function.

    int_0^inf t e^{-a t^2 - i tau t} dt = 1/(2a) - (i tau / 2a) * J,
    J = sqrt(pi)/(2 sqrt(a)) * wofz(-tau / (2 sqrt(a))), valid for Im tau <= 0.
    """
    a = T / 2.0
    tau = np.asarray(tau, dtype=complex)
    J = np.sqrt(np.pi) / (2 * np.sqrt(a)) * wofz(-tau / (2 * np.sqrt(a)))
    return -p1 * (1 / (2 * a) - 1j * tau / (2 * a) * J)


class TestMemoryKernel:
    def test_cosine_maxwellian_value(self):
        got = H.memory_kernel(COS, H.maxwellian(1.0), 1, 1.0)
        assert got == pytest.approx(-0.5 * np.exp(-0.5), rel=1e-14)

    def test_causality(self):
        t = np.array([-5.0, -0.5, -1e-9])
        assert np.all(H.memory_kernel(COS, H.maxwellian(1.0), 1, t) == 0.0)

    def test_anticosine_value(self):
        got = H.memory_kernel(ANTI, H.maxwellian(0.5), 1, 2.0)
        assert got == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_inactive_mode_is_zero(self):
        assert np.all(H.memory_kernel(COS, H.maxwellian(1.0), 3, np.linspace(0, 5, 11)) == 0.0)

    def test_fourth_power_decay_bound(self):
        t = np.linspace(0.0, 100.0, 2001)
        k = H.memory_kernel(COS, H.maxwellian(1.0), 1, t)
        assert np.max(np.abs(k) * (1 + t * t) ** 2) < 10.0


class TestKernelTransform:
    def test_at_zero_frequency(self):
        assert H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, 0.0) == pytest.approx(-0.5, abs=1e-12)
        assert H.memory_kernel_transform(ANTI, H.maxwellian(0.25), 1, 0.0) == pytest.approx(2.0, abs=1e-11)

    def test_inactive_mode(self):
        taus = np.linspace(-5, 5, 11)
        assert np.all(H.memory_kernel_transform(COS, H.maxwellian(1.0), 2, taus) == 0.0)

    def test_against_faddeeva_oracle_on_real_axis(self):
        taus = np.linspace(-40.0, 40.0, 101)
        got = H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, taus)
        exact = khat_closed_form(0.5, 1.0, taus)
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_against_faddeeva_oracle_lower_half_plane(self):
        taus = np.array([0.3 - 0.7j, -2.0 - 0.1j, -1j * 1.5, 5.0 - 2.0j])
        got = H.memory_kernel_transform(ANTI, H.maxwellian(0.4), 1, taus)
        exact = khat_closed_form(-0.5, 0.4, taus)
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_upper_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Im tau"):
            H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, 1.0 + 0.5j)

    def test_conjugacy(self):
        for tau in (1.7, 0.4 - 0.9j):
            a = H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, tau)
            b = H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, -np.conj(tau))
            assert b == pytest.approx(np.conj(a), rel=1e-12)

    def test_inverse_square_decay(self):
        taus = np.array([10.0, 20.0, 40.0, 80.0])
        vals = np.abs(H.memory_kernel_transform(COS, H.maxwellian(1.0), 1, taus))
        assert np.max(vals * (1 + taus ** 2)) < 10.0


class TestPenroseCheck:
    def test_cosine_maxwellian_stable(self):
        report = H.penrose_check(COS, H.maxwellian(1.0))
        assert report.stable
        mode = report.modes[0]
        assert mode.winding == 0
        # independent oracle for the real-axis minimum via the Faddeeva form
        taus = np.linspace(-60, 60, 40001)
        oracle = float(np.min(np.abs(1 - khat_closed_form(0.5, 1.0, taus))))
        assert mode.kappa_est == pytest.approx(oracle, abs=1e-4)

    def test_anticosine_cold_unstable(self):
        report = H.penrose_check(ANTI, H.maxwellian(0.4))
        assert not report.stable
        assert report.modes[0].winding != 0
        assert report.modes[0].kappa_est == 0.0

    def test_zero_kernel_trivially_stable(self):
        report = H.penrose_check(H.InteractionKernel((0.0,)), H.maxwellian(1.0))
        assert report.stable
        assert report.kappa_est == 1.0
        assert report.modes == ()

    def test_winding_invariant_under_refinement(self):
        for kernel, T in ((COS, 1.0), (ANTI, 0.4), (ANTI, 0.7)):
            coarse = H.penrose_check(kernel, H.maxwellian(T), n_tau=801)
            fine = H.penrose_check(kernel, H.maxwellian(T), n_tau=1601)
            assert coarse.modes[0].winding == fine.modes[0].winding

    def test_two_mode_kernel_reports_both(self):
        report = H.penrose_check(H.InteractionKernel((0.5, 0.25)), H.maxwellian(1.0))
        assert [m.n for m in report.modes] == [1, 2]
        assert report.stable

    def test_json_dict_keys(self):
        report = H.penrose_check(COS, H.maxwellian(1.0))
        doc = report.to_json_dict()
        mode = doc["modes"][0]
        for key in ("n", "winding", "min_abs", "kappa_est", "stable", "tau_scan"):
            assert key in mode
        assert len(mode["tau_scan"][0]) == 3


class TestCriticalParameter:
    def test_anticosine_critical_temperature(self):
        family = lambda T: (ANTI, H.maxwellian(T))
        t_c = H.critical_parameter(family, 0.1, 1.0, tol=1e-3)
        # closed form: 1 - Khat(1, 0) = 1 - 1/(2T) vanishes at T = 1/2
        assert t_c == pytest.approx(0.5, abs=1e-3)

    def test_same_verdict_bracket_rejected(self):
        family = lambda T: (COS, H.maxwellian(T))
        with pytest.raises(ValueError, match="verdict"):
            H.critical_parameter(family, 0.1, 1.0)

    def test_degenerate_bracket_rejected(self):
        family = lambda T: (ANTI, H.maxwellian(T))
        with pytest.raises(ValueError, match="bracket"):
            H.critical_parameter(family, 0.4, 0.4)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        family = lambda T: (ANTI, H.maxwellian(T))
        with pytest.raises(ValueError, match="tol must be positive"):
            H.critical_parameter(family, 0.1, 1.0, tol=tol)


class TestBisect:
    @pytest.mark.parametrize("root, hi, tol", [(0.3, 1.0, 0.0), (0.3, 1.0, 1e-17), (3.0e7, 2.0 ** 25, 1e-10)],
                             ids=["tol0", "below_spacing", "root_above_1e6"])
    def test_ends_where_the_midpoint_rounds_to_an_end(self, root, hi, tol):
        # tol at or below the float spacing at the root: hi - lo stops
        # shrinking, and the bisection ends on two adjacent floats instead
        mids = []

        def keep_lo(mid):
            mids.append(mid)
            assert len(mids) < 200
            return mid < root

        got = penrose._bisect(keep_lo, 0.0, hi, tol)
        assert abs(got - root) <= np.spacing(root)
        assert len(mids) <= 80


def bisected_root(ik, prof, n=1, tol=1e-10):
    """growth_rate as a bisection over memory_kernel_transform, one transform
    (and one panel rule) per evaluation: the reference for growth_rate."""

    def h(lam):
        return 1.0 - float(np.real(H.memory_kernel_transform(ik, prof, n, -1j * lam)))

    assert h(0.0) < 0.0
    hi = 0.25
    while not h(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestGrowthRate:
    @pytest.mark.parametrize("ik, T, n", [(ANTI, 0.2, 1), (ANTI, 0.4, 1), (ANTI, 0.49, 1),
                                          (H.InteractionKernel((-0.5, 0.3)), 0.2, 1),
                                          (H.InteractionKernel((0.0, -0.5)), 0.3, 2)])
    def test_bitwise_the_bisection_over_the_transform(self, ik, T, n):
        assert H.growth_rate(ik, H.maxwellian(T), n=n) == bisected_root(ik, H.maxwellian(T), n=n)

    def test_matches_independent_quadrature_root(self):
        # frozen from a scipy.integrate.quad + bisection computation of
        # (1/2) int t exp(-0.2 t^2 - lam t) dt = 1
        lam = H.growth_rate(ANTI, H.maxwellian(0.4))
        assert lam == pytest.approx(0.11616622852666483, abs=1e-6)

    def test_root_is_resolvent_zero(self):
        lam = H.growth_rate(ANTI, H.maxwellian(0.4))
        val = H.memory_kernel_transform(ANTI, H.maxwellian(0.4), 1, -1j * lam)
        assert abs(1.0 - val) < 1e-8

    def test_stable_state_rejected(self):
        with pytest.raises(ValueError, match="no root"):
            H.growth_rate(COS, H.maxwellian(1.0))


class TestKernelCutoffCache:
    def test_second_probe_takes_no_new_sample(self, monkeypatch):
        samples = []
        kernel = penrose.memory_kernel

        def counting(ik, prof, n, t):
            samples.append(np.size(t))
            return kernel(ik, prof, n, t)

        monkeypatch.setattr(penrose, "memory_kernel", counting)
        prof, taus = H.maxwellian(0.8), np.array([0.5, 3.0])
        first = H.memory_kernel_transform(COS, prof, 1, taus)
        assert samples.count(2001) == 1
        # same content, another kernel object: still no new sample
        second = H.memory_kernel_transform(H.InteractionKernel((0.5,)), prof, 1, taus)
        assert samples.count(2001) == 1
        assert np.array_equal(first, second)
        H.memory_kernel_transform(TWO, prof, 2, taus)
        H.memory_kernel_transform(COS, H.maxwellian(0.8), 1, taus)
        assert samples.count(2001) == 3


class TestOneRulePerQuestion:
    """Rule builds counted as memory_kernel samples other than the 2001-point cutoff sample."""

    @staticmethod
    def count_rule_samples(monkeypatch):
        sizes = []
        kernel = penrose.memory_kernel

        def counting(ik, prof, n, t):
            sizes.append(np.size(t))
            return kernel(ik, prof, n, t)

        monkeypatch.setattr(penrose, "memory_kernel", counting)
        return lambda: sum(size != 2001 for size in sizes)

    def test_one_rule_per_probe_none_for_scan_or_refinements(self, monkeypatch):
        rules = self.count_rule_samples(monkeypatch)
        mode = H.penrose_check(ANTI, H.maxwellian(0.49), n_tau=101).modes[0]
        assert mode.tau_scan.shape[0] > 101                       # the scan was refined
        assert mode.tau_scan[-1, 0] == 32.0 and rules() == 2      # probes at 16 and 32
        mode = H.penrose_check(ANTI, H.maxwellian(0.2), tau_max=40.0, n_tau=101).modes[0]
        assert mode.tau_scan.shape[0] > 101 and rules() == 3      # one probe at the given tau_max

    def test_one_rule_per_growth_rate(self, monkeypatch):
        rules = self.count_rule_samples(monkeypatch)
        H.growth_rate(ANTI, H.maxwellian(0.4))
        assert rules() == 1


def chirp_scan(rule, taus):
    """The initial scan as _scan_mode takes it: chirp-z over the panel rule."""
    _, fw, hp = rule
    return profiles.chirp_z(fw, 0.0, hp, (0.5 * hp) * penrose._GL16[0], taus)


def dense_chirp_z(weights, a, step, offsets, taus):
    """chirp_z's sum taken densely on the nodes it stands for: the reference
    for the chirp-z scan path."""
    p = np.arange(len(weights))[:, None]
    return profiles.fourier_sum(a + (p + 0.5) * step + offsets, weights, taus)


class TestUniformScanTransform:
    @pytest.mark.parametrize("T", [0.1, 0.365, 1.51])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tau_max, n_tau", [(16.0, 601), (16.0, 2001), (64.0, 601), (64.0, 2001)])
    def test_matches_dense_sum_and_closed_form(self, T, n, tau_max, n_tau):
        taus = np.linspace(-tau_max, tau_max, n_tau)
        prof = H.maxwellian(T)
        rule = penrose._panel_rule(TWO, prof, n, tau_max)
        got = chirp_scan(rule, taus)
        dense = profiles.fourier_sum(rule[0], rule[1], taus)
        # K(n, t) = -n^2 p_n t exp(-n^2 T t^2 / 2)
        exact = khat_closed_form(n * n * TWO.coefficient(n), n * n * T, taus)
        # the public transform sums the same rule for these taus
        assert np.array_equal(dense, H.memory_kernel_transform(TWO, prof, n, taus))
        # measured over these 24 shapes: at most 1.6e-13
        assert np.max(np.abs(got - dense)) <= 4e-13
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_two_stream(self):
        # etahat = exp(-T xi^2 / 2) cos(v0 xi) shifts the maxwellian transform by +-v0
        taus = np.linspace(-32.0, 32.0, 1201)
        rule = penrose._panel_rule(COS, H.two_stream(0.3, 1.7), 1, 32.0)
        got = chirp_scan(rule, taus)
        dense = profiles.fourier_sum(rule[0], rule[1], taus)
        exact = 0.5 * (khat_closed_form(0.5, 0.3, taus - 1.7) + khat_closed_form(0.5, 0.3, taus + 1.7))
        assert np.max(np.abs(got - dense)) < 1e-10
        assert np.max(np.abs(got - exact)) < 1e-10


VERDICT_CASES = [(k, H.maxwellian(T)) for k in (COS, ANTI, TWO, H.InteractionKernel((-0.5, 0.3)))
                 for T in (0.2, 0.365, 0.49, 0.5, 0.51, 1.51)]
VERDICT_CASES += [(COS, H.two_stream(0.2, 1.5)), (ANTI, H.two_stream(0.5, 1.0))]


class TestScanPathVerdicts:
    def test_identical_to_dense_scan(self, monkeypatch):
        fast = [H.penrose_check(k, p) for k, p in VERDICT_CASES]
        monkeypatch.setattr(penrose, "chirp_z", dense_chirp_z)
        slow = [H.penrose_check(k, p) for k, p in VERDICT_CASES]
        assert any(not r.stable for r in fast) and any(r.stable for r in fast)
        for a, b in zip(fast, slow):
            assert a.stable == b.stable
            for ma, mb in zip(a.modes, b.modes, strict=True):
                assert (ma.winding, ma.stable) == (mb.winding, mb.stable)
                assert abs(ma.min_real_axis - mb.min_real_axis) < 1e-11
                assert ma.tau_scan.shape == mb.tau_scan.shape
                assert np.max(np.abs(ma.tau_scan - mb.tau_scan)) < 1e-11

    def test_critical_temperature_identical_to_dense_scan(self, monkeypatch):
        family = lambda T: (ANTI, H.maxwellian(T))
        fast = H.critical_parameter(family, 0.1, 1.0, tol=1e-3)
        monkeypatch.setattr(penrose, "chirp_z", dense_chirp_z)
        assert H.critical_parameter(family, 0.1, 1.0, tol=1e-3) == fast


def table(T=1.0, n=961, half_width=12.0):
    v = np.linspace(-half_width, half_width, n)
    return H.tabulated(v, np.exp(-v * v / (2 * T)) / np.sqrt(2 * np.pi * T))


class TestTabulatedBackground:
    """The tabulated kernel takes chirp-z on its 16 Gauss-offset families; checked
    against the dense sum it replaces and against the closed-form maxwellian."""

    @pytest.mark.parametrize("ik, n", [(COS, 1), (TWO, 2)])
    def test_panel_families_match_dense_sum(self, ik, n):
        prof = table(1.0, 161, 8.0)
        nodes, fw, hp = penrose._panel_rule(ik, prof, n, 32.0)
        _, w = profiles.gauss_panels(0.0, hp * nodes.shape[0], nodes.shape[0], penrose._GL16)
        x = n * nodes[::37]                    # every 37th panel of each family, densely
        dense = profiles.fourier_sum(*profiles._tabulated_rule(prof, float(n * nodes.max())), x)
        # measured over all panels: at most 2.9e-13 absolute on fw (|K| up to 0.3)
        assert np.max(np.abs(fw[::37] - w[::37] * (-n * ik.coefficient(n)) * x * dense)) < 1e-10

    @pytest.mark.parametrize("prof", [table(), table(0.3, 161, 8.0), table(2.0, 1601, 16.0)], ids=["961", "161", "1601"])
    def test_kernel_cutoff_is_that_of_the_dense_sample(self, prof):
        # a spline table's transform decays algebraically: even the dense sum keeps
        # |K| above the 1e-16 threshold at the last sample (measured >= 3.1e-14 at
        # t = 400), so the cutoff is the 400 cap whichever sum takes the sample
        rule = profiles._tabulated_rule(prof, penrose._T_CUT_CAP)
        assert abs(0.5 * penrose._T_CUT_CAP * profiles.fourier_sum(*rule, penrose._T_CUT_CAP)) >= penrose._KERNEL_TINY
        assert penrose._kernel_cutoff(COS, prof, 1) == penrose._T_CUT_CAP

    @pytest.mark.parametrize("ik, T", [(COS, 1.0), (TWO, 1.0), (ANTI, 1.0), (ANTI, 0.3)])
    def test_verdict_of_the_closed_form(self, ik, T):
        got, ref = H.penrose_check(ik, table(T)), H.penrose_check(ik, H.maxwellian(T))
        for a, b in zip(got.modes, ref.modes, strict=True):
            assert (a.winding, a.stable) == (b.winding, b.stable)
            # measured: 2.3e-7 at the anticosine (the table's own transform error,
            # summed over t up to 400), 1.3e-8 otherwise
            assert abs(a.kappa_est - b.kappa_est) < 1e-6

    def test_runtime_guard(self):
        # measured on a 2-core VM: 0.1-0.4 s, and 46 s with the kernel sampled densely
        prof = table()
        start = time.perf_counter()
        report = H.penrose_check(COS, prof)
        elapsed = time.perf_counter() - start
        assert report.stable
        assert elapsed < 5.0, f"penrose_check on a 961-point table took {elapsed:.1f} s"
