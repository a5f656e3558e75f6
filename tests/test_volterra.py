"""Product-trapezoidal Volterra solver and the boundedness harness."""

import numpy as np
import pytest

import hmflab as H
from hmflab import volterra

ONES = lambda t: np.ones_like(t)
NEG_ONES = lambda t: -np.ones_like(t)
TWO = H.InteractionKernel((0.5, 0.25))


def reference_march(kernel_samples, forcing_samples, dt, support=None):
    """The full-history product-trapezoid loop, the reference for the
    truncated batched march; ``support`` keeps only the lags 1..support."""
    K = np.asarray(kernel_samples, dtype=np.complex128)
    F = np.asarray(forcing_samples, dtype=np.complex128)
    denom = 1.0 - 0.5 * dt * K[0]
    n = K.size - 1
    support = n if support is None else support
    z = np.empty(n + 1, dtype=np.complex128)
    z[0] = F[0]
    for j in range(1, n + 1):
        lo = max(1, j - support)
        acc = 0.5 * K[j] * z[0]
        if j > lo:
            acc = acc + np.add.reduce(K[1:j - lo + 1][::-1] * z[lo:j])
        z[j] = (F[j] + dt * acc) / denom
    return z


def support_index(K):
    """Last index where |K| exceeds 1e-16 of its peak."""
    mag = np.abs(K)
    return int(np.nonzero(mag > 1e-16 * mag.max())[0][-1])


def kernel_and_forcing(ik, T, n, dt=0.02, t_final=60.0):
    t = np.arange(int(round(t_final / dt)) + 1) * dt
    return H.memory_kernel(ik, H.maxwellian(T), n, t), (1 + t * t) ** -1.5 * np.exp(0.3j * t), dt


class TestSolveVolterra:
    def test_zero_kernel_returns_forcing(self):
        forcing = lambda t: np.cos(t) + 1j * np.sin(3 * t)
        sol = H.solve_volterra(lambda t: np.zeros_like(t), forcing, dt=0.01, t_final=2.0)
        assert np.max(np.abs(sol.mode(0) - forcing(sol.times))) == 0.0

    def test_exponential_analytic_case(self):
        # z = K*z + 1 with K = -1 differentiates to z' = -z, z(0) = 1
        sol = H.solve_volterra(NEG_ONES, ONES, dt=1e-3, t_final=1.0)
        assert abs(sol.mode(0)[-1] - np.exp(-1.0)) <= 1e-6
        assert np.max(np.abs(sol.mode(0) - np.exp(-sol.times))) <= 1e-6

    def test_second_order_convergence(self):
        def max_err(dt):
            sol = H.solve_volterra(NEG_ONES, ONES, dt=dt, t_final=1.0)
            return np.max(np.abs(sol.mode(0) - np.exp(-sol.times)))

        ratio = max_err(2e-3) / max_err(1e-3)
        assert 3.2 <= ratio <= 4.8, f"convergence ratio {ratio}"

    def test_richardson_self_oracle_on_physical_kernel(self):
        kernel = lambda t: H.memory_kernel(H.InteractionKernel.cosine(), H.maxwellian(1.0), 1, t)
        forcing = lambda t: (1 + t * t) ** -2.0
        z1 = H.solve_volterra(kernel, forcing, dt=0.02, t_final=10.0).mode(0)
        z2 = H.solve_volterra(kernel, forcing, dt=0.01, t_final=10.0).mode(0)
        z4 = H.solve_volterra(kernel, forcing, dt=0.005, t_final=10.0).mode(0)
        e1 = abs(z1[-1] - z4[-1])
        e2 = abs(z2[-1] - z4[-1])
        # dt^2 error model: halving dt shrinks the gap to the fine solution ~4x
        assert 2.5 <= e1 / e2 <= 6.5, f"ratio {e1 / e2}"

    def test_linearity(self):
        kernel = lambda t: -0.5 * t * np.exp(-t * t / 2)
        f1 = lambda t: np.exp(-t)
        f2 = lambda t: 1.0 / (1 + t * t)
        a, b = 0.7 + 0.2j, -1.3
        dt = 0.01
        za = H.solve_volterra(kernel, f1, dt=dt, t_final=5.0).mode(0)
        zb = H.solve_volterra(kernel, f2, dt=dt, t_final=5.0).mode(0)
        zc = H.solve_volterra(kernel, lambda t: a * f1(t) + b * f2(t), dt=dt, t_final=5.0).mode(0)
        assert np.max(np.abs(zc - (a * za + b * zb))) < 1e-12

    def test_causality(self):
        # modifying the forcing beyond t' = 2 must not change the past
        kernel = lambda t: np.sin(t) * np.exp(-t)
        base = lambda t: np.cos(t)
        bumped = lambda t: np.cos(t) + np.where(t > 2.0, 5.0, 0.0)
        dt = 0.01
        za = H.solve_volterra(kernel, base, dt=dt, t_final=4.0).mode(0)
        zb = H.solve_volterra(kernel, bumped, dt=dt, t_final=4.0).mode(0)
        cut = int(round(2.0 / dt)) + 1
        assert np.max(np.abs(za[:cut] - zb[:cut])) == 0.0
        assert np.max(np.abs(za[cut + 1:] - zb[cut + 1:])) > 1.0

    def test_step_size_failure(self):
        with pytest.raises(ValueError, match="step-size"):
            H.solve_volterra(lambda t: np.full_like(t, 2000.0), ONES, dt=1e-3, t_final=0.1)

    def test_t_final_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            H.solve_volterra(NEG_ONES, ONES, dt=0.3, t_final=1.0)


TRUNCATED_CASES = [(H.InteractionKernel.cosine(), T, 1) for T in (0.365, 1.0, 1.51)]
TRUNCATED_CASES += [(TWO, T, n) for T in (0.365, 1.0, 1.51) for n in (1, 2)]


class TestTruncatedMarch:
    @pytest.mark.parametrize("ik, T, n", TRUNCATED_CASES)
    def test_matches_full_history(self, ik, T, n):
        K, F, dt = kernel_and_forcing(ik, T, n)
        assert support_index(K) < K.size // 2, "the kernel must be truncated for this test to bite"
        got = H.product_trapezoid(K, F, dt)
        ref = reference_march(K, F, dt)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ik, T, n", TRUNCATED_CASES[:3])
    def test_sums_exactly_the_support(self, ik, T, n):
        # the last in-support lag raised to a tenth of the peak: the march is the loop
        # cut at the support and far from the loop cut one lag short, so the cutoff is
        # not off by one
        K, F, dt = kernel_and_forcing(ik, T, n)
        L = support_index(K)
        K[L] = 0.1 * np.max(np.abs(K))
        assert support_index(K) == L
        got = H.product_trapezoid(K, F, dt)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - reference_march(K, F, dt, support=L))) <= 1e-14 * scale
        assert np.max(np.abs(got - reference_march(K, F, dt, support=L - 1))) >= 1e-6 * scale

    @pytest.mark.parametrize("kernel, forcing", [(NEG_ONES, ONES),
                                                 (np.cos, lambda t: np.exp(1j * t) / (1 + t))])
    def test_non_decaying_kernel_is_the_full_history_loop(self, kernel, forcing):
        t = np.arange(5001) * 1e-3
        got = H.solve_volterra(kernel, forcing, dt=1e-3, t_final=5.0).mode(0)
        ref = reference_march(kernel(t), forcing(t), 1e-3)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_batched_rows_equal_their_own_solves(self):
        K, _, dt = kernel_and_forcing(TWO, 1.0, 1)
        t = np.arange(K.size) * dt
        F = np.array([(1 + t * t) ** (-g / 2) * np.exp(1j * g * (t + 1)) for g in (2.0, 3.5, 6.0)])
        Z = H.product_trapezoid(K, F, dt)
        assert Z.shape == F.shape
        for f, z in zip(F, Z):
            assert np.array_equal(z, H.product_trapezoid(K, f, dt))

    def test_misaligned_batch_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            H.product_trapezoid(np.ones(11), np.ones((2, 10)), 0.1)

    def test_empty_samples_refused(self):
        with pytest.raises(ValueError, match="kernel_samples is empty"):
            H.product_trapezoid(np.ones(0), np.ones(0), 0.1)
        with pytest.raises(ValueError, match="kernel_samples is empty"):
            H.product_trapezoid(np.ones(0), np.ones((2, 0)), 0.1)

    def test_non_finite_samples_refused(self):
        # one NaN would make the support 0 and drop the whole history without a word
        K, F, dt = kernel_and_forcing(H.InteractionKernel.cosine(), 1.0, 1, t_final=10.0)
        bad = K.copy()
        bad[400] = np.nan
        with pytest.raises(ValueError, match=r"kernel_samples is not finite at index 400\b"):
            H.product_trapezoid(bad, F, dt)
        rows = np.array([F, F])
        rows[1, 7] = np.inf
        with pytest.raises(ValueError, match=r"forcing_samples is not finite at index \(1, 7\)"):
            H.product_trapezoid(K, rows, dt)


def block_case(kind, n, dt=0.05):
    """Kernel and forcing on n + 1 samples; the kernel's support is 0, 5 (< 32) or n."""
    m = np.arange(n + 1)
    t = m * dt
    K = {"zero": np.where(m == 0, -0.5, 0.0),
         "short": np.where(m <= 5, -np.exp(-m / 3.0), 0.0),
         "full": np.cos(0.3 * t) - 0.5}[kind]
    return K, np.exp(0.3j * t) / (1 + t) + 0.5, dt


class TestBlockGrid:
    @pytest.mark.parametrize("kind", ["zero", "short", "full"])
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 101])
    def test_matches_the_loop(self, n, kind):
        K, F, dt = block_case(kind, n)
        got = H.product_trapezoid(K, F, dt)
        assert got.shape == F.shape
        assert np.max(np.abs(got - reference_march(K, F, dt))) <= 1e-14 * np.max(np.abs(got))

    @pytest.mark.parametrize("kind", ["zero", "short", "full"])
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 101])
    def test_march_is_a_prefix_of_a_longer_march(self, n, kind):
        K, F, dt = block_case(kind, n + 77)
        assert np.array_equal(H.product_trapezoid(K[:n + 1], F[:n + 1], dt),
                              H.product_trapezoid(K, F, dt)[:n + 1])


class TestRealMarch:
    """Real kernel and real forcing march in real arithmetic; anything complex stays complex."""

    @staticmethod
    def real_case(ik=H.InteractionKernel.cosine(), T=1.0, n=1, dt=0.02, t_final=60.0):
        K, _, dt = kernel_and_forcing(ik, T, n, dt, t_final)
        t = np.arange(K.size) * dt
        return K, (1 + t * t) ** -1.5, dt

    @pytest.mark.parametrize("ik, T, n", TRUNCATED_CASES)
    def test_real_data_gives_real_result_near_the_loop(self, ik, T, n):
        K, F, dt = self.real_case(ik, T, n)
        assert K.dtype == np.float64
        got = H.product_trapezoid(K, F, dt)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - reference_march(K, F, dt))) <= 1e-14 * np.max(np.abs(got))

    @pytest.mark.parametrize("kind", ["zero", "short", "full"])
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 101])
    def test_real_block_edges_match_the_loop(self, n, kind):
        K, F, dt = block_case(kind, n)
        F = F.real
        got = H.product_trapezoid(K, F, dt)
        assert got.dtype == np.float64 and got.shape == F.shape
        assert np.max(np.abs(got - reference_march(K, F, dt))) <= 1e-14 * np.max(np.abs(got))

    def test_real_kernel_complex_forcing_stays_complex(self):
        K, F, dt = kernel_and_forcing(TWO, 1.0, 1)
        assert K.dtype == np.float64 and F.dtype == np.complex128
        assert H.product_trapezoid(K, F, dt).dtype == np.complex128

    def test_batched_real_rows_equal_their_own_solves(self):
        K, F, dt = self.real_case(TWO, 1.0, 1)
        t = np.arange(K.size) * dt
        rows = np.array([(1 + t * t) ** (-g / 2) for g in (2.0, 3.5, 6.0)] + [F])
        Z = H.product_trapezoid(K, rows, dt)
        assert Z.dtype == np.float64 and Z.shape == rows.shape
        for f, z in zip(rows, Z):
            assert np.array_equal(z, H.product_trapezoid(K, f, dt))

    @pytest.mark.parametrize("n", [0, 31, 33, 1000])
    def test_real_march_is_a_prefix_of_a_longer_march(self, n):
        K, F, dt = self.real_case(t_final=30.0)
        rows = np.array([F, F * F])
        assert np.array_equal(H.product_trapezoid(K[:n + 1], rows[:, :n + 1], dt),
                              H.product_trapezoid(K, rows, dt)[:, :n + 1])


class TestModeSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            H.ModeSeries(np.array([0.0, 0.1, 0.3]), {1: np.zeros(3)})
        with pytest.raises(ValueError, match="length"):
            H.ModeSeries(np.array([0.0, 0.1, 0.2]), {1: np.zeros(2)})



class TestHarness:
    def test_zero_kernel_gives_unit_ratios(self):
        rows = H.lemvolterra_harness(H.InteractionKernel((0.0,)), H.maxwellian(1.0),
                                     gammas=[2.0, 4.0], t_values=[10.0], dt=0.05)
        for _, _, ratio in rows:
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_matches_one_solve_per_row(self):
        # the previous harness loop as reference: one solve per (gamma, T), in the
        # given order, forced by <t>^-gamma
        ik, prof, dt = H.InteractionKernel.cosine(), H.maxwellian(1.0), 0.05
        gammas, t_values = [4.0, 2.0], [30.0, 10.0, 30.0]
        rows = H.lemvolterra_harness(ik, prof, gammas, t_values, dt=dt)

        def weighted_sup(series, gamma):
            # max over the samples of <t>^gamma |z(t)|, one series at a time
            w = (1.0 + series.times ** 2) ** (gamma / 2.0)
            return max(float(np.max(w * np.abs(series.mode(k)))) for k in series.modes)

        expected = []
        for gamma in gammas:
            forcing = lambda t: (1.0 + t * t) ** (-gamma / 2.0)
            for t_final in t_values:
                sol = H.solve_volterra(lambda t: H.memory_kernel(ik, prof, 1, t), forcing,
                                       dt=dt, t_final=t_final, mode=1)
                den = weighted_sup(H.ModeSeries(sol.times, {1: forcing(sol.times)}), gamma)
                expected.append((gamma, t_final, weighted_sup(sol, gamma) / den))
        assert rows == expected

    def test_short_rows_are_prefixes_of_the_long_march(self):
        ik, prof = H.InteractionKernel.cosine(), H.maxwellian(1.0)
        both = H.lemvolterra_harness(ik, prof, gammas=[2.0, 5.0], t_values=[50.0, 100.0], dt=0.05)
        short = H.lemvolterra_harness(ik, prof, gammas=[2.0, 5.0], t_values=[50.0], dt=0.05)
        assert [r for r in both if r[1] == 50.0] == short

    def test_t_not_multiple_of_dt_refused_before_marching(self, monkeypatch):
        marches = []
        monkeypatch.setattr(volterra, "product_trapezoid", lambda *args: marches.append(args))
        monkeypatch.setattr(volterra, "penrose_check", lambda *args: marches.append(args))
        with pytest.raises(ValueError, match="multiple"):
            H.lemvolterra_harness(H.InteractionKernel.cosine(), H.maxwellian(1.0),
                                  gammas=[2.0], t_values=[10.0, 10.01], dt=0.02)
        assert marches == []

    @pytest.mark.parametrize("gammas, t_values, message", [
        ([2.0, -1.0], [10.0], "gamma must be >= 0, got -1.0"),
        ([-0.5], [10.0], "gamma must be >= 0, got -0.5"),
        ([2.0], [10.0, 0.0], "T must be positive, got 0.0"),
        ([2.0], [-10.0], "T must be positive, got -10.0"),
    ], ids=["gamma -1 after a good one", "gamma -0.5", "T 0 after a good one", "T -10"])
    def test_bad_inputs_refused_before_marching(self, monkeypatch, gammas, t_values, message):
        marches = []
        monkeypatch.setattr(volterra, "product_trapezoid", lambda *args: marches.append(args))
        monkeypatch.setattr(volterra, "penrose_check", lambda *args: marches.append(args))
        with pytest.raises(ValueError) as info:
            H.lemvolterra_harness(H.InteractionKernel.cosine(), H.maxwellian(1.0), gammas, t_values, dt=0.02)
        assert str(info.value) == message
        assert marches == []

    def test_step_count_needs_a_positive_step(self):
        assert volterra.step_count(10.0, 0.02) == 500
        for dt in (0.0, -0.02):
            with pytest.raises(ValueError, match="dt must be positive"):
                volterra.step_count(10.0, dt)

    def test_unstable_state_refused(self):
        with pytest.raises(H.InvariantViolation, match="stability"):
            H.lemvolterra_harness(H.InteractionKernel.anticosine(), H.maxwellian(0.4),
                                  gammas=[2.0], t_values=[10.0])

    def test_ratios_finite_and_stabilizing(self):
        rows = H.lemvolterra_harness(H.InteractionKernel.cosine(), H.maxwellian(1.0),
                                     gammas=[2.0, 4.0, 6.0], t_values=[25.0, 50.0], dt=0.05)
        by_gamma = {}
        for g, T, r in rows:
            assert np.isfinite(r) and r > 0
            by_gamma.setdefault(g, []).append(r)
        for g, (r25, r50) in by_gamma.items():
            assert abs(r50 - r25) / r25 < 0.1, f"gamma={g}: {r25} vs {r50}"
