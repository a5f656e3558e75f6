"""Grid construction, weighted Sobolev norms, interpolation, embedding, field output."""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import quad

import hmflab as H
from hmflab.grids import symmetrized_values


def gaussian_field(grid, modes=(0,)):
    """Closed-form test field: rows set to exp(-xi^2/2) on the given modes."""
    vals = np.zeros(grid.shape, dtype=complex)
    env = np.exp(-grid.xi ** 2 / 2.0)
    for n in modes:
        vals[grid.row(n)] = env
    return H.SpectralField(grid, vals)


class TestMakeGrid:
    def test_three_node_grid(self):
        g = H.make_grid(1, 1.0, 3, 1)
        assert np.allclose(g.xi, [-1.0, 0.0, 1.0])

    def test_spacing(self):
        g = H.make_grid(8, 64.0, 1025, 1)
        assert g.dxi == pytest.approx(0.125, abs=0)

    def test_even_n_xi_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            H.make_grid(1, 1.0, 4, 1)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            H.make_grid(1, -2.0, 5, 1)
        with pytest.raises(ValueError):
            H.make_grid(0, 1.0, 5, 1)

    def test_m0_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            H.make_grid(1, 1.0, 5, 0)


# reference resolution for norm checks
REF_GRID = H.make_grid(1, 32.0, 2049, 1)


class TestSobolevNorm:
    def test_zero_field(self):
        f = H.SpectralField(REF_GRID, np.zeros(REF_GRID.shape))
        assert H.sobolev_norm(f, 0) == 0.0
        assert H.sobolev_norm(f, 3) == 0.0

    def test_gaussian_h0_closed_form(self):
        # ||f||^2 = int (1+v^2) e^{-v^2} dv = (3/2) sqrt(pi) for the unit
        # x-independent gaussian at m0 = 1
        f = gaussian_field(REF_GRID)
        expected = np.sqrt(1.5 * np.sqrt(np.pi))
        assert H.sobolev_norm(f, 0) == pytest.approx(expected, abs=1e-6)

    def test_gaussian_h2_quadrature_oracle(self):
        # physical-space oracle: x-independent => only v-derivatives survive,
        # d^q/dv^q e^{-v^2/2} = (-1)^q He_q(v) e^{-v^2/2}
        def deriv_sq_weighted(q):
            coeffs = [0.0] * q + [1.0]
            integrand = lambda v: (1 + v * v) * (hermeval(v, coeffs) * np.exp(-v * v / 2)) ** 2 / (2 * np.pi)
            return 2 * np.pi * quad(integrand, -40, 40, limit=200)[0]

        expected = np.sqrt(sum(deriv_sq_weighted(q) for q in range(3)))
        f = gaussian_field(REF_GRID)
        assert H.sobolev_norm(f, 2) == pytest.approx(expected, abs=1e-6)
        # frozen gaussian-moment closed form: sqrt(35 sqrt(pi) / 8)
        assert expected == pytest.approx(np.sqrt(35 * np.sqrt(np.pi) / 8), abs=1e-9)

    def test_two_mode_field_quadrature_oracle(self):
        # rows +-1 carrying exp(-xi^2/2) represent f = 2 cos(x) G(v) with
        # G = exp(-v^2/2)/sqrt(2 pi); every x-derivative keeps
        # int_T |d_x^p 2cos|^2 dx = 4 pi, so each (p, q) term contributes
        # 4 pi * int (1+v^2) (G^{(q)})^2 dv = 2 * int (1+v^2) (He_q e^{-v^2/2})^2 dv
        grid = H.make_grid(2, 32.0, 2049, 1)
        f = gaussian_field(grid, modes=(-1, 1))

        def v_integral(q):
            coeffs = [0.0] * q + [1.0]
            integrand = lambda v: (1 + v * v) * (hermeval(v, coeffs) * np.exp(-v * v / 2)) ** 2
            return quad(integrand, -40, 40, limit=200)[0]

        for order in range(4):
            total = 0.0
            for p in range(order + 1):
                for q in range(order + 1 - p):
                    total += 2.0 * v_integral(q)
            assert H.sobolev_norm(f, order) == pytest.approx(np.sqrt(total), rel=1e-6), f"order {order}"

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            H.sobolev_norm(gaussian_field(REF_GRID), -1)

    def test_ladder_consistent_with_single_orders(self):
        f = gaussian_field(REF_GRID)
        ladder = H.norm_ladder(f, 3)
        for n in range(4):
            assert ladder[n] == pytest.approx(H.sobolev_norm(f, n), rel=1e-14)


class TestInterp:
    def test_on_node_exact(self):
        g = H.make_grid(1, 4.0, 33, 1)
        rng = np.random.default_rng(7)
        row = rng.normal(size=33) + 1j * rng.normal(size=33)
        got = H.cubic_interp(row, g, g.xi)
        assert np.max(np.abs(got - row)) < 1e-13

    def test_outside_window_is_exactly_zero(self):
        g = H.make_grid(1, 4.0, 33, 1)
        row = np.ones(33, dtype=complex)
        assert H.cubic_interp(row, g, 4.3) == 0.0
        assert H.cubic_interp(row, g, -100.0) == 0.0

    def test_off_node_accuracy_and_refinement(self):
        # e^{-xi^2} at xi = 0.3 with dxi = 0.25; the four-point Lagrange error
        # bound h^4 |f''''| |th(th^2-1)(th-2)|/24 gives ~4e-4 here, and an
        # 8x-refined grid must beat the coarse error by the fourth-order factor
        exact = np.exp(-0.09)
        coarse = H.make_grid(1, 8.0, 65, 1)     # dxi = 0.25
        fine = H.make_grid(1, 8.0, 513, 1)      # dxi = 0.03125
        err_c = abs(H.cubic_interp(np.exp(-coarse.xi ** 2) + 0j, coarse, 0.3) - exact)
        err_f = abs(H.cubic_interp(np.exp(-fine.xi ** 2) + 0j, fine, 0.3) - exact)
        assert err_c <= 5e-4
        assert err_f < err_c / 100


class TestEmbedding:
    def test_constant_closed_forms(self):
        # int (1+v^2)^{-1} dv = pi, so C(1) = sqrt(pi / 2pi) = 1/sqrt(2)
        assert H.embedding_constant(1) == pytest.approx(1 / np.sqrt(2), rel=1e-12)
        # int (1+v^2)^{-2} dv = pi/2
        assert H.embedding_constant(2) == pytest.approx(np.sqrt(np.pi / 2 / (2 * np.pi)), rel=1e-12)

    def test_inequality_on_random_band_limited_fields(self):
        # 100 random smooth band-limited fields, all alpha + beta <= 3
        from conftest import random_band_limited
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
                    rhs = (2.0 ** (n / 2) * H.embedding_constant(1)
                           * (1 + kk * kk) ** (-alpha / 2) * (1 + xx * xx) ** (-beta / 2) * norms[n])
                    worst = max(worst, float(np.max(absf / rhs)))
        assert worst <= 1.0 + 1e-12, f"max lhs/rhs = {worst}"


def reality_defect(values):
    """Max deviation from ghat_{-n}(-xi) = conj(ghat_n(xi)) over all nodes."""
    return float(np.max(np.abs(values[::-1, ::-1] - np.conj(values))))


class TestReality:
    def test_symmetrize_and_defect(self):
        rng = np.random.default_rng(3)
        g = H.make_grid(2, 4.0, 17, 1)
        raw = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        assert reality_defect(raw) > 0.1
        assert reality_defect(symmetrized_values(raw)) < 1e-15

    def test_interp_preserves_pairing(self):
        rng = np.random.default_rng(5)
        g = H.make_grid(1, 8.0, 129, 1)
        raw = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        f = H.SpectralField(g, symmetrized_values(raw))
        for xi in (0.0, 0.37, 1.91):
            a = f.interp(1, xi)
            b = f.interp(-1, -xi)
            assert b == pytest.approx(np.conj(a), abs=1e-13)


class TestFieldCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        g = H.make_grid(2, 3.0, 7, 1)
        f = H.SpectralField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        path = tmp_path / "field.csv"
        H.write_field_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "n,xi,re,im"
        # 17 significant digits read back bitwise, rows in (n, xi-index) order
        back = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(back[:, 0], np.repeat(g.modes, g.n_xi))
        assert np.array_equal(back[:, 1], np.tile(g.xi, g.shape[0]))
        assert np.array_equal(back[:, 2] + 1j * back[:, 3], f.values.ravel())

    def test_bytes_equal_to_per_entry_writer(self, tmp_path):
        def per_entry(field, path):
            grid = field.grid
            with open(path, "w") as fh:
                fh.write("n,xi,re,im\n")
                for i, n in enumerate(grid.modes):
                    for j in range(grid.n_xi):
                        z = field.values[i, j]
                        fh.write(f"{n},{grid.xi[j]:.17g},{z.real:.17g},{z.imag:.17g}\n")

        g = H.make_grid(2, 18.0, 361, 1)
        rng = np.random.default_rng(12)
        vals = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300, size=g.shape) + 1j * rng.normal(size=g.shape)
        vals[1] = complex(-0.0, -0.0)
        vals[2, 7:9] = complex(0.0, -0.0)
        vals[:, 0] = (5e-324, -1.7976931348623157e308, 0.1, -2.0 / 3.0, 1.0)
        vals[:, -1] = -np.conj(vals[:, 0])
        f = H.SpectralField(g, vals)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        H.write_field_csv(f, got)
        per_entry(f, ref)
        assert got.read_bytes() == ref.read_bytes()
        assert sum(line.endswith(",-0,-0") for line in got.read_text().splitlines()) == g.n_xi - 2

    def test_immutability(self):
        f = H.SpectralField(REF_GRID, np.zeros(REF_GRID.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestSeriesCsv:
    def test_bytes_equal_to_per_element_writer(self, tmp_path):
        def per_element(path, header, columns):
            with open(path, "w") as fh:
                fh.write(header + "\n")
                for row in zip(*[np.asarray(c) for c in columns]):
                    fh.write(",".join("%.17g" % float(x) for x in row) + "\n")

        rng = np.random.default_rng(13)
        rows = 4001
        columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows) for _ in range(7)]
        columns[1][::7] = np.nan
        columns[2][::11] = np.inf
        columns[2][5::11] = -np.inf
        columns[3][::5] = -0.0
        columns[4][::3] = 5e-324
        columns[5][:4] = (-1.7976931348623157e308, 0.1, -2.0 / 3.0, 1.0)
        columns.append(np.arange(rows))
        header = ",".join(f"c{i}" for i in range(len(columns)))
        # and the (gamma, T, ratio) tuples that volterra-bench writes, transposed with zip
        table = [(2.0, 25.0, 0.5), (3.0, 50, 1.25), (4.0, 100.0, float("nan"))]
        for name, head, cols in (("wide", header, columns), ("bench", "gamma,T,ratio", list(zip(*table)))):
            got, ref = tmp_path / f"{name}_got.csv", tmp_path / f"{name}_ref.csv"
            H.grids.write_series_csv(got, head, cols)
            per_element(ref, head, cols)
            assert got.read_bytes() == ref.read_bytes()
        fields = set((tmp_path / "wide_got.csv").read_text().replace("\n", ",").split(","))
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "4000"} <= fields

