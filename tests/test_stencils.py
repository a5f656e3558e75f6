"""
Hot-path stencils cross-checked against per-node loop references.

``slow_norm_ladder`` applies the weight stencil to every xi^q ghat, one
order q at a time, and ``per_order_norm_ladder`` is the banded ladder of one
field with one stencil reduction per order; ``slow_cubic_interp`` reads a zero-padded
copy of a row at all targets in one array expression; ``slow_rhs``
interpolates each (n, k) pair of rows with it.  ``grids.norm_ladders``, field by
field, ``grids.norm_ladder``, ``grids.cubic_interp``, ``grids.shift_add`` and the
right-hand side must agree with them.
"""

import re
import warnings
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from conftest import random_band_limited

import hmflab as H
from hmflab import grids


def slow_second_derivative(u, dxi):
    pad = np.zeros(u.shape[:-1] + (u.shape[-1] + 4,), dtype=u.dtype)
    pad[..., 2:-2] = u
    return (-pad[..., :-4] + 16.0 * pad[..., 1:-3] - 30.0 * pad[..., 2:-2]
            + 16.0 * pad[..., 3:-1] - pad[..., 4:]) / (12.0 * dxi * dxi)


def slow_velocity_weight(u, grid):
    w = u
    for _ in range(grid.m0):
        w = w - slow_second_derivative(w, grid.dxi)
    return w


def slow_norm_ladder(field, max_order):
    grid = field.grid
    tw = grid.trapz_weights()
    W = np.empty((max_order + 1, grid.shape[0]))
    u = field.values
    for q in range(max_order + 1):
        if q:
            u = u * grid.xi
        a = slow_velocity_weight(u, grid)
        W[q] = np.add.reduce((np.conj(u) * a).real * tw, axis=1)

    k2 = grid.modes.astype(float) ** 2
    norms2 = np.empty(max_order + 1)
    for n in range(max_order + 1):
        total = 0.0
        for q in range(n + 1):
            kfac = np.ones_like(k2)
            acc = np.ones_like(k2)
            for _ in range(n - q):
                acc = acc * k2
                kfac = kfac + acc
            total += float(np.add.reduce(kfac * W[q]))
        norms2[n] = max(total, 0.0)
    return np.sqrt(norms2)


def per_order_norm_ladder(field, max_order):
    """The banded ladder of one field with one stencil einsum and one reduction per
    order q, bitwise the one einsum over every order that the block contraction replaced."""
    grid, u = field.grid, field.values
    ident, bands, kfac = grids._ladder_plan(grid, max_order)
    n = grid.n_xi
    prods = np.zeros((3,) + u.shape)
    for d in range(3):
        prods[d, :, : n - d] = (u.real[:, : n - d] * u.real[:, d:]) + (u.imag[:, : n - d] * u.imag[:, d:])
    scale = [grid.dxi * comb(grid.m0, r) / (12.0 * grid.dxi * grid.dxi) ** r for r in range(grid.m0 + 1)]
    W = scale[0] * np.einsum("kj,qj->qk", prods[0], ident)
    for q in range(max_order + 1):
        W[q] += scale[1] * np.add.reduce(np.einsum("dkj,dj->kj", prods, bands[q]), axis=1)
    if grid.m0 > 1:
        end_column = np.array([30.0, -16.0, 1.0])
        a = u
        for q in range(max_order + 1):
            if q:
                a = a * grid.xi
            right = grids._weight_stencil(a)
            left = right.copy()
            left[:, :3] -= 0.5 * a[:, :1] * end_column
            left[:, -3:] -= 0.5 * a[:, -1:] * end_column[::-1]
            left = np.conj(left)
            for r in range(2, grid.m0 + 1):
                if r > 2:
                    right = grids._weight_stencil(right)
                W[q] += scale[r] * np.add.reduce((left * right).real, axis=1)
    totals = [float(np.add.reduce((kfac[order::-1] * W[: order + 1]).ravel())) for order in range(max_order + 1)]
    return np.sqrt(np.maximum(totals, 0.0))


def slow_cubic_interp(row, grid, targets):
    """Four-point Lagrange reads of the zero-padded row, every target in one array expression."""
    scalar = np.isscalar(targets)
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    pos = (t + grid.xi_max) / grid.dxi
    i0 = np.floor(pos).astype(np.int64)
    th = pos - i0
    padded = np.zeros(grid.n_xi + 4, dtype=np.complex128)
    padded[2:-2] = row
    base = np.clip(i0 + 2, 1, grid.n_xi + 1)
    wm1 = -th * (th - 1.0) * (th - 2.0) / 6.0
    w0 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
    w1 = -th * (th + 1.0) * (th - 2.0) / 2.0
    w2 = th * (th + 1.0) * (th - 1.0) / 6.0
    out = (wm1 * padded[base - 1] + w0 * padded[base]
           + w1 * padded[base + 1] + w2 * padded[base + 2])
    out[np.abs(t) > grid.xi_max] = 0.0
    return out[0] if scalar else out


def slow_rhs(values, t, cfg, modes=None):
    """The rhs one (n, k) pair at a time; ``modes`` defaults to the field modes of ``values`` at t."""
    grid = cfg.grid
    kernel = cfg.kernel
    if modes is None:
        modes = H.extract_field_modes(values, t, kernel, grid)
    xi = grid.xi
    out = np.zeros_like(values)
    active = list(modes)
    for n in range(-grid.n_max, grid.n_max + 1):
        base = xi - n * t
        pn = kernel.coefficient(n)
        acc = None
        if pn != 0.0:
            acc = (-n * pn * modes[n]) * base * H.profile_hat(cfg.profile, base)
        if cfg.epsilon != 0.0:
            nl = None
            for k in active:
                m = n - k
                if abs(m) > grid.n_max:
                    continue
                shifted = slow_cubic_interp(values[grid.row(m)], grid, xi - k * t)
                term = (-k * kernel.coefficient(k) * modes[k]) * shifted
                nl = term if nl is None else nl + term
            if nl is not None:
                nl = cfg.epsilon * base * nl
                acc = nl if acc is None else acc + nl
        if acc is not None:
            out[grid.row(n)] = acc
    return out


def noise_field(rng, grid):
    return H.SpectralField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


# dxi = 0.04 as in the presets; the window holds the smooth test fields
# (bumps centred in [-5, 5]) down to ~1e-13 at its edges
LADDER_GRIDS = {m0: H.make_grid(2, 20.48, 1025, m0) for m0 in (1, 2, 3)}


class TestNormLadder:
    @pytest.mark.parametrize("m0", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["smooth", "noise"])
    def test_matches_loop_reference(self, m0, kind):
        grid = LADDER_GRIDS[m0]
        rng = np.random.default_rng(100 + m0)
        for _ in range(3):
            f = random_band_limited(rng, grid) if kind == "smooth" else noise_field(rng, grid)
            got = H.norm_ladder(f, 7)
            ref = slow_norm_ladder(f, 7)
            assert np.all(ref > 0)
            assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("n_max, xi_max, n_xi, m0", [(2, 18.0, 361, 1), (4, 40.96, 2049, 1), (2, 50.0, 1001, 2),
                                                         (1, 20.48, 1025, 3), (3, 5.12, 257, 2)])
    def test_bitwise_per_order_loop(self, n_max, xi_max, n_xi, m0):
        grid = H.make_grid(n_max, xi_max, n_xi, m0)
        rng = np.random.default_rng(n_xi)
        for f in (random_band_limited(rng, grid), noise_field(rng, grid)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)      # the narrow window reads negative
                for order in range(14):
                    assert np.array_equal(H.norm_ladder(f, order), per_order_norm_ladder(f, order)), order

    @pytest.mark.parametrize("m0", [1, 2, 3])
    def test_entry_independent_of_max_order(self, m0):
        grid = LADDER_GRIDS[m0]
        f = random_band_limited(np.random.default_rng(7), grid)
        full = H.norm_ladder(f, 7)
        for n in range(8):
            assert np.array_equal(H.norm_ladder(f, n), full[: n + 1]), f"max_order {n}"

    def test_negative_total_warns_and_reads_zero(self):
        # fields that do not vanish at the window edge: the half trapezoid
        # weights at the end nodes make the discrete form indefinite
        grid = H.make_grid(2, 5.12, 257, 2)
        f = random_band_limited(np.random.default_rng(0), grid)
        with pytest.warns(RuntimeWarning, match=r"order-\d norm is negative \(-") as caught:
            ladder = H.norm_ladder(f, 7)
        negative = [int(str(w.message).split("order-")[1][0]) for w in caught]
        assert 0 in negative
        assert np.all(ladder[negative] == 0.0)
        # a field that vanishes at the edge stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H.norm_ladder(random_band_limited(np.random.default_rng(0), LADDER_GRIDS[2]), 7)

    @pytest.mark.parametrize("m0", [1, 2, 3])
    def test_stacked_bitwise_per_field(self, m0):
        # blocks of B fields: stacks one short of a block, of one, of one and
        # one more, and of two and one more; each field as a non-contiguous view
        # of every other row, as its transpose's transpose, or whole
        grid = LADDER_GRIDS[m0]
        rows, n = grid.shape
        block = max(1, grids._LADDER_BLOCK // (rows * n))
        assert block > 2
        rng = np.random.default_rng(40 + m0)
        for count in (1, block - 1, block, block + 1, 2 * block + 1):
            fields = []
            for i in range(count):
                values = (random_band_limited(rng, grid) if i % 2 else noise_field(rng, grid)).values
                if i % 3 == 1:
                    spaced = np.zeros((2 * rows, n), dtype=np.complex128)
                    spaced[::2] = values
                    values = spaced[::2]
                elif i % 3 == 2:
                    values = np.asfortranarray(values)
                fields.append(values)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)      # noise need not vanish at the edge
                for order in range(14):
                    got = H.norm_ladders(grid, fields, order)
                    assert got.shape == (count, order + 1)
                    for i, values in enumerate(fields):
                        ref = per_order_norm_ladder(H.SpectralField(grid, values, real_valued=False), order)
                        assert np.array_equal(got[i], ref), (count, order, i)

    def test_stacked_empty_and_lazy(self):
        grid = LADDER_GRIDS[1]
        assert H.norm_ladders(grid, [], 4).shape == (0, 5)
        fields = [random_band_limited(np.random.default_rng(i), grid).values for i in range(3)]
        assert np.array_equal(H.norm_ladders(grid, iter(fields), 4), H.norm_ladders(grid, fields, 4))

    def test_negative_total_warns_once_per_field_and_order(self):
        grid = H.make_grid(2, 5.12, 257, 2)
        bad = [random_band_limited(np.random.default_rng(seed), grid).values for seed in (0, 1)]
        # a repeated field warns again, and the zero field stays silent
        fields = [bad[0], np.zeros(grid.shape), bad[1], bad[0]]
        alone = []
        for values in fields:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                H.norm_ladder(H.SpectralField(grid, values), 7)
            alone.append([str(w.message) for w in caught])
        assert alone[0] and alone[2] and not alone[1]
        with pytest.warns(RuntimeWarning) as caught:
            ladders = H.norm_ladders(grid, fields, 7)
        messages = [str(w.message) for w in caught]
        assert messages == alone[0] + alone[1] + alone[2] + alone[3]
        for message in messages:
            assert re.fullmatch(r"norm_ladder: squared order-\d+ norm is negative \(-\d\.\d{6}e[+-]\d\d\), read as 0; "
                                r"the field does not vanish at the window edge", message), message
        assert np.all(ladders[1] == 0.0)

    def test_plan_keyed_by_grid_content(self):
        # equal grids built separately share the cached tables; a grid that
        # differs only in m0 gets its own
        a = H.make_grid(2, 20.48, 513, 1)
        b = H.make_grid(2, 20.48, 513, 1)
        f = random_band_limited(np.random.default_rng(3), a)
        assert a is not b
        assert np.array_equal(H.norm_ladder(f, 5), H.norm_ladder(H.SpectralField(b, f.values), 5))
        other = H.SpectralField(H.make_grid(2, 20.48, 513, 2), f.values)
        ref = slow_norm_ladder(other, 5)
        assert np.max(np.abs(H.norm_ladder(other, 5) - ref) / ref) <= 1e-13


# dxi = 0.125 is exact in binary, dxi = 0.06 is not
SHIFT_GRIDS = [H.make_grid(2, 8.0, 129, 1), H.make_grid(2, 6.3, 211, 1)]


def shift_cases(grid):
    cells = [0, 1, -1, 3, -7, 40, -64, grid.n_xi - 3, grid.n_xi - 1, grid.n_xi, -grid.n_xi - 2]
    out = []
    for c in cells:
        s = c * grid.dxi
        out += [s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)]
    out += [0.37 * grid.dxi, -2.61 * grid.dxi, grid.xi_max - 0.5 * grid.dxi,
            2 * grid.xi_max + 0.3, -3 * grid.xi_max]
    return out


# the scattering benchmark workload's grid: 5x361, stepped by dt = 0.04 for 200 steps
SCATTERING_GRID = H.make_grid(2, 18.0, 361, 1)


def scattering_stage_shifts():
    """The 2400 shifts k t of the scattering workload's run: run() shifts by k t for
    k = +-1, +-2 at t = times[i-1], times[i-1] + dt/2 and times[i] of each step i."""
    dt, n_steps = 0.04, 200
    times = np.arange(n_steps + 1) * dt
    return [k * t for i in range(1, n_steps + 1) for t in (times[i - 1], times[i - 1] + 0.5 * dt, times[i])
            for k in (-2, -1, 1, 2)]


def searchsorted_window(grid, shift):
    """shift_plan's window [lo, hi) in margined columns, as np.searchsorted finds it on xi - shift."""
    t = grid.xi - shift
    return (int(np.searchsorted(t, -grid.xi_max, side="left")) + H.grids.MARGIN,
            int(np.searchsorted(t, grid.xi_max, side="right")) + H.grids.MARGIN)


class TestShiftPlanWindow:
    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_equals_the_search_over_shift_cases(self, grid):
        for shift in shift_cases(grid):
            assert H.shift_plan(grid, shift)[:2] == searchsorted_window(grid, shift), f"shift {shift!r}"

    def test_equals_the_search_at_the_scattering_stage_times(self):
        grid = SCATTERING_GRID
        near_whole_cell = 0
        for shift in scattering_stage_shifts():
            assert H.shift_plan(grid, shift)[:2] == searchsorted_window(grid, shift), f"shift {shift!r}"
            cells = shift / grid.dxi
            near_whole_cell += abs(cells - round(cells)) < 1e-9
        # shifts on a whole cell put a node's difference at +-xi_max, to roundoff
        assert near_whole_cell > 100


def window_centres(grid):
    """On nodes, one ulp either side of them, mid-cell, and outside the grid."""
    out = []
    for j in (0, 1, grid.n_xi // 3, grid.n_xi // 2, grid.n_xi - 2, grid.n_xi - 1):
        node = grid.xi[j]
        out += [node, np.nextafter(node, np.inf), np.nextafter(node, -np.inf), node + 0.5 * grid.dxi]
    return out + [grid.xi_max + 3 * grid.dxi, -grid.xi_max - 0.5 * grid.dxi, 2.5 * grid.xi_max, -4 * grid.xi_max,
                  1e300, -1e300]


def window_halves(grid):
    """0, a sub-cell width, a forcing support's width (a node plus one cell), xi_max,
    more than 2 xi_max, and inf."""
    support = grid.xi[3 * grid.n_xi // 4] + grid.dxi
    return [0.0, 0.3 * grid.dxi, support, grid.xi_max, 2 * grid.xi_max + grid.dxi, np.inf]


class TestWindow:
    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_equals_the_nodes_within_half_of_centre(self, grid):
        for centre in window_centres(grid):
            for half in window_halves(grid):
                lo, hi = H.grids.window(grid, centre, half)
                inside = np.flatnonzero(np.abs(grid.xi - centre) <= half)
                assert 0 <= lo <= hi <= grid.n_xi, (centre, half)
                assert list(range(lo, hi)) == inside.tolist(), (centre, half)

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_shift_plan_takes_the_xi_max_window(self, grid):
        m = H.grids.MARGIN
        for shift in shift_cases(grid) + window_centres(grid):
            lo, hi = H.grids.window(grid, shift, grid.xi_max)
            assert H.shift_plan(grid, shift)[:2] == (lo + m, hi + m), f"shift {shift!r}"


def margined(vals):
    """``vals`` with grids.MARGIN zero columns on each side of every row, the layout shift_add reads."""
    m = H.grids.MARGIN
    out = np.zeros((vals.shape[0], vals.shape[1] + 2 * m), dtype=np.complex128)
    out[:, m:-m] = vals
    return out


def shift_add_plain(out, vals, grid, shift, scale):
    """``grids.shift_add`` of the plain rows ``vals`` into the plain rows ``out``, through margined copies."""
    m = H.grids.MARGIN
    got = margined(out)
    # scratch with a spare row, full of NaN: nothing stale may reach the result
    work = np.full((2, got.shape[0] + 1, got.shape[1]), np.nan + 0j)
    H.shift_add(got, margined(vals), H.shift_plan(grid, shift), scale, work)
    assert np.all(got[:, :m] == 0) and np.all(got[:, -m:] == 0)
    out[...] = got[:, m:-m]


class TestShiftAdd:
    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_matches_cubic_interp(self, grid):
        vals = random_band_limited(np.random.default_rng(11), grid).values
        scale = np.max(np.abs(vals))
        for shift in shift_cases(grid):
            got = np.zeros_like(vals)
            shift_add_plain(got, vals, grid, shift, 1.0)
            outside = np.abs(grid.xi - shift) > grid.xi_max
            for i, row in enumerate(vals):
                ref = slow_cubic_interp(row, grid, grid.xi - shift)
                assert np.max(np.abs(got[i] - ref)) <= 1e-13 * scale, f"shift {shift!r}"
                assert np.all(ref[outside] == 0)
            assert np.all(got[:, outside] == 0), f"shift {shift!r}"

    def test_whole_cell_shift_is_a_copy(self):
        grid = SHIFT_GRIDS[0]
        vals = noise_field(np.random.default_rng(2), grid).values
        got = np.zeros_like(vals)
        shift_add_plain(got, vals, grid, 5 * grid.dxi, 1.0)
        assert np.array_equal(got[:, 5:], vals[:, :-5])
        assert np.all(got[:, :5] == 0)

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_adds_scaled_shift_into_out(self, grid):
        rng = np.random.default_rng(12)
        vals = noise_field(rng, grid).values
        out0 = noise_field(rng, grid).values
        scale = 0.3 - 1.7j
        for shift in (0.37 * grid.dxi, -2.61 * grid.dxi, 40 * grid.dxi, grid.xi_max - 0.5 * grid.dxi):
            got = out0.copy()
            shift_add_plain(got, vals, grid, shift, scale)
            shifted = np.array([slow_cubic_interp(row, grid, grid.xi - shift) for row in vals])
            ref = out0 + scale * shifted
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), f"shift {shift!r}"


    def test_work_must_fit_the_block(self):
        grid = SHIFT_GRIDS[0]
        block = margined(noise_field(np.random.default_rng(3), grid).values)
        plan = H.shift_plan(grid, 0.37 * grid.dxi)
        for work in (np.empty((2, block.shape[0] - 1, block.shape[1]), complex),
                     np.empty((3,) + block.shape, complex),
                     np.empty((2, block.shape[0], block.shape[1] + 1), complex),
                     np.empty((2, block.shape[1], block.shape[0]), complex).transpose(0, 2, 1)):
            with pytest.raises(ValueError, match="work"):
                H.shift_add(np.zeros_like(block), block, plan, 1.0, work)


def plan_read(row, grid, x):
    """The read of the whole ``row`` at ``x`` through ``shift_plan(grid, -x)``: its four taps at
    the centre column, zero-extended, summed as cubic_interp sums them; 0 where the centre
    column is outside the plan's window (|x| > xi_max)."""
    lo, hi, taps = H.shift_plan(grid, -x)
    centre = grid.n_xi // 2
    if not lo <= centre + H.grids.MARGIN < hi:
        return 0j
    vals = [complex(row[centre + tap]) if 0 <= centre + tap < grid.n_xi else 0j for tap, _ in taps]
    (_, wm1), (_, w0), (_, w1), (_, w2) = taps
    return wm1 * vals[0] + w0 * vals[1] + w1 * vals[2] + w2 * vals[3]


class TestCubicInterp:
    def test_bitwise_equal_to_slow_path(self):
        grid = SHIFT_GRIDS[1]
        row = noise_field(np.random.default_rng(4), grid).values[0]
        rng = np.random.default_rng(5)
        targets = list(grid.xi[[0, 1, 57, 105, -2, -1]])                        # on node
        targets += list(rng.uniform(-grid.xi_max, grid.xi_max, 40))             # off node
        targets += [np.nextafter(grid.xi_max, 0), -np.nextafter(grid.xi_max, 0),
                    grid.xi_max - 0.3 * grid.dxi, -grid.xi_max + 0.7 * grid.dxi]  # edge cells
        targets += [np.nextafter(grid.xi_max, np.inf), -grid.xi_max - grid.dxi, 50.0]  # outside
        for x in targets:
            ref = complex(slow_cubic_interp(row, grid, float(x)))
            assert H.cubic_interp(row, grid, float(x)) == ref, repr(x)
            assert H.cubic_interp(row, grid, np.float64(x)) == ref, repr(x)
        got = H.cubic_interp(row, grid, np.array(targets))
        assert np.array_equal(got, slow_cubic_interp(row, grid, np.array(targets)))

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=["dxi0.125", "dxi0.06"])
    def test_bitwise_equal_to_slow_path_at_shifted_nodes(self, grid):
        row = noise_field(np.random.default_rng(6), grid).values[1]
        for shift in shift_cases(grid):
            targets = grid.xi - shift
            ref = slow_cubic_interp(row, grid, targets)
            assert np.array_equal(H.cubic_interp(row, grid, targets), ref), f"shift {shift!r}"
            for j in (0, 1, grid.n_xi // 3, grid.n_xi - 2, grid.n_xi - 1):
                assert H.cubic_interp(row, grid, float(targets[j])) == ref[j], f"shift {shift!r}, node {j}"

    @pytest.mark.parametrize("target_type", [float, np.float64])
    def test_window_row_reads_bitwise_as_the_whole_row(self, target_type):
        # a linear run's rows hold the centred window of columns offset..n_xi-1-offset;
        # 5 columns is the narrowest that holds a read's four taps
        grid = SHIFT_GRIDS[1]
        row = noise_field(np.random.default_rng(9), grid).values[0]
        bits = lambda z: np.complex128(z).tobytes()
        rng = np.random.default_rng(10)
        for width in (grid.n_xi, grid.n_xi - 2, 131, 41, 9, 7, 5):
            offset = (grid.n_xi - width) // 2
            window = row[offset:grid.n_xi - offset].copy()
            first, last = offset + 1, grid.n_xi - 3 - offset      # the cells whose four taps are in the window
            targets = [grid.xi[j] for j in (first + 1, grid.n_xi // 2, last - 1)]                   # on node
            targets += [grid.xi[j] + f * grid.dxi for j in (first, last) for f in (0.25, 0.5, 0.75)]  # edge cells
            targets += list(rng.uniform(grid.xi[first], grid.xi[last + 1], 20))                     # off node
            for x in targets:
                ref = slow_cubic_interp(row, grid, float(x))
                assert bits(H.cubic_interp(window, grid, target_type(x))) == bits(ref), (width, repr(x))
            got = H.cubic_interp(window, grid, np.array(targets))
            assert got.tobytes() == slow_cubic_interp(row, grid, np.array(targets)).tobytes(), width

    @pytest.mark.parametrize("grid", [*SHIFT_GRIDS, SCATTERING_GRID], ids=["dxi0.125", "dxi0.06", "scattering"])
    def test_shift_plan_at_the_centre_column_reads_as_cubic_interp(self, grid):
        # one stencil: the taps of shift_plan(grid, -x), applied at the centre column
        # xi = 0, are the pointwise read at x, bitwise
        row = noise_field(np.random.default_rng(13), grid).values[1]
        shifts = scattering_stage_shifts() if grid is SCATTERING_GRID else shift_cases(grid)
        targets = [-shift for shift in shifts] + [shift for shift in shifts]
        ref = slow_cubic_interp(row, grid, np.array(targets))
        bits = lambda z: np.complex128(z).tobytes()
        for x, want in zip(targets, ref):
            assert bits(plan_read(row, grid, x)) == bits(want), repr(x)
            assert bits(H.cubic_interp(row, grid, x)) == bits(want), repr(x)

    @pytest.mark.parametrize("width", [SHIFT_GRIDS[0].n_xi + 2, SHIFT_GRIDS[0].n_xi - 1])
    def test_row_that_is_no_centred_window_is_refused(self, width):
        with pytest.raises(ValueError, match="centred window"):
            H.cubic_interp(np.zeros(width, dtype=complex), SHIFT_GRIDS[0], 0.3)

    def test_array_targets_keep_their_shape(self):
        grid = SHIFT_GRIDS[0]
        row = noise_field(np.random.default_rng(7), grid).values[2]
        targets = np.linspace(-9.0, 9.0, 12).reshape(3, 4)
        got = H.cubic_interp(row, grid, targets)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), slow_cubic_interp(row, grid, targets.ravel()))
        assert H.cubic_interp(row, grid, np.array(0.3)).shape == (1,)

    def test_mode_beyond_n_max_reads_zeros(self):
        grid = SHIFT_GRIDS[0]
        field = noise_field(np.random.default_rng(8), grid)
        for n in (grid.n_max + 1, -grid.n_max - 3):
            assert field.interp(n, 0.3) == 0
            for targets in (grid.xi, grid.xi[:7].reshape(7, 1), [0.1, -0.2]):
                got = field.interp(n, targets)
                assert got.shape == np.shape(targets)
                assert np.all(got == 0)


def rhs_config(coefficients, n_max, xi_max, n_xi, epsilon):
    grid = H.make_grid(n_max, xi_max, n_xi, 1)
    return H.SimConfig(grid=grid, kernel=H.InteractionKernel(coefficients), profile=H.maxwellian(1.0),
                       perturbations=(H.Perturbation(mode=1, amplitude=0.1),), epsilon=epsilon,
                       dt=0.05, t_final=1.0, check_stability=False)


class TestRhs:
    @pytest.mark.parametrize("coefficients,n_max", [((0.5,), 3), ((0.5, 0.25), 4)],
                             ids=["cosine", "M2"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_matches_per_pair_reference(self, coefficients, n_max, epsilon):
        cfg = rhs_config(coefficients, n_max, 24.0, 481, epsilon)
        rng = np.random.default_rng(20 + n_max)
        state = random_band_limited(rng, cfg.grid)
        for t in (0.0, 0.05, 0.37, 1.0, 2.5, 5.0):
            ref = slow_rhs(state.values, t, cfg)
            got = H.assemble_rhs(state, t, cfg).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), f"t={t}"

    def test_field_modes_unchanged(self):
        cfg = rhs_config((0.5, 0.25), 4, 24.0, 481, 0.05)
        vals = random_band_limited(np.random.default_rng(8), cfg.grid).values
        for t in (0.0, 0.3, 1.7, 4.1):
            modes = H.extract_field_modes(vals, t, cfg.kernel, cfg.grid)
            for k, zk in modes.items():
                assert zk == complex(slow_cubic_interp(vals[cfg.grid.row(k)], cfg.grid, float(k * t)))

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_run_reads_each_state_once(self, epsilon, monkeypatch):
        # the initial record, then per step: k2, k3, k4 and the record of the
        # new state, whose modes the next k1 takes as they are
        calls = []
        extract = H.simulate.extract_field_modes

        def counted(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(H.simulate, "extract_field_modes", counted)
        cfg = rhs_config((0.5,), 3, 24.0, 481, epsilon)
        H.run(cfg)
        assert len(calls) == 1 + 4 * cfg.n_steps


class TestRhsAtWindowEdge:
    """Stage times where a shift k t comes within 2 dxi of xi_max or passes it.
    The field-mode read at k t leaves the safe window there, so the rhs is
    taken with given modes, on noise that does not vanish at the edges."""

    @staticmethod
    def edge_times(cfg):
        xi_max, dxi = cfg.grid.xi_max, cfg.grid.dxi
        for k in cfg.kernel.active_modes():
            for edge in (xi_max - 2.0 * dxi, xi_max - 1.5 * dxi, xi_max - 0.25 * dxi, xi_max,
                         np.nextafter(xi_max, np.inf), xi_max + 0.5 * dxi, xi_max + 2.5 * dxi,
                         2.0 * xi_max + 0.5):
                yield k, edge / k

    @staticmethod
    def rhs(cfg, values, t, modes):
        m = H.grids.MARGIN
        out = np.full(margined(values).shape, np.nan + 0j)
        H.simulate._rhs(margined(values), t, modes, H.simulate._StageFactors(cfg), out)
        assert np.all(out[:, :m] == 0) and np.all(out[:, -m:] == 0)
        return out[:, m:-m]

    @pytest.mark.parametrize("coefficients,n_max", [((0.5,), 3), ((0.5, 0.25), 4)], ids=["cosine", "M2"])
    def test_matches_per_pair_reference(self, coefficients, n_max):
        cfg = rhs_config(coefficients, n_max, 24.0, 481, 0.05)
        rng = np.random.default_rng(40 + n_max)
        values = noise_field(rng, cfg.grid).values
        for k_edge, t in self.edge_times(cfg):
            modes = {k: complex(rng.normal(), rng.normal()) for k in cfg.kernel.active_modes()}
            modes.update({-k: z.conjugate() for k, z in modes.items()})
            ref = slow_rhs(values, t, cfg, modes)
            got = self.rhs(cfg, values, t, modes)
            # the forcing rows are built on their support only, and far
            # shifts leave the reference near 1e-130: bound by the rows' peak
            xi = cfg.grid.xi
            peak = np.max(np.abs(xi * H.profile_hat(cfg.profile, xi))) * max(
                abs(n * cfg.kernel.coefficient(n) * z) for n, z in modes.items())
            scale = max(np.max(np.abs(ref)), peak)
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, f"k={k_edge}, t={t!r}"

    @pytest.mark.parametrize("coefficients,n_max", [((0.5,), 3), ((0.5, 0.25), 4)], ids=["cosine", "M2"])
    def test_exact_zeros_outside_each_shift_window(self, coefficients, n_max):
        # one coupling mode at a time and no background: the rhs is that mode's
        # shifted block alone, exactly zero where |xi - k t| > xi_max
        cfg = replace(rhs_config(coefficients, n_max, 24.0, 481, 0.05), profile=H.maxwellian(1.0, mass=0.0))
        grid = cfg.grid
        values = noise_field(np.random.default_rng(50 + n_max), grid).values
        active = [-k for k in cfg.kernel.active_modes()] + list(cfg.kernel.active_modes())
        for k_edge, t in self.edge_times(cfg):
            for k in active:
                modes = {j: (0.7 - 0.4j if j == k else 0j) for j in active}
                got = self.rhs(cfg, values, t, modes)
                ref = slow_rhs(values, t, cfg, modes)
                outside = np.abs(grid.xi - k * t) > grid.xi_max
                assert np.all(got[:, outside] == 0), f"k={k}, t={t!r}"
                assert np.all(ref[:, outside] == 0), f"k={k}, t={t!r}"
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300), f"k={k}, t={t!r}"
