"""
Uniform spectral phase-space grids, weighted Sobolev norms, and field output.

State convention
----------------
A perturbation g(x, v) on the torus-times-line phase space is represented by
its Fourier transform

    ghat_n(xi) = (1/2pi) * int_{T x R} g(x, v) exp(-i*n*x - i*xi*v) dx dv,

sampled on spatial modes n in [-n_max, n_max] and a uniform frequency grid
xi in [-xi_max, xi_max] with an odd number of nodes (so xi = 0 is a node).
With this convention Parseval reads

    int_{T x R} a conj(b) dx dv = sum_n int ahat_n(xi) conj(bhat_n(xi)) dxi,

i.e. all 2pi bookkeeping lives inside the transform and every quadrature
constant below is 1.  See docs/conventions.md for the full table.

The squared weighted Sobolev norm of order ``order`` is

    sum_{p+q <= order} int (1 + v^2)^{m0} |d_x^p d_v^q g|^2 dx dv,

evaluated spectrally: d_x^p -> (i*n)^p, d_v^q -> (i*xi)^q, and the velocity
weight (1 + v^2)^{m0} becomes the operator (1 - d^2/dxi^2)^{m0}, discretized
with a fourth-order centered stencil and zero extension beyond the grid.
Anything outside the window (|n| > n_max or |xi| > xi_max) is exactly zero.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "InvariantViolation",
    "PhaseGrid",
    "SpectralField",
    "make_grid",
    "cubic_interp",
    "MARGIN",
    "window",
    "above_floor",
    "shift_plan",
    "shift_add",
    "sobolev_norm",
    "norm_ladder",
    "embedding_constant",
    "symmetrized_values",
    "write_field_csv",
]


# the four-tap read's reach in columns: the zero columns each side of a row that shift_add uses
MARGIN = 2


class InvariantViolation(ValueError):
    """A configuration breaks a hard invariant of the discretization."""


@dataclass(frozen=True)
class PhaseGrid:
    """
    Truncated (n, xi) grid carrying the velocity weight exponent.

    Parameters
    ----------
    n_max : int
        Spatial modes n in [-n_max, n_max].
    xi_max : float
        Half-width of the frequency window.
    n_xi : int
        Number of uniform xi nodes; must be odd so xi = 0 is a node.
    m0 : int
        Velocity weight exponent in (1 + v^2)^{m0}; a positive integer so the
        weight acts as an exact finite-difference operator in xi.
    """

    n_max: int
    xi_max: float
    n_xi: int
    m0: int = 1

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not self.xi_max > 0:
            raise ValueError(f"xi_max must be positive, got {self.xi_max}")
        if self.n_xi < 3 or self.n_xi % 2 == 0:
            raise ValueError(f"n_xi must be odd and >= 3, got {self.n_xi}")
        if self.m0 < 1:
            raise ValueError(f"m0 must be a positive integer, got {self.m0}")
        xi = np.linspace(-self.xi_max, self.xi_max, self.n_xi)
        # make the nodes exactly antisymmetric so reality pairing and the
        # symmetry projector act bitwise on even data
        xi = 0.5 * (xi - xi[::-1])
        xi.flags.writeable = False
        modes = np.arange(-self.n_max, self.n_max + 1)
        modes.flags.writeable = False
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "dxi", 2.0 * self.xi_max / (self.n_xi - 1))

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.n_max + 1, self.n_xi)

    def row(self, n: int) -> int:
        """Array row index of spatial mode n."""
        if abs(n) > self.n_max:
            raise ValueError(f"mode {n} outside [-{self.n_max}, {self.n_max}]")
        return n + self.n_max

    def trapz_weights(self) -> np.ndarray:
        w = np.full(self.n_xi, self.dxi)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def make_grid(n_max: int, xi_max: float, n_xi: int, m0: int = 1) -> PhaseGrid:
    """Build a validated PhaseGrid (rejects even n_xi and nonpositive extents)."""
    return PhaseGrid(n_max=n_max, xi_max=xi_max, n_xi=n_xi, m0=m0)


@dataclass(frozen=True)
class SpectralField:
    """
    Immutable sampled transform ghat_n(xi) on a PhaseGrid.

    ``values[row, j]`` holds ghat_n(xi_j) with row = n + n_max.  When
    ``real_valued`` is set the field represents a real function and must obey
    ghat_{-n}(-xi) = conj(ghat_n(xi)) at paired nodes.
    """

    grid: PhaseGrid
    values: np.ndarray
    real_valued: bool = True

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def mode(self, n: int) -> np.ndarray:
        """Read-only row of spatial mode n (zeros if |n| > n_max)."""
        if abs(n) > self.grid.n_max:
            return np.zeros(self.grid.n_xi, dtype=np.complex128)
        return self.values[self.grid.row(n)]

    def interp(self, n: int, targets):
        """Cubic interpolation of mode n at frequencies ``targets``."""
        return cubic_interp(self.mode(n), self.grid, targets)


def _lagrange_weights(th):
    """Four-point Lagrange weights at fractional offset ``th``."""
    return (-th * (th - 1.0) * (th - 2.0) / 6.0,
            (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0,
            -th * (th + 1.0) * (th - 2.0) / 2.0,
            th * (th + 1.0) * (th - 1.0) / 6.0)


def _stencil(grid: PhaseGrid, shift: float) -> tuple:
    """The one four-tap stencil, the read of xi - shift from a node xi: ``(first, weights)``,
    the first of four consecutive tap offsets from the node and their Lagrange weights.
    From the centre node's position X = (xi_max - shift) / dxi and its floor F they are
    F - jc - 1 .. F - jc + 2, jc = (n_xi - 1) / 2, and ``_lagrange_weights(X - F)``, which
    every node of the uniform grid shares (the fixed-weight semi-Lagrangian shift)."""
    x = (grid.xi_max - shift) / grid.dxi
    f = math.floor(x)
    return f - (grid.n_xi + 1) // 2, _lagrange_weights(x - f)


def _read(row: np.ndarray, grid: PhaseGrid, x: float) -> complex:
    """The read of the complex ``row`` at one target, the stencil at shift -x applied at its
    centre column, in Python scalars: an array expression's set-up would cost more."""
    if abs(x) > grid.xi_max:
        return 0j
    first, (wm1, w0, w1, w2) = _stencil(grid, -x)
    first += len(row) // 2
    if 0 <= first <= len(row) - 4:
        taps = row[first:first + 4].tolist()     # one call for the four Python complexes
    else:
        taps = [complex(row[i]) if 0 <= i < len(row) else 0j for i in range(first, first + 4)]
    return wm1 * taps[0] + w0 * taps[1] + w1 * taps[2] + w2 * taps[3]


def cubic_interp(row: np.ndarray, grid: PhaseGrid, targets):
    """
    Four-point Lagrange interpolation of one mode row on the uniform xi grid.

    The row is extended by zeros beyond the grid, matching the truncation
    semantics; targets with |xi| > xi_max return exactly 0.  On-node targets
    reproduce the stored value.  A scalar target gives a complex, an array of
    targets an array of their shape (at least 1-D), read one target at a time.

    A target x is the stencil at shift -x applied at the row's centre column,
    so a row holding the grid's centred window of columns (a linear run's)
    reads as the whole row wherever the taps fall inside it, and zeros beyond.
    """
    row = np.asarray(row, dtype=np.complex128)
    if len(row) > grid.n_xi or (grid.n_xi - len(row)) % 2:
        raise ValueError(f"a row of {len(row)} columns is not a centred window of the grid's {grid.n_xi}")
    if np.isscalar(targets):
        return _read(row, grid, float(targets))
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    return np.fromiter((_read(row, grid, x) for x in t.flat), np.complex128, t.size).reshape(t.shape)


def window(grid: PhaseGrid, centre: float, half: float) -> tuple:
    """
    The columns ``lo..hi-1`` of the nodes with ``|xi_j - centre| <= half``:
    two binary searches of the float differences ``xi_j - centre``, which
    are monotone in j.  An infinite ``half`` gives every column; a window
    without a node, lo == hi.
    """
    xi = getattr(grid, "_nodes", None)      # the nodes as Python floats, made on the first search
    if xi is None:      # set, not put in grid.__dict__: reading that slows every later attribute read
        object.__setattr__(grid, "_nodes", xi := grid.xi.tolist())
    half, key = float(half), float(centre).__rsub__      # key(x) is x - centre, evaluated in C
    return bisect_left(xi, -half, key=key), bisect_right(xi, half, key=key)


def above_floor(values) -> np.ndarray:
    """The indices where ``|values|`` is above 1e-16 of its peak, where a
    sampled kernel, forcing or background counts as nonzero; none for an
    all-zero input."""
    mag = np.abs(values)
    return np.flatnonzero(mag > 1e-16 * mag.max())


def shift_plan(grid: PhaseGrid, shift: float) -> tuple:
    """The row shift by ``shift`` on rows of ``grid`` with ``MARGIN`` zero columns on each
    side (node j at column j + MARGIN): ``(lo, hi, taps)``, ``window(grid, shift, xi_max)``
    moved by ``MARGIN``, and the stencil's four (column offset, Lagrange weight) pairs."""
    first, weights = _stencil(grid, float(shift))
    lo, hi = window(grid, shift, grid.xi_max)
    return lo + MARGIN, hi + MARGIN, tuple(zip(range(first, first + 4), weights))


def shift_add(out: np.ndarray, block: np.ndarray, plan: tuple, scale: complex, work: np.ndarray) -> None:
    """
    Add ``scale`` times every row of ``block`` read at ``xi - shift`` into
    ``out``, with ``plan = shift_plan(grid, shift)``.

    ``out`` and ``block`` are (rows, n_xi + 2 MARGIN) arrays of margined rows
    and ``block``'s margins are zero.  A window node's four taps then stay
    within its own row, margins included, so each tap is one scaled range of
    the rows laid end to end.  Elsewhere a tap reads a neighbouring row: the
    shifted block is zeroed outside the window, margins included, before it
    is added, so ``out``'s margins keep their values.  Zero extension beyond
    the grid and the exact zeros for ``|xi_j - shift| > xi_max`` are those of
    :func:`cubic_interp`, which this matches to roundoff.

    ``work`` is C-contiguous complex scratch of shape (2, r, n_xi + 2 MARGIN)
    with r at least the block's rows; a caller that shifts repeatedly keeps
    one, so the shift allocates nothing.
    """
    rows = block.shape[0]
    shifted = work[0, :rows]
    if work.shape[0] != 2 or shifted.shape != block.shape or not work.flags.c_contiguous:
        raise ValueError(f"work must be a C-contiguous array of shape (2, >= {rows}, {block.shape[-1]})")
    lo, hi, taps = plan
    if lo >= hi:
        return
    src = block.reshape(-1)
    a, b = max(0, -taps[0][0]), min(src.size, src.size - taps[-1][0])
    acc, prod = shifted.reshape(-1)[a:b], work[1, :rows].reshape(-1)[a:b]
    (tap, w), *rest = taps
    np.multiply(scale * w, src[a + tap:b + tap], out=acc)
    for tap, w in rest:
        np.add(acc, np.multiply(scale * w, src[a + tap:b + tap], out=prod), out=acc)
    shifted[:, :lo] = 0.0
    shifted[:, hi:] = 0.0
    out += shifted


def _weight_stencil(u: np.ndarray) -> np.ndarray:
    """S u = 12 dxi^2 * (-d^2/dxi^2) u along the last axis: the integer stencil
    (1, -16, 30, -16, 1) with zero extension."""
    pad = np.zeros(u.shape[:-1] + (u.shape[-1] + 4,), dtype=u.dtype)
    pad[..., 2:-2] = u
    return (pad[..., :-4] - 16.0 * pad[..., 1:-3] + 30.0 * pad[..., 2:-2]
            - 16.0 * pad[..., 3:-1] + pad[..., 4:])


@functools.lru_cache(maxsize=8)
def _ladder_plan(grid: PhaseGrid, max_order: int):
    """
    Static tables of :func:`norm_ladder`, cached per grid content and order.

    Against the neighbour products R_d[k, j] = Re(conj(u[k, j]) u[k, j+d])
    they give, for each order q, the identity part and the first stencil
    power of the weight:

        sum_j ident[q, j] R_0[k, j]  and  sum_j sum_{d=0..2} bands[q, d, j] R_d[k, j],

    with ident[q] = h_j xi_j^{2q} and bands[q, d] = c_d[j] (xi_j xi_{j+d})^q,
    where h are the trapezoid weights over dxi (1, and 1/2 at both ends),
    c_0 = 30 h_j, c_1 = -16 (h_j + h_{j+1}) and c_2 = h_j + h_{j+2}: the
    stencil S of :func:`_weight_stencil` folded onto d >= 0.  These
    coefficients are small integers times xi products, so a stencil row
    cancels in exact coefficients, as it does when S is applied to the data.
    ``kfac[m]`` is sum_{p <= m} n^{2p} per mode.
    """
    n = grid.n_xi
    half = grid.trapz_weights() / grid.dxi
    xi = grid.xi
    ident = np.empty((max_order + 1, n))
    bands = np.empty((max_order + 1, 3, n))
    ident[0] = half
    bands[0] = 0.0
    bands[0, 0] = 30.0 * half
    bands[0, 1, : n - 1] = -16.0 * (half[:-1] + half[1:])
    bands[0, 2, : n - 2] = half[:-2] + half[2:]
    pair = np.zeros((3, n))
    pair[0] = xi * xi
    pair[1, : n - 1] = xi[:-1] * xi[1:]
    pair[2, : n - 2] = xi[:-2] * xi[2:]
    for q in range(1, max_order + 1):
        ident[q] = ident[q - 1] * pair[0]
        bands[q] = bands[q - 1] * pair

    k2 = grid.modes.astype(float) ** 2
    kfac = np.empty((max_order + 1, k2.size))
    kfac[0] = 1.0
    acc = np.ones_like(k2)
    for m in range(1, max_order + 1):
        acc = acc * k2
        kfac[m] = kfac[m - 1] + acc
    for table in (ident, bands, kfac):
        table.flags.writeable = False
    return ident, bands, kfac


def norm_ladder(field: SpectralField, max_order: int) -> np.ndarray:
    """
    All weighted Sobolev norms of ``field`` of order 0..max_order in one sweep.

    Returns
    -------
    ndarray, shape (max_order + 1,)
        ``out[n]`` is the order-n norm.  The shared building blocks
        W_q[k] = Re <(1 - d^2)^{m0} (xi^q ghat_k), xi^q ghat_k> expand the
        weight as sum_r binom(m0, r) S^r / (12 dxi^2)^r.  The r = 0 and r = 1
        terms are a banded quadratic form in the neighbour products of the
        state, formed once per call against cached coefficients (see
        :func:`_ladder_plan`).  Higher powers, present only for m0 >= 2, are
        evaluated as <S(h xi^q ghat), S^{r-1}(xi^q ghat)>, with h the
        trapezoid weights over dxi, because an explicit band of S^r would
        lose digits to cancellation.  Every order is reduced on its own in a
        fixed order, so ``out[n]`` does not depend on ``max_order``.
    """
    if max_order < 0:
        raise ValueError(f"norm order must be >= 0, got {max_order}")
    grid, u = field.grid, field.values
    ident, bands, kfac = _ladder_plan(grid, max_order)
    n = grid.n_xi
    work = np.empty((4,) + u.shape)
    # products over the rows laid end to end, one pass per d; the d entries
    # that pair a row's end with the next row are zeroed
    flat = u.reshape(-1)
    re, im = flat.real, flat.imag
    size = flat.size
    prods = work[:3].reshape(3, size)
    tmp = work[3].reshape(size)
    for d in range(3):
        m = size - d
        np.multiply(re[:m], re[d:], out=prods[d, :m])
        prods[d, :m] += np.multiply(im[:m], im[d:], out=tmp[:m])
    prods = work[:3]
    prods[1, :, n - 1:] = 0.0
    prods[2, :, n - 2:] = 0.0

    scale = [grid.dxi * comb(grid.m0, r) / (12.0 * grid.dxi * grid.dxi) ** r
             for r in range(grid.m0 + 1)]
    # identity terms have no cancellation: one reduction per (q, k) over j;
    # the three stencil terms meet at each j before the sum over j
    W = scale[0] * np.einsum("kj,qj->qk", prods[0], ident)
    W += scale[1] * np.add.reduce(np.einsum("dkj,qdj->qkj", prods, bands), axis=2)
    if grid.m0 > 1:
        end_column = np.array([30.0, -16.0, 1.0])     # S e_0 near the first node
        a = u
        for q in range(max_order + 1):
            if q:
                a = a * grid.xi
            right = _weight_stencil(a)
            # S(h a) is S a less half of the two end nodes' stencil columns
            left = right.copy()
            left[:, :3] -= 0.5 * a[:, :1] * end_column
            left[:, -3:] -= 0.5 * a[:, -1:] * end_column[::-1]
            left = np.conj(left)
            for r in range(2, grid.m0 + 1):
                if r > 2:
                    right = _weight_stencil(right)
                W[q] += scale[r] * np.add.reduce((left * right).real, axis=1)

    norms2 = np.empty(max_order + 1)
    for order in range(max_order + 1):
        # sum over q <= order of kfac[order - q] . W[q]
        total = float(np.add.reduce((kfac[order::-1] * W[: order + 1]).ravel()))
        if total < 0.0:
            # the half trapezoid weights at the window edge make the discrete
            # form indefinite for fields that do not vanish there
            warnings.warn(f"norm_ladder: squared order-{order} norm is negative ({total:.6e}), "
                          f"read as 0; the field does not vanish at the window edge",
                          RuntimeWarning, stacklevel=2)
        norms2[order] = max(total, 0.0)
    return np.sqrt(norms2)


def sobolev_norm(field: SpectralField, order: int) -> float:
    """Weighted Sobolev norm of the field at the given derivative order (weight exponent: the grid's m0)."""
    return float(norm_ladder(field, order)[order])


def embedding_constant(m0: int) -> float:
    """
    Cauchy-Schwarz constant of the pointwise Fourier bound,

        C(m0) = (2 pi)^{-1/2} * (int (1 + v^2)^{-m0} dv)^{1/2},

    using the closed form int (1+v^2)^{-m} dv = pi * binom(2m-2, m-1) / 4^{m-1}.
    """
    if m0 < 1:
        raise ValueError(f"m0 must be a positive integer, got {m0}")
    integral = np.pi * comb(2 * m0 - 2, m0 - 1) / 4.0 ** (m0 - 1)
    return float(np.sqrt(integral / (2.0 * np.pi)))


def symmetrized_values(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Average paired entries so the reality symmetry holds exactly; the
    result goes to ``out`` when given (a buffer that does not alias ``values``)."""
    out = np.conjugate(values[::-1, ::-1], out=out)
    np.add(values, out, out=out)
    return np.multiply(0.5, out, out=out)


def write_field_csv(field: SpectralField, path) -> None:
    """
    Write a field snapshot through ``write_series_csv`` with header ``n,xi,re,im``.

    Rows are in lexicographic (n, xi-index) order with 17-significant-digit
    decimal floats (integral n prints as an integer), so snapshots round-trip
    and diff cleanly.
    """
    grid, values = field.grid, field.values.ravel()
    write_series_csv(path, "n,xi,re,im", [np.repeat(grid.modes, grid.n_xi), np.tile(grid.xi, grid.shape[0]),
                                          values.real, values.imag])


def write_series_csv(path, header: str, columns) -> None:
    """Write aligned 1-D arrays as CSV with 17-significant-digit floats."""
    cols = [np.asarray(c).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values for values in zip(*cols))
