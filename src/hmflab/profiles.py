"""
Spatially homogeneous background states and deterministic initial perturbations.

A background eta(v) enters the dynamics only through its velocity transform

    etahat(xi) = int eta(v) exp(-i*xi*v) dv,

(the torus measure cancels the 1/2pi transform prefactor for x-independent
functions, so etahat(0) equals the mass).  Closed forms are used where
available; tabulated profiles are integrated with oscillation-aware
Gauss-Legendre panels on a cubic-spline interpolant, summed by chirp-z
transforms on uniform targets and densely on any others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HomogeneousProfile",
    "Perturbation",
    "maxwellian",
    "two_stream",
    "tabulated",
    "profile_hat",
    "profile_values",
    "gauss_panels",
    "fourier_sum",
    "chirp_z",
    "synth_initial",
    "load_profile_csv",
    "save_profile_csv",
]

from .grids import PhaseGrid, SpectralField, write_series_csv


@dataclass(frozen=True)
class HomogeneousProfile:
    """
    Stationary homogeneous state eta(v).

    ``kind`` is one of "maxwellian" (temperature T), "two_stream" (two
    counter-streaming maxwellians at +-v0) or "tabulated" (samples on a
    uniform v grid).  ``mass`` is int eta dv, 1 by default so that
    etahat(0) = 1 and the linearized kernel carries no hidden constants.
    """

    kind: str
    mass: float = 1.0
    T: float = 1.0
    v0: float = 0.0
    v_samples: np.ndarray | None = None
    eta_samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("maxwellian", "two_stream", "tabulated"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("maxwellian", "two_stream") and not self.T > 0:
            raise ValueError(f"temperature T must be positive, got {self.T}")
        if self.kind == "tabulated":
            v = np.asarray(self.v_samples, dtype=float)
            eta = np.asarray(self.eta_samples, dtype=float)
            if v.ndim != 1 or v.shape != eta.shape or v.size < 4:
                raise ValueError("tabulated profile needs matching 1-D v and eta samples")
            dv = np.diff(v)
            if not np.all(dv > 0) or not np.allclose(dv, dv[0], rtol=1e-10, atol=1e-12):
                raise ValueError("tabulated profile requires a uniform increasing v grid")
            bad = np.flatnonzero(~np.isfinite(eta))
            if bad.size:
                raise ValueError(f"tabulated profile needs finite eta samples, eta_samples[{bad[0]}] is {eta[bad[0]]}")
            v = v.copy()
            eta = eta.copy()
            v.flags.writeable = False
            eta.flags.writeable = False
            object.__setattr__(self, "v_samples", v)
            object.__setattr__(self, "eta_samples", eta)


def maxwellian(T: float = 1.0, mass: float = 1.0) -> HomogeneousProfile:
    """Maxwellian with variance T: eta(v) = mass * exp(-v^2/2T) / sqrt(2 pi T)."""
    return HomogeneousProfile(kind="maxwellian", mass=mass, T=T)


def two_stream(T: float, v0: float, mass: float = 1.0) -> HomogeneousProfile:
    """Symmetric double maxwellian centered at +-v0."""
    return HomogeneousProfile(kind="two_stream", mass=mass, T=T, v0=v0)


def tabulated(v: np.ndarray, eta: np.ndarray) -> HomogeneousProfile:
    """
    Profile from samples on a uniform v grid.

    Its mass is the quadrature of the samples, so the invariant
    etahat(0) = mass holds by construction.
    """
    prof = HomogeneousProfile(kind="tabulated", mass=1.0, v_samples=np.asarray(v, float),
                              eta_samples=np.asarray(eta, float))
    object.__setattr__(prof, "mass", float(np.real(profile_hat(prof, 0.0))))
    return prof


_GL8 = np.polynomial.legendre.leggauss(8)
_PAIR_BLOCK = 4e6  # target-node pairs per block of fourier_sum (64 MB of complex)


def gauss_panels(a: float, b: float, n_panels: int, rule):
    """
    Composite rule on ``n_panels`` uniform panels of [a, b] from a (nodes,
    weights) ``rule`` on [-1, 1]: nodes and weights as (n_panels, len(nodes))
    arrays, panel by offset, so the nodes are panel midpoints plus fixed offsets.
    """
    x, w = rule
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def fourier_sum(nodes, weights, targets):
    """
    sum_j weights_j exp(-i tau nodes_j) for every tau in ``targets``, in its shape.

    Each target is one ``np.add.reduce`` over all nodes, in blocks of at most
    ``_PAIR_BLOCK`` target-node pairs: memory stays bounded, no BLAS call is
    made, and a value depends neither on its block nor on the thread count.
    """
    nodes, weights = np.ravel(nodes), np.ravel(weights)
    flat = np.reshape(targets, -1)
    out = np.empty(flat.shape, dtype=np.complex128)
    chunk = max(1, int(_PAIR_BLOCK // max(nodes.size, 1)))
    for i in range(0, flat.size, chunk):
        out[i:i + chunk] = np.add.reduce(weights * np.exp(-1j * flat[i:i + chunk, None] * nodes), axis=1)
    return out.reshape(np.shape(targets))


def _is_uniform(taus) -> bool:
    """Whether ``taus`` is a real 1-D progression of at least 2 points, each
    within 16 ulps of max|taus| of tau_c + j dtau (counted from the centre)."""
    if taus.ndim != 1 or taus.size < 2 or np.iscomplexobj(taus):
        return False
    jc = (taus.size - 1) // 2
    dtau = (taus[-1] - taus[0]) / (taus.size - 1)
    ideal = taus[jc] + (np.arange(taus.size) - jc) * dtau
    return bool(np.max(np.abs(taus - ideal)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(taus)))


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n: a length pocketfft transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def chirp_z(weights, a: float, step: float, offsets, taus):
    """
    sum_{p,g} weights[p, g] exp(-i tau x[p, g]) for every tau of ``taus``, a
    uniform 1-D progression (a ValueError otherwise), by chirp-z transforms.

    The nodes sit on ``P = len(weights)`` uniform panels of width ``step``
    from ``a``, as ``gauss_panels`` builds them: x[p, g] = a + (p + 1/2) step
    + offsets[g]; 1-D weights take one node per panel and a scalar offset.
    Count the panels p and the targets j from their centres pc and jc: with
    tau_j = tau_c + j dtau, x_g = a + (pc + 1/2) step + offsets[g] and
    alpha = step dtau,

        sum(tau_j) = exp(-i alpha j^2 / 2) sum_g exp(-i tau_j x_g) C_g[j],
        C_g[j] = sum_p weights[p, g] exp(-i tau_c step p - i alpha p^2 / 2)
                 exp(i alpha (j - p)^2 / 2),

    one chirp-z transform over the panels per offset; Bluestein's
    j p = (j^2 + p^2 - (j - p)^2) / 2 makes it one FFT convolution C_g, and
    one table of exp(i alpha k^2 / 2) over the lags k = j - p serves both
    its chirp and the conjugate post-factor.  This is O((P + n_tau) log)
    work in place of n_tau * P * len(offsets) complex exponentials.
    Centring the indices keeps the chirp phases, and with them the
    roundoff, four times smaller.  The phases exp(-i tau_j x_g) come from
    two small tables: with j + jc = m b + r and m = ceil(sqrt(n_tau)), a
    coarse one at tau_{m b - jc} and a fine one at r dtau, about
    2 sqrt(n_tau) exponentials per offset.
    """
    taus = np.asarray(taus)
    if not _is_uniform(taus):
        raise ValueError("chirp_z needs a real uniform progression of at least 2 targets")
    fw = np.reshape(weights, (len(weights), -1))
    n_panels, n_tau = fw.shape[0], taus.size
    dtau = (taus[-1] - taus[0]) / (n_tau - 1)
    alpha = step * dtau
    jc, pc = (n_tau - 1) // 2, (n_panels - 1) // 2
    p = np.arange(n_panels) - pc
    lags = np.arange(1 - n_panels, n_tau) - (jc - pc)      # every j - p
    half = np.exp(0.5j * alpha * lags ** 2)
    size = _next_fast_len(n_panels + n_tau - 1)
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[:n_tau] = half[n_panels - 1:]
    chirp[size - n_panels + 1:] = half[:n_panels - 1]
    x = fw.T * np.exp(-1j * (taus[jc] * step * p + 0.5 * alpha * p * p))
    conv = np.fft.ifft(np.fft.fft(x, size, axis=-1) * np.fft.fft(chirp), axis=-1)[:, :n_tau]
    x_g = (a + (pc + 0.5) * step + np.atleast_1d(offsets))[:, None]
    m = int(np.ceil(np.sqrt(n_tau)))
    n_blocks = -(-n_tau // m)
    coarse = np.exp(-1j * x_g * (taus[jc] + (m * np.arange(n_blocks) - jc) * dtau))
    fine = np.exp(-1j * x_g * (np.arange(m) * dtau))
    phases = (coarse[:, :, None] * fine[:, None, :]).reshape(len(x_g), -1)[:, :n_tau]
    phases *= conv
    return np.add.reduce(phases, axis=0) * np.conj(half[n_panels - 1 - pc:n_panels - 1 - pc + n_tau])


def _spline(v: np.ndarray, y: np.ndarray):
    """
    The not-a-knot cubic spline through (v, y), n >= 4 knots, as a function
    of points in [v[0], v[-1]].  The knot slopes s solve the tridiagonal
    system of ``scipy.interpolate.CubicSpline`` (rows i = 1..n-2 match
    second derivatives at the knots, the end rows make the third derivative
    continuous at v[1] and v[-2]), eliminated without row swaps, as partial
    pivoting eliminates it: no pivot is smaller than the entry below it.
    Each interval's cubic is summed in powers of the offset h from its left
    knot, lowest first, as scipy's ``PPoly`` sums it.
    """
    dx = np.diff(v)
    slope = np.diff(y) / dx
    n = v.size
    lower, diag, upper, rhs = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = v[2] - v[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = v[-1] - v[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    lo, di, up, s = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        m = lo[i] / di[i - 1]
        di[i] -= m * up[i - 1]
        s[i] -= m * s[i - 1]
    s[-1] /= di[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - up[i] * s[i + 1]) / di[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    cubic, quadratic = t / dx, (slope - s[:-1]) / dx - t

    def values(x):
        i = np.clip(np.searchsorted(v, x, side="right") - 1, 0, n - 2)
        h = x - v[i]
        h2 = h * h
        return y[i] + s[i] * h + quadratic[i] * h2 + cubic[i] * (h2 * h)

    return values


def _tabulated_rule(prof: HomogeneousProfile, xi_abs_max: float):
    """
    Gauss-Legendre nodes/weights resolving exp(-i*xi*v) up to xi_abs_max.

    The rule depends on xi_abs_max only through ``per``, the panels per
    table interval, and is stored under it on the (frozen) profile itself, so
    a transform does not depend on the calls made before it and the rules
    live and die with the samples they were built from.
    """
    v = prof.v_samples
    # subdivide table intervals so each panel sees at most ~4 radians of phase
    per = max(1, int(np.ceil(xi_abs_max * (v[1] - v[0]) / 4.0)))
    rules = prof.__dict__.setdefault("_quad_rules", {})
    if per not in rules:
        nodes, weights = gauss_panels(v[0], v[-1], per * (v.size - 1), _GL8)
        rules[per] = (nodes, weights * _spline(v, prof.eta_samples)(nodes))
    return rules[per]


def profile_hat(prof: HomogeneousProfile, xi):
    """
    Velocity transform etahat(xi) = int eta(v) exp(-i*xi*v) dv.

    Closed form for "maxwellian" and "two_stream" (real, even); quadrature on
    the spline interpolant for "tabulated" (absolute error well below 1e-10
    for smooth decaying tables), by chirp-z along each uniform last-axis
    family of ``xi``.  Accepts scalars or arrays.
    """
    x = np.asarray(xi, dtype=float)
    if prof.kind == "maxwellian":
        return prof.mass * np.exp(-prof.T * x * x / 2.0)
    if prof.kind == "two_stream":
        return prof.mass * np.exp(-prof.T * x * x / 2.0) * np.cos(prof.v0 * x)
    out = _tabulated_hat(prof, np.atleast_1d(x))
    return out if x.ndim else out[0]


def _tabulated_hat(prof: HomogeneousProfile, x: np.ndarray) -> np.ndarray:
    """
    A tabulated profile's transform at ``x`` on the rule that resolves
    max|x|.  Each family along the last axis of ``x`` that is a uniform
    progression takes ``chirp_z``, any other the dense ``fourier_sum``.

    The weights are real, so etahat(-x) = conj(etahat(x)), and the chirp-z
    path keeps that bitwise: a family whose ends sum below zero is evaluated
    as the conjugate of its mirror -x[::-1], and a family that is its own
    mirror as the mean of its values and their mirror image.  So the rows
    xi - n t and xi + n t of a run are bitwise mirrors, as with the dense sum.
    """
    if not x.size:
        return np.empty(x.shape, dtype=np.complex128)
    nodes, weights = _tabulated_rule(prof, float(np.max(np.abs(x))))
    v = prof.v_samples
    step = (v[-1] - v[0]) / weights.shape[0]
    offsets = (0.5 * step) * _GL8[0]
    families = np.reshape(x, (-1, x.shape[-1]))
    out = np.empty(families.shape, dtype=np.complex128)
    for row, fam in zip(out, families):
        flip = fam[0] + fam[-1] < 0.0
        canonical = -fam[::-1] if flip else fam
        if not _is_uniform(canonical):
            row[:] = fourier_sum(nodes, weights, fam)
            continue
        vals = chirp_z(weights, v[0], step, offsets, canonical)
        if flip:
            vals = np.conj(vals[::-1])
        elif np.array_equal(fam, -fam[::-1]):
            vals = 0.5 * (vals + np.conj(vals[::-1]))
        row[:] = vals
    return out.reshape(x.shape)


def profile_values(prof: HomogeneousProfile, v):
    """Pointwise eta(v)."""
    scalar = np.isscalar(v)
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if prof.kind == "maxwellian":
        out = prof.mass * np.exp(-x * x / (2.0 * prof.T)) / np.sqrt(2.0 * np.pi * prof.T)
    elif prof.kind == "two_stream":
        g = lambda u: np.exp(-u * u / (2.0 * prof.T)) / np.sqrt(2.0 * np.pi * prof.T)
        out = prof.mass * 0.5 * (g(x - prof.v0) + g(x + prof.v0))
    else:
        knots = prof.v_samples
        out = np.where((x >= knots[0]) & (x <= knots[-1]), _spline(knots, prof.eta_samples)(x), 0.0)
    return out[0] if scalar else out


def load_profile_csv(path) -> HomogeneousProfile:
    """Read a tabulated profile from CSV with header ``v,eta`` (uniform v grid)."""
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float, encoding="utf-8")
    return tabulated(np.asarray(data["v"], float), np.asarray(data["eta"], float))


def save_profile_csv(prof: HomogeneousProfile, path) -> None:
    """Write a tabulated profile's samples as ``v,eta`` CSV."""
    if prof.kind != "tabulated":
        raise ValueError(f"only tabulated profiles are saved, got a {prof.kind} profile")
    write_series_csv(path, "v,eta", [prof.v_samples, prof.eta_samples])


@dataclass(frozen=True)
class Perturbation:
    """
    Deterministic single-mode initial perturbation, prescribed in Fourier
    variables so its regularity tail is exact rather than approximate:

        ghat_mode(0, xi) = amplitude * envelope(xi),

    with envelope "gaussian" -> exp(-xi^2/2) or "algebraic" -> <xi>^{-tail}.
    """

    mode: int
    amplitude: float = 1.0
    envelope: str = "gaussian"
    tail_exponent: float = 7.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.envelope not in ("gaussian", "algebraic"):
            raise ValueError(f"unknown envelope {self.envelope!r}")

    def envelope_values(self, xi: np.ndarray) -> np.ndarray:
        if self.envelope == "gaussian":
            return np.exp(-xi * xi / 2.0)
        return (1.0 + xi * xi) ** (-self.tail_exponent / 2.0)


def synth_initial(perturbations, grid: PhaseGrid) -> SpectralField:
    """
    Build the initial spectral field from a sequence of perturbations.

    Each component populates rows +-mode with amplitude * envelope(xi) (the
    envelopes are real and even, so the reality symmetry holds by
    construction); everything else is zero.
    """
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for p in perturbations:
        if abs(p.mode) > grid.n_max:
            raise ValueError(f"perturbation mode {p.mode} outside [-{grid.n_max}, {grid.n_max}]")
        row = p.amplitude * p.envelope_values(grid.xi)
        vals[grid.row(p.mode)] += row
        if p.mode != 0:
            vals[grid.row(-p.mode)] += row
    return SpectralField(grid, vals, real_valued=True)
