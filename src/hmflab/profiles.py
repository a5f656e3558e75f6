"""
Spatially homogeneous background states and deterministic initial perturbations.

A background eta(v) enters the dynamics only through its velocity transform

    etahat(xi) = int eta(v) exp(-i*xi*v) dv,

(the torus measure cancels the 1/2pi transform prefactor for x-independent
functions, so etahat(0) equals the mass).  Closed forms are used where
available; tabulated profiles are integrated with oscillation-aware
Gauss-Legendre panels on a cubic-spline interpolant.
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
    "synth_initial",
    "load_profile_csv",
    "save_profile_csv",
]

from .grids import PhaseGrid, SpectralField


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
        from scipy.interpolate import CubicSpline    # tabulated profiles only: ~0.3 s to import

        nodes, weights = gauss_panels(v[0], v[-1], per * (v.size - 1), _GL8)
        rules[per] = (nodes, weights * CubicSpline(v, prof.eta_samples)(nodes))
    return rules[per]


def profile_hat(prof: HomogeneousProfile, xi):
    """
    Velocity transform etahat(xi) = int eta(v) exp(-i*xi*v) dv.

    Closed form for "maxwellian" and "two_stream" (real, even); quadrature on
    the spline interpolant for "tabulated" (absolute error well below 1e-10
    for smooth decaying tables).  Accepts scalars or arrays.
    """
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if prof.kind == "maxwellian":
        out = prof.mass * np.exp(-prof.T * x * x / 2.0)
    elif prof.kind == "two_stream":
        out = prof.mass * np.exp(-prof.T * x * x / 2.0) * np.cos(prof.v0 * x)
    else:
        out = fourier_sum(*_tabulated_rule(prof, float(np.max(np.abs(x))) if x.size else 1.0), x)
    return out[0] if scalar else out


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
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(prof.v_samples, prof.eta_samples)
        out = np.where((x >= prof.v_samples[0]) & (x <= prof.v_samples[-1]), spline(x), 0.0)
    return out[0] if scalar else out


def load_profile_csv(path) -> HomogeneousProfile:
    """Read a tabulated profile from CSV with header ``v,eta`` (uniform v grid)."""
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float, encoding="utf-8")
    return tabulated(np.asarray(data["v"], float), np.asarray(data["eta"], float))


def save_profile_csv(prof: HomogeneousProfile, path) -> None:
    """Write a tabulated profile's samples as ``v,eta`` CSV."""
    if prof.kind != "tabulated":
        raise ValueError(f"only tabulated profiles are saved, got a {prof.kind} profile")
    with open(path, "w") as fh:
        fh.write("v,eta\n")
        for vi, ei in zip(prof.v_samples, prof.eta_samples):
            fh.write(f"{vi:.17g},{ei:.17g}\n")


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
