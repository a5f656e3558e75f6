"""
Post-processing monitors: composite weighted norms, damping-rate fits,
conservation drifts, the scattering limit and the distance to it, and the
weak limit of the spatial average.

The composite monitor tracks three suprema over [0, T],

    growth part:  ||g(t)||_{H^s} / <t>^{2M+1}
    mode part:    max_k <t>^{s+1-2|k|} |z_k(t)|    (active modes k)
    low part:     ||g(t)||_{H^{s-2M-2}},

whose sum staying bounded uniformly in T is the quantitative signature of
nonlinear damping.  M = 1 gives the plain cosine exponents (<t>^3 growth
weight, <t>^{s-1} on the field modes, low order s-4); general M is the
finite-mode variant.  Rates are always asserted as log-log slopes with
exponent-level tolerances: the constants in the underlying bounds are not
constructive, only the exponents are falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import InvariantViolation, SpectralField, sobolev_norm
from .profiles import HomogeneousProfile, chirp_z, profile_values, tabulated
from .simulate import Trajectory, assemble_rhs
from .volterra import ModeSeries

__all__ = [
    "NormMonitor",
    "q_monitor",
    "fit_window",
    "decay_fit",
    "weighted_mode_series",
    "conservation_drifts",
    "ScatteringResult",
    "scattering_limit",
    "convergence_series",
    "weak_limit_profile",
]


@dataclass(frozen=True)
class NormMonitor:
    """Composite weighted-norm monitor sampled at a trajectory's snapshot times."""

    times: np.ndarray             # the snapshot times; each series below is sampled at them
    growth_part: np.ndarray
    mode_part: np.ndarray
    low_part: np.ndarray
    q_series: np.ndarray          # running max of each part, summed; nondecreasing
    edge_tail_fraction: float     # weighted spectral mass near the grid edge

    @property
    def q_sup(self) -> float:
        return float(self.q_series[-1])

    def growth_from_halfway(self) -> float:
        """q_sup(T) / q_sup(T/2), with T/2 read at the first snapshot at or after it; values
        near 1 mean the monitor has saturated.  An InvariantViolation when that snapshot is the
        last one, where the ratio is 1 by construction."""
        half = int(np.searchsorted(self.times, 0.5 * self.times[-1]))
        if half == len(self.times) - 1:
            raise InvariantViolation(f"no snapshot between T/2 = {0.5 * self.times[-1]:.6g} and T = "
                                     f"{self.times[-1]:.6g}: q_sup(T)/q_sup(T/2) would be 1 by construction; "
                                     f"use a smaller record_every")
        return float(self.q_series[-1] / self.q_series[half])


def q_monitor(traj: Trajectory) -> NormMonitor:
    """
    Evaluate the composite monitor at the trajectory's snapshot times, where
    run() takes the norm ladder, at the run's monitor index s with M the
    kernel's number of modes.  The mode part is known at every step: q_series
    adds its running max over all steps, so the sup sees every step.
    Grid-truncated norms are lower bounds of the true ones, so the edge tail
    fraction is reported to make under-resolution visible.
    """
    cfg = traj.config
    s = cfg.s
    m = cfg.kernel.n_modes
    low_order = max(s - 2 * m - 2, 0)

    steps = cfg.snapshot_steps
    t = traj.times
    w = np.sqrt(1.0 + t * t)
    growth = traj.norm_history[:, s] / w[steps] ** (2 * m + 1)
    low = traj.norm_history[:, low_order]

    mode_part = np.zeros_like(t)
    for k in traj.field_modes.modes:
        weight = w ** (s + 1 - 2 * abs(k))
        mode_part = np.maximum(mode_part, weight * np.abs(traj.field_modes.mode(k)))

    q_series = (np.maximum.accumulate(growth)
                + np.maximum.accumulate(mode_part)[steps]
                + np.maximum.accumulate(low))

    last = traj.snapshots[-1]
    xi = last.grid.xi
    weighted = (1.0 + xi * xi) ** s * np.abs(last.values) ** 2
    band = max(3, int(0.05 * last.grid.n_xi))
    edge = float(np.sum(weighted[:, :band]) + np.sum(weighted[:, -band:]))
    total = float(np.sum(weighted))
    tail = edge / total if total > 0 else 0.0

    return NormMonitor(times=traj.snapshot_times, growth_part=growth,
                       mode_part=mode_part[steps], low_part=low, q_series=q_series,
                       edge_tail_fraction=tail)


def weighted_mode_series(series: ModeSeries, gamma: float, mode: int = 1) -> ModeSeries:
    """Series <t>^gamma * z_mode(t), for flatness checks of weighted modes."""
    w = (1.0 + series.times ** 2) ** (gamma / 2.0)
    return ModeSeries(series.times, {mode: w * series.mode(mode)})


def fit_window(times: np.ndarray, window: tuple) -> np.ndarray:
    """Mask of the ``times`` inside ``window``; a ValueError unless the window
    starts at t >= 1 and holds at least 20 of them (decay_fit's rule)."""
    t_a, t_b = float(window[0]), float(window[1])
    if t_a < 1.0:
        raise ValueError(f"fit window must start at t >= 1, got {t_a}")
    if not t_b > t_a:
        raise ValueError(f"empty fit window [{t_a}, {t_b}]")
    sel = (times >= t_a) & (times <= t_b)
    if int(np.sum(sel)) < 20:
        raise ValueError(f"need at least 20 samples in [{t_a}, {t_b}], have {int(np.sum(sel))}")
    return sel


def decay_fit(series: ModeSeries, window: tuple, mode: int = 1) -> tuple:
    """
    Least-squares slope of log|z_mode| against log t on the window.

    Returns (slope, r_squared).  The window must pass fit_window; if |z|
    underflows 1e-14 inside it the fit refuses and reports the largest
    usable sub-window instead of fitting noise.
    """
    sel = fit_window(series.times, window)
    t_a = float(window[0])
    mag = np.abs(series.mode(mode)[sel])
    ts = series.times[sel]
    under = mag <= 1e-14
    if np.any(under):
        first_bad = int(np.argmax(under))
        if first_bad < 20:
            raise ValueError(f"series underflows 1e-14 at t={ts[first_bad]:.6g}; no usable sub-window")
        raise ValueError(
            f"series underflows 1e-14 at t={ts[first_bad]:.6g}; "
            f"largest usable sub-window is [{t_a:.6g}, {ts[first_bad - 1]:.6g}]")
    x = np.log(ts)
    y = np.log(mag)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


def conservation_drifts(traj: Trajectory) -> tuple:
    """(mass, L2, reality): largest drift of ghat_0(t, 0), largest drift of ||eta + eps*g||_L2
    relative to t = 0, and largest per-step symmetry defect."""
    mass = float(np.max(np.abs(traj.mass_series - traj.mass_series[0])))
    l2 = float(np.max(np.abs(traj.l2_series - traj.l2_series[0])) / traj.l2_series[0])
    reality = float(np.max(traj.reality_series))
    return mass, l2, reality


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering state at a horizon with a tail-of-integral indicator."""

    field: SpectralField
    tail_estimate: float          # ||rhs(t_final)||_{H^{max(s-4,1)}} * <t_final>
    t_final: float


def scattering_limit(traj: Trajectory, up_to: float | None = None,
                     carry: ScatteringResult | None = None) -> ScatteringResult:
    """
    The scattering state g_inf(T) = g(0) + int_0^T rhs = g(T) at the recorded
    snapshot nearest ``up_to`` (default: the last one), bitwise, with the tail
    estimate ||rhs(T)||_{H^{max(s-4,1)}} <T>.  ``carry``, a result at an
    earlier horizon, must end before T and leaves the result unchanged (see
    "Scattering state" in docs/conventions.md).
    """
    cfg = traj.config
    times = traj.snapshot_times
    i = int(np.argmin(np.abs(times - (times[-1] if up_to is None else float(up_to)))))
    t_final = float(times[i])
    if carry is not None and not carry.t_final < t_final:
        raise ValueError(f"empty accumulation range [{carry.t_final}, {t_final}]")
    rhs = assemble_rhs(traj.snapshots[i], t_final, cfg)
    tail = sobolev_norm(rhs, max(cfg.s - 4, 1)) * np.sqrt(1.0 + times[i] ** 2)
    return ScatteringResult(field=traj.snapshots[i], tail_estimate=float(tail), t_final=t_final)


def convergence_series(traj: Trajectory, g_inf: SpectralField, idx: np.ndarray) -> tuple:
    """(times, ||g(t) - g_inf||_{H^1}) at the snapshots of index ``idx``."""
    vals = np.empty(idx.size)
    for j, i in enumerate(idx):
        diff = SpectralField(g_inf.grid, traj.snapshots[i].values - g_inf.values, real_valued=False)
        vals[j] = sobolev_norm(diff, 1)
    return traj.snapshot_times[idx], vals


def weak_limit_profile(g_inf: SpectralField, prof: HomogeneousProfile, epsilon: float) -> HomogeneousProfile:
    """
    Corrected homogeneous state: the x-average of the scattering state shifts
    the background,

        etainf_hat(xi) = etahat(xi) + eps * ghat_inf_0(xi),

    (the x-average is exactly the n = 0 row under the transform convention).
    The result is inverse-transformed by a chirp-z transform (the xi nodes
    are the centres of cells of width dxi) onto v at spacing 0.025: the 961
    points of [-12, 12], or that window doubled until the background at
    both ends is below 1e-16 of its peak on it.  It is returned as a
    tabulated profile.
    """
    grid = g_inf.grid
    v = np.linspace(-12.0, 12.0, 961)
    eta = profile_values(prof, v)
    while max(abs(eta[0]), abs(eta[-1])) > 1e-16 * np.max(np.abs(eta)):
        v = np.linspace(2.0 * v[0], 2.0 * v[-1], 2 * v.size - 1)
        eta = profile_values(prof, v)
    weights = grid.trapz_weights() * g_inf.mode(0)
    correction = chirp_z(weights, grid.xi[0] - 0.5 * grid.dxi, grid.dxi, 0.0, -v) / (2.0 * np.pi)
    return tabulated(v, eta + epsilon * correction.real)
