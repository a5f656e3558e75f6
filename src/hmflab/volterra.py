"""
Product-integration solver for the causal linear field equation

    z(t) = int_0^t K(t - s) z(s) ds + F(t),

and the weighted sup-norm machinery used to monitor field-mode decay.

The quadrature is second-order product trapezoidal.  Higher order would buy
nothing here: the memory kernels of interest are continuous but not C^1 at
t = 0, which caps the gain from smooth quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import InvariantViolation
from .penrose import InteractionKernel, memory_kernel, penrose_check

_SUPPORT_TINY = 1e-16  # |K| relative to its peak below which a lag is dropped

__all__ = [
    "ModeSeries",
    "product_trapezoid",
    "solve_volterra",
    "step_count",
    "weighted_sup",
    "lemvolterra_harness",
]


@dataclass(frozen=True)
class ModeSeries:
    """
    Complex time series per spatial mode on a uniform time grid 0..T.

    ``values`` maps the mode number k to an array aligned with ``times``.
    For reality-symmetric dynamics the stored modes satisfy
    z_{-k}(t) = conj(z_k(t)), so only one sign needs to be kept.
    """

    times: np.ndarray
    values: dict

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must be a 1-D array with at least two samples")
        steps = np.diff(t)
        if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("times must be strictly increasing and uniform")
        vals = {}
        for k, v in self.values.items():
            arr = np.asarray(v, dtype=np.complex128)
            if arr.shape != t.shape:
                raise ValueError(f"mode {k}: series length {arr.shape} != times {t.shape}")
            arr = arr.copy()
            arr.flags.writeable = False
            vals[int(k)] = arr
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", vals)

    @property
    def modes(self) -> list:
        return sorted(self.values)

    def mode(self, k: int) -> np.ndarray:
        return self.values[k]


def _samples(obj, times: np.ndarray) -> np.ndarray:
    if callable(obj):
        out = np.asarray(obj(times))
        if out.shape != times.shape:
            raise ValueError("callable must be vectorized over the time grid")
        return out.astype(np.complex128)
    out = np.asarray(obj, dtype=np.complex128)
    if out.shape != times.shape:
        raise ValueError(f"sample array length {out.shape} != time grid {times.shape}")
    return out


def product_trapezoid(kernel_samples: np.ndarray, forcing_samples: np.ndarray, dt: float) -> np.ndarray:
    """
    March the second-kind Volterra equation with product-trapezoidal weights.

    ``kernel_samples[m]`` holds K(m*dt).  Each step solves the implicit
    diagonal term in closed form: z_j = (F_j + dt*(K_j z_0/2 + sum_{0<i<j}
    K_{j-i} z_i)) / (1 - dt*K_0/2).

    The history sum runs over the kernel's numerical support only: with L
    the last index where |K_m| > 1e-16 max|K| (0 for a zero kernel), step j
    sums the lags 1..min(L, j-1), which drops at most
    n * 1e-16 * max|K| * max|z| * dt.  When the last sample is above that
    level, L = n and every step sums its whole history.

    ``forcing_samples`` of shape (m, n+1) holds one forcing per row; the
    rows march together, each exactly as its own 1-D solve, and the result
    has the forcing's shape.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    K = np.asarray(kernel_samples, dtype=np.complex128)
    F = np.asarray(forcing_samples, dtype=np.complex128)
    if K.ndim != 1 or F.ndim not in (1, 2) or F.shape[-1] != K.size:
        raise ValueError("kernel and forcing sample arrays must be aligned")
    denom = 1.0 - 0.5 * dt * K[0]
    if abs(denom) < 1e-8:
        raise ValueError(f"step-size failure: |1 - (dt/2) K(0)| = {abs(denom):.2e} < 1e-8, reduce dt")
    n = K.size - 1
    mag = np.abs(K)
    above = np.nonzero(mag > _SUPPORT_TINY * mag.max())[0]
    support = int(above[-1]) if above.size else 0
    out = np.empty(F.shape, dtype=np.complex128)
    f, z = F.reshape(-1, n + 1), out.reshape(-1, n + 1)
    z[:, 0] = f[:, 0]
    starts = list(z[:, 0])
    for j in range(1, n + 1):
        lo = max(1, j - support)
        half = 0.5 * K[j]
        # one reduction along the last axis keeps each row's pairwise order;
        # the rest of the step is the 1-D loop's scalar arithmetic, per row
        sums = np.add.reduce(K[j - lo:0:-1] * z[:, lo:j], axis=-1) if j > lo else None
        for r, z0 in enumerate(starts):
            acc = half * z0
            if sums is not None:
                acc = acc + sums[r]
            z[r, j] = (f[r, j] + dt * acc) / denom
    return out


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of size dt to t_final; a ValueError unless t_final is a multiple of dt > 0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = int(round(t_final / dt))
    if abs(n * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final} is not a multiple of dt={dt}")
    return n


def solve_volterra(kernel, forcing, dt: float, t_final: float | None = None,
                   mode: int = 0) -> ModeSeries:
    """
    Solve one causal integral equation on the grid 0, dt, ..., t_final.

    ``kernel`` and ``forcing`` are vectorized callables of t or sample
    arrays aligned with the grid.  When sample arrays are given, t_final is
    inferred from their length.
    """
    if t_final is None:
        probe = forcing if not callable(forcing) else kernel
        if callable(probe):
            raise ValueError("t_final required when both kernel and forcing are callables")
        t_final = (len(probe) - 1) * dt
    times = np.arange(step_count(t_final, dt) + 1) * dt
    z = product_trapezoid(_samples(kernel, times), _samples(forcing, times), dt)
    return ModeSeries(times, {mode: z})


def weighted_sup(series: ModeSeries, gamma: float) -> float:
    """
    Discrete surrogate of the weighted mode norm: max over samples and modes
    of <t>^gamma |z_k(t)|, with <t> = (1 + t^2)^{1/2}.  A lower bound of the
    continuum sup since it only sees the sample grid.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    w = (1.0 + series.times ** 2) ** (gamma / 2.0)
    return max(float(np.max(w * np.abs(series.mode(k)))) for k in series.modes)


def lemvolterra_harness(ik: InteractionKernel, prof, gammas, t_values, dt: float = 0.02, mode: int = 1):
    """
    Empirical boundedness table for the weighted solve forced by
    F(t) = <t>^{-gamma}: for each (gamma, T) returns the ratio
    weighted_sup(solution, gamma) / weighted_sup(forcing, gamma).  A
    stabilizing ratio as T grows is the uniform-in-time constant the linear
    theory promises; a state that fails the stability check is refused with
    an InvariantViolation (the bound presumes it).
    """
    steps = [step_count(float(t_final), dt) for t_final in t_values]
    report = penrose_check(ik, prof)
    if not report.stable:
        raise InvariantViolation("harness refused: state fails the stability check; the bound presumes it")
    # one batched march on the longest grid; the march is causal, so each
    # shorter T reads its solution as a prefix
    times = np.arange(max(steps, default=0) + 1) * dt
    forcings = np.reshape([(1.0 + times * times) ** (-g / 2.0) for g in gammas], (len(gammas), times.size))
    solutions = product_trapezoid(memory_kernel(ik, prof, mode, times), forcings, dt)
    rows = []
    for gamma, f, z in zip(gammas, forcings, solutions):
        for t_final, n in zip(t_values, steps):
            head = times[:n + 1]
            num = weighted_sup(ModeSeries(head, {mode: z[:n + 1]}), gamma)
            den = weighted_sup(ModeSeries(head, {mode: f[:n + 1]}), gamma)
            rows.append((float(gamma), float(t_final), num / den))
    return rows
