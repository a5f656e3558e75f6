"""
Product-integration solver for the causal linear field equation

    z(t) = int_0^t K(t - s) z(s) ds + F(t),

and the boundedness table of its weighted solutions.

The quadrature is second-order product trapezoidal.  Higher order would buy
nothing here: the memory kernels of interest are continuous but not C^1 at
t = 0, which caps the gain from smooth quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import InvariantViolation, above_floor
from .penrose import InteractionKernel, memory_kernel, penrose_check

_BLOCK = 32  # steps per block of the march
_MARCH_ENTRIES = 4e6  # complex entries per temporary of the march (64 MB), the fourier_sum bound

__all__ = [
    "ModeSeries",
    "product_trapezoid",
    "solve_volterra",
    "step_count",
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

    ``kernel_samples[m]`` holds K(m*dt).  Step j solves
    z_j = (F_j + dt*(K_j z_0/2 + sum_{0<i<j} K_{j-i} z_i)) / (1 - dt*K_0/2).

    The history sum runs over the kernel's numerical support only: with L
    the last index of ``grids.above_floor(K)`` (0 for a zero kernel), step j
    sums the lags 1..min(L, j-1), which drops at most
    n * 1e-16 * max|K| * max|z| * dt.  When the last sample is above that
    level, L = n and every step sums its whole history.

    The steps march in blocks of ``_BLOCK`` starting at step 1, each block
    full width (K and F read as zero past the grid), so z_j does not depend
    on n.  A block is two reductions along the last axis: its history, a
    (B, L) Toeplitz table of dt*K lags against z[s0-L:s0], and its in-block
    solve, the lower-triangular Toeplitz inverse of (1 - dt*K_0/2) I - dt T_B
    applied to the block's right-hand sides.

    ``forcing_samples`` of shape (m, n+1) holds one forcing per row; the
    rows march in groups whose temporaries stay under ``_MARCH_ENTRIES``
    complex entries (for L <= _MARCH_ENTRIES / _BLOCK), each row exactly as
    its own 1-D solve, and the result has the forcing's shape.  A kernel
    with no samples, and non-finite kernel or forcing samples, are refused
    with a ValueError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    K = np.asarray(kernel_samples, dtype=np.complex128)
    F = np.asarray(forcing_samples, dtype=np.complex128)
    if K.ndim != 1 or F.ndim not in (1, 2) or F.shape[-1] != K.size:
        raise ValueError("kernel and forcing sample arrays must be aligned")
    if K.size == 0:
        raise ValueError("kernel_samples is empty: the march needs K(0)")
    for name, arr in (("kernel_samples", K), ("forcing_samples", F)):
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            at = tuple(int(i) for i in bad[0])
            raise ValueError(f"{name} is not finite at index {at[0] if arr.ndim == 1 else at}: {arr[at]}")
    denom = 1.0 - 0.5 * dt * K[0]
    if abs(denom) < 1e-8:
        raise ValueError(f"step-size failure: |1 - (dt/2) K(0)| = {abs(denom):.2e} < 1e-8, reduce dt")
    n, B = K.size - 1, _BLOCK
    above = above_floor(K)
    support = int(above[-1]) if above.size else 0
    width = 1 + -(-n // B) * B
    # dt*K at the lags 0..L+B-1, zero at lag 0 and past the support
    lags = np.zeros(support + B, dtype=np.complex128)
    lags[1:support + 1] = dt * K[1:support + 1]
    # history table: row r, column c multiplies z_{s0-L+c}, at lag r+L-c
    history = lags[np.arange(B)[:, None] + support - np.arange(support)]
    # first column of the block inverse: the response to a unit right-hand side at the block's first step
    col = np.empty(B, dtype=np.complex128)
    col[0] = 1.0 / denom
    for r in range(1, B):
        col[r] = np.add.reduce(lags[r:0:-1] * col[:r]) / denom
    offset = np.arange(B)[:, None] - np.arange(B)
    solve = np.where(offset >= 0, col[np.maximum(offset, 0)], 0.0)
    half = np.zeros(width, dtype=np.complex128)
    half[:n + 1] = 0.5 * dt * K
    f = F.reshape(-1, n + 1)
    out = np.empty(f.shape, dtype=np.complex128)
    # rows per group: the padded rows and both block products stay under _MARCH_ENTRIES
    group = max(1, int(_MARCH_ENTRIES // max(width, B * max(support, B))))
    for g in range(0, f.shape[0], group):
        z = np.zeros((min(group, f.shape[0] - g), width), dtype=np.complex128)
        z[:, :n + 1] = f[g:g + group]
        z0 = z[:, :1]
        # the block products go to buffers made once per group: a fresh
        # temporary per block can cost a page fault per page
        past = np.empty((len(z), B, support), dtype=np.complex128)
        inside = np.empty((len(z), B, B), dtype=np.complex128)
        for s0 in range(1, width, B):
            lo = max(1, s0 - support)
            rhs = z[:, s0:s0 + B] + half[s0:s0 + B] * z0
            if s0 > lo:
                w = s0 - lo
                prod = np.multiply(history[:, support - w:], z[:, None, lo:s0], out=past[..., :w])
                rhs += np.add.reduce(prod, axis=-1)
            z[:, s0:s0 + B] = np.add.reduce(np.multiply(solve, rhs[:, None, :], out=inside), axis=-1)
        out[g:g + group] = z[:, :n + 1]
    return out.reshape(F.shape)


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


def lemvolterra_harness(ik: InteractionKernel, prof, gammas, t_values, dt: float = 0.02, mode: int = 1):
    """
    Empirical boundedness table for the weighted solve forced by
    F(t) = <t>^{-gamma}: for each (gamma, T) returns the ratio of the sample
    maxima over [0, T] of <t>^gamma |z(t)| and of <t>^gamma |F(t)|, with
    <t> = (1 + t^2)^{1/2} (lower bounds of the continuum sups, since they
    only see the sample grid).  A stabilizing ratio as T grows is the
    uniform-in-time constant the linear theory promises; a state that fails
    the stability check is refused with an InvariantViolation (the bound
    presumes it), and a gamma < 0 or a T <= 0 with a ValueError.
    """
    for gamma in gammas:
        if not gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
    for t_final in t_values:
        if not t_final > 0:
            raise ValueError(f"T must be positive, got {t_final}")
    steps = [step_count(float(t_final), dt) for t_final in t_values]
    report = penrose_check(ik, prof)
    if not report.stable:
        raise InvariantViolation("harness refused: state fails the stability check; the bound presumes it")
    # one batched march on the longest grid; the march is causal, so each
    # shorter T reads its running sup at its own last step
    times = np.arange(max(steps, default=0) + 1) * dt
    forcings = np.reshape([(1.0 + times * times) ** (-g / 2.0) for g in gammas], (len(gammas), times.size))
    solutions = product_trapezoid(memory_kernel(ik, prof, mode, times), forcings, dt)
    rows = []
    for gamma, f, z in zip(gammas, forcings, solutions):
        w = (1.0 + times ** 2) ** (gamma / 2.0)
        num = np.maximum.accumulate(w * np.abs(z))
        den = np.maximum.accumulate(w * np.abs(f))
        rows.extend((float(gamma), float(t_final), float(num[n] / den[n])) for t_final, n in zip(t_values, steps))
    return rows
