"""
A fixed reference computation, independent of hmflab, timed between the
benchmark's iterations.

On a shared host the processor's speed can drift by 20-50% over minutes
(seen on a 2-core x86 VM), and the drift moves every workload together.  Timing this
computation next to each iteration and reporting the iteration's wall time
as a multiple of it cancels that drift while keeping every change to
hmflab's own speed: the reference never calls into hmflab, so no change to
hmflab can move it.  Its operations are the kinds hmflab's hot paths are
made of: row FFTs of small complex arrays, a gather by computed indices,
per-row reductions read back into Python, and a short interpreted loop.
Its inputs are fixed, not drawn from the benchmark's seed, so every run
times the same work.
"""

from __future__ import annotations

import time

import numpy as np

ROWS, COLS = 5, 512
STEPS = 2400


def _inputs():
    rng = np.random.default_rng(20140306)
    a = rng.standard_normal((ROWS, COLS)) + 1j * rng.standard_normal((ROWS, COLS))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, a.shape))
    return a, phase


def compute() -> float:
    """The reference work; returns a checksum so that no step can be skipped."""
    a, phase = _inputs()
    x = a.copy()
    acc = 0.0
    for _ in range(STEPS):
        x = np.fft.ifft(np.fft.fft(x, axis=1) * phase, axis=1)
        idx = np.floor(np.abs(x.real) * 10.0).astype(np.int64) % COLS
        x = 0.5 * (x + np.take_along_axis(a, idx, axis=1))
        for r in range(ROWS):
            acc += float(np.vdot(x[r], a[r]).real)
        acc += sum(i * i for i in range(300)) * 1e-12
    return acc


def timed() -> tuple:
    """(seconds, checksum) of one reference computation."""
    t0 = time.perf_counter()
    value = compute()
    return time.perf_counter() - t0, value
