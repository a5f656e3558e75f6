"""Shared test helpers, and the five preset runs as session fixtures."""

import time
import warnings

import numpy as np
import pytest

import hmflab as H
from hmflab.cli import (crosscheck_run_config, damping_run_config, finite_m2_run_config, measure_crosscheck,
                        scattering_run_config, unstable_run_config)


def random_band_limited(rng, grid):
    """Random smooth band-limited field: a few gaussian bumps per mode row,
    reality-symmetric."""
    vals = np.zeros(grid.shape, dtype=complex)
    for n in range(0, grid.n_max + 1):
        row = np.zeros(grid.n_xi, dtype=complex)
        for _ in range(3):
            amp = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
            center = rng.uniform(-5, 5)
            width = rng.uniform(0.6, 2.0)
            row += amp * np.exp(-(grid.xi - center) ** 2 / (2 * width * width))
        vals[grid.row(n)] = row
        vals[grid.row(-n)] = np.conj(row[::-1])
    vals[grid.row(0)] = 0.5 * (vals[grid.row(0)] + np.conj(vals[grid.row(0)][::-1]))
    return H.SpectralField(grid, vals)


def timed_run(cfg):
    t0 = time.monotonic()
    traj = H.run(cfg)
    return traj, time.monotonic() - t0


@pytest.fixture(scope="session")
def damping_traj():
    return timed_run(damping_run_config())


@pytest.fixture(scope="session")
def scattering_data():
    traj, secs = timed_run(scattering_run_config())
    return traj, H.scattering_limit(traj), secs


@pytest.fixture(scope="session")
def m2_traj():
    return timed_run(finite_m2_run_config())


@pytest.fixture(scope="session")
def unstable_traj():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return timed_run(unstable_run_config())


@pytest.fixture(scope="session")
def crosscheck_data():
    traj, secs = timed_run(crosscheck_run_config())
    return traj, measure_crosscheck(traj)[0], secs
