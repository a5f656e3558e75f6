"""
The three benchmark workloads.

Each workload draws its inputs for one iteration from a seeded stream,
writes them as JSON configs that go through ``hmflab.cli.parse_config``,
calls hmflab's public functions on them, writes the artifacts a user would
keep, and checks the outputs at the thresholds of the presets and of
``tests/test_acceptance.py``.  Functions are looked up on their module at
call time (``H.run``, ``cli.parse_config``), so the tracer's wrappers are
seen when tracing is on.

The grids and horizons are smaller than the presets so that one iteration
takes a few seconds and a run can take the median of several; each keeps
the layer split of its preset (see ``run.py``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hmflab as H
from hmflab import cli, grids

COSINE = {"M": 1, "p": [0.5]}
ANTICOSINE = {"M": 1, "p": [-0.5]}
TWO_MODE = {"M": 2, "p": [0.5, 0.25]}

T_CRITICAL = 0.5            # anticosine maxwellian threshold (criterion 2)


@dataclass
class Meter:
    """End-to-end counters of one iteration, timed around direct public calls."""

    run_s: float = 0.0
    node_steps: int = 0
    verdict_times: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def run(self, cfg):
        t0 = time.perf_counter()
        traj = H.run(cfg)
        self.run_s += time.perf_counter() - t0
        rows, n_xi = cfg.grid.shape
        self.node_steps += rows * n_xi * cfg.n_steps
        return traj

    def verdict(self, kernel, profile):
        t0 = time.perf_counter()
        report = H.penrose_check(kernel, profile)
        self.verdict_times.append(time.perf_counter() - t0)
        return report

    def check(self, name: str, passed, detail: str) -> None:
        self.checks.append((name, bool(passed), detail))

    def conservation(self, traj, tag: str) -> None:
        mass = float(np.max(np.abs(traj.mass_series - traj.mass_series[0])))
        l2 = float(np.max(np.abs(traj.l2_series - traj.l2_series[0])) / traj.l2_series[0])
        reality = float(np.max(traj.reality_series))
        self.check(f"{tag} mass drift", mass <= 1e-12, f"{mass:.3e} <= 1e-12")
        self.check(f"{tag} L2 drift", l2 <= 1e-6, f"{l2:.3e} <= 1e-6")
        self.check(f"{tag} reality defect", reality <= 1e-10, f"{reality:.3e} <= 1e-10")


def _write_configs(docs: dict, out: Path) -> dict:
    paths = {}
    for name, doc in docs.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def setup(workload, seed: int, iteration: int, out: Path) -> tuple:
    """Draw one iteration's inputs, write its configs and parse them."""
    rng = random.Random(f"{workload.name}:{seed}:{iteration}")
    params = workload.draw(rng)
    paths = _write_configs(workload.configs(params), out)
    parsed = {name: cli.parse_config(path) for name, path in paths.items()}
    return params, parsed


# ---------------------------------------------------------------------------
# crosscheck: linear run against the Volterra solve
# ---------------------------------------------------------------------------

class Crosscheck:
    """
    The linear preset's shape (9 rows, dxi = 0.04, eps = 0, dt = 5e-3,
    sparse snapshots) on a shorter horizon: 200 RK4 steps on a 9 x 2049
    grid.  The norm monitors do most of the work; field-mode reads are the
    only interpolation, two scalar reads per RK4 stage.
    """

    name = "crosscheck"
    t_final = 1.0
    dt = 5e-3

    def draw(self, rng):
        return {"amplitude": rng.uniform(0.5, 2.0)}

    def configs(self, p):
        return {"linear": {
            "n_max": 4, "xi_max": 40.96, "n_xi": 2049, "m0": 1,
            "kernel": COSINE, "profile": {"kind": "maxwellian", "T": 1.0},
            "perturbation": {"mode": 1, "envelope": "gaussian", "amplitude": p["amplitude"]},
            "epsilon": 0.0, "dt": self.dt, "t_final": self.t_final, "record_every": 100, "s": 7,
        }}

    def work(self, parsed, p, out: Path, m: Meter) -> None:
        cfg, _ = parsed["linear"]
        traj = m.run(cfg)
        m.check("background stable", traj.stability.stable, f"kappa_est={traj.stability.kappa_est:.4f}")
        forcing = traj.snapshots[0].interp(1, traj.times)
        vol = H.solve_volterra(lambda t: H.memory_kernel(cfg.kernel, cfg.profile, 1, t),
                               forcing, dt=cfg.dt, mode=1)
        z_sim, z_vol = traj.field_modes.mode(1), vol.mode(1)
        rel = float(np.max(np.abs(z_sim - z_vol)) / np.max(np.abs(z_vol)))
        m.check("field-mode crosscheck", rel <= 1e-4, f"rel sup discrepancy {rel:.3e} <= 1e-4")
        m.conservation(traj, "linear")
        cli.write_timeseries_csv(traj, out / "timeseries.csv")
        grids.write_series_csv(out / "crosscheck.csv", "t,abs_sim,abs_volterra",
                               [traj.times, np.abs(z_sim), np.abs(z_vol)])
        _check_csv(m, out / "timeseries.csv", cfg.n_steps + 2)
        _check_csv(m, out / "crosscheck.csv", cfg.n_steps + 2)


# ---------------------------------------------------------------------------
# scattering: nonlinear run, scattering state, convergence rate, eta_inf
# ---------------------------------------------------------------------------

class Scattering:
    """
    The scattering preset's shape (5 rows, dxi = 0.1, eps = 0.01, every
    step recorded) on a horizon of 8 with dt = 0.04: 200 steps on a 5 x 361
    grid.  The final-decade convergence slope there is about -2.7 against
    the preset bound of -2 (-1.95 at a horizon of 6); the preset's horizon
    of 20 needs dt = 0.01 to keep the O(dt^2) accumulation floor below the
    signal.
    """

    name = "scattering"
    t_final = 8.0

    def draw(self, rng):
        return {"amplitude": rng.uniform(0.5, 1.5)}

    def configs(self, p):
        return {"scattering": {
            "n_max": 2, "xi_max": 18.0, "n_xi": 361, "m0": 1,
            "kernel": COSINE, "profile": {"kind": "maxwellian", "T": 1.0},
            "perturbation": {"mode": 1, "envelope": "algebraic", "s_tail": 7,
                             "amplitude": p["amplitude"]},
            "epsilon": 0.01, "dt": 0.04, "t_final": self.t_final, "record_every": 1, "s": 7,
        }}

    def work(self, parsed, p, out: Path, m: Meter) -> None:
        cfg, _ = parsed["scattering"]
        traj = m.run(cfg)
        m.check("background stable", traj.stability.stable, f"kappa_est={traj.stability.kappa_est:.4f}")
        full = H.scattering_limit(traj)
        half = H.scattering_limit(traj, up_to=cfg.t_final / 2.0)
        resumed = H.scattering_limit(traj, carry=half)
        add_err = float(np.max(np.abs(resumed.field.values - full.field.values)))
        m.check("split-and-resume additivity", add_err <= 1e-12, f"{add_err:.3e} <= 1e-12")

        conv_t, conv = _convergence_series(traj, full.field)
        sel = (conv_t >= cfg.t_final / 10.0) & (conv_t <= 0.98 * cfg.t_final)
        slope = float(np.polyfit(np.log(conv_t[sel]), np.log(np.maximum(conv[sel], 1e-300)), 1)[0])
        bound = -(cfg.s - 4) + 1
        m.check("scattering convergence exponent", slope <= bound, f"slope {slope:.3f} <= {bound}")
        m.conservation(traj, "scattering")

        H.write_field_csv(full.field, out / "g_inf.csv")
        eta_inf = H.weak_limit_profile(full.field, cfg.profile, cfg.epsilon)
        H.save_profile_csv(eta_inf, out / "eta_inf.csv")
        cli.write_timeseries_csv(traj, out / "timeseries.csv")
        m.check("eta_inf finite", np.all(np.isfinite(eta_inf.eta_samples)), "all samples finite")
        _check_csv(m, out / "g_inf.csv", cfg.grid.shape[0] * cfg.grid.shape[1] + 1)
        _check_csv(m, out / "eta_inf.csv", eta_inf.v_samples.size + 1)
        _check_csv(m, out / "timeseries.csv", cfg.n_steps + 2)


def _convergence_series(traj, g_inf, order: int = 1, max_points: int = 64):
    """||g(t) - g_inf||_{H^order} on log-spaced snapshot times, as the scatter command fits it."""
    n = len(traj.snapshots) - 1
    idx = np.unique(np.round(np.geomspace(1, n, max_points)).astype(int))
    vals = np.empty(idx.size)
    for j, i in enumerate(idx):
        diff = H.SpectralField(g_inf.grid, traj.snapshots[i].values - g_inf.values, real_valued=False)
        vals[j] = H.sobolev_norm(diff, order)
    return traj.snapshot_times[idx], vals


# ---------------------------------------------------------------------------
# stability-map: Penrose verdicts, critical temperature, growth, Volterra bounds
# ---------------------------------------------------------------------------

class StabilityMap:
    """
    Penrose verdicts for the cosine, anticosine and two-mode kernels at
    three seeded temperatures each (one below the anticosine threshold 0.5,
    two above), the anticosine critical temperature, the growth rate at the
    unstable map point and a linear run there that must grow at that rate
    (criterion 8 at dt = 0.1), and the Volterra boundedness table.
    """

    name = "stability-map"
    # narrow bands: the cost of a Penrose scan depends on the temperature,
    # so every seed must do about the same work for runs to be comparable
    bands = ((0.36, 0.37), (0.80, 0.81), (1.50, 1.52))

    def draw(self, rng):
        return {"temperatures": [rng.uniform(lo, hi) for lo, hi in self.bands]}

    def configs(self, p):
        docs = {}
        for kname, kernel in (("cos", COSINE), ("anticos", ANTICOSINE), ("two_mode", TWO_MODE)):
            for j, temp in enumerate(p["temperatures"]):
                docs[f"map_{kname}_{j}"] = {
                    "n_max": 2, "xi_max": 50.0, "n_xi": 1001, "s": 10, "kernel": kernel,
                    "profile": {"kind": "maxwellian", "T": temp}}
        docs["unstable"] = {
            "n_max": 1, "xi_max": 32.0, "n_xi": 641, "m0": 1, "kernel": ANTICOSINE,
            "profile": {"kind": "maxwellian", "T": p["temperatures"][0]},
            "perturbation": {"mode": 1, "envelope": "gaussian", "amplitude": 1e-6},
            "epsilon": 0.0, "dt": 0.1, "t_final": 30.0, "record_every": 50, "s": 7}
        docs["volterra"] = {
            "kernel": COSINE, "profile": {"kind": "maxwellian", "T": 1.0},
            "bench": {"gammas": [2, 3, 4, 5, 6], "t_list": [50.0, 100.0], "dt": 0.02, "mode": 1}}
        return docs

    def work(self, parsed, p, out: Path, m: Meter) -> None:
        rows = []
        for name, (cfg, _) in parsed.items():
            if not name.startswith("map_"):
                continue
            report = m.verdict(cfg.kernel, cfg.profile)
            rows.append((name, cfg.profile.T, report))
        family = lambda temp: (H.InteractionKernel.anticosine(), H.maxwellian(temp))
        t_c = H.critical_parameter(family, 0.1, 1.0, tol=1e-3)
        m.check("anticosine critical temperature", abs(t_c - T_CRITICAL) <= 1e-3, f"T_c = {t_c:.5f}")
        for name, temp, report in rows:
            windings = [mode.winding for mode in report.modes]
            if name.startswith("map_anticos"):
                m.check(f"{name} verdict", report.stable == (temp > t_c),
                        f"T={temp:.4f}, stable={report.stable}, T_c={t_c:.5f}")
            else:
                m.check(f"{name} winding", report.stable and all(w == 0 for w in windings),
                        f"T={temp:.4f}, windings={windings}")

        cfg, _ = parsed["unstable"]
        lam = H.growth_rate(cfg.kernel, cfg.profile, n=1)
        # the map has already given this point's verdict (map_anticos_0)
        traj = m.run(replace(cfg, check_stability=False))
        z = np.abs(traj.field_modes.mode(1))
        growth = float(np.max(z) / z[0])
        m.check("unstable mode grows 10x", growth >= 10.0, f"growth {growth:.1f}x >= 10x")
        sel = traj.times >= 15.0
        fitted = float(np.polyfit(traj.times[sel], np.log(z[sel]), 1)[0])
        rel = abs(fitted - lam) / lam
        m.check("growth rate matches resolvent root", rel <= 0.2,
                f"fitted {fitted:.4f} vs root {lam:.4f} ({100 * rel:.1f}% <= 20%)")
        m.conservation(traj, "unstable")

        cfg, extras = parsed["volterra"]
        bench = extras["bench"]
        table = H.lemvolterra_harness(cfg.kernel, cfg.profile, bench["gammas"], bench["t_list"],
                                      dt=bench["dt"], mode=bench["mode"])
        by_gamma = {}
        for gamma, t_final, ratio in table:
            by_gamma.setdefault(gamma, {})[t_final] = ratio
        worst = max(abs(v[100.0] - v[50.0]) / v[50.0] for v in by_gamma.values())
        m.check("volterra ratio change T=50 -> 100", worst < 0.10, f"{100 * worst:.2f}% < 10%")

        cli.write_timeseries_csv(traj, out / "timeseries.csv")
        grids.write_series_csv(out / "volterra_bench.csv", "gamma,T,ratio", np.array(table).T)
        (out / "stability_map.json").write_text(json.dumps({
            "T_c": t_c, "growth_rate": lam,
            "map": [{"config": n, "T": t, "stable": r.stable, "kappa_est": r.kappa_est}
                    for n, t, r in rows]}, indent=2, sort_keys=True) + "\n")
        _check_csv(m, out / "timeseries.csv", traj.times.size + 1)
        _check_csv(m, out / "volterra_bench.csv", len(table) + 1)


def _check_csv(m: Meter, path: Path, lines: int) -> None:
    with open(path) as fh:
        count = sum(1 for _ in fh)
    m.check(f"{path.name} written", count == lines, f"{count} lines == {lines}")


WORKLOADS = {w.name: w for w in (Crosscheck(), Scattering(), StabilityMap())}
