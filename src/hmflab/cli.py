"""
Command-line interface: config parsing, experiment presets, artifact output.

Exit-code contract (stable, for CI consumption; _FAILURES maps errors to 2 and 3):
    0  success / all assertions passed
    1  a preset assertion failed
    2  usage error: bad JSON, an unknown key or preset, a value of the wrong type,
       a value the library rejects while the config is built, or a kernel
       without the mode a subcommand reads (refused before it runs)
    3  configuration invariant violation (message includes the corrected bound),
       any other ValueError of a subcommand, a Penrose scan that cannot certify
       its winding, or a non-finite state

All artifacts are CSV (series) or JSON (reports) with 17-significant-digit
floats, so identical configs reproduce byte-identical outputs, also under
different BLAS thread counts (tests/test_cli.py checks run-sim under one and
two OpenBLAS threads).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .diagnostics import (conservation_drifts, convergence_series, decay_fit, fit_window, q_monitor,
                          scattering_limit, weak_limit_profile, weighted_mode_series)
from .grids import InvariantViolation, make_grid, write_field_csv, write_series_csv
from .penrose import (InteractionKernel, ScanRefinementError, critical_parameter, growth_rate, memory_kernel,
                      penrose_check)
from .profiles import Perturbation, load_profile_csv, maxwellian, save_profile_csv, two_stream
from .simulate import NonFiniteState, SimConfig, run
from .volterra import lemvolterra_harness, solve_volterra, step_count

__all__ = ["ConfigError", "parse_config", "run_preset", "PRESET_NAMES", "main"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    """Schema-level config problem (maps to exit code 2)."""


# The config schema: per section, each key's type and default (... where the document must give
# the key, None where it may also be null).  An int takes integral numbers only, a float any finite
# number (json reads NaN and Infinity), neither a bool; a Path names an existing file.  Defaults pass
# through the same conversion; absent bench and penrose sections stay absent from parse_config's extras.
_SCHEMA = {
    "config": {"n_max": (int, 1), "xi_max": (float, 25.0), "n_xi": (int, 501), "m0": (int, 1),
               "epsilon": (float, 0.01), "dt": (float, 0.05), "t_final": (float, 20.0),
               "record_every": (int, 1), "s": (int, 7),
               "kernel": (dict, {"p": [0.5]}), "profile": (dict, {}), "perturbation": (list[dict], [{"mode": 1}]),
               "bench": (dict, None), "penrose": (dict, None)},
    "kernel": {"p": (list[float], ...), "M": (int, None)},
    "profile": {"kind": (str, "maxwellian"), "T": (float, 1.0), "v0": (float, ...), "mass": (float, 1.0),
                "path": (Path, ...)},
    "perturbation": {"envelope": (str, "gaussian"), "mode": (int, ...), "amplitude": (float, 1.0),
                     "s_tail": (float, 7.0)},
    "bench": {"gammas": (list[float], [2.0, 3.0, 4.0, 5.0, 6.0]), "t_list": (list[float], [25.0, 50.0, 100.0]),
              "dt": (float, 0.02), "mode": (int, 1)},
    "penrose": {"kappa_target": (float, 1e-2), "tau_max": (float, None), "n_tau": (int, 2001)},
}
# the keys that each profile kind and each perturbation envelope takes, beside the one that selects it
_VARIANTS = {
    "profile": ("kind", {"maxwellian": ("T", "mass"), "two_stream": ("T", "v0", "mass"), "tabulated": ("path",)}),
    "perturbation": ("envelope", {"gaussian": ("mode", "amplitude"), "algebraic": ("mode", "amplitude", "s_tail")}),
}
_PROFILES = {"maxwellian": maxwellian, "two_stream": two_stream, "tabulated": load_profile_csv}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", Path: "the name of an existing file",
               dict: "a JSON object", list[float]: "a list of numbers", list[dict]: "a JSON object or a list of them"}


def _convert(value, kind, key: str):
    """``value`` as ``kind`` (see _SCHEMA), or ConfigError naming ``key``."""
    if get_origin(kind) is list:
        items = [value] if kind == list[dict] and isinstance(value, dict) else value   # one object, or a list
        if isinstance(items, list):
            return [_convert(v, get_args(kind)[0], key) for v in items]
    elif kind in (int, float):
        if (type(value) in (int, float) and abs(value) <= sys.float_info.max
                and (kind is float or type(value) is int or value.is_integer())):
            return kind(value)
    elif kind is Path:
        if isinstance(value, str) and Path(value).is_file():
            return value
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")


def _section(doc: dict, name: str) -> dict:
    """Every key of section ``name``: converted from ``doc``, or its default where absent."""
    keys, where = _SCHEMA[name], name
    if name in _VARIANTS:
        tag, variants = _VARIANTS[name]
        choice = _convert(doc.get(tag, keys[tag][1]), str, f"{name}.{tag}")
        if choice not in variants:
            raise ConfigError(f"unknown {name} {tag} {choice!r}")
        keys, where = {key: keys[key] for key in (tag, *variants[choice])}, f"{choice} {name}"
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    out = {}
    for key, (kind, default) in keys.items():
        value = doc.get(key, default)
        if value is ...:
            raise ConfigError(f"{where} requires {key!r}")
        label = key if name == "config" else f"{name}.{key}"
        out[key] = None if value is None and default is None else _convert(value, kind, label)
    return out


def _check_active_mode(kernel: InteractionKernel, mode: int, reader: str) -> None:
    """ConfigError unless ``mode`` is one of the kernel's active modes, the only ones with a
    field series and a nonzero memory kernel; ``reader`` names what reads it."""
    active = kernel.active_modes()
    if mode not in active:
        raise ConfigError(f"{reader} {mode} is not an active mode of the kernel (active modes: "
                          f"{', '.join(map(str, active)) or 'none'})")


def parse_config(path) -> tuple[SimConfig, dict]:
    """
    Parse and validate a JSON config against _SCHEMA, failing fast.

    Returns (SimConfig, extras); extras holds the "bench" and "penrose" sections
    the document gives, converted and defaulted.  Schema violations and values
    the library objects reject raise ConfigError (exit 2); invariant violations
    raise InvariantViolation (exit 3) with the corrected minimum in the message.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    top = _section(_convert(doc, dict, "config"), "config")
    kernel, profile = _section(top["kernel"], "kernel"), _section(top["profile"], "profile")
    if kernel["M"] not in (None, len(kernel["p"])):
        raise ConfigError(f"kernel M={kernel['M']} does not match len(p)={len(kernel['p'])}")
    perts = [_section(item, "perturbation") for item in top["perturbation"]]
    extras = {name: _section(top[name], name) for name in ("bench", "penrose") if top[name] is not None}
    try:
        cfg = SimConfig(grid=make_grid(top["n_max"], top["xi_max"], top["n_xi"], top["m0"]),
                        kernel=InteractionKernel(tuple(kernel["p"])),
                        profile=_PROFILES[profile.pop("kind")](**profile),
                        perturbations=tuple(Perturbation(tail_exponent=q.pop("s_tail", Perturbation.tail_exponent),
                                                         **q) for q in perts),
                        epsilon=top["epsilon"], dt=top["dt"], t_final=top["t_final"],
                        record_every=top["record_every"], s=top["s"])
    except (ValueError, OSError) as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc
    if "bench" in extras:
        _check_active_mode(cfg.kernel, extras["bench"]["mode"], "bench.mode")
    cfg.validate()
    bench = extras.get("bench", {"t_list": ()})
    for t_final in bench["t_list"]:
        try:
            step_count(t_final, bench["dt"])
        except ValueError as exc:
            raise InvariantViolation(f"bench.t_list entry {t_final} is not reached by steps of "
                                     f"bench.dt={bench['dt']}") from exc
    return cfg, extras


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _out_dir(out: str | None, tag: str) -> Path:
    if out is not None:
        d = Path(out)
    else:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        d = Path(f"hmflab_{tag}_{stamp}")
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_timeseries_csv(traj, path) -> None:
    """Per-step series with the contract columns, one row per step.  The ladder columns h_smin4
    and h_s (H^{s-4} and H^s) are taken at the snapshot steps and read nan at every other step."""
    s = traj.config.s
    z1 = traj.field_modes.mode(1)
    ladder = np.full((traj.times.size, 2), np.nan)
    ladder[traj.config.snapshot_steps] = traj.norm_history[:, [max(s - 4, 0), s]]
    write_series_csv(
        path,
        "t,re_zeta1,im_zeta1,abs_zeta1,mass_re,mass_im,l2_full,h_smin4,h_s",
        [traj.times, z1.real, z1.imag, np.abs(z1),
         traj.mass_series.real, traj.mass_series.imag, traj.l2_series, ladder[:, 0], ladder[:, 1]],
    )


def _save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run_sim(config_path, out: str | None) -> int:
    cfg, _ = parse_config(config_path)
    _check_active_mode(cfg.kernel, 1, "run-sim writes z_1, but mode")
    traj = run(cfg)
    d = _out_dir(out, "run")
    write_timeseries_csv(traj, d / "timeseries.csv")
    write_field_csv(traj.snapshots[-1], d / "final_state.csv")
    print(f"run-sim: {cfg.n_steps} steps to t={cfg.t_final}; artifacts in {d}")
    return EXIT_OK


def cmd_penrose_check(config_path, out: str | None) -> int:
    cfg, extras = parse_config(config_path)
    opts = extras.get("penrose") or _section({}, "penrose")
    report = penrose_check(cfg.kernel, cfg.profile, **opts)
    d = _out_dir(out, "penrose")
    _save_json(d / "penrose_report.json", report.to_json_dict())
    verdict = "stable" if report.stable else "UNSTABLE"
    print(f"penrose-check: {verdict}, kappa_est={report.kappa_est:.6g}; report in {d}")
    return EXIT_OK


def cmd_volterra_bench(config_path, out: str | None) -> int:
    cfg, extras = parse_config(config_path)
    opts = extras.get("bench") or _section({}, "bench")
    _check_active_mode(cfg.kernel, opts["mode"], "bench.mode")      # the default mode 1 too
    rows = lemvolterra_harness(cfg.kernel, cfg.profile, opts["gammas"], opts["t_list"], dt=opts["dt"],
                               mode=opts["mode"])
    d = _out_dir(out, "volterra")
    write_series_csv(d / "volterra_bench.csv", "gamma,T,ratio", zip(*rows))
    print(f"volterra-bench: {len(rows)} rows in {d}")
    return EXIT_OK


def _scatter(cfg: SimConfig) -> tuple:
    """The scattering measurement of ``scatter`` and the scattering preset, which writes nothing:
    (trajectory, scattering_limit result, measure_scattering's slope and window, weak limit eta_inf)."""
    traj = run(cfg)
    result = scattering_limit(traj)
    slope, window = measure_scattering(traj, result)
    return traj, result, slope, window, weak_limit_profile(result.field, cfg.profile, cfg.epsilon)


def _write_scattering_state(d: Path, result, eta_inf) -> None:
    """g_inf.csv and eta_inf.csv of a _scatter measurement, in ``d``."""
    write_field_csv(result.field, d / "g_inf.csv")
    save_profile_csv(eta_inf, d / "eta_inf.csv")


def cmd_scatter(config_path, out: str | None) -> int:
    cfg, _ = parse_config(config_path)
    _check_active_mode(cfg.kernel, 1, "scatter fits |z_1|, but mode")
    reached = cfg.reached_modes
    if 1 not in reached:
        active = cfg.kernel.active_modes()
        if reached.isdisjoint(active):
            # every z_k(0) is 0 and every rhs term carries a z_k, so the state would never move
            why = (f"no perturbation with amplitude > 0 is on an active mode of the kernel "
                   f"(active modes: {', '.join(map(str, active))})")
        else:
            why = f"the data reaches only the modes {', '.join(map(str, sorted(reached)))}, so z_1 stays exactly 0"
        raise ConfigError(f"scatter fits |z_1|, but {why}")
    zeta_window = (max(1.0, cfg.t_final / 10.0), 0.9 * cfg.t_final)
    try:
        fit_window(cfg.times, zeta_window)
    except ValueError as exc:
        raise InvariantViolation(f"t_final={cfg.t_final} and dt={cfg.dt} leave no |z_1| fit window: {exc}") from exc
    _scattering_samples(cfg)
    traj, result, slope, window, eta_inf = _scatter(cfg)
    zeta_slope, zeta_r2 = decay_fit(traj.field_modes, zeta_window, mode=1)
    d = _out_dir(out, "scatter")       # made once every fit has succeeded
    _write_scattering_state(d, result, eta_inf)
    _save_json(d / "rates.json", {
        "zeta_slope": float(zeta_slope), "zeta_r2": float(zeta_r2),
        "zeta_window": list(zeta_window),
        "scattering_slope": slope,
        "scattering_window": list(window),
        "tail_estimate": result.tail_estimate,
    })
    write_timeseries_csv(traj, d / "timeseries.csv")
    print(f"scatter: zeta slope {zeta_slope:.3f}, convergence slope {slope:.3f}; artifacts in {d}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# presets: one config builder and one measurement function each, shared with
# tests/test_acceptance.py; the thresholds live with the callers
# ---------------------------------------------------------------------------

def _check(results, name, passed, detail) -> None:
    results.append((name, bool(passed), detail))


def _conservation_checks(results, traj) -> None:
    mass_drift, l2_drift, reality = conservation_drifts(traj)
    _check(results, "mass mode drift", mass_drift <= 1e-12, f"{mass_drift:.3e} <= 1e-12")
    _check(results, "L2 drift", l2_drift <= 1e-6, f"{l2_drift:.3e} <= 1e-6")
    _check(results, "reality symmetry", reality <= 1e-10, f"{reality:.3e} <= 1e-10")


def measure_volterra_analytic() -> tuple:
    """z = 1 - int_0^t z on [0, 5] at dt = 1e-3 and dt/2: (solve at dt, its max error
    against exp(-t), error ratio dt -> dt/2, which is 4 at second order)."""
    sols = [solve_volterra(lambda t: -np.ones_like(t), lambda t: np.ones_like(t), dt=dt, t_final=5.0)
            for dt in (1e-3, 5e-4)]
    err, err_half = (float(np.max(np.abs(sol.mode(0) - np.exp(-sol.times)))) for sol in sols)
    return sols[0], err, err / err_half


def _preset_volterra_analytic(d: Path, results: list) -> None:
    sol, err, ratio = measure_volterra_analytic()
    _check(results, "analytic max error", err <= 1e-6, f"{err:.3e} <= 1e-6")
    _check(results, "halving dt divides error by 4 +- 20%", 3.2 <= ratio <= 4.8, f"ratio {ratio:.3f}")
    write_series_csv(d / "volterra_analytic.csv", "t,zeta,exact",
                     [sol.times, sol.mode(0).real, np.exp(-sol.times)])


def measure_penrose_scan() -> tuple:
    """(T_c of the anticosine maxwellian family to 1e-3, Penrose report of the cosine
    maxwellian at T = 1, whether that report is stable with winding 0)."""
    t_c = critical_parameter(lambda T: (InteractionKernel.anticosine(), maxwellian(T)), 0.1, 1.0, tol=1e-3)
    report = penrose_check(InteractionKernel.cosine(), maxwellian(1.0))
    return t_c, report, report.stable and report.modes[0].winding == 0


def _preset_penrose_scan(d: Path, results: list) -> None:
    t_c, report, cosine_stable = measure_penrose_scan()
    _check(results, "anticosine critical temperature", abs(t_c - 0.5) <= 1e-3, f"T_c = {t_c:.5f}")
    _check(results, "cosine maxwellian stable", cosine_stable,
           f"stable={report.stable}, winding={report.modes[0].winding}")
    _save_json(d / "penrose_report.json", report.to_json_dict())
    _save_json(d / "critical_temperature.json", {"T_c": t_c, "tolerance": 1e-3})


def crosscheck_run_config() -> SimConfig:
    """Linear (eps = 0) cosine run checked against the Volterra solve."""
    grid = make_grid(4, 82.0, 4097, 1)
    return SimConfig(grid=grid, kernel=InteractionKernel.cosine(), profile=maxwellian(1.0),
                     perturbations=Perturbation(mode=1, amplitude=1.0, envelope="gaussian"),
                     epsilon=0.0, dt=5e-3, t_final=20.0, record_every=800, s=7)


def measure_crosscheck(traj) -> tuple:
    """(relative sup distance of the run's z_1 from the Volterra solve forced by its
    initial state, that solve)."""
    cfg = traj.config
    forcing = traj.snapshots[0].interp(1, traj.times)
    vol = solve_volterra(lambda t: memory_kernel(cfg.kernel, cfg.profile, 1, t), forcing, dt=cfg.dt, mode=1)
    num = float(np.max(np.abs(traj.field_modes.mode(1) - vol.mode(1))))
    return num / float(np.max(np.abs(vol.mode(1)))), vol


def _preset_linear_crosscheck(d: Path, results: list) -> None:
    traj = run(crosscheck_run_config())
    rel, vol = measure_crosscheck(traj)
    _check(results, "field-mode crosscheck", rel <= 1e-4, f"rel sup discrepancy {rel:.3e} <= 1e-4")
    _conservation_checks(results, traj)
    write_timeseries_csv(traj, d / "timeseries.csv")
    write_series_csv(d / "crosscheck.csv", "t,abs_sim,abs_volterra",
                     [traj.times, np.abs(traj.field_modes.mode(1)), np.abs(vol.mode(1))])


def damping_run_config() -> SimConfig:
    """Nonlinear cosine run for the damping-rate preset; only the per-step
    series are read, so snapshots are recorded sparsely."""
    grid = make_grid(2, 184.0, 1841, 1)
    return SimConfig(grid=grid, kernel=InteractionKernel.cosine(), profile=maxwellian(1.0),
                     perturbations=Perturbation(mode=1, amplitude=1.0, envelope="algebraic",
                                                tail_exponent=7.0),
                     epsilon=0.01, dt=0.05, t_final=90.0, record_every=100, s=7)


def measure_damping(traj) -> tuple:
    """(slope, r2) of log|z_1| against log t on [10, 80]."""
    return decay_fit(traj.field_modes, (10.0, 80.0), mode=1)


def _preset_damping_cosine(d: Path, results: list) -> None:
    traj = run(damping_run_config())
    slope, r2 = measure_damping(traj)
    _check(results, "field-mode decay exponent", slope <= -5.5,
           f"slope {slope:.3f} <= -5.5 (r2={r2:.4f})")
    _conservation_checks(results, traj)
    write_timeseries_csv(traj, d / "timeseries.csv")
    _save_json(d / "rates.json", {"zeta_slope": slope, "zeta_r2": r2, "window": [10.0, 80.0]})


def scattering_run_config() -> SimConfig:
    """Short fine-step run for the scattering-rate preset.

    The convergence is measured against the run's own final state,
    g_inf(T) = g(T), on up to 64 log-spaced snapshots (_scattering_samples).
    """
    grid = make_grid(2, 44.0, 881, 1)
    return SimConfig(grid=grid, kernel=InteractionKernel.cosine(), profile=maxwellian(1.0),
                     perturbations=Perturbation(mode=1, amplitude=1.0, envelope="algebraic",
                                                tail_exponent=7.0),
                     epsilon=0.01, dt=0.01, t_final=20.0, record_every=1, s=7)


def _scattering_samples(cfg: SimConfig) -> tuple:
    """(snapshot indices, window) of the scattering fit, fixed by the snapshot schedule before
    the run: of up to 64 log-spaced snapshots after t = 0, those in [T/10, 0.98 T], short of T
    where the distance to g_inf(T) = g(T) vanishes.  An InvariantViolation unless there are 3."""
    steps = cfg.snapshot_steps
    idx = np.unique(np.round(np.geomspace(1, steps.size - 1, 64)).astype(int))
    window = (cfg.t_final / 10.0, 0.98 * cfg.t_final)
    t = cfg.times[steps[idx]]
    idx = idx[(t >= window[0]) & (t <= window[1])]
    if idx.size < 3:
        raise InvariantViolation(f"{idx.size} convergence samples in the scattering fit window "
                                 f"[{window[0]:.6g}, {window[1]:.6g}], need at least 3; use a record_every "
                                 f"smaller than {cfg.record_every}")
    return idx, window


def measure_scattering(traj, result) -> tuple:
    """(slope, window) of log ||g(t) - g_inf||_{H^1} against log t on _scattering_samples."""
    idx, window = _scattering_samples(traj.config)
    conv_t, conv = convergence_series(traj, result.field, idx)
    slope = np.polyfit(np.log(conv_t), np.log(np.maximum(conv, 1e-300)), 1)[0]
    return float(slope), window


def _preset_scattering(d: Path, results: list) -> None:
    cfg = scattering_run_config()
    traj, result, slope, window, eta_inf = _scatter(cfg)
    _write_scattering_state(d, result, eta_inf)
    bound = -(cfg.s - 4) + 1
    _check(results, "scattering convergence exponent", slope <= bound, f"slope {slope:.3f} <= {bound}")
    _conservation_checks(results, traj)
    _save_json(d / "rates.json", {"scattering_slope": slope, "window": list(window),
                                  "tail_estimate": result.tail_estimate})


def unstable_run_config() -> SimConfig:
    grid = make_grid(1, 38.0, 761, 1)
    return SimConfig(grid=grid, kernel=InteractionKernel.anticosine(), profile=maxwellian(0.4),
                     perturbations=Perturbation(mode=1, amplitude=1e-6, envelope="gaussian"),
                     epsilon=0.0, dt=0.02, t_final=30.0, record_every=50, s=7)


def measure_unstable(traj) -> tuple:
    """(growth max|z_1| / |z_1(0)|, rate fitted to log|z_1| on t >= 15, resolvent root,
    relative gap of the two rates)."""
    cfg = traj.config
    z = np.abs(traj.field_modes.mode(1))
    growth = float(np.max(z) / z[0])
    lam = growth_rate(cfg.kernel, cfg.profile, n=1)
    sel = traj.times >= 15.0
    fitted = float(np.polyfit(traj.times[sel], np.log(z[sel]), 1)[0])
    return growth, fitted, lam, abs(fitted - lam) / lam


def _preset_unstable_anticosine(d: Path, results: list) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = run(unstable_run_config())
    growth, fitted, lam, rel = measure_unstable(traj)
    _check(results, "field mode grows 10x", growth >= 10.0, f"growth {growth:.1f}x >= 10x")
    _check(results, "growth rate matches resolvent root", rel <= 0.2,
           f"fitted {fitted:.4f} vs root {lam:.4f} ({100 * rel:.1f}% off)")
    write_timeseries_csv(traj, d / "timeseries.csv")
    _save_json(d / "rates.json", {"growth_rate_fit": fitted, "resolvent_root": lam})


def finite_m2_run_config() -> SimConfig:
    """Two-mode kernel run with per-mode tails saturating the monitor weights.

    The data tails are <xi>^{-(s+1-2k)} per mode so the weighted mode series
    are the bounded, near-flat quantities.  The background is hot (T = 2):
    the Landau transient of the mode-1 resolvent then dies fast enough
    (rate ~2) for the algebraic asymptote to emerge while the signal is
    still well above double-precision underflow; amplitude 100 lifts the
    late-time signal clear of the 1e-14 fit guard.  The coupling must be
    tiny here: the k=2 -> n=1 echo channel contributes ~eps*A^2*t^{1-q2},
    which overtakes the t^{-(s-1)} linear decay of mode 1 on the fit window
    unless eps*A*t^3 stays small (the bounds presume exactly this regime).
    """
    grid = make_grid(3, 137.0, 2741, 1)
    s = 10
    perts = (Perturbation(mode=1, amplitude=100.0, envelope="algebraic", tail_exponent=float(s - 1)),
             Perturbation(mode=2, amplitude=100.0, envelope="algebraic", tail_exponent=float(s - 3)))
    return SimConfig(grid=grid, kernel=InteractionKernel((0.5, 0.25)), profile=maxwellian(2.0),
                     perturbations=perts, epsilon=1e-9, dt=0.05, t_final=45.0,
                     record_every=8, s=s)


def measure_finite_m2(traj) -> tuple:
    """(finite-M monitor, q_sup(T) / q_sup(T/2), {k: (gamma, slope, r2)} of <t>^gamma |z_k|
    on [15, 40] for k = 1, 2 with gamma = s + 1 - 2k)."""
    mon = q_monitor(traj)
    fits = {}
    for k in (1, 2):
        gamma = traj.config.s + 1 - 2 * k
        slope, r2 = decay_fit(weighted_mode_series(traj.field_modes, gamma, mode=k), (15.0, 40.0), mode=k)
        fits[k] = (gamma, slope, r2)
    return mon, mon.growth_from_halfway(), fits


def _preset_finite_m2(d: Path, results: list) -> None:
    traj = run(finite_m2_run_config())
    mon, ratio, fits = measure_finite_m2(traj)
    _check(results, "composite monitor bounded", ratio < 2.0, f"q_sup(T)/q_sup(T/2) = {ratio:.3f} < 2")
    for k, (gamma, slope, r2) in fits.items():
        _check(results, f"weighted mode {k} near-flat", slope >= -0.5,
               f"<t>^{gamma}|z_{k}| slope {slope:.3f} >= -0.5 (r2={r2:.3f})")
    _conservation_checks(results, traj)
    write_timeseries_csv(traj, d / "timeseries.csv")
    _save_json(d / "monitor.json", {"q_sup": mon.q_sup, "growth_from_halfway": ratio,
                                    "edge_tail_fraction": mon.edge_tail_fraction})


_PRESETS = {
    "volterra-analytic": _preset_volterra_analytic,
    "penrose-scan": _preset_penrose_scan,
    "linear-crosscheck": _preset_linear_crosscheck,
    "damping-cosine": _preset_damping_cosine,
    "unstable-anticosine": _preset_unstable_anticosine,
    "scattering": _preset_scattering,
    "finite-M2": _preset_finite_m2,
}
PRESET_NAMES = tuple(_PRESETS)


def run_preset(name: str, out: str | None = None) -> int:
    """Run a named preset; returns the exit code and prints one line per assertion."""
    if name not in _PRESETS:
        print(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    d = _out_dir(out, f"preset_{name.replace('-', '_')}")
    results: list = []
    _PRESETS[name](d, results)
    for check_name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {check_name}: {detail}")
    failed = sum(not passed for _, passed, _ in results)
    print(f"preset {name}: {len(results) - failed}/{len(results)} assertions passed; artifacts in {d}")
    return EXIT_OK if failed == 0 else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"run-sim": cmd_run_sim, "penrose-check": cmd_penrose_check, "volterra-bench": cmd_volterra_bench,
             "scatter": cmd_scatter, "preset": run_preset}
# (exception, exit code, stderr prefix), first match wins: ConfigError and InvariantViolation are ValueErrors
_FAILURES = (
    (ConfigError, EXIT_USAGE, "config error"),
    (ValueError, EXIT_INVARIANT, "invariant violation"),
    (ScanRefinementError, EXIT_INVARIANT, "penrose scan failed"),
    (NonFiniteState, EXIT_INVARIANT, "integration failed"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hmflab",
                                     description="Spectral laboratory for the gliding-frame mean-field kinetic model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "preset":
            p.add_argument("target", metavar="name", help=f"one of: {', '.join(PRESET_NAMES)}")
        else:
            p.add_argument("target", metavar="config", help="JSON config file")
        p.add_argument("--out", default=None, help="output directory (default: timestamped)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        return _COMMANDS[args.command](args.target, args.out)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
