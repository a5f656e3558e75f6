"""Config parsing, subcommands, exit codes, artifact formats, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmflab as H
from hmflab.cli import (_SCHEMA, _VARIANTS, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, ConfigError, main, measure_scattering,
                        parse_config, run_preset)

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TINY = {
    "n_max": 1, "xi_max": 13.0, "n_xi": 261,
    "kernel": {"M": 1, "p": [0.5]},
    "profile": {"kind": "maxwellian", "T": 1.0},
    "perturbation": {"mode": 1, "envelope": "gaussian", "amplitude": 1.0},
    "epsilon": 0.02, "dt": 0.05, "t_final": 10.0,
}


def run_cli(*args, cwd=None, **env):
    """``python -m hmflab.cli *args`` in a fresh interpreter that imports this package."""
    src = str(Path(H.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "hmflab.cli", *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def write_table(directory):
    """A maxwellian tabulated as eta.csv in ``directory``; returns its v grid."""
    v = np.linspace(-12.0, 12.0, 241)
    H.save_profile_csv(H.tabulated(v, H.profile_values(H.maxwellian(1.0), v)), Path(directory) / "eta.csv")
    return v


# documents the schema rejects, with the key each message must name; profile
# paths are relative to the working directory, which holds eta.csv
MALFORMED = {
    "dt null": (dict(TINY, dt=None), "dt"),
    "perturbation a number": (dict(TINY, perturbation=5), "perturbation"),
    "bench a number": (dict(TINY, bench=3), "bench"),
    "bench.mode 0": (dict(TINY, bench={"mode": 0}), "bench.mode"),
    "bench.mode 5": (dict(TINY, bench={"mode": 5}), "bench.mode"),
    "bench.mode -1": (dict(TINY, bench={"mode": -1}), "bench.mode"),
    "missing table": (dict(TINY, profile={"kind": "tabulated", "path": "missing.csv"}), "path"),
    "epsilon a string": (dict(TINY, epsilon="x"), "epsilon"),
    "n_tau a string": (dict(TINY, penrose={"n_tau": "x"}), "n_tau"),
    "v0 a string": (dict(TINY, profile={"kind": "two_stream", "T": 1.0, "v0": "a"}), "v0"),
    "negative T": (dict(TINY, profile={"kind": "maxwellian", "T": -1}), "T"),
    "negative amplitude": (dict(TINY, perturbation={"mode": 1, "amplitude": -1}), "amplitude"),
    "even n_xi": (dict(TINY, n_xi=260), "n_xi"),
    "fractional n_max": (dict(TINY, n_max=1.7), "n_max"),
    "fractional s": (dict(TINY, s=7.9), "s"),
    "boolean n_max": (dict(TINY, n_max=True), "n_max"),
    "v0 on a maxwellian": (dict(TINY, profile={"kind": "maxwellian", "T": 1.0, "v0": 2.0}), "v0"),
    "mass on a table": (dict(TINY, profile={"kind": "tabulated", "path": "eta.csv", "mass": 5}), "mass"),
    "T on a table": (dict(TINY, profile={"kind": "tabulated", "path": "eta.csv", "T": 2.0}), "T"),
    "s_tail on a gaussian": (dict(TINY, perturbation={"mode": 1, "envelope": "gaussian", "s_tail": 3}), "s_tail"),
    "kernel a list": (dict(TINY, kernel=[0.5]), "kernel"),
    "profile a string": (dict(TINY, profile="maxwellian"), "profile"),
}
# a valid document of each section, one per variant that takes float keys
SECTIONS = {"kernel": ({"p": [0.5]},), "profile": ({"kind": "maxwellian"}, {"kind": "two_stream", "v0": 2.0}),
            "perturbation": ({"mode": 1}, {"mode": 1, "envelope": "algebraic"}), "bench": ({},), "penrose": ({},)}


def takes(name, section, key):
    """Whether ``section`` of _SCHEMA section ``name`` takes ``key`` in its variant."""
    if name not in _VARIANTS:
        return True
    tag, variants = _VARIANTS[name]
    return key in variants[section.get(tag, _SCHEMA[name][tag][1])]


# json reads NaN and Infinity: one document per float key of _SCHEMA and non-finite value
for name, keys in _SCHEMA.items():
    for key, (kind, _) in keys.items():
        if kind not in (float, list[float]):
            continue
        for text, value in (("Infinity", math.inf), ("NaN", math.nan)):
            value = [value] if kind == list[float] else value
            if name == "config":
                MALFORMED[f"{key} {text}"] = (dict(TINY, **{key: value}), key)
            else:
                section = next(sec for sec in SECTIONS[name] if takes(name, sec, key))
                MALFORMED[f"{name}.{key} {text}"] = (dict(TINY, **{name: dict(section, **{key: value})}), key)
# also run in a fresh process, where an exception that escapes main prints a traceback
TRACEBACKS = ("dt null", "perturbation a number", "bench a number", "missing table",
              "t_final Infinity", "bench.t_list Infinity", "penrose.tau_max Infinity")


class TestParseConfig:
    def test_minimal_document_gets_defaults(self, tmp_path):
        cfg, extras = parse_config(write_config(tmp_path, {}))
        assert cfg.grid.m0 == 1
        assert cfg.record_every == 1
        assert cfg.s == 7
        assert extras == {}

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(write_config(tmp_path, {"mystery": 1}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = dict(TINY)
        doc["profile"] = {"kind": "maxwellian", "T": 1.0, "sigma": 2.0}
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(write_config(tmp_path, doc))

    def test_window_invariant_reports_required_minimum(self, tmp_path):
        doc = dict(TINY)
        doc.update(xi_max=10.0, n_xi=201, t_final=20.0)
        with pytest.raises(H.InvariantViolation, match="required xi_max >="):
            parse_config(write_config(tmp_path, doc))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    def test_kernel_length_mismatch(self, tmp_path):
        doc = dict(TINY)
        doc["kernel"] = {"M": 2, "p": [0.5]}
        with pytest.raises(ConfigError, match="M=2"):
            parse_config(write_config(tmp_path, doc))

    def test_perturbation_list(self, tmp_path):
        doc = dict(TINY)
        doc["perturbation"] = [{"mode": 1, "amplitude": 0.5},
                               {"mode": 1, "envelope": "algebraic", "s_tail": 5, "amplitude": 0.1}]
        cfg, _ = parse_config(write_config(tmp_path, doc))
        assert len(cfg.perturbations) == 2
        assert cfg.perturbations[1].tail_exponent == 5.0

    def test_two_stream_requires_v0(self, tmp_path):
        doc = dict(TINY)
        doc["profile"] = {"kind": "two_stream", "T": 1.0}
        with pytest.raises(ConfigError, match="v0"):
            parse_config(write_config(tmp_path, doc))

    def test_tabulated_profile_reads_the_saved_samples(self, tmp_path):
        v = write_table(tmp_path)
        doc = dict(TINY, profile={"kind": "tabulated", "path": str(tmp_path / "eta.csv")})
        prof = parse_config(write_config(tmp_path, doc))[0].profile
        assert np.array_equal(prof.v_samples, v)
        assert np.array_equal(prof.eta_samples, H.profile_values(H.maxwellian(1.0), v))

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "v,eta\n", "v,eta\n1,2,3\n2,3\n3,4\n4,5\n",
                                      "v,eta\n0,1\n1,1\n3,1\n4,1\n"])
    def test_malformed_table_is_a_config_error(self, tmp_path, text):
        (tmp_path / "eta.csv").write_text(text)
        doc = dict(TINY, profile={"kind": "tabulated", "path": str(tmp_path / "eta.csv")})
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, doc))

    def test_missing_table_is_a_config_error(self, tmp_path):
        doc = dict(TINY, profile={"kind": "tabulated", "path": str(tmp_path / "missing.csv")})
        with pytest.raises(ConfigError, match="profile.path"):
            parse_config(write_config(tmp_path, doc))

    def test_readme_schema_example_parses_and_names_every_key(self, tmp_path):
        section = README.read_text().split("### Config schema", 1)[1].split("\n## ", 1)[0]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        parse_config(write_config(tmp_path, json.loads(example)))
        for name, keys in _SCHEMA.items():
            for key in keys:
                assert re.search(f"[`\"]{key}[`\"]", section), f"README's config schema does not name {name}.{key}"


class TestExitCodes:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_document_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, case):
        doc, key = MALFORMED[case]
        monkeypatch.chdir(tmp_path)
        write_table(tmp_path)
        assert main(["penrose-check", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert re.search(rf"\b{key}\b", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", TRACEBACKS)
    def test_no_traceback_from_a_fresh_process(self, tmp_path, case):
        doc, key = MALFORMED[case]
        proc = run_cli("penrose-check", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr
        assert re.search(rf"\b{key}\b", proc.stderr), proc.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_sample_exits_2(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        write_table(tmp_path)
        lines = (tmp_path / "eta.csv").read_text().splitlines()
        lines[101] = lines[101].split(",")[0] + "," + bad
        (tmp_path / "eta.csv").write_text("\n".join(lines) + "\n")
        doc = dict(TINY, profile={"kind": "tabulated", "path": "eta.csv"})
        assert main(["penrose-check", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"config error: tabulated profile needs finite eta samples, "
                                           f"eta_samples[100] is {bad}\n")
        assert not (tmp_path / "out").exists()


class TestSubcommands:
    def test_run_sim_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run-sim", cfg_path, "--out", str(out)]) == EXIT_OK
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t,re_zeta1,im_zeta1,abs_zeta1,mass_re,mass_im,l2_full,h_smin4,h_s"
        assert (out / "final_state.csv").read_text().splitlines()[0] == "n,xi,re,im"

    def test_timeseries_ladder_columns_follow_the_record_schedule(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(TINY, record_every=3))
        out = tmp_path / "out"
        assert main(["run-sim", cfg_path, "--out", str(out)]) == EXIT_OK
        lines = (out / "timeseries.csv").read_text().splitlines()
        cfg = parse_config(cfg_path)[0]
        assert len(lines) == cfg.n_steps + 2
        on_schedule = set(cfg.snapshot_steps.tolist())
        assert cfg.n_steps in on_schedule and cfg.n_steps % 3 != 0
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert (fields[7:] == ["nan", "nan"]) == (i not in on_schedule), f"step {i}"
            assert "nan" not in fields[:7], f"step {i}"

    def test_run_sim_exit_codes(self, tmp_path, capsys):
        assert main(["run-sim", write_config(tmp_path, {"bogus": 1}, "a.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: unknown key 'bogus' in config\n"
        doc = dict(TINY)
        doc.update(xi_max=10.0, n_xi=201, t_final=20.0)
        assert main(["run-sim", write_config(tmp_path, doc, "b.json")]) == EXIT_INVARIANT
        assert capsys.readouterr().err == ("invariant violation: xi_max=10.0 too small for t_final=20.0: "
                                           "required xi_max >= n_max*t_final + 4*dxi = 20.4\n")

    def test_penrose_check_report(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "pen"
        assert main(["penrose-check", cfg_path, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "penrose_report.json").read_text())
        assert doc["stable"] is True
        mode = doc["modes"][0]
        for key in ("n", "winding", "min_abs", "kappa_est", "stable", "tau_scan"):
            assert key in mode

    def test_penrose_scan_failure_exits_3_without_traceback(self, tmp_path):
        doc = dict(TINY, penrose={"tau_max": 1.0})
        proc = run_cli("penrose-check", write_config(tmp_path, doc), "--out", str(tmp_path / "pen"))
        assert proc.returncode == EXIT_INVARIANT
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "tau_max=1.0 too small" in proc.stderr

    @pytest.mark.parametrize("n_tau", [0, 1])
    def test_penrose_scan_of_fewer_than_two_points_exits_3(self, tmp_path, n_tau):
        doc = dict(TINY, penrose={"n_tau": n_tau})
        proc = run_cli("penrose-check", write_config(tmp_path, doc), "--out", str(tmp_path / "pen"))
        assert proc.returncode == EXIT_INVARIANT
        assert proc.stderr == f"invariant violation: n_tau must be >= 2, got {n_tau}\n"
        assert not (tmp_path / "pen").exists()

    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        doc = dict(TINY, epsilon=1.0)
        doc["perturbation"] = {"mode": 1, "envelope": "gaussian", "amplitude": 1e300}
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run-sim", write_config(tmp_path, doc), "--out", str(tmp_path / "r")]) == EXIT_INVARIANT
        assert "non-finite state" in capsys.readouterr().err

    def test_volterra_bench_csv(self, tmp_path):
        doc = dict(TINY)
        doc["bench"] = {"gammas": [2, 3], "t_list": [10.0, 20.0], "dt": 0.05}
        out = tmp_path / "bench"
        assert main(["volterra-bench", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        lines = (out / "volterra_bench.csv").read_text().splitlines()
        assert lines[0] == "gamma,T,ratio"
        assert len(lines) == 5

    def test_volterra_bench_non_positive_time_refused(self, tmp_path, capsys):
        # T = 0 would read a ratio of 1 off the first sample
        doc = dict(TINY, bench={"gammas": [2, 3], "t_list": [10.0, 0.0], "dt": 0.05})
        assert main(["volterra-bench", write_config(tmp_path, doc), "--out", str(tmp_path / "b")]) == EXIT_INVARIANT
        assert capsys.readouterr().err == "invariant violation: T must be positive, got 0.0\n"
        assert not (tmp_path / "b").exists()

    def test_volterra_bench_default_mode_refused_when_inactive(self, tmp_path, capsys):
        # no bench section: the default mode 1, which this kernel does not carry
        doc = dict(TINY, n_max=2, xi_max=30.0, s=10, kernel={"p": [0.0, 0.5]})
        assert main(["volterra-bench", write_config(tmp_path, doc), "--out", str(tmp_path / "b")]) == EXIT_USAGE
        assert capsys.readouterr().err == ("config error: bench.mode 1 is not an active mode of the kernel "
                                           "(active modes: 2)\n")
        assert not (tmp_path / "b").exists()

    def test_volterra_bench_unstable_refused(self, tmp_path, capsys):
        doc = dict(TINY)
        doc["kernel"] = {"M": 1, "p": [-0.5]}
        doc["profile"] = {"kind": "maxwellian", "T": 0.4}
        assert main(["volterra-bench", write_config(tmp_path, doc)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == ("invariant violation: harness refused: state fails the stability "
                                           "check; the bound presumes it\n")

    def test_scatter_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "scat"
        assert main(["scatter", cfg_path, "--out", str(out)]) == EXIT_OK
        assert (out / "g_inf.csv").read_text().splitlines()[0] == "n,xi,re,im"
        assert (out / "eta_inf.csv").read_text().splitlines()[0] == "v,eta"
        rates = json.loads((out / "rates.json").read_text())
        for key in ("zeta_slope", "zeta_r2", "scattering_slope", "tail_estimate"):
            assert key in rates
        # the slope is the shared measurement, on the window it reports
        traj = H.run(parse_config(cfg_path)[0])
        slope, window = measure_scattering(traj, H.scattering_limit(traj))
        assert rates["scattering_slope"] == slope
        assert rates["scattering_window"] == list(window) == [1.0, 9.8]

    def test_scatter_state_is_the_final_state(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(TINY, record_every=4))
        assert main(["scatter", cfg_path, "--out", str(tmp_path / "scat")]) == EXIT_OK
        assert main(["run-sim", cfg_path, "--out", str(tmp_path / "run")]) == EXIT_OK
        assert (tmp_path / "scat" / "g_inf.csv").read_bytes() == (tmp_path / "run" / "final_state.csv").read_bytes()

    @pytest.mark.parametrize("t_final, reason", [(1.0, "empty fit window [1.0, 0.9]"),
                                                 (2.0, "need at least 20 samples in [1.0, 1.8], have 17")])
    def test_scatter_checks_its_fit_window_before_it_runs(self, tmp_path, monkeypatch, capsys, t_final, reason):
        monkeypatch.setattr("hmflab.cli.run", lambda cfg: pytest.fail("scatter ran the simulation"))
        assert main(["scatter", write_config(tmp_path, dict(TINY, t_final=t_final))]) == EXIT_INVARIANT
        assert capsys.readouterr().err == (f"invariant violation: t_final={t_final} and dt=0.05 leave no |z_1| "
                                           f"fit window: {reason}\n")

    @pytest.mark.parametrize("record_every, samples", [(200, 0), (100, 1)])
    def test_scatter_checks_its_snapshot_schedule_before_it_runs(self, tmp_path, monkeypatch, capsys,
                                                                 record_every, samples):
        monkeypatch.setattr("hmflab.cli.run", lambda cfg: pytest.fail("scatter ran the simulation"))
        doc = dict(TINY, n_xi=201, xi_max=12.0, epsilon=0.01, record_every=record_every)
        assert main(["scatter", write_config(tmp_path, doc)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == (f"invariant violation: {samples} convergence samples in the scattering "
                                           f"fit window [1, 9.8], need at least 3; use a record_every smaller "
                                           f"than {record_every}\n")

    @pytest.mark.parametrize("record_every, samples", [(200, 0), (100, 1)])
    def test_scatter_refuses_a_fit_on_too_few_snapshots(self, tmp_path, record_every, samples):
        # snapshots at t = 0 and 10 leave the window [1, 9.8] empty; one more at t = 5 puts one sample in it
        doc = dict(TINY, n_xi=201, xi_max=12.0, epsilon=0.01, record_every=record_every,
                   perturbation={"mode": 1, "envelope": "algebraic", "s_tail": 7.0})
        out = tmp_path / "scat"
        proc = run_cli("scatter", write_config(tmp_path, doc), "--out", str(out))
        assert proc.returncode == EXIT_INVARIANT
        assert proc.stderr == (f"invariant violation: {samples} convergence samples in the scattering fit window "
                               f"[1, 9.8], need at least 3; use a record_every smaller than {record_every}\n")
        assert not (out / "rates.json").exists()

    def test_volterra_bench_off_grid_time_rejected_at_parse_time(self, tmp_path, capsys):
        doc = dict(TINY, bench={"gammas": [2], "t_list": [10.03], "dt": 0.02})
        with pytest.raises(H.InvariantViolation, match=r"bench\.t_list entry 10\.03 .* bench\.dt=0\.02"):
            parse_config(write_config(tmp_path, doc))
        assert main(["volterra-bench", write_config(tmp_path, doc)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == ("invariant violation: bench.t_list entry 10.03 is not reached by "
                                           "steps of bench.dt=0.02\n")

    def test_blow_up_prints_no_numpy_warnings(self, tmp_path):
        doc = dict(TINY, n_xi=421, xi_max=21.0, kernel={"p": [-0.5]}, profile={"kind": "maxwellian", "T": 0.05},
                   perturbation={"mode": 1, "amplitude": 1e8}, epsilon=10.0, dt=0.1, t_final=1.0)
        proc = run_cli("run-sim", write_config(tmp_path, doc), "--out", str(tmp_path / "r"))
        assert proc.returncode == EXIT_INVARIANT
        assert "non-finite state" in proc.stderr and "encountered in" not in proc.stderr
        assert "fails the stability check" in proc.stderr


class TestPresets:
    def test_unknown_preset(self, capsys):
        assert run_preset("no-such-preset") == EXIT_USAGE

    def test_volterra_analytic_preset(self, tmp_path, capsys):
        assert run_preset("volterra-analytic", out=str(tmp_path / "va")) == EXIT_OK
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        assert (tmp_path / "va" / "volterra_analytic.csv").exists()

    def test_preset_cli_entry(self, tmp_path):
        assert main(["preset", "volterra-analytic", "--out", str(tmp_path / "va2")]) == EXIT_OK
        assert main(["preset", "bogus"]) == EXIT_USAGE


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run-sim", cfg_path, "--out", str(out1)]) == EXIT_OK
        assert main(["run-sim", cfg_path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        assert (out1 / "final_state.csv").read_bytes() == (out2 / "final_state.csv").read_bytes()

    def test_blas_thread_count_does_not_change_csvs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        for command, names in (("run-sim", ("timeseries.csv", "final_state.csv")),
                               ("scatter", ("g_inf.csv", "eta_inf.csv", "timeseries.csv"))):
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{command}-blas{threads}"
                proc = run_cli(command, cfg_path, "--out", str(out), OPENBLAS_NUM_THREADS=threads)
                assert proc.returncode == EXIT_OK, proc.stderr
                outs.append(out)
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (command, name)
