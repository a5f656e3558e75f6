"""
hmflab benchmark: three seeded workloads, end-to-end metrics, and an
outside-in per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

Each run is one fresh process with the BLAS pools pinned to one thread.  It
imports ``hmflab`` from ``src/`` of the checkout it sits in and refuses to
run without it.  The seed is the benchmark's own argument: iteration ``i``
of workload ``w`` draws its inputs from ``random.Random(f"{w}:{seed}:{i}")``
and hmflab receives only the JSON configs generated from them.  Iteration 0
is a checked warm-up; then iterations repeat until ``--seconds`` have been
measured.  Every iteration checks its outputs; one that fails a check or
raises counts as a failed operation.  The last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``; medians over the timed iterations):

    wall_rel     an iteration's wall time, from the first call into the
                 workload's work until its last artifact is written and
                 checked, divided by the mean time of the fixed reference
                 computation (``reference.py``, no hmflab) run just before
                 and just after it
    setup_s      imports, config generation and parse_config, timed in fresh
                 processes several times; median
    peak_rss_mb  ru_maxrss of the run's process

The iteration wall time itself (``wall_s``) and that reference time are
printed beside them.  On a shared host the processor's speed drifts by
20-50% over minutes and moves both together, so their ratio resolves a
change to hmflab that the raw wall time cannot: over 8-iteration windows of
``scattering`` on a 2-core x86 VM, the spread between quartiles was 16% of
the median for the wall time and 4% for the ratio.

Per-layer metrics (``--trace 1``) come from a separate run that alternates
untraced and traced iterations: ``<module>.<function>.self_s`` is inclusive
time minus the time of child spans, ``.s`` is inclusive time, and counts are
those of the first traced iteration, which repeat exactly for a seed.  From
the untraced iterations of the same run come ``trace.overhead_s`` (median
traced minus median untraced wall time) and two layer rates:
``simulate.node_steps_per_s``, (2 n_max + 1) * n_xi * n_steps over the time
inside ``hmflab.run``, and ``penrose.verdicts_per_s``, the map's direct
``penrose_check`` verdicts over their time (0 where a workload makes none).
Which end-to-end metric each layer should move, and where (shares of the
traced self time on a 2-core x86 VM):

    layer                      moves               mostly on                  ~0 on
    grids.cubic_interp.shifted wall_rel, node rate scattering (~50%)          crosscheck, map
    grids.cubic_interp (field) wall_rel, node rate all runs (one row padded   -
                                                   per scalar read)
    grids.norm_ladder          wall_rel, node rate crosscheck (~60%)          -
    grids.symmetrized_values,  wall_rel            scattering                 -
      grids.csv
    profiles.profile_hat       wall_rel            crosscheck, map            -
    simulate.*                 node rate, rss      crosscheck, scattering     -
    penrose.*                  wall_rel, verdicts  stability-map (~70%)       crosscheck, scattering
    volterra.*                 wall_rel            stability-map              scattering
    diagnostics.*              wall_rel, rss       scattering                 crosscheck, map
    cli.parse_config,          setup_s, wall_rel   all                        -
      cli.write_timeseries_csv

Tabulated backgrounds are left out on purpose: ``penrose_check`` on the
961-point table that ``weak_limit_profile`` emits asks ``profile_hat`` for a
(25600 x 23040) complex matrix (8.8 GiB) and raises MemoryError, and
``run()`` makes that check first.  Every result records this gap.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
KNOWN_GAPS = [
    "tabulated backgrounds: penrose_check on the 961-point eta_inf table asks profile_hat for a "
    "(25600 x 23040) complex matrix (8.8 GiB) and raises MemoryError; run() makes that check "
    "first, so no tabulated workload until it is fixed"
]


def pin_blas() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on sys.path; fail if hmflab is not there."""
    init = ROOT / "src" / "hmflab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; run from a checkout of hmflab")
    sys.path.insert(0, str(ROOT / "src"))
    import hmflab
    if Path(hmflab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported hmflab from {hmflab.__file__}, not from {init}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": git_sha(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "known_gaps": KNOWN_GAPS}


def tail(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    if n < 11:
        return f"median {med:.6g} (n={n}; no percentile has 10 samples beyond it)"
    ordered = sorted(samples)
    return f"median {med:.6g}, p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g} (n={n})"


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under the checkout's work root, removed afterwards."""
    d = WORK / f"{name}-{os.getpid()}"
    d.mkdir(parents=True)
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def probe_setup(workload: str, seed: int, out: Path) -> list:
    """Time imports, config generation and parse_config in fresh processes."""
    times = []
    for k in range(SETUP_PROBES):
        d = out / f"probe{k}"
        d.mkdir(parents=True)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(d)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import reference
    import tracer as T
    import workloads as W

    wl = W.WORKLOADS[workload]
    tr = T.Tracer() if trace else None
    walls, traced_walls, layers, refs = [], [], [], []
    checksum = prev_ref = None
    node_rates, verdict_rates, verdict_times = [], [], []
    attempted = failed = 0
    start = None
    i = 0
    while True:
        # iteration 0 warms up; with tracing, odd iterations are traced
        traced = trace and i % 2 == 1
        d = out / f"iter{i}"
        d.mkdir(parents=True)
        m = W.Meter()
        wall = None
        gc.collect()
        if traced:
            tr.install()
        try:
            params, parsed = W.setup(wl, seed, i, d)
            t0 = time.perf_counter()
            wl.work(parsed, params, d, m)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
        finally:
            if traced:
                tr.uninstall()
        spans = tr.take() if traced else None
        ok = wall is not None and all(passed for _, passed, _ in m.checks)
        if not trace:
            # the reference runs after every iteration, the warm-up included
            ref_s, value = reference.timed()
            checksum = value if checksum is None else checksum
            if value != checksum:
                print(f"  [FAIL] iter {i}: reference checksum {value!r} != {checksum!r}")
                ok = False
        attempted += 1
        failed += not ok
        if i == 0 or not ok:
            for name, passed, detail in m.checks:
                print(f"  [{'PASS' if passed else 'FAIL'}] iter {i}: {name}: {detail}")
        shutil.rmtree(d)
        if i == 0:
            start = time.perf_counter()
        elif ok and traced:
            traced_walls.append(wall)
            layers.append(T.aggregate(spans))
        elif ok:
            walls.append(wall)
            if not trace:
                # the references just before and just after bracket the iteration
                refs.append(0.5 * (prev_ref + ref_s))
            if m.run_s > 0:
                node_rates.append(m.node_steps / m.run_s)
            if m.verdict_times:
                verdict_rates.append(len(m.verdict_times) / sum(m.verdict_times))
                verdict_times.extend(m.verdict_times)
        if not trace:
            prev_ref = ref_s
        i += 1
        if i >= (3 if trace else 2) and time.perf_counter() - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "walls": walls, "refs": refs,
            "traced_walls": traced_walls,
            "layers": layers, "node_rates": node_rates, "verdict_rates": verdict_rates,
            "verdict_times": verdict_times}


def end_to_end(res: dict, setup_times: list) -> dict:
    return {
        "wall_rel": [w / r for w, r in zip(res["walls"], res["refs"])],
        "setup_s": setup_times,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def per_layer(res: dict, spec: list) -> dict:
    """
    Medians of per-iteration times and counts of the first traced
    iteration; the two layer rates and the tracing overhead come from the
    untraced iterations of the same run.
    """
    if not (res["layers"] and res["walls"]):
        return {}
    first = res["layers"][0]
    out = {
        "trace.overhead_s": [statistics.median(res["traced_walls"]) - statistics.median(res["walls"])],
        "simulate.node_steps_per_s": res["node_rates"] or [0.0],
        "penrose.verdicts_per_s": res["verdict_rates"] or [0.0],
    }
    for metric in spec:
        name = metric["name"]
        if name in out:
            continue
        if metric["unit"] == "s":
            out[name] = [row.get(name, 0.0) for row in res["layers"]]
        else:
            out[name] = [int(first.get(name, 0))]
    return out


def report_layer_shares(layers: list) -> None:
    """Print each layer's share of the traced self time (medians over traced iterations)."""
    selfs = {}
    for key in layers[0]:
        if key.endswith(".self_s") and key.count(".") == 2:
            selfs[key[:-7]] = statistics.median(row.get(key, 0.0) for row in layers)
    total = sum(selfs.values())
    if total <= 0:
        return
    print("  layer shares of traced self time:")
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:36s} {100 * s / total:6.2f}%  {s:.6g} s")


def run_one(args, spec: dict) -> int:
    pin_blas()
    use_source_tree()
    with scratch_dir(args.workload) as out:
        setup_times = [] if args.trace else probe_setup(args.workload, args.seed, out)
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), out)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    samples = per_layer(res, metrics_spec) if args.trace else end_to_end(res, setup_times)

    print(f"perfbench facts {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} iterations (1 warm-up), {res['failed']} failed")
    metrics = {}
    for metric in metrics_spec:
        values = samples.get(metric["name"]) or []
        if not values:
            continue
        value = statistics.median(values)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        detail = tail(values) if len(values) > 1 else f"{value:.6g}"
        print(f"  {metric['name']:44s} {metric['unit']:6s} {detail}")
    if not args.trace and res["walls"]:
        print(f"  {'wall_s (iteration wall time)':44s} {'s':6s} {tail(res['walls'])}")
        print(f"  {'reference_s (reference computation)':44s} {'s':6s} {tail(res['refs'])}")
    if res["verdict_times"]:
        print(f"  {'penrose_check latency':44s} {'s':6s} {tail(res['verdict_times'])}")
    if args.trace and res["layers"]:
        report_layer_shares(res["layers"])
    correct = res["failed"] == 0 and len(metrics) == len(metrics_spec)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def _invoke(args: list) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc, result = _invoke(["--workload", w["name"], "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stdout.write("\n".join(proc.stdout.strip().splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or result is None:
            raise SystemExit(f"perfbench: workload {w['name']} exited {proc.returncode} without a result")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, val in result["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = val
    print(json.dumps(combined))
    return 0


def self_test(spec: dict) -> int:
    """
    Check the benchmark itself: every workload reports every metric and no
    failed operation; two traced runs with the same seed give identical
    counts; and a directory without ``src/hmflab`` exits non-zero without
    printing a result.
    """
    problems = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    for w in spec["workloads"]:
        name = w["name"]
        proc, plain = _invoke(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"])
        if plain is None or not plain["correct"] or set(plain["metrics"]) != e2e:
            problems.append(f"{name}: untraced run incomplete ({proc.returncode}): {proc.stderr[-400:]}")
        elif any(v["value"] <= 0 for v in plain["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
        traced = [_invoke(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1"])[1]
                  for _ in range(2)]
        if any(t is None or not t["correct"] for t in traced):
            problems.append(f"{name}: traced run incomplete")
            continue
        for key in counts:
            a, b = (t["metrics"][key]["value"] for t in traced)
            if a != b:
                problems.append(f"{name}: count {key} differs between traced runs: {a} != {b}")
        print(f"self-test {name}: checked {len(e2e)} end-to-end metrics and {len(counts)} counts")

    with scratch_dir("bare") as bare:
        (bare / "perfbench").mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for f in HERE.glob("*.py"):
            shutil.copy2(f, bare / "perfbench" / f.name)
        w0 = spec["workloads"][0]["name"]
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w0, "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print(f"self-test: {'PASS' if not problems else 'FAIL'}")
    return 0 if not problems else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
