"""lamwave benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a lamwave source tree; the package is used from ``src/``
as it stands, so there is nothing to build.  The load is a closed loop with one
client: one workload pass at a time, each in a fresh interpreter
(``bench/child.py``) that imports ``lamwave.cli``, parses the pass's configs and
runs them through ``lamwave.cli.run`` with BLAS/OpenMP threads at 1 and
``threads=1``.  Passes repeat while another one is expected to end nearer to
``--seconds`` than stopping now (the longest pass so far is the estimate); every
pass's outputs are checked, and each end-to-end metric is the median over passes.

Times are scaled to a reference machine speed.  One core of a shared host runs
lamwave's code up to twice as fast at one moment as at another, so raw times of
the same code spread by more than any useful regression bound.  Each child
therefore times a fixed probe kernel (``child.SpeedProbe``) right after set-up
and every 50 ms while its configs run, and a time ``t`` is reported as
``t * PROBE_REFERENCE_S / (mean probe kernel time beside it)``: the time it
would take on a machine where the kernel takes ``PROBE_REFERENCE_S``.  The time
spent in probes is subtracted first.  The raw times are kept in the report.
The probe shares the core's caches with the pass, so during a pass it runs
slower than right after set-up; that offset is about the same for any pass of
a workload, and a change to lamwave's own speed still moves the scaled times in
full.  ``peak_rss_mb`` includes the probe's 8 MB table.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer metrics (spans around each layer's public functions)
and the difference of the two medians is the tracing overhead.

Once per source tree the documented defaults of every command are also run,
untimed, and their exit statuses reported (cached under ``.bench_build``,
keyed by a hash of the sources, because ``simulate-fv`` alone takes 15 s).

The full report goes to ``.bench_build/lamwave/<workload>-seed<N>-trace<T>/
report.json``; the last line of standard output is the summary JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD = HERE / "child.py"
BUILD_DIR = Path(".bench_build") / "lamwave"
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0  # start no pass that could end after this
#: Probe-kernel time the reported times are scaled to.  On a 2-vCPU Intel Xeon
#: VM of a shared host the kernel took 1.0 ms to 2.8 ms, mostly about 1.8 ms.
PROBE_REFERENCE_S = 1.5e-3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: (name, unit) of the end-to-end metrics, printed with tracing off.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))

#: What one unit of ``work_per_s`` is, per workload.
WORK_UNIT = {"fv_impact": "cell_steps_per_s", "mkdv_impact": "march_steps_per_s",
             "tunability": "sweep_rows_per_s"}

#: (name, unit) of the per-layer metrics, printed with tracing on.  A layer a
#: workload never calls reads 0.
PER_LAYER = (
    ("cli.import.s", "s"), ("cli.parse_config.ms", "ms"),
    ("output.write_csv.ms", "ms"), ("output.write_csv.bytes", "B"), ("output.write_json.ms", "ms"),
    ("materials.stretch_from_field.calls", "count"), ("materials.stretch_from_field.us_per_call", "us"),
    ("materials.shear_coefficients.calls", "count"),
    ("homogenize.effective_model.calls", "count"), ("homogenize.effective_model.us_per_call", "us"),
    ("dispersion.bloch_band_gaps.calls", "count"), ("dispersion.bloch_band_gaps.ms_per_call", "ms"),
    ("dispersion.bloch_cosine.calls", "count"), ("dispersion.dispersion_table.ms", "ms"),
    ("sweeps.magnetic.ms_per_row", "ms"), ("sweeps.volume_fraction.ms_per_row", "ms"),
    ("sweeps.contrast.ms_per_row", "ms"),
    ("fv_sim.n_cells", "count"), ("fv_sim.steps", "count"),
    ("fv_sim.step.ns_per_cell_step", "ns"), ("fv_sim.step.us_median", "us"),
    ("fv_sim.active_fraction", "ratio"), ("fv_sim.step.alloc_bytes", "B"),
    ("fv_sim.build_grid.ms", "ms"), ("fv_sim.probe_table.ms", "ms"),
    ("spectral_sim.n_points", "count"), ("spectral_sim.steps", "count"),
    ("spectral_sim.mkdv_march.us_per_step", "us"), ("spectral_sim.probe_table.ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in (
        "cli", "output", "materials", "homogenize", "dispersion", "soliton", "sweeps",
        "fv_sim", "spectral_sim")),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
)

SWEEP_OPS = {"magnetic": ("sweep-magnetic_load_product", "sweeps.sweep_magnetic"),
             "volume_fraction": ("sweep-volume_fraction_2", "sweeps.sweep_volume_fraction"),
             "contrast": ("sweep-modulus_contrast", "sweeps.sweep_contrast")}


# --------------------------------------------------------------------------- statistics


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count; quartiles as ``statistics.quantiles(n=4)``."""
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def self_times(spans: list) -> dict[int, float]:
    """Self time of each span: its duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their sum is the
    part of the parent's interval they cover.
    """
    covered: dict[int, float] = {}
    for sid, parent, _, t0, t1 in spans:
        covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - covered.get(sid, 0.0) for sid, _, _, t0, t1 in spans}


def span_table(spans: list) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and the list of durations."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for sid, _, name, t0, t1 in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += selfs[sid]
        row["durations"].append(t1 - t0)
    return table


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured beside a probe kernel of ``probe_s``, scaled to the reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


def fail_ratio(passes: list[dict]) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over every op of every pass."""
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op["ok"])
    return attempted, failed, (failed / attempted if attempted else 1.0)


# --------------------------------------------------------------------------- children


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_ENV})
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached bytecode, as users run
    return env


def spawn(job: dict, job_path: Path, env: dict) -> tuple[float, dict | None, str]:
    """Run one child to completion; returns (spawn time, result or None, stderr)."""
    job_path.write_text(json.dumps(job))
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(job_path)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return t_spawn, None, proc.stderr.strip()[-2000:]
    return t_spawn, json.loads(result_path.read_text()), ""


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    files = sorted((root / "src" / "lamwave").rglob("*.py")) + [HERE / "workloads.py", CHILD]
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def defaults_probe(root: Path, work: Path, env: dict) -> list[dict]:
    """Exit status of every command at its documented defaults, cached per source tree."""
    cache = root / BUILD_DIR / f"defaults-probe-{source_hash(root)}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    probe_dir = work / "probe"
    ops = write_configs(probe_dir, workloads.default_ops())
    job = {"mode": "run", "ops": ops, "out": str(probe_dir / "out"),
           "result": str(probe_dir / "result.json")}
    _, result, err = spawn(job, probe_dir / "job.json", env)
    if result is None:
        return [{"command": "*", "exit": None, "expected": 0, "message": err}]
    report = []
    for op in result["ops"]:
        command = op["name"].split("-")[0] if op["name"].startswith("sweep") else op["name"]
        report.append({"command": op["name"], "exit": op["rc"],
                       "expected": workloads.KNOWN_DEFAULT_FAILURES.get(command, 0),
                       "message": op["message"].splitlines()[-1] if op["message"] else ""})
    shutil.rmtree(probe_dir / "out", ignore_errors=True)
    cache.write_text(json.dumps(report, indent=1))
    return report


def write_configs(directory: Path, ops: list[tuple[str, dict]]) -> list[tuple[str, str]]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, config in ops:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config, indent=1))
        out.append((name, str(path)))
    return out


# --------------------------------------------------------------------------- one pass


def check_pass(result: dict, configs: dict, out: Path, seed: int) -> tuple[list[dict], dict]:
    """Mark each op ok or failed and collect the sizes its artifacts show."""
    checked, sizes = [], dict(result["sizes"])
    for op in result["ops"]:
        entry = {"name": op["name"], "rc": op["rc"], "s": op["s"], "ok": False, "reason": ""}
        op_out = out / op["name"]
        try:
            if op["rc"] != 0:
                raise workloads.CheckFailed(f"exit {op['rc']}: {op['message']}")
            manifest = json.loads((op_out / "manifest.json").read_text())
            (entry_manifest,) = manifest.values()
            files = entry_manifest["files"]
            op_sizes = workloads.check_op(op["name"], configs[op["name"]], op_out, files, seed)
            entry["ok"] = True
            entry["sizes"] = op_sizes
            sizes["csv_bytes"] = sizes.get("csv_bytes", 0) + sum(
                (op_out / f).stat().st_size for f in files if f.endswith(".csv"))
            for key in ("steps", "rows"):
                if key in op_sizes:
                    sizes[key] = sizes.get(key, 0) + op_sizes[key]
        except Exception as exc:  # any broken artifact is a failed op, never a crash
            entry["reason"] = f"{type(exc).__name__}: {exc}"
        checked.append(entry)
    return checked, sizes


def work_done(workload: str, sizes: dict) -> float:
    if workload == "fv_impact":
        return float(sizes.get("n_cells", 0) * sizes.get("steps", 0))
    if workload == "mkdv_impact":
        return float(sizes.get("march_steps", 0))
    return float(sizes.get("rows", 0))


# --------------------------------------------------------------------------- per-layer


def per_layer(traced: list[dict], untraced_wall: list[float], children: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, as per-pass means unless named otherwise.

    Times here are raw, not scaled to the reference speed: traced passes run no
    probe, and ``untraced_wall`` holds the untraced passes' raw wall times.

    Also returns the calls per pass of every wrapped function, timed or counted.
    """
    n = len(traced)
    # span ids restart in every child, so key them by pass
    spans = [((p["pass_id"], sid), (p["pass_id"], parent), name, t0, t1)
             for p in traced for sid, parent, name, t0, t1 in p["trace"]["spans"]]
    table = span_table(spans)
    counts: dict[str, int] = {}
    samples: dict[str, list] = {"active_fraction": [], "alloc_bytes": []}
    for p in traced:
        for name, c in p["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + c
        for key in samples:
            samples[key] += p["trace"]["samples"][key]
    merged = {**counts, **{name: row["calls"] for name, row in table.items()}}
    calls_per_pass = {name: c / n for name, c in sorted(merged.items()) if c}

    def calls(name):
        return table[name]["calls"] if name in table else counts.get(name, 0)

    def total_ms(name):
        return 1e3 * table[name]["total_s"] / n if name in table else 0.0

    def per_call(name, scale):
        return scale * table[name]["total_s"] / table[name]["calls"] if name in table else 0.0

    sizes = traced[-1]["sizes"]
    n_cells = sizes.get("n_cells", 0)
    steps = table.get("fv_sim.step", {}).get("durations", [])
    step_us = 1e6 * statistics.median(steps) if steps else 0.0
    march_steps = sizes.get("march_steps", 0)
    m: dict[str, float] = {
        "cli.import.s": statistics.median(c["import_s"] for c in children),
        "cli.parse_config.ms": statistics.median(c["parse_ms"] for c in children),
        "output.write_csv.ms": total_ms("output.write_csv"),
        "output.write_csv.bytes": sizes.get("csv_bytes", 0),
        "output.write_json.ms": total_ms("output.write_json"),
        "materials.stretch_from_field.calls": calls("materials.stretch_from_field") / n,
        "materials.stretch_from_field.us_per_call": per_call("materials.stretch_from_field", 1e6),
        "materials.shear_coefficients.calls": calls("materials.shear_coefficients") / n,
        "homogenize.effective_model.calls": calls("homogenize.effective_model") / n,
        "homogenize.effective_model.us_per_call": per_call("homogenize.effective_model", 1e6),
        "dispersion.bloch_band_gaps.calls": calls("dispersion.bloch_band_gaps") / n,
        "dispersion.bloch_band_gaps.ms_per_call": per_call("dispersion.bloch_band_gaps", 1e3),
        "dispersion.bloch_cosine.calls": calls("dispersion.bloch_cosine") / n,
        "dispersion.dispersion_table.ms": total_ms("dispersion.dispersion_table"),
        "fv_sim.n_cells": n_cells,
        "fv_sim.steps": (calls("fv_sim.step") + calls("fv_sim.step.sampled")) / n,
        "fv_sim.step.ns_per_cell_step": 1e3 * step_us / n_cells if n_cells else 0.0,
        "fv_sim.step.us_median": step_us,
        "fv_sim.active_fraction": (statistics.fmean(samples["active_fraction"])
                                   if samples["active_fraction"] else 0.0),
        "fv_sim.step.alloc_bytes": (statistics.median(samples["alloc_bytes"])
                                    if samples["alloc_bytes"] else 0.0),
        "fv_sim.build_grid.ms": total_ms("fv_sim.build_grid"),
        "fv_sim.probe_table.ms": total_ms("fv_sim.probe_table"),
        "spectral_sim.n_points": sizes.get("n_points", 0),
        "spectral_sim.steps": march_steps,
        "spectral_sim.mkdv_march.us_per_step": (
            1e6 * table["spectral_sim.mkdv_march"]["total_s"] / (n * march_steps)
            if march_steps and "spectral_sim.mkdv_march" in table else 0.0),
        "spectral_sim.probe_table.ms": total_ms("spectral_sim.probe_table"),
    }
    for key, (op_name, span) in SWEEP_OPS.items():
        rows = sum(op["sizes"].get("rows", 0) for p in traced for op in p["ops"]
                   if op["name"] == op_name and op["ok"])
        m[f"sweeps.{key}.ms_per_row"] = (1e3 * table[span]["total_s"] / rows
                                        if rows and span in table else 0.0)
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            layer = name.split(".")[0]
            m[name] = 1e3 * sum(r["self_s"] for k, r in table.items()
                                if k.split(".")[0] == layer) / n
    traced_wall = statistics.median(p["raw_wall_s"] for p in traced)
    base = statistics.median(untraced_wall)
    m["trace.overhead_s"] = traced_wall - base
    m["trace.overhead_ratio"] = (traced_wall - base) / base
    return m, calls_per_pass


# --------------------------------------------------------------------------- report


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "platform": platform.platform()}


def print_table(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {len(report['passes'])}  attempted {report['attempted']}  "
          f"failed {report['failed']}  fail_ratio {report['fail_ratio']:.3g}")
    for name, row in report["end_to_end"].items():
        alias = f" ({WORK_UNIT[report['workload']]})" if name == "work_per_s" else ""
        print(f"  {name:<40} {row['median']:>14.6g} {row['unit']:<6} "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}{alias}")
    for name, row in report.get("raw", {}).items():
        print(f"  raw {name:<36} {row['median']:>14.6g}        "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<40} {value['value']:>14.6g} {value['unit']}")
    for probe in report["defaults_probe"]:
        status = "ok" if probe["exit"] == probe["expected"] else "UNEXPECTED"
        known = " (known failure)" if probe["expected"] else ""
        print(f"  defaults {probe['command']:<32} exit {probe['exit']} {status}{known}"
              + (f": {probe['message']}" if probe["exit"] else ""))
    for p in report["passes"]:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"  FAILED pass {p['pass_id']} {op['name']}: {op['reason']}")


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / BUILD_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    op_list = workloads.ops(workload, seed)
    configs = dict(op_list)
    op_paths = write_configs(work / "configs", op_list)
    probe = defaults_probe(root, work, env)

    def child(mode: str, pass_id: int, traced: bool = False):
        out = work / f"pass{pass_id}"
        job = {"mode": mode, "ops": op_paths, "out": str(out), "trace": traced,
               "result": str(work / "result.json")}
        t_spawn, result, err = spawn(job, work / "job.json", env)
        if result is not None:
            result["raw_setup_s"] = result["t_ready"] - t_spawn
            result["setup_s"] = at_reference(result["raw_setup_s"], result["setup_probe_s"])
        return result, err, out

    child("setup", -1)  # warm-up: byte-compiles the sources, fills the page cache
    passes, children, setup_samples, raw_setup_samples = [], [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result, err, out = child("run", len(passes), traced)
        longest = max(longest, time.perf_counter() - t0)
        entry = {"pass_id": len(passes), "traced": traced}
        if result is None:
            entry.update(ops=[{"name": n, "rc": None, "ok": False, "reason": f"child failed: {err}"}
                              for n, _ in op_paths], sizes={})
        else:
            checked, sizes = check_pass(result, configs, out, seed)
            probes = result["run_probe_s"]
            raw_wall = result["t_done"] - result["t_run"] - sum(probes)
            probe_s = statistics.fmean(probes) if probes else result["setup_probe_s"]
            entry.update(ops=checked, sizes=sizes, setup_s=result["setup_s"],
                         raw_setup_s=result["raw_setup_s"], raw_wall_s=raw_wall,
                         probe_ms=1e3 * probe_s, probe_samples=len(probes),
                         peak_rss_mb=result["maxrss_kb"] / 1024.0,
                         work=work_done(workload, sizes))
            if traced:
                entry["trace"] = result["trace"]
            else:
                entry["wall_s"] = at_reference(raw_wall, probe_s)
            children.append(result)
            setup_samples.append(result["setup_s"])
            raw_setup_samples.append(result["raw_setup_s"])
        shutil.rmtree(out, ignore_errors=True)
        passes.append(entry)
        elapsed = time.perf_counter() - start
        have_both = not trace or len(passes) >= 2
        # stop where the run ends nearest --seconds: start no pass whose expected
        # end lies further past it than stopping now falls short of it
        if (have_both and elapsed + longest / 2 >= seconds) or elapsed + longest > RUN_BUDGET_S:
            break
    while len(setup_samples) < MIN_SETUP_SAMPLES and time.perf_counter() - start < RUN_BUDGET_S:
        result, _, _ = child("setup", -1)
        if result is None:
            break
        children.append(result)
        setup_samples.append(result["setup_s"])
        raw_setup_samples.append(result["raw_setup_s"])

    attempted, failed, ratio = fail_ratio(passes)
    timed = [p for p in passes if "wall_s" in p and not p["traced"]]
    report = {
        "schema": 1,
        "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "load": "closed loop, 1 client, one pass at a time, fresh interpreter per pass, "
                "BLAS/OpenMP threads 1, lamwave threads 1",
        "machine": machine_info(),
        "ops": [name for name, _ in op_list],
        "sizes": passes[-1].get("sizes", {}),
        "attempted": attempted, "failed": failed, "fail_ratio": ratio,
        "correct": failed == 0 and bool(timed),
        "defaults_probe": probe,
        "probe_reference_s": PROBE_REFERENCE_S,
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": raw_setup_samples,
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
        "end_to_end": {},
    }
    if timed:
        series = {
            "wall_s": [p["wall_s"] for p in timed],
            "setup_s": setup_samples,
            "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
            "work_per_s": [p["work"] / p["wall_s"] for p in timed],
        }
        for name, unit in END_TO_END:
            report["end_to_end"][name] = {"unit": unit, **summarize(series[name])}
        report["raw"] = {
            "wall_s": summarize([p["raw_wall_s"] for p in timed]),
            "setup_s": summarize(raw_setup_samples),
            "probe_ms": summarize([p["probe_ms"] for p in timed]),
        }
    traced_passes = [p for p in passes if p["traced"] and "trace" in p]
    if trace and traced_passes and timed:
        values, report["calls_per_pass"] = per_layer(traced_passes,
                                                     [p["raw_wall_s"] for p in timed], children)
        report["per_layer"] = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        spans = [[p["pass_id"], *s] for p in traced_passes for s in p["trace"]["spans"]]
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["pass_id", "span_id", "parent_id", "name", "start_s", "end_s"],
             "spans": spans}))
    (work / "report.json").write_text(json.dumps(report, indent=1))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lamwave" / "cli.py").is_file():
        print(f"error: no lamwave sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print_table(report)
    if args.trace:
        metrics = report.get("per_layer", {})
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in report["end_to_end"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
