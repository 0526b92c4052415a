"""Tests of the benchmark harness: ``python3 -m pytest bench/test_bench.py -q`` from the repo root.

The statistics, self-time and failure arithmetic run without lamwave; the
smoke tests run each workload end to end at a tiny size.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from pathlib import Path

import pytest

import child
import run as bench
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert bench.summarize(values) == {"median": statistics.median(values), "q1": q1, "q3": q3, "n": 6}
    assert bench.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        bench.summarize([])


def test_self_time_subtracts_direct_children_only():
    # root 1 [0, 10] has children 2 [1, 4] and 3 [5, 9]; 3 has child 4 [6, 8]
    spans = [(2, 1, "a.f", 1.0, 4.0), (4, 3, "c.h", 6.0, 8.0), (3, 1, "b.g", 5.0, 9.0),
             (1, 0, "cli.run", 0.0, 10.0)]
    assert bench.self_times(spans) == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0}
    table = bench.span_table(spans + [(5, 0, "a.f", 10.0, 10.5)])
    assert table["a.f"]["calls"] == 2
    assert table["a.f"]["total_s"] == pytest.approx(3.5)
    assert table["b.g"]["self_s"] == pytest.approx(2.0)
    # self times partition the root interval
    assert sum(r["self_s"] for r in bench.span_table(spans).values()) == pytest.approx(10.0)


def test_per_layer_keeps_passes_apart_and_averages_per_pass():
    spans = [(1, 0, "cli.run", 0.0, 4.0), (2, 1, "sweeps.sweep_magnetic", 1.0, 3.0),
             (3, 2, "homogenize.effective_model", 1.5, 2.0)]
    passes = [
        {"pass_id": pid, "raw_wall_s": 4.0, "sizes": {},
         "ops": [{"name": "sweep-magnetic_load_product", "ok": True, "sizes": {"rows": 10}}],
         "trace": {"spans": spans, "counts": {"materials.shear_coefficients": 6},
                   "samples": {"active_fraction": [], "alloc_bytes": []}}}
        for pid in (1, 3)
    ]
    children = [{"import_s": 0.5, "parse_ms": 1.0}]
    m, calls = bench.per_layer(passes, [3.0, 3.4], children)
    assert m["cli.self_ms"] == pytest.approx(2000.0)
    assert m["sweeps.self_ms"] == pytest.approx(1500.0)
    assert m["homogenize.self_ms"] == pytest.approx(500.0)
    assert m["homogenize.effective_model.us_per_call"] == pytest.approx(5e5)
    assert m["sweeps.magnetic.ms_per_row"] == pytest.approx(200.0)
    assert m["materials.shear_coefficients.calls"] == 6
    assert m["fv_sim.self_ms"] == 0.0 and m["fv_sim.step.us_median"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(0.8)
    assert calls["cli.run"] == 1 and calls["materials.shear_coefficients"] == 6


def test_times_scale_to_the_reference_probe_speed():
    assert bench.at_reference(3.0, bench.PROBE_REFERENCE_S) == pytest.approx(3.0)
    # the probe ran twice as slow as the reference, so the machine did too
    assert bench.at_reference(3.0, 2 * bench.PROBE_REFERENCE_S) == pytest.approx(1.5)


def test_speed_probe_samples_while_work_runs_and_restores_the_timer():
    probe = child.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.every(0.01):
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(probe.samples) >= 3 and all(s > 0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fail_ratio_counts_every_op_of_every_pass():
    passes = [{"ops": [{"ok": True}, {"ok": False}]}, {"ops": [{"ok": True}, {"ok": True}]}]
    assert bench.fail_ratio(passes) == (4, 1, 0.25)
    assert bench.fail_ratio([{"ops": [{"ok": True}]}]) == (1, 0, 0.0)


def _bandgap_artifacts(tmp_path: Path, scale: float) -> Path:
    ref = workloads.REFERENCE["bandgap"]
    gaps = [
        {"index": 1, "lo_over_pi": ref["gap1_lo_over_pi"] * scale,
         "hi_over_pi": ref["gap1_hi_over_pi"] * scale, "theory": "exact"},
        {"index": 1, "lo_over_pi": 0.8369690812639392, "hi_over_pi": 1.321656373786084,
         "theory": "homogenized"},
    ]
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "bandgap_x.json").write_text(json.dumps(gaps))
    (tmp_path / "manifest.json").write_text(json.dumps({"bandgap_x": {"files": ["bandgap_x.json"]}}))
    return tmp_path


def test_pinned_tolerance_passes_round_off_and_fails_wrong_answer(tmp_path):
    config = workloads.ops("tunability", 0)[-2][1]
    out = _bandgap_artifacts(tmp_path, 1.0 + 1e-12)
    workloads.check_op("bandgap", config, out, ["bandgap_x.json"], seed=0)
    out = _bandgap_artifacts(tmp_path, 1.0 + 1e-4)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op("bandgap", config, out, ["bandgap_x.json"], seed=0)
    # other seeds are held to invariants only
    workloads.check_op("bandgap", config, out, ["bandgap_x.json"], seed=3)


def test_check_pass_marks_exit_status_and_missing_artifacts(tmp_path):
    _bandgap_artifacts(tmp_path / "bandgap", 1.0)
    (tmp_path / "effective").mkdir()
    (tmp_path / "effective" / "manifest.json").write_text(
        json.dumps({"effective_x": {"files": ["effective_x.json"]}}))
    result = {"sizes": {}, "ops": [
        {"name": "bandgap", "rc": 0, "s": 0.1, "message": ""},
        {"name": "effective", "rc": 0, "s": 0.1, "message": ""},
        {"name": "soliton", "rc": 2, "s": 0.1, "message": "numerical failure"},
    ]}
    configs = dict(workloads.ops("tunability", 0))
    checked, _ = bench.check_pass(result, configs, tmp_path, seed=0)
    assert [op["ok"] for op in checked] == [True, False, False]
    assert "missing" in checked[1]["reason"] and "exit 2" in checked[2]["reason"]
    assert bench.fail_ratio([{"ops": checked}]) == (3, 2, 2 / 3)


def test_seeds_are_deterministic_and_keep_volume_fractions():
    assert workloads.ops("tunability", 7) == workloads.ops("tunability", 7)
    assert workloads.ops("fv_impact", 7) != workloads.ops("fv_impact", 8)
    for seed in range(5):
        lam = workloads.laminate(seed)
        assert [p["nu"] for p in lam["phases"]] == [0.5, 0.5]
        for p, (g_pa, rho) in zip(lam["phases"], workloads.PAPER_PHASES):
            assert abs(p["model"]["G_pa"] / g_pa - 1) <= workloads.PERTURBATION
            assert abs(p["rho"] / rho - 1) <= workloads.PERTURBATION
    assert workloads.laminate(0)["phases"][1]["model"]["G_pa"] == 0.94e6


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]


# --------------------------------------------------------------------------- smoke

TINY_PARAMS = {
    "simulate-fv": {"cells_per_layer": 4, "probes_y_star_multiples": [0.1, 0.2]},
    "simulate-mkdv": {"n_points": 256, "probes_y_star_multiples": [0.05, 0.1]},
    "sweep": {"n": 5},
    "dispersion": {"n": 50},
    "bandgap": {"n_scan": 1000},
}


def _tiny(ops):
    out = []
    for name, config in ops:
        config = json.loads(json.dumps(config))
        config["params"].update(TINY_PARAMS.get(config["command"], {}))
        out.append((name, config))
    return out


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    ops = workloads.ops
    monkeypatch.setattr(workloads, "ops", lambda w, s: _tiny(ops(w, s)))
    # one cheap default that succeeds and the known failure
    monkeypatch.setattr(workloads, "default_ops",
                        lambda: [op for op in ops("tunability", 0) if op[0] == "effective"]
                        + [("simulate-mkdv", workloads._config("simulate-mkdv", workloads.laminate(0), {}))])
    monkeypatch.setattr(bench, "BUILD_DIR", tmp_path)
    monkeypatch.setattr(bench, "MIN_SETUP_SAMPLES", 2)
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_smoke(tiny, workload):
    report = bench.run(workload, seed=1, seconds=0.0, trace=True, root=ROOT)
    assert report["correct"], [op for p in report["passes"] for op in p["ops"] if not op["ok"]]
    assert report["failed"] == 0 and report["attempted"] == 2 * len(report["ops"])
    assert [p["traced"] for p in report["passes"]] == [False, True]
    assert set(report["end_to_end"]) == {name for name, _ in bench.END_TO_END}
    assert all(row["median"] > 0 for row in report["end_to_end"].values())
    assert set(report["raw"]) == {"wall_s", "setup_s", "probe_ms"}
    untraced = report["passes"][0]
    assert untraced["wall_s"] == pytest.approx(
        bench.at_reference(untraced["raw_wall_s"], untraced["probe_ms"] / 1e3))
    assert set(report["per_layer"]) == {name for name, _ in bench.PER_LAYER}
    assert all(math.isfinite(v["value"]) for v in report["per_layer"].values())
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(report["machine"])
    assert len(report["setup_samples_s"]) >= 2
    probe = {p["command"]: (p["exit"], p["expected"]) for p in report["defaults_probe"]}
    assert probe == {"effective": (0, 0), "simulate-mkdv": (2, 2)}
    layer = report["per_layer"]
    if workload == "fv_impact":
        assert layer["fv_sim.steps"]["value"] == report["passes"][1]["sizes"]["steps"]
        assert 0 < layer["fv_sim.active_fraction"]["value"] <= 1
    elif workload == "mkdv_impact":
        assert layer["spectral_sim.n_points"]["value"] == 256 * 8
        assert layer["spectral_sim.mkdv_march.us_per_step"]["value"] > 0
    else:
        assert layer["sweeps.magnetic.ms_per_row"]["value"] > 0
        assert layer["fv_sim.self_ms"]["value"] == 0
    assert (tiny / f"{workload}-seed1-trace1" / "spans.json").exists()


def test_main_prints_one_json_line_with_end_to_end_metrics(tiny, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert bench.main(["--workload", "mkdv_impact", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] == 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(bench.END_TO_END)


def test_main_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "fv_impact", "--seed", "0", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
