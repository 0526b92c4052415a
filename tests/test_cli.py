"""CLI: config validation, artifact emission, determinism, figure manifest."""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamwave import cli, fv_sim, spectral_sim
from lamwave.errors import ConfigError, LamwaveError

BENCH_LAMINATE = {
    "phases": [
        {"model": {"kind": "Gent", "G_pa": 4.7e6, "beta": 0.0132}, "rho": 930.0, "nu": 0.5,
         "mu_rel": 1.0, "br_t": 0.0},
        {"model": {"kind": "Gent", "G_pa": 0.94e6, "beta": 0.0132}, "rho": 930.0, "nu": 0.5,
         "mu_rel": 1.0, "br_t": 0.0},
    ],
    "period_m": 0.01,
}


#: the paper stack with a phase-1 permeability of 1.5 mu0, where a load product defines no load
PERMEABLE_LAMINATE = {"phases": [{**BENCH_LAMINATE["phases"][0], "mu_rel": 1.5}, BENCH_LAMINATE["phases"][1]],
                      "period_m": 0.01}


def write_config(tmp_path: Path, payload: dict, name: str = "run.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def run_ok(tmp_path, payload, subdir="out"):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / subdir
    status = cli.run(cfg, out)
    assert status == 0
    return out


def run_child(cfg: Path, out: Path) -> subprocess.CompletedProcess:
    """``python -m lamwave.cli`` in a child process, so that a run that never ends
    fails its test after 60 s instead of stalling the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lamwave.cli", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )


def recorded(monkeypatch, module, name: str) -> list:
    """The results of every later call of ``module.<name>``, in call order."""
    fn, results = getattr(module, name), []

    def spy(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


class TestValidation:
    def test_empty_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert cli.run(cfg, tmp_path / "out") == 1
        assert "missing required key 'command'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = {"command": "effective", "laminate": BENCH_LAMINATE, "params": {},
                   "surprise": 1}
        cfg = write_config(tmp_path, payload)
        assert cli.run(cfg, tmp_path / "out") == 1
        assert "surprise" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "command": "effective",\n  oops\n}\n')
        assert cli.run(path, tmp_path / "out") == 1
        assert "line 3" in capsys.readouterr().err

    def test_bad_phase_value_is_anchored(self, tmp_path, capsys):
        payload = {"command": "effective", "laminate": json.loads(json.dumps(BENCH_LAMINATE))}
        payload["laminate"]["phases"][1]["rho"] = -1.0
        cfg = write_config(tmp_path, payload)
        assert cli.run(cfg, tmp_path / "out") == 1
        assert "phases[1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "params", "extra", "key"),
        [
            ("simulate-fv", {"cells_per_layer": "abc"}, None, "params.cells_per_layer"),
            ("simulate-mkdv", {"n_points": 0}, None, "params.n_points"),
            ("simulate-mkdv", {"n_points": 2, "window_factor": 8}, None, "params.n_points"),
            ("simulate-mkdv", {"n_points": 16, "window_factor": 8}, None, "params.n_points"),
            ("dispersion", {"n": -5}, None, "params.n"),
            ("soliton", {"n": 10.5}, None, "params.n"),
            ("bandgap", {"n_scan": 10}, None, "params.n_scan"),
            ("sweep", {"variable": "modulus_contrast", "lo": 0.5, "hi": 2.0, "n": 3.7}, None,
             "params.n"),
            ("sweep", {"variable": "temperature", "lo": 0.0, "hi": 1.0}, None, "variable"),
            ("sweep", {"variable": "modulus_contrast", "lo": 2.0, "hi": 0.5}, None, "lo"),
            ("sweep", {"variable": "volume_fraction_2", "lo": 0.0, "hi": 1.2}, None, "hi"),
            ("simulate-fv", {"V_over_c": -1.0}, None, "params.V_over_c"),
            ("simulate-mkdv", {"V_over_c": 0.0}, None, "params.V_over_c"),
            ("simulate-fv", {"limiter": "superbee"}, None, "params.limiter"),
            ("simulate-fv", {"probes_y_star_multiples": ["x"]}, None,
             "params.probes_y_star_multiples[0]"),
            ("effective", {}, {"load": {"b_t": float("nan")}}, "load.b_t"),
            ("simulate-fv", {"wavelengths_per_period": 0}, None, "params.wavelengths_per_period"),
            ("simulate-mkdv", {"viscosity": -1.0, "window_factor": 8}, None, "params.viscosity"),
            ("simulate-fv", {"cells_per_layer": 5}, None, "params.cells_per_layer"),
            ("simulate-fv", {"t_final_factor": -1.0}, None, "params.t_final_factor"),
            ("simulate-mkdv", {"dy_m": 0.0}, None, "params.dy_m"),
            ("simulate-mkdv", {"window_factor": 2.0}, None, "params.window_factor"),
            ("bandgap", {"omega_max_over_pi": 0.0}, None, "params.omega_max_over_pi"),
            ("dispersion", {"omega_max_over_pi": -1.0}, None, "params.omega_max_over_pi"),
            ("dispersion", {"omega_max_over_pi": 1e300}, None, "params.omega_max_over_pi"),
            ("bandgap", {"omega_max_over_pi": 1e300}, None, "params.omega_max_over_pi"),
            ("simulate-fv", {"V_over_c": float("inf")}, None, "params.V_over_c"),
            # the xi grid -xi_max..xi_max spans 2 xi_max
            ("soliton", {"xi_max": 1e308}, None, "params.xi_max"),
            ("soliton", {"xi_max": -1e308}, None, "params.xi_max"),
            ("effective", {"foo": 1}, None, "params"),
            ("magnetostatic", {"foo": 1}, None, "params"),
            ("simulate-mkdv", {"t_final_factor": 1.25}, None, "params.t_final_factor: unknown key"),
            ("sweep", {"variable": "magnetic_load_product", "lo": -1.7e308, "hi": 1.7e308}, None,
             "params: sweep range"),
            # a contrast end whose phase-2 modulus leaves the normal float range
            ("sweep", {"variable": "modulus_contrast", "lo": 1.0, "hi": 1e308}, None, "params.hi"),
            ("sweep", {"variable": "modulus_contrast", "lo": 1e-320, "hi": 1.0}, None, "params.lo"),
            # only null or a missing key means the defaults
            ("effective", [], None, "params: expected an object"),
            ("effective", 0, None, "params: expected an object"),
            ("effective", False, None, "params: expected an object"),
            ("effective", "", None, "params: expected an object"),
            # a load product, given or swept, needs the vacuum permeability
            ("effective", {}, {"laminate": PERMEABLE_LAMINATE, "load": {"bn_br_product": 1.0}},
             "load.bn_br_product: bn_br_product only defines the load"),
            ("sweep", {"variable": "magnetic_load_product", "lo": -1.0, "hi": 1.0},
             {"laminate": PERMEABLE_LAMINATE}, "params.variable: bn_br_product only defines the load"),
        ],
        ids=[
            "cells_per_layer-str", "n_points-zero", "n_points-2", "n_points-16",
            "dispersion-n-negative", "soliton-n-fraction",
            "n_scan-small", "sweep-n-fraction", "sweep-variable", "sweep-lo-above-hi",
            "sweep-volume-fraction", "fv-V-negative", "mkdv-V-zero", "limiter", "probe-str",
            "b_t-nan", "wavelengths-zero", "viscosity-negative", "cells_per_layer-odd",
            "t_final_factor-negative", "dy-zero", "window_factor-small", "bandgap-omega-zero",
            "dispersion-omega-negative", "dispersion-omega-1e300", "bandgap-omega-1e300",
            "V-infinite", "xi_max-1e308", "xi_max-minus-1e308", "effective-unknown-key",
            "magnetostatic-unknown-key",
            "mkdv-t_final_factor", "sweep-range-overflow", "contrast-modulus-overflow",
            "contrast-modulus-subnormal", "params-list", "params-zero",
            "params-false", "params-empty-string", "load-product-permeable", "sweep-load-product-permeable",
        ],
    )
    def test_bad_param_exits_1_with_key_path(self, tmp_path, capsys, command, params, extra, key):
        """``extra`` holds top-level keys that replace or join those of the payload."""
        payload = {"command": command, "laminate": BENCH_LAMINATE, "params": params, **(extra or {})}
        cfg = write_config(tmp_path, payload)
        assert cli.run(cfg, tmp_path / "out") == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert key in err

    @pytest.mark.parametrize("command", ["effective", "magnetostatic", "dispersion", "bandgap", "soliton"])
    def test_documented_defaults_run(self, tmp_path, command):
        run_ok(tmp_path, {"command": command, "laminate": BENCH_LAMINATE, "params": {}})

    @pytest.mark.parametrize(
        "command, params, load, modulus",
        [
            ("effective", None, {"bn_br_product": 1e14}, None),
            ("soliton", {"speed_ratio": 1e300}, None, None),
            ("soliton", {"speed_ratio": -1e300}, None, None),
            ("soliton", {"speed_ratio": 1e-300}, None, None),
            ("effective", None, None, 1e300),
            ("effective", None, None, 1e-300),
            ("dispersion", {"n": 1e300}, None, None),
            # omega_max_over_pi at its cap n_scan/4: the gap numbers overflow memory
            ("bandgap", {"n_scan": 1e300, "omega_max_over_pi": 1e300 / 4}, None, None),
            ("soliton", {"n": 1e300}, None, None),
            ("sweep", {"variable": "magnetic_load_product", "lo": -1.0, "hi": 1.0, "n": 1e300}, None, None),
            # arrays of more than 2**47 bytes: the allocation fails at once, it never pages
            ("dispersion", {"n": 1e15}, None, None),
            ("bandgap", {"n_scan": 1e15, "omega_max_over_pi": 1e15 / 4}, None, None),
            ("soliton", {"n": 1e15}, None, None),
            ("sweep", {"variable": "magnetic_load_product", "lo": -1.0, "hi": 1.0, "n": 1e15}, None, None),
            ("simulate-mkdv", {"n_points": 1e15, "window_factor": 8}, None, None),
            ("simulate-fv", {"cells_per_layer": 1e15}, None, None),
            # runs too long to record: 4e298 march steps, 1e301 layer periods
            ("simulate-mkdv", {"dy_m": 1e-300, "window_factor": 8}, None, None),
            ("simulate-fv", {"t_final_factor": 1e300}, None, None),
            # the shock distance (c / V)**2 overflows
            ("simulate-fv", {"V_over_c": 1e-300}, None, None),
            ("simulate-mkdv", {"V_over_c": 1e-300, "window_factor": 8}, None, None),
            # y* (c / V)**2 is finite, and the run or the window it needs is too large
            ("simulate-fv", {"V_over_c": 1e-150}, None, None),
            ("simulate-mkdv", {"V_over_c": 1e-150, "window_factor": 8}, None, None),
            ("simulate-fv", {"probes_y_star_multiples": [1e300]}, None, None),
            ("simulate-mkdv", {"probes_y_star_multiples": [1e300], "window_factor": 8}, None, None),
            ("simulate-fv", {"wavelengths_per_period": 1e300}, None, None),
            ("simulate-mkdv", {"wavelengths_per_period": 1e300}, None, None),
            # runs too large to hold or to finish in hours: 9.5e8 cells (about 130 GB),
            # 3.4e8 march steps, 1.7e9 probe samples of 2**17 probes
            ("simulate-fv", {"wavelengths_per_period": 1e6}, None, None),
            ("simulate-mkdv", {"wavelengths_per_period": 1e6, "window_factor": 8}, None, None),
            ("simulate-fv", {"probes_y_star_multiples": [1.0 + i / 2**17 for i in range(2**17)]}, None, None),
            # windows too short for the farthest probe: the documented defaults, and a slow impact
            ("simulate-mkdv", {"window_factor": 4.0}, None, None),
            ("simulate-mkdv", {"window_factor": 8, "V_over_c": 0.1}, None, None),
            # speed_ratio * c overflows to inf
            ("soliton", {"speed_ratio": 1e308}, None, None),
        ],
        ids=[
            "bn_br_product-1e14", "speed_ratio-1e300", "speed_ratio-minus-1e300",
            "speed_ratio-1e-300", "G_pa-1e300", "G_pa-1e-300",
            "dispersion-n-1e300", "n_scan-1e300", "soliton-n-1e300", "sweep-n-1e300",
            "dispersion-n-1e15", "n_scan-1e15", "soliton-n-1e15", "sweep-n-1e15",
            "n_points-1e15", "cells_per_layer-1e15", "dy_m-1e-300", "t_final_factor-1e300",
            "fv-V_over_c-1e-300", "mkdv-V_over_c-1e-300", "fv-V_over_c-1e-150",
            "mkdv-V_over_c-1e-150", "fv-probes-1e300", "mkdv-probes-1e300",
            "fv-wavelengths-1e300", "mkdv-wavelengths-1e300", "fv-wavelengths-1e6", "mkdv-wavelengths-1e6",
            "fv-probes-many", "mkdv-window-defaults", "mkdv-window-V-0.1", "speed_ratio-1e308",
        ],
    )
    def test_numerical_failure_exit_code(self, tmp_path, capsys, command, params, load, modulus):
        """Library failures, extreme finite values among them, exit 2 with one stderr line
        and no artifact.

        The simulators march in a loop, so they run in a child process: one that
        starts marching instead of failing fails the test instead of hanging it."""
        payload = {"command": command, "laminate": copy.deepcopy(BENCH_LAMINATE)}
        if params is not None:
            payload["params"] = params
        if load is not None:
            payload["load"] = load
        if modulus is not None:
            payload["laminate"]["phases"][0]["model"]["G_pa"] = modulus
        cfg = write_config(tmp_path, payload)
        if command.startswith("simulate"):
            done = run_child(cfg, tmp_path / "out")
            status, err = done.returncode, done.stderr
        else:
            status, err = cli.run(cfg, tmp_path / "out"), capsys.readouterr().err
        assert status == 2
        assert "numerical failure" in err
        assert len(err.splitlines()) == 1  # no traceback, no numpy warning
        assert not any((tmp_path / "out").iterdir())  # no artifact
        # each simulate case, and each soliton speed_ratio case, sets the param at fault first
        if command.startswith("simulate") or "speed_ratio" in (params or {}):
            assert f"params.{next(iter(params))}" in err
        assert "(34," not in err  # Python's errno tuple names no quantity that overflowed

    @pytest.mark.parametrize("case", ["out-is-a-file", "manifest-list", "manifest-malformed"])
    def test_unusable_out_exits_1(self, tmp_path, case):
        """An output directory that cannot be made, or whose manifest is not a JSON
        object, exits 1 with one error line naming the path, before the run starts."""
        cfg = write_config(tmp_path, VALID_CONFIGS["effective"])
        out = tmp_path / "out"
        if case == "out-is-a-file":
            out.write_text("")
            named = out
        else:
            out.mkdir()
            named = out / "manifest.json"
            named.write_text("[1,2]" if case == "manifest-list" else "{bad")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        done = run_child(cfg, out)
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and str(named) in line
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, stem, suffix", [
        ("effective", "effective", "json"),
        ("dispersion", "dispersion_folded", "csv"),
    ])
    def test_unwritable_artifact_exits_1(self, tmp_path, command, stem, suffix):
        """A write that fails, here on a directory standing at an artifact's path,
        exits 1 with one error line naming that path, and the manifest keeps the
        bytes it had: a run enters it only once all its files are written."""
        out = run_ok(tmp_path, VALID_CONFIGS["bandgap"])
        manifest = (out / "manifest.json").read_bytes()
        payload = VALID_CONFIGS[command]
        cfg = write_config(tmp_path, payload, "blocked.json")
        blocked = out / f"{stem}_{cli.config_hash(payload)}.{suffix}"
        blocked.mkdir()
        done = run_child(cfg, out)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith(f"error: cannot write {blocked}: ")
        assert done.stdout == ""
        assert (out / "manifest.json").read_bytes() == manifest


class TestEffective:
    def test_benchmark_record(self, tmp_path):
        out = run_ok(tmp_path, {"command": "effective", "laminate": BENCH_LAMINATE})
        (payload,) = [json.loads(p.read_text()) for p in out.glob("effective_*.json")]
        assert payload["g_eff"] == pytest.approx(1.57e6, rel=0.01)
        assert payload["c"] == pytest.approx(41.0, rel=0.01)
        assert payload["zeta"] == pytest.approx(0.0924, rel=0.01)
        assert payload["eta"] == pytest.approx(0.00926, rel=0.01)

    def test_magnetostatic_stretch(self, tmp_path):
        payload = {
            "command": "magnetostatic",
            "laminate": BENCH_LAMINATE,
            "load": {"bn_br_product": 150.0},
        }
        out = run_ok(tmp_path, payload)
        (record,) = [json.loads(p.read_text()) for p in out.glob("magnetostatic_*.json")]
        assert record["stretch"] == pytest.approx(7.2, rel=0.05)


class TestArtifacts:
    def test_bandgap_records(self, tmp_path):
        payload = {"command": "bandgap", "laminate": BENCH_LAMINATE,
                   "params": {"n_scan": 4000, "omega_max_over_pi": 2.0}}
        out = run_ok(tmp_path, payload)
        (records,) = [json.loads(p.read_text()) for p in out.glob("bandgap_*.json")]
        exact = [r for r in records if r["theory"] == "exact"]
        assert exact[0]["lo_over_pi"] == pytest.approx(0.83, abs=0.01)

    def test_bandgap_bytes_do_not_depend_on_n_scan(self, tmp_path):
        """n_scan only caps omega_max_over_pi: 1000 and 10^6 write the same gap records."""
        written = []
        for n_scan in (1000, 10**6):
            payload = {"command": "bandgap", "laminate": BENCH_LAMINATE, "params": {"n_scan": n_scan}}
            (path,) = run_ok(tmp_path, payload, f"n{n_scan}").glob("bandgap_*.json")
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_dispersion_emits_both_views(self, tmp_path):
        payload = {"command": "dispersion", "laminate": BENCH_LAMINATE,
                   "params": {"n": 400}}
        out = run_ok(tmp_path, payload)
        assert list(out.glob("dispersion_*.csv"))
        assert list(out.glob("dispersion_folded_*.csv"))

    def test_soliton_summary(self, tmp_path):
        payload = {"command": "soliton", "laminate": BENCH_LAMINATE,
                   "params": {"speed_ratio": 1.026, "n": 101}}
        out = run_ok(tmp_path, payload)
        (summary,) = [json.loads(p.read_text()) for p in out.glob("soliton_*.json")]
        assert summary["max_speed_ratio"] == pytest.approx(1.052, abs=0.001)
        assert summary["max_strain"] == pytest.approx(2.63, abs=0.03)
        assert list(out.glob("soliton_waveform_*.csv"))
        assert list(out.glob("soliton_amplitude_*.csv"))

    @pytest.mark.parametrize(
        "command, params, beta",
        [
            ("soliton", {"xi_max": 1000}, None),
            ("soliton", {"xi_max": 8e307}, None),
            ("soliton", {"speed_ratio": 1.026, "xi_max": 3.0, "n": 11}, 1e300),
            ("sweep", {"variable": "magnetic_load_product", "lo": -1.0, "hi": 1e300, "n": 3}, None),
        ],
        ids=["xi_max-1000", "xi_max-8e307", "gent-beta-1e300", "sweep-hi-1e300"],
    )
    def test_soliton_far_tail_is_silent(self, tmp_path, capsys, command, params, beta):
        """An exit-0 run whose arithmetic overflows inside numpy prints nothing.

        sech and the Gudermannian overflow far out on the soliton axis; a huge
        Gent beta or magnetic load product overflows the per-row arithmetic.
        """
        payload = {"command": command, "laminate": copy.deepcopy(BENCH_LAMINATE), "params": params}
        if beta is not None:
            payload["laminate"]["phases"][0]["model"]["beta"] = beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_ok(tmp_path, payload)
        assert capsys.readouterr().err == ""
        if params.get("xi_max") == 1000:
            (csv_path,) = out.glob("soliton_waveform_*.csv")
            last = csv_path.read_text().splitlines()[-1].split(",")
            assert float(last[1]) == 0.0  # the strain tail is exactly 0

    @pytest.mark.parametrize("kind, beta", [("FungDemiray", 0.3), ("Gent", 0.0132)])
    def test_extreme_magnetic_sweep_is_silent(self, tmp_path, capsys, kind, beta):
        """Loads up to +-1e300 in one batched stretch solve print no numpy warning.

        Past the float range inf is the intended value there, and on the Gent stack
        the extreme rows lock; the Fung-Demiray stack stiffens fast enough to solve them.
        """
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "magnetic_load_product", "lo": -1e300, "hi": 1e300, "n": 21}}
        for phase in payload["laminate"]["phases"]:
            phase["model"].update(kind=kind, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_ok(tmp_path, payload)
        assert capsys.readouterr().err == ""
        (csv_path,) = out.glob("sweep_*.csv")
        rows = [line.split(",") for line in csv_path.read_text().splitlines() if line[0] != "#"]
        locked = [int(row[rows[0].index("locked")]) for row in rows[1:]]
        if kind == "Gent":
            assert locked[0] == locked[-1] == 1 and locked[10] == 0
        else:
            assert not any(locked)

    @pytest.mark.parametrize("command, params, load", [
        ("sweep", {"variable": "magnetic_load_product", "lo": -1.7e308, "hi": -1e308, "n": 3}, None),
        ("magnetostatic", {}, -1.7e308),
        ("magnetostatic", {}, 5e307),
    ])
    def test_overflowing_stretch_residual(self, tmp_path, capsys, command, params, load):
        """A Fung-Demiray stretch solve whose residual overflows at the root has no root:
        a sweep flags each such row locked, and magnetostatic exits 2 naming the overflow."""
        payload = {"command": command, "laminate": copy.deepcopy(BENCH_LAMINATE), "params": params}
        for phase in payload["laminate"]["phases"]:
            phase["model"].update(kind="FungDemiray", beta=0.3)
        if load is not None:
            payload["load"] = {"bn_br_product": load}
        status = cli.run(write_config(tmp_path, payload), tmp_path / "out")
        if command == "sweep":
            assert status == 0
            (csv_path,) = (tmp_path / "out").glob("sweep_*.csv")
            rows = [line.split(",") for line in csv_path.read_text().splitlines() if line[0] != "#"]
            assert [row[rows[0].index("locked")] for row in rows[1:]] == ["1", "1", "1"]
        else:
            assert status == 2
            assert "overflows" in capsys.readouterr().err

    def test_locked_notes_reach_the_summary(self, tmp_path):
        """Each locked row of a magnetic sweep says why in the summary JSON, in row order;
        the summary of a sweep with no locked row carries an empty list."""
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "magnetic_load_product", "lo": -1.7e308, "hi": -1e308, "n": 3}}
        for phase in payload["laminate"]["phases"]:
            phase["model"].update(kind="FungDemiray", beta=0.5)
        (summary_path,) = run_ok(tmp_path, payload).glob("sweep_*.json")
        notes = json.loads(summary_path.read_text())["locked_notes"]
        assert [n["load_product"] for n in notes] == [-1.7e308, -1.35e308, -1e308]
        assert all("overflows" in n["note"] for n in notes)
        (summary_path,) = run_ok(tmp_path, VALID_CONFIGS["sweep"], "free").glob("sweep_*.json")
        assert json.loads(summary_path.read_text())["locked_notes"] == []

    def sweep_rows(self, out: Path) -> tuple[list[dict], dict]:
        """The rows of a run's sweep CSV, as floats by column, and its summary."""
        (csv_path,) = out.glob("sweep_*.csv")
        (summary_path,) = out.glob("sweep_*.json")
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines() if line[0] != "#"]
        return [dict(zip(header, map(float, row))) for row in rows], json.loads(summary_path.read_text())

    def test_too_strong_dispersion_loses_its_rows(self, tmp_path):
        """At density contrast 10 the contrasts from 6.76 to 10 give eta >= 1/(2 pi^2), where
        the optimised triple does not exist: those 18 rows read NaN homogenised gaps and soliton
        bounds, with finite exact gaps, eta and zeta; every other row keeps its homogenised gap."""
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "modulus_contrast", "lo": 0.1, "hi": 10.0, "n": 201}}
        payload["laminate"]["phases"][1]["rho"] = 9300.0
        rows, _ = self.sweep_rows(run_ok(tmp_path, payload))
        strong = [row for row in rows if row["eta"] >= 1.0 / (2.0 * math.pi**2)]
        assert len(strong) == 18 and strong[0]["modulus_contrast"] == pytest.approx(6.7608, rel=1e-4)
        for row in strong:
            assert all(math.isnan(row[key]) for key in ("gap_homog_lo", "gap_homog_hi", "max_speed_ratio",
                                                        "max_strain"))
            assert all(math.isfinite(row[key]) for key in ("gap_exact_lo", "gap_exact_hi", "eta", "zeta"))
        assert all(math.isfinite(row["gap_homog_lo"]) for row in rows if row not in strong)

    def test_overflowing_zeta_power_locks_its_row(self, tmp_path, capsys):
        """On a neo-Hookean / Fung-Demiray stack the load 1e82 stretches to 116.8, where the
        powers of zeta overflow: that row of a sweep is locked with its note, the load-0 row
        stays, and the one cell at that load exits 2."""
        laminate = {"phases": [{"model": {"kind": "neo-hookean", "G_pa": 1e6}, "rho": 930.0, "nu": 0.5},
                               {"model": {"kind": "fung-demiray", "G_pa": 1e6, "beta": 0.0132},
                                "rho": 930.0, "nu": 0.5}], "period_m": 0.01}
        payload = {"command": "sweep", "laminate": laminate,
                   "params": {"variable": "magnetic_load_product", "lo": 0.0, "hi": 1e82, "n": 2}}
        rows, summary = self.sweep_rows(run_ok(tmp_path, payload))
        assert [row["locked"] for row in rows] == [0, 1] and rows[0]["stretch"] == 1.0
        (note,) = summary["locked_notes"]
        assert note["load_product"] == 1e82 and "overflows" in note["note"]
        payload = {"command": "effective", "laminate": laminate, "load": {"bn_br_product": 1e82}}
        assert cli.run(write_config(tmp_path, payload), tmp_path / "one") == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_argmax_without_finite_entry_is_null(self, tmp_path):
        """Two identical phases have no soliton bound at any volume fraction: the summary's
        argmax_max_strain is null, a note says why, and every other key is kept."""
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "volume_fraction_2", "lo": 0.2, "hi": 0.8, "n": 5}}
        payload["laminate"]["phases"][1] = payload["laminate"]["phases"][0]
        rows, summary = self.sweep_rows(run_ok(tmp_path, payload))
        assert all(math.isnan(row["max_strain"]) for row in rows)
        assert set(summary) == {"argmax_eta", "argmax_max_strain", "speed_ratio_prediction", "note"}
        assert summary["argmax_max_strain"] is None and "max_strain" in summary["note"]

    def test_argmax_of_a_flat_column_is_null(self, tmp_path):
        """Two identical phases have eta 0 at every volume fraction: no fraction maximises it,
        so argmax_eta is null with a note, not a point of the search bracket."""
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "volume_fraction_2", "lo": 0.2, "hi": 0.8, "n": 5}}
        payload["laminate"]["phases"][1] = payload["laminate"]["phases"][0]
        rows, summary = self.sweep_rows(run_ok(tmp_path, payload))
        assert all(row["eta"] == 0.0 for row in rows)
        assert summary["argmax_eta"] is None and "argmax_eta is null" in summary["note"]

    def test_contrast_sweep_without_a_gap_is_null(self, tmp_path):
        """Two identical phases swept over contrasts within an ulp of 1 have no first gap on
        any row: the summary's maximum gap and its contrast are null with a note, and the
        run exits 0 with no numpy warning."""
        payload = {"command": "sweep", "laminate": copy.deepcopy(BENCH_LAMINATE),
                   "params": {"variable": "modulus_contrast", "lo": 1.0, "hi": 1.0000000000000004, "n": 2}}
        payload["laminate"]["phases"][1] = payload["laminate"]["phases"][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows, summary = self.sweep_rows(run_ok(tmp_path, payload))
        assert all(math.isnan(row["gap_exact_lo"]) for row in rows)
        assert summary == {"max_gap_width": None, "contrast_at_max_gap": None, "note": "no row has a first gap"}

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        """A run that exits 2 after some of its tables are computed writes none of them:
        two identical phases (eta = 0) have a waveform table but no existence bound."""
        laminate = copy.deepcopy(BENCH_LAMINATE)
        laminate["phases"][1] = laminate["phases"][0]
        cfg = write_config(tmp_path, {"command": "soliton", "laminate": laminate})
        out = tmp_path / "out"
        assert cli.run(cfg, out) == 2
        assert "numerical failure in soliton" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("limiter", ["minmod", "mc"])
    def test_overflowing_fv_speed_exits_2(self, tmp_path, capsys, limiter):
        """An impact at V_over_c 1e150 overflows the FV fields within a few steps: the
        speed check stops the run with exit 2 and one line naming the speed, no numpy
        warning is raised, and nothing is written."""
        payload = {"command": "simulate-fv", "laminate": BENCH_LAMINATE,
                   "params": {"V_over_c": 1e150, "limiter": limiter}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the run
            assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure in simulate-fv: signal speed ")
        assert "Traceback" not in line
        assert list(out.iterdir()) == []

    def test_non_finite_march_exits_2(self, tmp_path, capsys):
        """At V_over_c 1e110 and dy_m 1e-222 the cube of the spectral field overflows and
        its transform turns NaN: the blow-up check stops the march with exit 2 and one
        line, no numpy warning is raised, and nothing is written."""
        payload = {"command": "simulate-mkdv", "laminate": BENCH_LAMINATE,
                   "params": {"V_over_c": 1e110, "window_factor": 8, "dy_m": 1e-222}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure in simulate-mkdv: spectral amplitude ")
        assert "not finite" in line
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cells_per_layer", [4, 32])
    def test_runaway_fv_speed_exits_2(self, tmp_path, capsys, monkeypatch, cells_per_layer):
        """At V_over_c 1e20 the nonlinear speed, and with it the step count, grows without
        bound long before the fields overflow: on a coarse and on the default grid the
        speed bound stops the run within a few steps, with exit 2 and one line naming
        params.V_over_c, and nothing is written."""
        from lamwave import fv_sim

        step, steps = fv_sim.step, []
        monkeypatch.setattr(fv_sim, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
        payload = {"command": "simulate-fv", "laminate": BENCH_LAMINATE,
                   "params": {"V_over_c": 1e20, "cells_per_layer": cells_per_layer}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure in simulate-fv: signal speed ")
        assert "times the fastest linear speed" in line and line.endswith("(params.V_over_c)")
        assert len(steps) < 100
        assert list(out.iterdir()) == []

    def test_fv_speed_bound(self, tmp_path, capsys, monkeypatch):
        """fv_sim.MAX_SPEEDUP just below a small run's own peak ratio of signal speed to
        fastest linear speed stops it with exit 2 naming params.V_over_c, and nothing is
        written; just above, the run writes the bytes of the run at the default bound."""
        from lamwave import fv_sim

        step, ratios = fv_sim.step, []

        def traced(state, grid, dt_max, **kw):  # c_max from the dt of every step dt_max did not cut
            dt = step(state, grid, dt_max=dt_max, **kw)
            ratios.append(fv_sim.CFL * grid.dy / dt / grid.c_tail[0] if dt < dt_max else 0.0)
            return dt

        monkeypatch.setattr(fv_sim, "step", traced)
        payload = {"command": "simulate-fv", "laminate": BENCH_LAMINATE,
                   "params": SMALL_SIM["simulate-fv"]}
        free = run_ok(tmp_path, payload, "free")
        peak = max(ratios)
        assert peak > 1.0
        monkeypatch.setattr(fv_sim, "MAX_SPEEDUP", peak * (1.0 - 1e-9))
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure in simulate-fv: signal speed ") and line.endswith("(params.V_over_c)")
        assert list(out.iterdir()) == []
        monkeypatch.setattr(fv_sim, "MAX_SPEEDUP", peak * (1.0 + 1e-9))
        near = run_ok(tmp_path, payload, "near")
        assert {p.name: p.read_bytes() for p in near.iterdir()} == {p.name: p.read_bytes() for p in free.iterdir()}

    def test_sweep_artifacts_and_manifest(self, tmp_path, capsys):
        """Every command's manifest entry lists exactly the files its run wrote, its
        CSV tables first in their stated order, then its JSON summary; stdout prints
        the same paths."""
        volume_sweep = {"command": "sweep", "laminate": BENCH_LAMINATE,
                        "params": {"variable": "volume_fraction_2", "lo": 0.1, "hi": 0.9, "n": 9}}
        cases = [
            ("effective", [], ""),
            ("magnetostatic", [], ""),
            ("dispersion", ["dispersion", "dispersion_folded"], "fig3"),
            ("bandgap", [], "fig3"),
            ("soliton", ["soliton_waveform", "soliton_amplitude"], "fig4a+fig4b"),
            ("sweep", ["sweep"], "fig6a+fig6b"),
            ("simulate-fv", ["simulate_fv"], "fig5"),
            ("simulate-mkdv", ["simulate_mkdv"], "fig5"),
            ("sweep-volume_fraction_2", ["sweep"], "fig7"),
        ]
        assert {case for case, _, _ in cases} >= set(VALID_CONFIGS)
        for case, stems, figure in cases:
            payload = VALID_CONFIGS.get(case, volume_sweep)
            command, tag = payload["command"], cli.config_hash(payload)
            out = run_ok(tmp_path, payload, case)
            manifest = json.loads((out / "manifest.json").read_text())
            assert list(manifest) == [f"{command}_{tag}"]
            entry = manifest[f"{command}_{tag}"]
            assert entry == {
                "command": command,
                "figure": figure,
                "files": [f"{stem}_{tag}.csv" for stem in stems]
                + [f"{command.replace('-', '_')}_{tag}.json"],
            }
            assert sorted(entry["files"] + ["manifest.json"]) == sorted(p.name for p in out.iterdir())
            printed = capsys.readouterr().out.splitlines()
            assert printed == [str(out / name) for name in entry["files"]]

    def test_csv_header_comments(self, tmp_path):
        payload = {"command": "sweep", "laminate": BENCH_LAMINATE,
                   "params": {"variable": "modulus_contrast", "lo": 0.1, "hi": 10.0, "n": 5}}
        out = run_ok(tmp_path, payload)
        (csv_path,) = out.glob("sweep_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# variable: modulus_contrast")
        header_line = next(l for l in lines if not l.startswith("#"))
        assert "modulus_contrast" in header_line.split(",")


class TestSimulation:
    def small_sim_payload(self, command):
        return {"command": command, "laminate": BENCH_LAMINATE, "params": dict(SMALL_SIM[command])}

    @pytest.mark.parametrize("command, key, value", [
        ("simulate-fv", "window_factor", 8.0),
        ("simulate-fv", "n_points", 1024),
        ("simulate-fv", "dy_m", 7.81e-5),
        ("simulate-fv", "viscosity", 1e-8),
        ("simulate-mkdv", "cells_per_layer", 32),
        ("simulate-mkdv", "limiter", "minmod"),
    ])
    def test_other_simulators_key_exits_1(self, tmp_path, capsys, command, key, value):
        """A discretisation key of the other simulate command, even at its own default, is
        a config error: exit 1, one stderr line naming params.<key>, and no artifact."""
        payload = self.small_sim_payload(command)
        payload["params"][key] = value
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, payload), out) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: params.{key}: unknown key")
        assert not out.exists()

    def probe_csv(self, tmp_path, command):
        """Probe CSV lines (comments dropped) and the summary of one small run."""
        out = run_ok(tmp_path, self.small_sim_payload(command))
        stem = command.replace("-", "_")
        (csv_path,) = out.glob(f"{stem}_*.csv")
        (summary_path,) = out.glob(f"{stem}_*.json")
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        summary = json.loads(summary_path.read_text())
        # the summary peak is read off the same traces the CSV holds
        assert summary["peak_v_over_c"] == max(abs(float(l.split(",")[2])) for l in lines[1:])
        return lines

    def test_simulate_fv_probe_csv(self, tmp_path):
        lines = self.probe_csv(tmp_path, "simulate-fv")
        assert lines[0] == "t_s,t_norm,v_over_c,probe_y_m,theory"
        assert lines[1].endswith(",fv")

    def test_simulate_fv_golden_bytes(self, tmp_path):
        """CSV and JSON bytes of one small FV run are pinned: no refactor may drift them."""
        out = run_ok(tmp_path, VALID_CONFIGS["simulate-fv"])
        (csv_path,) = out.glob("simulate_fv_*.csv")
        (json_path,) = out.glob("simulate_fv_*.json")
        digest = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path)}
        assert digest == {
            ".csv": "499275b4c2a4b1c2f6bddeabe1340e7e7854d8ab6c242160251ac8c7b084e1ad",
            ".json": "25fdc36621a4a8098ca90ce7bdd595fd9a5363c6258f9c82e15f6910c33635b2",
        }

    def test_simulate_fv_floor_zero_bytes(self, tmp_path, monkeypatch):
        """At precursor floor 0 the small FV run's CSV is pinned: nothing is flushed, so the
        active window keeps every bit of whole-grid stepping, and no refactor may move one."""
        monkeypatch.setattr(fv_sim, "PRECURSOR_FLOOR", 0.0)
        out = run_ok(tmp_path, VALID_CONFIGS["simulate-fv"])
        (csv_path,) = out.glob("simulate_fv_*.csv")
        assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
                == "01e92cdc10e121146c3687f23e09380498a88f7f026b7ac7efbe6626710fe938")

    def test_simulate_mkdv_golden_bytes(self, tmp_path):
        """CSV and JSON bytes of one small spectral march are pinned: no refactor may drift them."""
        out = run_ok(tmp_path, VALID_CONFIGS["simulate-mkdv"])
        (csv_path,) = out.glob("simulate_mkdv_*.csv")
        (json_path,) = out.glob("simulate_mkdv_*.json")
        digest = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path)}
        assert digest == {
            ".csv": "4c6dcbe635b53de1efc6ec19a9e7c831ed1e6dba02432ab82c98bda41c3ea10e",
            ".json": "a952e8ff40365ed1f1d9fb11f05e0d925100d10ba31d3a748f9a9801b3931ae1",
        }

    def test_simulate_mkdv_marches_untraced(self, tmp_path, monkeypatch):
        """No command reads a per-step trace, so simulate-mkdv marches without an observer."""
        march, calls = spectral_sim.mkdv_march, []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return march(*args, **kwargs)

        monkeypatch.setattr(spectral_sim, "mkdv_march", spy)
        run_ok(tmp_path, VALID_CONFIGS["simulate-mkdv"])
        assert calls == [{}]

    def test_simulate_mkdv_summary_counters(self, tmp_path, monkeypatch):
        """The summary carries the march's step count and scheme (RK4: this run is inviscid)."""
        results = recorded(monkeypatch, spectral_sim, "mkdv_march")
        out = run_ok(tmp_path, VALID_CONFIGS["simulate-mkdv"])
        (summary_path,) = out.glob("simulate_mkdv_*.json")
        summary = json.loads(summary_path.read_text())
        assert summary["steps"] == results[0].steps == len(results[0].grad_y) - 1 > 0
        assert summary["scheme"] == results[0].scheme == "rk4"

    def test_simulate_fv_summary_counters(self, tmp_path, monkeypatch):
        """The summary carries the run's time steps and the cells they updated."""
        results = recorded(monkeypatch, fv_sim, "simulate")
        out = run_ok(tmp_path, self.small_sim_payload("simulate-fv"))
        (summary_path,) = out.glob("simulate_fv_*.json")
        summary = json.loads(summary_path.read_text())
        (res,) = results
        assert summary["steps"] == res.steps > 0
        assert summary["cell_steps"] == res.cell_steps
        assert res.steps * fv_sim._BLOCK <= res.cell_steps < res.steps * len(res.state.gamma)

    def test_unresolved_probes_reported(self, tmp_path):
        """At V_over_c 1e100, y* is 8.5e-201 m: both probes round to march step 0 and record
        the boundary signal.  The run still exits 0, and the summary names them."""
        payload = {"command": "simulate-mkdv", "laminate": BENCH_LAMINATE,
                   "params": {"V_over_c": 1e100}}
        out = run_ok(tmp_path, payload)
        (summary_path,) = out.glob("simulate_mkdv_*.json")
        summary = json.loads(summary_path.read_text())
        assert summary["steps"] == 0
        assert summary["unresolved_probes"] == [1.0, 2.0]

    def test_unresolved_fv_probe_reported(self, tmp_path):
        """A probe inside the first FV cell is named; one farther out, and every probe of
        a run that resolves them all, is not."""
        payload = self.small_sim_payload("simulate-fv")
        payload["params"]["probes_y_star_multiples"] = [1e-6, 0.1]
        out = run_ok(tmp_path, payload)
        (summary_path,) = out.glob("simulate_fv_*.json")
        assert json.loads(summary_path.read_text())["unresolved_probes"] == [1e-6]
        out = run_ok(tmp_path, self.small_sim_payload("simulate-fv"), subdir="resolved")
        (summary_path,) = out.glob("simulate_fv_*.json")
        assert "unresolved_probes" not in json.loads(summary_path.read_text())

    @staticmethod
    def sized(command, params):
        """The cell state, the resolved params and the impact plan of one simulate config."""
        cfg = cli.parse_config({"command": command, "laminate": BENCH_LAMINATE, "params": params})
        st = cli._cell(cfg)
        return st, cfg["params"], cli._plan(st, command, cfg["params"])[1]

    def test_fv_size_matches_the_run(self, tmp_path, monkeypatch):
        """The plan holds the cells of the grid the run builds and a float a step for its clock
        and each probe, and its step estimate is within 3% of the steps of a low-amplitude
        run, whose speeds stay near the linear ones."""
        params = {"V_over_c": 0.3, "probes_y_star_multiples": [0.02, 0.01], "cells_per_layer": 4}
        plan = self.sized("simulate-fv", params)[2]
        grids = recorded(monkeypatch, fv_sim, "build_grid")
        results = recorded(monkeypatch, fv_sim, "simulate")
        run_ok(tmp_path, {"command": "simulate-fv", "laminate": BENCH_LAMINATE, "params": params})
        assert plan.n_cells == grids[0].n_cells
        assert plan.steps == pytest.approx(results[0].steps, rel=0.03)
        assert plan.work == plan.n_cells * plan.steps
        assert plan.held == pytest.approx(plan.n_cells * fv_sim.BYTES_PER_CELL + 8 * 3 * plan.steps, rel=1e-12)

    def test_mkdv_size_matches_the_run(self, tmp_path, monkeypatch):
        """The plan holds the window's points and a window of floats for each of two probe
        records, computes points x the march's steps, and stops where the march stops."""
        results = recorded(monkeypatch, spectral_sim, "mkdv_march")
        params = {**SMALL_SIM["simulate-mkdv"], "probes_y_star_multiples": [0.1, 0.05]}
        plan = self.sized("simulate-mkdv", params)[2]
        run_ok(tmp_path, {"command": "simulate-mkdv", "laminate": BENCH_LAMINATE, "params": params})
        (res,) = results
        assert res.steps > 2
        assert list(plan.probe_index) == res.stops and plan.steps == res.steps
        assert plan.held == res.config.n_points * (spectral_sim.BYTES_PER_POINT + 8 * 2)
        assert plan.work == res.config.n_points * res.steps

    @pytest.mark.parametrize("command, params", [
        ("simulate-fv", {}), ("simulate-mkdv", {}), ("simulate-mkdv", {"window_factor": 8}),
    ])
    def test_documented_runs_sit_far_under_the_caps(self, command, params):
        """The documented defaults and the benchmark's window_factor 8 hold and compute at least
        1000 times less than MAX_HELD and MAX_WORK."""
        plan = self.sized(command, params)[2]
        assert 1000 * plan.held <= cli.MAX_HELD and 1000 * plan.work <= cli.MAX_WORK

    def test_run_is_sized_as_given(self, tmp_path):
        """V_over_c 0.1 is too large at the default probes and cells, but a run of its own near
        probe and 4 cells a layer is small, and runs."""
        params = {"V_over_c": 0.1, "probes_y_star_multiples": [0.02], "cells_per_layer": 4}
        st, q, _ = self.sized("simulate-fv", {"V_over_c": 0.1})
        with pytest.raises(LamwaveError, match="params.V_over_c"):
            cli._check_sizes(st, "simulate-fv", q)
        run_ok(tmp_path, {"command": "simulate-fv", "laminate": BENCH_LAMINATE, "params": params})

    @pytest.mark.parametrize("params, least", [({}, "4.6519"), ({"V_over_c": 0.1, "window_factor": 8}, "1062.7579")])
    def test_window_rule_names_its_key(self, tmp_path, capsys, params, least):
        """A window too short for the farthest probe exits 2, before the march allocates, with
        one line naming params.window_factor and the least factor that holds the probe,
        rounded up to 4 decimals: 4.651894... at the documented defaults, 1062.75785... at
        V_over_c 0.1."""
        out = tmp_path / "out"
        payload = {"command": "simulate-mkdv", "laminate": BENCH_LAMINATE, "params": params}
        assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(f" forcing durations and needs {least} (params.window_factor)")
        assert list(out.iterdir()) == []

    def test_layers_not_whole_cells_name_their_key(self, tmp_path, capsys):
        """A laminate whose phase-1 layer is not whole cells at the given cells_per_layer exits 2
        with one line naming params.cells_per_layer, before it is sized; at 14 cells a layer
        both layers are whole cells, and the same impact runs."""
        laminate = copy.deepcopy(BENCH_LAMINATE)
        laminate["phases"][0]["nu"], laminate["phases"][1]["nu"] = 0.3, 0.7
        payload = {"command": "simulate-fv", "laminate": laminate,
                   "params": dict(SMALL_SIM["simulate-fv"], cells_per_layer=4)}
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, payload), out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("numerical failure in simulate-fv: phase-1 layer is not an integer number of cells: "
                        "0.003 / 0.00175 (params.cells_per_layer)")
        assert list(out.iterdir()) == []
        payload["params"]["cells_per_layer"] = 14
        run_ok(tmp_path, payload, "whole")

    def test_simulate_mkdv_probe_csv(self, tmp_path):
        lines = self.probe_csv(tmp_path, "simulate-mkdv")
        assert lines[0] == "t_s,t_norm,v_over_c,probe_y_m,theory"
        assert lines[1].endswith(",mkdv")

    @pytest.mark.parametrize("command", ["simulate-fv", "simulate-mkdv"])
    def test_one_block_per_requested_probe(self, tmp_path, command):
        """Both commands write the requested y, in config order, one block per probe,
        a repeated probe twice."""
        multiples = [0.2, 0.1, 0.1]
        payload = self.small_sim_payload(command)
        payload["params"]["probes_y_star_multiples"] = multiples
        out = run_ok(tmp_path, payload)
        stem = command.replace("-", "_")
        (csv_path,) = out.glob(f"{stem}_*.csv")
        (summary_path,) = out.glob(f"{stem}_*.json")
        y_star = json.loads(summary_path.read_text())["y_star_m"]
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        n = len(rows) // len(multiples)
        assert n > 1 and len(rows) == n * len(multiples)
        blocks = [rows[i * n:(i + 1) * n] for i in range(len(multiples))]
        assert [{float(r[3]) for r in b} for b in blocks] == [{m * y_star} for m in multiples]
        assert [r[:3] for r in blocks[1]] == [r[:3] for r in blocks[2]]


#: The eight runs of the tunability benchmark on the paper stack (the three sweeps over
#: the paper's ranges and the five fast commands at their defaults, at zero load), as
#: (command, params), with the sha256 of every file each writes.
TUNABILITY_GOLDEN = {
    "sweep-magnetic_load_product": (
        "sweep", {"variable": "magnetic_load_product", "lo": -3.0, "hi": 3.0}, {
            "manifest.json": "6f51eb5b855873b9f51baefa50c3652419254a199f51472e53dfc52bf91d6238",
            "sweep_2dc9ce0c3260.csv": "51f27ed10149d9909c626aa3f6c4a148640ba568c53a89be6528c41c15ab7d32",
            "sweep_2dc9ce0c3260.json": "5b71e8bae1042632c9a5bfae55465b081b0c5f14186abb959937327639339c7d",
        }),
    "sweep-volume_fraction_2": (
        "sweep", {"variable": "volume_fraction_2", "lo": 0.05, "hi": 0.95}, {
            "manifest.json": "e9c7367a2732ed1190b3dfbb45c404452021bb7b7cd47ec6d1b6ef946de6078d",
            "sweep_29a447555128.csv": "c916a5d6ced30b70a5775cc924fc79f13d00b4ee6b3e74afe5a28e540bf22c0e",
            "sweep_29a447555128.json": "649c3c7cb8de248ae638351668444cec79f679043c31d3a4bbd8a370348b1367",
        }),
    "sweep-modulus_contrast": (
        "sweep", {"variable": "modulus_contrast", "lo": 0.1, "hi": 10.0}, {
            "manifest.json": "ed9f9da2ce68a7687e2c0d689a647b03fc507cb4f21c27f73c5555658087a705",
            "sweep_46ce193680db.csv": "93ce88327dfa57492f3ec7b32b82217df047213babd6b1f41310ba27fcecf0d9",
            "sweep_46ce193680db.json": "ee7b6287af4f21a6cd2a8d1e7537347c671f032114252bed230dc8b8f5c67cd5",
        }),
    "effective": ("effective", {}, {
        "effective_6e62957c9697.json": "94f2bfe689e96ee6baf6d0ace75a9766d6e8a5f32623ce476a7229a2c8c17ae4",
        "manifest.json": "43138a41ed1fc80add49bd4ff3a8da1ba714bb46f83eb733bee3c2fd5a727616",
    }),
    "magnetostatic": ("magnetostatic", {}, {
        "magnetostatic_7794e872b28a.json": "194fb8cba9910129c6b60ecd5b2316af5533e95d604fe798b0cc1d7ee6b6c422",
        "manifest.json": "3f7f95482e0c0eacbda86ae5e210ef639f74be5d677d78c7342e097df445ec05",
    }),
    "soliton": ("soliton", {}, {
        "manifest.json": "5033810d63346bc6a729bf307448819f90f0359b3d4078a6c0f4dc12fe80c4d9",
        "soliton_8e5caf3d7687.json": "357aa13d1cf0f8abbc09582d2288e9505a184defefe74bce743ca85d5b6f9620",
        "soliton_amplitude_8e5caf3d7687.csv": "3b913a4371a14d85cce0673272fa4f31f3def67ae34ee29f634d19536538ab8d",
        "soliton_waveform_8e5caf3d7687.csv": "7192066cc4eea0f2299b6a35a3e27ffc469b4dc889304be69be6e518c5947901",
    }),
    "bandgap": ("bandgap", {}, {
        "bandgap_5a746a515003.json": "4a64c2eaba844aa496effa69dc070366df19f23d247c7088a56dbe147ffd38fa",
        "manifest.json": "dc9934cf836a1938130d242681b017860a840f109d44bf91a5b7841efae022e1",
    }),
    "dispersion": ("dispersion", {}, {
        "dispersion_90e3dfc5b7ff.csv": "4d4127ebab5178e1b2ea2ce3dd4c552f8e041c017b3a6bd77dfa81c32a9b5a70",
        "dispersion_90e3dfc5b7ff.json": "4a64c2eaba844aa496effa69dc070366df19f23d247c7088a56dbe147ffd38fa",
        "dispersion_folded_90e3dfc5b7ff.csv": "3164a114b3366245f47f53610e4ec9996689c0f8156dc78dc268cc8ac8e52b3a",
        "manifest.json": "465e28a1bada156bcc2d07b138c6b08d9983d3d21c397a677d7ea37617a82ffc",
    }),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", TUNABILITY_GOLDEN)
    def test_tunability_golden_bytes(self, tmp_path, name):
        """Every file of each tunability run is pinned: no refactor may drift a bit."""
        command, params, want = TUNABILITY_GOLDEN[name]
        out = run_ok(tmp_path, {"command": command, "laminate": BENCH_LAMINATE,
                                "load": {"b_t": 0.0}, "params": params})
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == want

    def test_identical_configs_identical_bytes(self, tmp_path):
        payload = {"command": "dispersion", "laminate": BENCH_LAMINATE, "params": {"n": 300}}
        out1 = run_ok(tmp_path, payload, "out1")
        out2 = run_ok(tmp_path, payload, "out2")
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p2.read_bytes() == p1.read_bytes()

    def test_floats_carry_17_significant_digits(self, tmp_path):
        payload = {"command": "soliton", "laminate": BENCH_LAMINATE,
                   "params": {"speed_ratio": 1.03, "n": 11, "xi_max": 3.0}}
        out = run_ok(tmp_path, payload)
        (csv_path,) = out.glob("soliton_waveform_*.csv")
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        strain_field = lines[5].split(",")[1]
        # round-trips exactly through the emitter's format
        assert format(float(strain_field), ".17g") == strain_field

    def test_threads_flag_passes_through(self, tmp_path):
        payload = {"command": "sweep", "laminate": BENCH_LAMINATE,
                   "params": {"variable": "volume_fraction_2", "lo": 0.2, "hi": 0.8, "n": 13}}
        cfg = write_config(tmp_path, payload)
        assert cli.run(cfg, tmp_path / "o1", threads=1) == 0
        assert cli.run(cfg, tmp_path / "o2", threads=4) == 0
        (c1,) = (tmp_path / "o1").glob("sweep_*.csv")
        (c2,) = (tmp_path / "o2").glob("sweep_*.csv")
        assert c1.read_bytes() == c2.read_bytes()

    def test_hash_depends_on_config(self, tmp_path):
        payload = {"command": "bandgap", "laminate": BENCH_LAMINATE, "params": {"n_scan": 2000}}
        out1 = run_ok(tmp_path, payload, "outA")
        payload2 = json.loads(json.dumps(payload))
        payload2["params"]["n_scan"] = 2500
        out2 = run_ok(tmp_path, payload2, "outB")
        names1 = {p.name for p in out1.glob("bandgap_*.json")}
        names2 = {p.name for p in out2.glob("bandgap_*.json")}
        assert names1.isdisjoint(names2)

    def test_main_entry_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "effective", "laminate": BENCH_LAMINATE})
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.count("usage: lamwave") == 1

    @pytest.mark.parametrize(
        "argv",
        [["--out", "o"], ["--config", "c.json", "--verbose"], ["--config", "c.json", "--threads", "abc"],
         ["--config", "c.json", "--seed", "7"]],
        ids=["missing-config", "unknown-flag", "threads-abc", "seed-7"],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        """A usage error exits 1, the code of a bad config, not 2, the code of a numerical
        failure; argparse's usage line still goes to stderr, and nothing runs."""
        assert cli.main([a.replace("c.json", str(tmp_path / "c.json")) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lamwave") and "error:" in err


_SMALL_IMPACT = {"V_over_c": 1.0, "wavelengths_per_period": 8, "probes_y_star_multiples": [0.1]}
#: A small impact run of each simulate command, its own keys included.
SMALL_SIM = {"simulate-fv": dict(_SMALL_IMPACT, t_final_factor=0.4, cells_per_layer=8),
             "simulate-mkdv": dict(_SMALL_IMPACT, window_factor=8)}
#: One valid, quick config per command; the mutation test starts from these.
VALID_CONFIGS = {
    "effective": {"command": "effective", "laminate": BENCH_LAMINATE, "load": {"b_t": 0.0}},
    "magnetostatic": {"command": "magnetostatic", "laminate": BENCH_LAMINATE,
                      "load": {"bn_br_product": 150.0}, "params": {}},
    "dispersion": {"command": "dispersion", "laminate": BENCH_LAMINATE,
                   "params": {"omega_max_over_pi": 2.0, "n": 40}},
    "bandgap": {"command": "bandgap", "laminate": BENCH_LAMINATE,
                "params": {"omega_max_over_pi": 2.0, "n_scan": 1000}},
    "soliton": {"command": "soliton", "laminate": BENCH_LAMINATE,
                "params": {"speed_ratio": 1.026, "xi_max": 3.0, "n": 11}},
    "sweep": {"command": "sweep", "laminate": BENCH_LAMINATE,
              "params": {"variable": "magnetic_load_product", "lo": -1.0, "hi": 1.0, "n": 3}},
    "simulate-fv": {"command": "simulate-fv", "laminate": BENCH_LAMINATE,
                    "load": {"b_t": 0.0}, "params": dict(SMALL_SIM["simulate-fv"], limiter="mc")},
    "simulate-mkdv": {"command": "simulate-mkdv", "laminate": BENCH_LAMINATE,
                      "params": dict(SMALL_SIM["simulate-mkdv"], n_points=64, dy_m=1e-4, viscosity=0.0)},
}
@pytest.mark.parametrize("command, builds", [
    ("effective", 1), ("dispersion", 1), ("bandgap", 1), ("soliton", 1),
    ("simulate-fv", 1), ("simulate-mkdv", 1), ("magnetostatic", 0),
])
def test_one_cell_state_per_run(tmp_path, monkeypatch, command, builds):
    """A run builds the cell state of its laminate at its stretch once, and every analysis
    reads that one state; magnetostatic needs only the stretch."""
    from lamwave import homogenize

    columns, calls = homogenize.cell_columns, []

    def counted(*args, **kwargs):
        calls.append(args)
        return columns(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("lamwave") and getattr(mod, "cell_columns", None) is columns:
            monkeypatch.setattr(mod, "cell_columns", counted)
    run_ok(tmp_path, VALID_CONFIGS[command])
    assert len(calls) == builds


#: Commands quick enough to run on every mutated config.
FAST = ("effective", "magnetostatic", "dispersion", "bandgap", "soliton", "sweep")
BAD_VALUES = ["x", "", True, False, None, math.nan, math.inf, -math.inf, 0, 0.0,
              [], {}, [1.0], {"k": 1}]


def _nodes(node, path=()):
    """(path, value) of every node in a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one to three nodes swapped for bad values or given an unknown key."""
    command = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    root = {"config": copy.deepcopy(VALID_CONFIGS[command])}
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(root["config"], ("config",)))
        if draw(st.booleans()):  # half the mutations hit params, the rest anywhere
            nodes = [n for n in nodes if n[0][:2] == ("config", "params")] or nodes
        path, value = draw(st.sampled_from(nodes))
        parent = root
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(value, dict) and draw(st.booleans()):
            value["surprise"] = 1
            continue
        bad = st.sampled_from(BAD_VALUES)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # a wrong sign, a zero or an extreme magnitude keeps the type, so the
            # config often gets past parsing
            bad = st.one_of(st.sampled_from([-value, 0, 0.0, 1e300, -1e300, 1e-300]), bad)
        parent[path[-1]] = copy.deepcopy(draw(bad))
    return command, root["config"]


def marched_plan(config: dict):
    """The impact plan of a simulate config whose run gets to its march, else None: a run
    that fails to parse, to build its cell state or to plan, or that is too large, stops
    before it marches."""
    try:
        cfg = cli.parse_config(copy.deepcopy(config))
        _, plan = cli._plan(cli._cell(cfg), cfg["command"], cfg["params"])
    except (LamwaveError, ArithmeticError, ValueError):
        return None
    return plan if plan.held <= cli.MAX_HELD and plan.work <= cli.MAX_WORK else None


class TestMutatedConfigs:
    @settings(max_examples=150, deadline=None)
    @given(mutated_configs())
    def test_config_errors_never_crash(self, case):
        """Every mutant parses or raises ConfigError.  Each run of a fast command, and of a
        simulate command that stops before its march or marches at most 2**20 cell- or
        point-steps, exits 0, 1 or 2, with one stderr line and no artifact unless 0."""
        command, config = case
        try:
            cli.parse_config(copy.deepcopy(config))
        except ConfigError:
            pass
        if command not in FAST and (plan := marched_plan(config)) and plan.work > 2**20:
            return
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "run.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                status = cli.run(path, out)
            assert status in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if status:
                assert len(err.getvalue().splitlines()) == 1
                assert not out.exists() or not any(out.iterdir())


#: The small simulate params scaled_configs starts from, each numeric one non-zero.
SCALED_BASE = {"simulate-fv": SMALL_SIM["simulate-fv"],
               "simulate-mkdv": dict(VALID_CONFIGS["simulate-mkdv"]["params"], viscosity=1e-8)}


@st.composite
def scaled_configs(draw):
    """A small valid simulate config with one to three numeric params scaled by 10^k, k in
    [-6, 6]: a probe list as a whole, an integer rounded (to an even one where it must be),
    and each held to its lower bound, so that every draw parses."""
    command = draw(st.sampled_from(sorted(SCALED_BASE)))
    params, table = dict(SCALED_BASE[command]), cli.PARAMS[command]
    numeric = [key for key in params if table[key].kind in ("float", "int", "floats")]
    for key in draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=3, unique=True)):
        spec, factor = table[key], 10.0 ** draw(st.integers(-6, 6))
        if spec.kind == "floats":
            params[key] = [v * factor for v in params[key]]
        elif spec.kind == "int":
            unit = 2 if spec.even else 1
            params[key] = max(unit * round(params[key] * factor / unit), spec.ge)
        else:
            params[key] = max(params[key] * factor, spec.ge or 0.0)
    return {"command": command, "laminate": BENCH_LAMINATE, "params": params}


class TestScaledConfigs:
    @settings(max_examples=100, deadline=None)
    @given(scaled_configs())
    def test_scaled_runs_keep_the_contract(self, config):
        """Every scaled config parses; each whose plan marches at most 2**20 cell- or
        point-steps and holds at most 2**24 B (which bounds the rows it writes: a window of
        2**23 points at 0 steps holds 1.4 GB and writes as many rows) exits 0 or 2.  Exit 2
        prints one line, naming a params key unless the march itself failed, and writes
        nothing; exit 0 writes, per probe, steps + 1 FV samples or one window of mKdV
        samples at strictly increasing t_s, every t_s and v_over_c finite, a peak_v_over_c
        that is the largest |v_over_c| written, and a manifest that lists exactly the files
        the run wrote."""
        cli.parse_config(config)
        if (plan := marched_plan(config)) and (plan.work > 2**20 or plan.held > 2**24):
            return
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "run.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                status = cli.run(path, out)
            assert status in (0, 2), err.getvalue()
            if status:
                (line,) = err.getvalue().splitlines()
                assert "params." in line or "spectral amplitude" in line, line
                assert not any(out.iterdir())
                return
            stem = config["command"].replace("-", "_")
            (csv_path,) = out.glob(f"{stem}_*.csv")
            summary = json.loads(next(out.glob(f"{stem}_*.json")).read_text())
            rows = [l.split(",") for l in csv_path.read_text().splitlines() if not l.startswith("#")][1:]
            manifest = json.loads((out / "manifest.json").read_text())
            written = {p.name for p in out.iterdir()}
        assert {f for entry in manifest.values() for f in entry["files"]} | {"manifest.json"} == written
        per_probe = summary["steps"] + 1 if stem == "simulate_fv" else plan.cfg.n_points
        assert len(rows) == len(plan.probes) * per_probe
        assert [float(r[3]) for r in rows[::per_probe]] == list(plan.probes)
        assert all(math.isfinite(float(r[j])) for r in rows for j in (0, 2))
        t_s = [float(r[0]) for r in rows]
        assert all(a < b for i in range(0, len(t_s), per_probe)
                   for a, b in zip(t_s[i : i + per_probe], t_s[i + 1 : i + per_probe]))
        assert summary["peak_v_over_c"] == max(abs(float(r[2])) for r in rows)


#: Per command with params, a quick base config's params and, for each key of the
#: command's table, a value other than its base one.  bandgap's base omega_max_over_pi
#: of 1000 needs n_scan >= 4000: the default 10,000 runs it, and 1000 exits 1.
KEY_VARIANTS = {
    "dispersion": ({"omega_max_over_pi": 2.0, "n": 40}, {"omega_max_over_pi": 1.5, "n": 41}),
    "bandgap": ({"omega_max_over_pi": 1000.0}, {"omega_max_over_pi": 999.0, "n_scan": 1000}),
    "soliton": ({"speed_ratio": 1.026, "xi_max": 3.0, "n": 11},
                {"speed_ratio": 1.03, "xi_max": 4.0, "n": 12}),
    "simulate-fv": (SMALL_SIM["simulate-fv"],
                    {"cells_per_layer": 10, "V_over_c": 1.1, "wavelengths_per_period": 9,
                     "probes_y_star_multiples": [0.12], "t_final_factor": 0.45, "limiter": "mc"}),
    "simulate-mkdv": (VALID_CONFIGS["simulate-mkdv"]["params"],
                      {"V_over_c": 1.1, "wavelengths_per_period": 9, "probes_y_star_multiples": [0.12],
                       "window_factor": 9.0, "n_points": 128, "dy_m": 9e-5, "viscosity": 1e-8}),
    "sweep": ({"variable": "volume_fraction_2", "lo": 0.2, "hi": 0.8, "n": 5},
              {"variable": "modulus_contrast", "lo": 0.3, "hi": 0.7, "n": 6}),
}


def _outcome(tmp_path: Path, command: str, params: dict) -> tuple[int, dict]:
    """Exit status of one run and its artifacts but the manifest, by name with the hash cut."""
    payload = {"command": command, "laminate": BENCH_LAMINATE, "params": params}
    tag = cli.config_hash(payload)
    out = tmp_path / tag
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.run(write_config(tmp_path, payload, f"{tag}.json"), out)
    files = sorted(out.iterdir()) if out.exists() else []
    return status, {p.name.replace(tag, ""): p.read_bytes() for p in files if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def base_outcome(tmp_path_factory):
    """The outcome of each command's base config of KEY_VARIANTS, run once."""
    tmp, seen = tmp_path_factory.mktemp("base"), {}

    def outcome(command: str):
        if command not in seen:
            seen[command] = _outcome(tmp, command, KEY_VARIANTS[command][0])
        return seen[command]

    return outcome


def test_readme_params_table_names_every_key():
    """Each command's row of README's params table names, in backticks, exactly the keys
    of its params table, besides the values of a choice; a span such as `lo < hi` is no name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Commands and their `params`")[1].split("\n\n")[1].splitlines()
    for command, params in cli.PARAMS.items():
        (row,) = [line for line in table if line.startswith(f"| `{command}`")]
        named = set(re.findall(r"`(\w+)`", row.split("|", 2)[2]))
        assert named - {c for spec in params.values() for c in spec.choices} == set(params), command


def test_every_params_table_has_variants():
    assert {c for c, table in cli.PARAMS.items() if table} == set(KEY_VARIANTS)
    for command, (_, variants) in KEY_VARIANTS.items():
        assert set(variants) == set(cli.PARAMS[command])


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, variants) in KEY_VARIANTS.items() for key in variants
])
def test_every_param_key_changes_the_run(tmp_path, base_outcome, command, key):
    """Each key of each command's params table, moved off its base value, changes an
    artifact or the exit status: no key is accepted and ignored.  Every variant runs, but
    bandgap's n_scan, which acts only through its cap on omega_max_over_pi (exit 1)."""
    base, variants = KEY_VARIANTS[command]
    status, files = base_outcome(command)
    assert status == 0
    changed = _outcome(tmp_path, command, dict(base, **{key: variants[key]}))
    assert changed[0] == (1 if key == "n_scan" else 0)
    assert changed != (status, files)


def test_parity_tool_lines(tmp_path):
    """tools/parity.py lists the 50 benchmark configs, and its lines for one op name every
    artifact and the status with digests that do not depend on the temporary directory."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("parity", root / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    assert len(parity.all_ops(parity._load_workloads(root))) == 50
    src = Path(cli.__file__).resolve().parents[1]
    config = VALID_CONFIGS["effective"]
    lines = parity.op_lines(cli.run, "effective", config, src)
    assert lines == parity.op_lines(cli.run, "effective", config, src)
    tag = cli.config_hash(config)
    assert [line.split()[1] for line in lines[:-1]] == [f"effective_{tag}.json", "manifest.json"]
    assert lines[-1].startswith("effective exit=0 stdout=")
    (bad,) = parity.op_lines(cli.run, "bad", {"command": "effective"}, src)
    assert bad.startswith("bad exit=1 ")


def test_ab_tool_pairs_and_sign_test():
    """tools/ab.py alternates which tree runs first, pair by pair across workloads, counts
    the pairs the change won by each metric's better direction (ties for neither side)
    and gives the two-sided sign-test p of that count."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("ab", root / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.schedule(["fv_impact", "tunability"], 3) == [
        ("fv_impact", 0, ("parent", "change")), ("tunability", 0, ("parent", "change")),
        ("fv_impact", 1, ("change", "parent")), ("tunability", 1, ("change", "parent")),
        ("fv_impact", 2, ("parent", "change")), ("tunability", 2, ("parent", "change")),
    ]
    assert ab.wins([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 1.5], "lower") == (2, 3)
    assert ab.wins([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 1.5], "higher") == (1, 3)
    assert ab.sign_test(10, 10) == ab.sign_test(0, 10) == 2.0 / 1024
    assert ab.sign_test(9, 10) == pytest.approx(22.0 / 1024, rel=1e-15)
    assert ab.sign_test(5, 10) == ab.sign_test(0, 0) == 1.0
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)
