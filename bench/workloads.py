"""Seeded inputs, pinned references and output checks for the lamwave benchmark.

Standard library only: the benchmark's parent process imports this module, never lamwave.
Every op of a workload is one lamwave run config (a JSON dict) executed through
``lamwave.cli.run``.  Seed 0 is the paper's Gent bi-laminate; other seeds
perturb the moduli, densities and sweep ranges by a few percent so a claim can
be rechecked on inputs it was not tuned on.  Volume fractions stay at 0.5 so
the finite-volume grid keeps a whole number of cells per layer.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("fv_impact", "mkdv_impact", "tunability")

#: Relative tolerance for pinned seed-0 floats.  Reordered floating-point sums
#: move these outputs by 1e-12 or less, and a band-edge or argmax refinement
#: that changes method stays within its own 1e-10 tolerance; a wrong scheme,
#: coefficient or grid moves them by far more than 1e-6.
REL_TOL = 1e-6

PERTURBATION = 0.02  # largest relative change a non-zero seed applies

PAPER_PHASES = ((4.7e6, 930.0), (0.94e6, 930.0))
GENT_BETA = 0.0132
PERIOD_M = 0.01
SWEEPS = (
    ("magnetic_load_product", -3.0, 3.0),
    ("volume_fraction_2", 0.05, 0.95),
    ("modulus_contrast", 0.1, 10.0),
)
FAST_COMMANDS = ("effective", "magnetostatic", "soliton", "bandgap", "dispersion")
MKDV_WINDOW_FACTOR = 8.0

#: Exit status of each command at its documented defaults when it is known not
#: to be 0.  simulate-mkdv's default window_factor 4 is too short for probes
#: at y* and 2y*, so it exits 2 with "need window > 0.0181 s".
KNOWN_DEFAULT_FAILURES = {"simulate-mkdv": 2}

#: Seed-0 outputs, keyed by op name, then by the summary JSON field checked.
#: Integers must match exactly, floats to REL_TOL.
REFERENCE = {
    "simulate-fv": {"steps": 13360, "peak_v_over_c": 2.598262000305179},
    "simulate-mkdv": {"peak_v_over_c": 2.9975060232869457},
    "bandgap": {"gap1_lo_over_pi": 0.8332828818351031, "gap1_hi_over_pi": 1.270377827695012},
    "sweep-magnetic_load_product": {
        "n_locked": 0, "multi_root_rows": 0,
        "stretch_min": 0.3345047169841892, "stretch_max": 1.8641703475075755,
    },
    "sweep-volume_fraction_2": {
        "argmax_eta": 0.3090169940851965, "argmax_max_strain": 0.4281417419220657,
        "speed_ratio_prediction": 0.3090169943749474,
    },
    "sweep-modulus_contrast": {
        "max_gap_width": 1.6820569642283374, "contrast_at_max_gap": 0.10000000000000002,
    },
}


def _jitter(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)


def laminate(seed: int) -> dict:
    """The laminate config of ``seed``; seed 0 is the paper stack."""
    rng = random.Random(seed)
    phases = []
    for g_pa, rho in PAPER_PHASES:
        if seed:
            g_pa, rho = g_pa * _jitter(rng), rho * _jitter(rng)
        phases.append({
            "model": {"kind": "Gent", "G_pa": g_pa, "beta": GENT_BETA},
            "rho": rho, "nu": 0.5, "mu_rel": 1.0, "br_t": 0.0,
        })
    return {"phases": phases, "period_m": PERIOD_M}


def sweep_ranges(seed: int) -> list[tuple[str, float, float]]:
    if not seed:
        return list(SWEEPS)
    rng = random.Random(f"sweep-{seed}")
    return [(var, lo * _jitter(rng), hi * _jitter(rng)) for var, lo, hi in SWEEPS]


def _config(command: str, lam: dict, params: dict) -> dict:
    return {"command": command, "laminate": lam, "load": {"b_t": 0.0}, "params": params}


def ops(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (op name, run config) list one pass of ``workload`` executes, in order."""
    lam = laminate(seed)
    if workload == "fv_impact":
        return [("simulate-fv", _config("simulate-fv", lam, {}))]
    if workload == "mkdv_impact":
        return [("simulate-mkdv", _config("simulate-mkdv", lam, {"window_factor": MKDV_WINDOW_FACTOR}))]
    if workload == "tunability":
        out = [
            (f"sweep-{var}", _config("sweep", lam, {"variable": var, "lo": lo, "hi": hi}))
            for var, lo, hi in sweep_ranges(seed)
        ]
        return out + [(cmd, _config(cmd, lam, {})) for cmd in FAST_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def default_ops() -> list[tuple[str, dict]]:
    """Every command at its documented defaults on the paper stack.

    ``sweep`` has no default range, so each variable runs over the paper's range
    with the default row count.
    """
    lam = laminate(0)
    commands = ("effective", "magnetostatic", "dispersion", "bandgap", "soliton",
                "simulate-fv", "simulate-mkdv")
    out = [(cmd, _config(cmd, lam, {})) for cmd in commands]
    return out + [
        (f"sweep-{var}", _config("sweep", lam, {"variable": var, "lo": lo, "hi": hi}))
        for var, lo, hi in SWEEPS
    ]


# --------------------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(value: float, ref: float, what: str) -> None:
    _require(
        isinstance(value, (int, float)) and math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0),
        f"{what} = {value!r}, pinned {ref!r} (rel tol {REL_TOL:g})",
    )


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _artifacts(out: Path, files: list[str]) -> dict[str, Path]:
    paths = {}
    for name in files:
        path = out / name
        _require(path.is_file() and path.stat().st_size > 0, f"artifact {name} missing or empty")
        paths[name] = path
    return paths


def _one(paths: dict[str, Path], prefix: str, suffix: str) -> Path:
    hits = [p for n, p in paths.items() if n.startswith(prefix) and n.endswith(suffix)]
    _require(len(hits) == 1, f"expected one {prefix}*{suffix} artifact, found {len(hits)}")
    return hits[0]


def _check_probe_csv(path: Path, n_rows: int, v_over_c: float) -> float:
    header, rows = _read_csv(path)
    _require(header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"], f"probe header {header}")
    _require(len(rows) == n_rows, f"probe CSV has {len(rows)} rows, expected {n_rows}")
    peak = 0.0
    for row in rows:
        v = float(row[2])
        _require(math.isfinite(v) and math.isfinite(float(row[0])), "non-finite probe sample")
        peak = max(peak, abs(v))
    # nonlinear steepening lifts the peak above the impact amplitude but not past twice it
    _require(0.5 * v_over_c < peak < 2.0 * v_over_c, f"probe peak v/c {peak} implausible")
    return peak


def check_op(name: str, config: dict, out: Path, files: list[str], seed: int) -> dict:
    """Validate one op's artifacts; raises CheckFailed.  Returns the sizes it saw."""
    paths = _artifacts(out, files)
    params = config["params"]
    v_over_c = params.get("V_over_c", 2.0)
    sizes: dict = {}
    pinned = REFERENCE.get(name, {}) if seed == 0 else {}
    if name == "simulate-fv":
        summary = json.loads(_one(paths, "simulate_fv", ".json").read_text())
        steps = summary["steps"]
        _require(isinstance(steps, int) and steps > 0, f"steps = {steps!r}")
        peak = _check_probe_csv(_one(paths, "simulate_fv", ".csv"), 2 * (steps + 1), v_over_c)
        _close(summary["peak_v_over_c"], peak, "summary peak vs CSV peak")
        if pinned:
            _require(steps == pinned["steps"], f"steps = {steps}, pinned {pinned['steps']}")
            _close(summary["peak_v_over_c"], pinned["peak_v_over_c"], "peak_v_over_c")
        sizes["steps"] = steps
    elif name == "simulate-mkdv":
        summary = json.loads(_one(paths, "simulate_mkdv", ".json").read_text())
        _require(_finite(summary["window_s"]) and summary["window_s"] > 0, "window_s")
        per_window = params.get("n_points", 1024) * int(round(params.get("window_factor", 4.0)))
        n_points = 1 << (per_window - 1).bit_length()
        peak = _check_probe_csv(_one(paths, "simulate_mkdv", ".csv"), 2 * n_points, v_over_c)
        _close(summary["peak_v_over_c"], peak, "summary peak vs CSV peak")
        if pinned:
            _close(summary["peak_v_over_c"], pinned["peak_v_over_c"], "peak_v_over_c")
        sizes["n_points"] = n_points
    elif name == "effective":
        rec = json.loads(_one(paths, "effective", ".json").read_text())
        _close(rec["c"], math.sqrt(rec["g_eff"] / rec["rho_eff"]), "c vs sqrt(g_eff/rho_eff)")
        _require(rec["stretch"] == 1.0, "stretch at zero load must be 1")
    elif name == "magnetostatic":
        rec = json.loads(_one(paths, "magnetostatic", ".json").read_text())
        _require(rec["stretch"] == 1.0 and rec["rhs_norm"] == 0.0, "zero load must leave stretch 1")
    elif name == "bandgap":
        gaps = json.loads(_one(paths, "bandgap", ".json").read_text())
        _check_gaps(gaps, pinned)
    elif name == "dispersion":
        gaps = json.loads(_one(paths, "dispersion", ".json").read_text())
        _check_gaps(gaps, REFERENCE["bandgap"] if seed == 0 else {})
        tables = [p for n, p in paths.items() if n.endswith(".csv")]
        _require(len(tables) == 2, "expected unfolded and folded dispersion CSVs")
        for path in tables:
            header, rows = _read_csv(path)
            _require(header == ["kappa_ell", "omega_norm", "branch", "theory"], f"{path.name} header")
            _require(len(rows) > params.get("n", 2000), f"{path.name} has {len(rows)} rows")
    elif name == "soliton":
        rec = json.loads(_one(paths, "soliton_", ".json").read_text())
        _require(_finite(rec.get("max_speed_ratio")) and rec["max_speed_ratio"] > 1.0, "existence bound")
        _require(_finite(rec.get("max_strain")) and rec["max_strain"] > 0.0, "max_strain")
        _, rows = _read_csv(_one(paths, "soliton_waveform", ".csv"))
        # one block of n samples per wave model that has a soliton at this speed
        _require(rows and len(rows) % 801 == 0, f"waveform has {len(rows)} rows")
        _require(all(math.isfinite(float(r[1])) for r in rows), "non-finite waveform strain")
    elif name.startswith("sweep-"):
        summary = json.loads(_one(paths, "sweep", ".json").read_text())
        header, rows = _read_csv(_one(paths, "sweep", ".csv"))
        _require(len(rows) == params.get("n", 201), f"sweep has {len(rows)} rows")
        lo_col, hi_col = header.index("gap_exact_lo"), header.index("gap_exact_hi")
        edges = [(float(r[lo_col]), float(r[hi_col])) for r in rows]
        gapped = [(lo, hi) for lo, hi in edges if not math.isnan(lo)]
        # rows without a gap (equal moduli, locked loads) carry NaN edges
        _require(2 * len(gapped) > len(rows), f"only {len(gapped)} of {len(rows)} rows have a gap")
        _require(all(0 < lo < hi for lo, hi in gapped), "gap edges out of order")
        for key, ref in pinned.items():
            if isinstance(ref, int):
                _require(summary[key] == ref, f"{key} = {summary[key]!r}, pinned {ref}")
            else:
                _close(summary[key], ref, key)
        sizes["rows"] = len(rows)
    else:
        raise CheckFailed(f"no check for op {name!r}")
    return sizes


def _check_gaps(gaps: list[dict], pinned: dict) -> None:
    exact = [g for g in gaps if g["theory"] == "exact"]
    homog = [g for g in gaps if g["theory"] == "homogenized"]
    _require(len(exact) >= 1 and len(homog) == 1, f"gap records {gaps}")
    for g in exact:
        _require(0 < g["lo_over_pi"] < g["hi_over_pi"], f"gap {g}")
    first = exact[0]
    # the homogenised first gap approximates the exact one to a few percent
    _require(abs(homog[0]["lo_over_pi"] / first["lo_over_pi"] - 1) < 0.1, "homogenised gap off")
    if pinned:
        _close(first["lo_over_pi"], pinned["gap1_lo_over_pi"], "first gap lo")
        _close(first["hi_over_pi"], pinned["gap1_hi_over_pi"], "first gap hi")
