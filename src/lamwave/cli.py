"""Command-line entry point: config validation, run orchestration, artifact emission.

A run is described by one JSON config file (schema documented in the README):
the laminate, a magnetic load, a ``command`` and command-specific ``params``.
Outputs land in the chosen directory as ``<command>_<hash>.csv`` tables plus a
JSON summary, and a manifest records which reference figure each artifact
corresponds to.  Identical configs produce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import dispersion as disp
from . import fv_sim, materials, soliton, spectral_sim, sweeps
from .errors import ConfigError, DomainError, LamwaveError
from .homogenize import effective_model
from .materials import HyperelasticModel, Laminate, MagneticLoad, Phase
from .output import config_hash, write_csv, write_json

COMMANDS = (
    "effective",
    "dispersion",
    "bandgap",
    "soliton",
    "magnetostatic",
    "simulate-fv",
    "simulate-mkdv",
    "sweep",
)

_FIGURES = {
    "dispersion": "fig3",
    "bandgap": "fig3",
    "soliton": "fig4a+fig4b",
    "simulate-fv": "fig5",
    "simulate-mkdv": "fig5",
}

_SWEEP_FIGURES = {
    "magnetic_load_product": "fig6a+fig6b",
    "volume_fraction_2": "fig7",
    "modulus_contrast": "fig7",
}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", where)
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", where)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", where)
    return float(value)


def _integer(value, where: str, minimum: int) -> int:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer() or value < minimum):
        raise ConfigError(f"expected an integer >= {minimum}, got {value!r}", where)
    return int(value)


def phase_from_config(cfg: dict, where: str) -> Phase:
    _check_keys(cfg, {"model", "rho", "nu", "mu_rel", "br_t"}, where)
    model_cfg = _require(cfg, "model", where)
    _check_keys(model_cfg, {"kind", "G_pa", "beta"}, f"{where}.model")
    try:
        model = HyperelasticModel(
            kind=str(_require(model_cfg, "kind", f"{where}.model")),
            shear_modulus=_number(_require(model_cfg, "G_pa", f"{where}.model"), f"{where}.model.G_pa"),
            beta=_number(model_cfg.get("beta", 0.0), f"{where}.model.beta"),
        )
        return Phase(
            model=model,
            density=_number(_require(cfg, "rho", where), f"{where}.rho"),
            volume_fraction=_number(_require(cfg, "nu", where), f"{where}.nu"),
            permeability=_number(cfg.get("mu_rel", 1.0), f"{where}.mu_rel") * materials.MU0,
            remnant_induction=_number(cfg.get("br_t", 0.0), f"{where}.br_t"),
        )
    except LamwaveError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), where) from exc


def laminate_from_config(cfg: dict) -> Laminate:
    phases = _require(cfg, "phases", "laminate")
    if not isinstance(phases, list) or len(phases) != 2:
        raise ConfigError("phases must be a list of exactly 2 entries", "laminate.phases")
    p1 = phase_from_config(phases[0], "laminate.phases[0]")
    p2 = phase_from_config(phases[1], "laminate.phases[1]")
    try:
        return Laminate(p1, p2, _number(_require(cfg, "period_m", "laminate"), "laminate.period_m"))
    except LamwaveError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), "laminate") from exc


def load_from_config(cfg: dict | None) -> MagneticLoad:
    if cfg is None:
        return MagneticLoad(b=0.0)
    _check_keys(cfg, {"b_t", "bn_br_product"}, "load")
    if "b_t" in cfg and "bn_br_product" in cfg:
        raise ConfigError("give either b_t or bn_br_product, not both", "load")
    if "b_t" not in cfg and "bn_br_product" not in cfg:
        raise ConfigError("load needs b_t or bn_br_product", "load")
    key = "b_t" if "b_t" in cfg else "bn_br_product"
    value = _number(cfg[key], f"load.{key}")
    try:
        return MagneticLoad(b=value) if key == "b_t" else MagneticLoad(bn_br_product=value)
    except DomainError as exc:
        raise ConfigError(str(exc), f"load.{key}") from exc


def parse_config(raw: dict) -> dict:
    _check_keys(raw, {"command", "laminate", "load", "params"}, "config")
    command = _require(raw, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}", "config.command")
    laminate_cfg = _require(raw, "laminate", "config")
    _check_keys(laminate_cfg, {"phases", "period_m"}, "config.laminate")
    return {
        "command": command,
        "laminate": laminate_from_config(laminate_cfg),
        "load": load_from_config(raw.get("load")),
        "params": raw.get("params", {}) or {},
        "raw": raw,
    }


def _stretch_state(cfg: dict) -> float:
    return materials.stretch_from_field(cfg["laminate"], cfg["load"])


def _artifact(out: Path, command: str, tag: str, suffix: str) -> Path:
    return out / f"{command.replace('-', '_')}_{tag}.{suffix}"


def _run_effective(cfg, out: Path, tag: str) -> list[Path]:
    stretch = _stretch_state(cfg)
    eff = effective_model(cfg["laminate"], stretch)
    path = _artifact(out, "effective", tag, "json")
    write_json(path, eff.as_record())
    return [path]


def _run_magnetostatic(cfg, out: Path, tag: str) -> list[Path]:
    lam = cfg["laminate"]
    stretch = _stretch_state(cfg)
    norm = materials.load_normalization(lam)
    payload = {
        "stretch": stretch,
        "mu_breve": materials.effective_permeability(lam),
        "br_check_t": materials.effective_remnant_induction(lam),
        "average_modulus_pa": materials.average_shear_modulus(lam, stretch),
        "bn_scale_t": norm.b_scale,
        "br_n": norm.br_n,
        "rhs_norm": materials.dimensionless_load_rhs(lam, cfg["load"]),
    }
    path = _artifact(out, "magnetostatic", tag, "json")
    write_json(path, payload)
    return [path]


def _run_dispersion(cfg, out: Path, tag: str) -> list[Path]:
    lam = cfg["laminate"]
    stretch = _stretch_state(cfg)
    p = cfg["params"]
    _check_keys(p, {"omega_max_over_pi", "n"}, "params")
    omega_max = _number(p.get("omega_max_over_pi", 2.6), "params.omega_max_over_pi") * math.pi
    n = _integer(p.get("n", 2000), "params.n", 2)
    written = []
    for folded, name in ((False, "dispersion"), (True, "dispersion_folded")):
        header, rows = disp.dispersion_table(lam, stretch, omega_max, n, folded=folded)
        path = out / f"{name}_{tag}.csv"
        write_csv(
            path,
            [f"stretch = {stretch!r}", "kappa_ell view: " + ("folded [0,pi]" if folded else "unfolded [0,2pi]")],
            header,
            rows,
        )
        written.append(path)
    gaps = disp.band_gap_records(lam, stretch)
    path = _artifact(out, "dispersion", tag, "json")
    write_json(path, gaps)
    written.append(path)
    return written


def _run_bandgap(cfg, out: Path, tag: str) -> list[Path]:
    lam = cfg["laminate"]
    stretch = _stretch_state(cfg)
    p = cfg["params"]
    _check_keys(p, {"omega_max_over_pi", "n_scan"}, "params")
    omega_max = _number(p.get("omega_max_over_pi", 3.0), "params.omega_max_over_pi") * math.pi
    n_scan = _integer(p.get("n_scan", 10_000), "params.n_scan", 1000)
    path = _artifact(out, "bandgap", tag, "json")
    write_json(path, disp.band_gap_records(lam, stretch, omega_max, n_scan))
    return [path]


def _run_soliton(cfg, out: Path, tag: str) -> list[Path]:
    lam = cfg["laminate"]
    stretch = _stretch_state(cfg)
    eff = effective_model(lam, stretch)
    p = cfg["params"]
    _check_keys(p, {"speed_ratio", "xi_max", "n"}, "params")
    speed_ratio = _number(p.get("speed_ratio", 1.026), "params.speed_ratio")
    xi_max = _number(p.get("xi_max", 10.0), "params.xi_max")
    n = _integer(p.get("n", 801), "params.n", 2)
    written = []
    header, rows = soliton.waveform_table(eff, speed_ratio * eff.c, xi_max, n)
    path = out / f"soliton_waveform_{tag}.csv"
    write_csv(path, [f"speed_ratio = {speed_ratio!r}"], header, rows)
    written.append(path)
    header, rows = soliton.amplitude_table(eff)
    path = out / f"soliton_amplitude_{tag}.csv"
    write_csv(path, ["speed sweep up to the existence bound"], header, rows)
    written.append(path)
    summary = {"speed_ratio": speed_ratio}
    try:
        bound = soliton.existence_bound(eff)
        summary["max_speed_ratio"] = bound
        summary["max_strain"] = soliton.max_strain_amplitude(eff)
        summary["max_particle_velocity_ratio"] = soliton.max_particle_velocity(eff)
        summary["validity_speed_slow_space"] = soliton.mkdv_validity_speed(
            eff, soliton.WaveModel.SLOW_SPACE
        )
        summary["validity_speed_slow_time"] = soliton.mkdv_validity_speed(
            eff, soliton.WaveModel.SLOW_TIME
        )
    except LamwaveError as exc:
        summary["note"] = str(exc)
    path = _artifact(out, "soliton", tag, "json")
    write_json(path, summary)
    written.append(path)
    return written


def _sim_params(cfg) -> dict:
    p = dict(cfg["params"])
    allowed = {
        "cells_per_layer",
        "V_over_c",
        "wavelengths_per_period",
        "probes_y_star_multiples",
        "t_final_factor",
        "limiter",
        "window_factor",
        "n_points",
        "dy_m",
        "viscosity",
    }
    _check_keys(p, allowed, "params")
    out = {
        "cells_per_layer": _integer(p.get("cells_per_layer", 32), "params.cells_per_layer", 4),
        "V_over_c": _number(p.get("V_over_c", 2.0), "params.V_over_c"),
        "wavelengths_per_period": _number(
            p.get("wavelengths_per_period", 16.0), "params.wavelengths_per_period"
        ),
        "probes": p.get("probes_y_star_multiples", [1.0, 2.0]),
        "t_final_factor": _number(p.get("t_final_factor", 1.25), "params.t_final_factor"),
        "limiter": str(p.get("limiter", "minmod")),
        "window_factor": _number(p.get("window_factor", 4.0), "params.window_factor"),
        "n_points": _integer(p.get("n_points", 1024), "params.n_points", 2),  # per forcing period
        "dy_m": _number(p.get("dy_m", spectral_sim.DEFAULT_DY), "params.dy_m"),
        "viscosity": _number(p.get("viscosity", spectral_sim.DEFAULT_VISCOSITY), "params.viscosity"),
    }
    if not out["V_over_c"] > 0.0:
        raise ConfigError(f"must be positive, got {out['V_over_c']!r}", "params.V_over_c")
    if out["limiter"] not in fv_sim.LIMITERS:
        raise ConfigError(
            f"unknown limiter {out['limiter']!r}; expected one of {sorted(fv_sim.LIMITERS)}",
            "params.limiter",
        )
    if not isinstance(out["probes"], list) or not out["probes"]:
        raise ConfigError("must be a non-empty list", "params.probes_y_star_multiples")
    for i, m in enumerate(out["probes"]):
        where = f"params.probes_y_star_multiples[{i}]"
        if not _number(m, where) > 0.0:
            raise ConfigError(f"expected a positive number, got {m!r}", where)
    return out


def _sim_geometry(cfg, p):
    lam = cfg["laminate"]
    stretch = _stretch_state(cfg)
    eff = effective_model(lam, stretch)
    velocity = p["V_over_c"] * eff.c
    kappa = 2.0 * math.pi / (p["wavelengths_per_period"] * eff.ell)
    y_star = soliton.shock_distance(eff, velocity, kappa)
    probes = [m * y_star for m in p["probes"]]
    t_final = p["t_final_factor"] * (max(probes) / eff.c + 3.0 * 2.0 * math.pi / (kappa * eff.c))
    return lam, stretch, eff, velocity, kappa, y_star, probes, t_final


def _run_simulate_fv(cfg, out: Path, tag: str) -> list[Path]:
    p = _sim_params(cfg)
    lam, stretch, eff, velocity, kappa, y_star, probes, t_final = _sim_geometry(cfg, p)
    result = fv_sim.impact_run(
        lam, stretch, velocity, kappa, probes, t_final,
        cells_per_layer=p["cells_per_layer"], limiter=p["limiter"],
    )
    header, rows = fv_sim.probe_table(result)
    path = _artifact(out, "simulate-fv", tag, "csv")
    write_csv(path, [f"y_star_m = {y_star!r}", f"V_m_per_s = {velocity!r}"], header, rows)
    summary = {
        "y_star_m": y_star,
        "c_eff": eff.c,
        "t_final_s": t_final,
        "steps": result.steps,
        "peak_v_over_c": max(float(abs(pr.v_over_c).max()) for pr in result.probes),
    }
    spath = _artifact(out, "simulate-fv", tag, "json")
    write_json(spath, summary)
    return [path, spath]


def _run_simulate_mkdv(cfg, out: Path, tag: str) -> list[Path]:
    p = _sim_params(cfg)
    lam, stretch, eff, velocity, kappa, y_star, probes, t_final = _sim_geometry(cfg, p)
    scfg = spectral_sim.config_for_impact(
        kappa,
        eff.c,
        window_factor=p["window_factor"],
        points_per_period=p["n_points"],
        dy=p["dy_m"],
        viscosity=p["viscosity"],
    )
    result = spectral_sim.impact_march(eff, velocity, kappa, probes, cfg=scfg)
    header, rows = spectral_sim.probe_table(result, kappa, eff.c)
    path = _artifact(out, "simulate-mkdv", tag, "csv")
    write_csv(path, [f"y_star_m = {y_star!r}", f"V_m_per_s = {velocity!r}"], header, rows)
    summary = {
        "y_star_m": y_star,
        "c_eff": eff.c,
        "window_s": scfg.window,
        "peak_v_over_c": max(
            float(abs(v).max()) / eff.c for v in result.records.values()
        ),
    }
    spath = _artifact(out, "simulate-mkdv", tag, "json")
    write_json(spath, summary)
    return [path, spath]


def _run_sweep(cfg, out: Path, tag: str) -> list[Path]:
    p = cfg["params"]
    _check_keys(p, {"variable", "lo", "hi", "n"}, "params")
    variable = str(_require(p, "variable", "params"))
    lo = _number(_require(p, "lo", "params"), "params.lo")
    hi = _number(_require(p, "hi", "params"), "params.hi")
    n = _integer(p.get("n", 201), "params.n", 2)
    try:
        spec = sweeps.SweepSpec(variable=variable, lo=lo, hi=hi, n=n)
    except DomainError as exc:
        raise ConfigError(str(exc), "params") from exc
    lam = cfg["laminate"]
    if spec.variable == "magnetic_load_product":
        result = sweeps.sweep_magnetic(lam, spec)
    elif spec.variable == "volume_fraction_2":
        result = sweeps.sweep_volume_fraction(lam, spec)
    else:
        result = sweeps.sweep_contrast(lam, spec)
    header, rows = sweeps.sweep_table(result)
    path = _artifact(out, "sweep", tag, "csv")
    freq_unit = (
        "omega*L/c0 (undeformed period and speed)"
        if spec.variable == "magnetic_load_product"
        else "omega*ell/c"
    )
    comments = (
        [f"variable: {result.variable}"]
        + [f"fixed {k} = {v!r}" for k, v in sorted(result.fixed.items())]
        + [f"units: gap edges in {freq_unit}; speeds as ratios to c; strains dimensionless"]
    )
    write_csv(path, comments, header, rows)
    spath = _artifact(out, "sweep", tag, "json")
    write_json(spath, result.summary)
    return [path, spath]


_RUNNERS = {
    "effective": _run_effective,
    "magnetostatic": _run_magnetostatic,
    "dispersion": _run_dispersion,
    "bandgap": _run_bandgap,
    "soliton": _run_soliton,
    "simulate-fv": _run_simulate_fv,
    "simulate-mkdv": _run_simulate_mkdv,
    "sweep": _run_sweep,
}


def run(config_path: str | Path, out_dir: str | Path, threads: int = 1) -> int:
    """Execute one config; returns the exit status (0/1/2). ``threads`` is ignored."""
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = config_hash(raw)
    command = cfg["command"]
    try:
        written = _RUNNERS[command](cfg, out, tag)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LamwaveError as exc:
        print(f"numerical failure in {command}: {exc}", file=sys.stderr)
        return 2

    figure = _FIGURES.get(command, "")
    if command == "sweep":
        figure = _SWEEP_FIGURES.get(cfg["params"].get("variable", ""), "")
    elif command in ("simulate-fv", "simulate-mkdv"):
        p = cfg["params"]
        low_dispersion = (
            abs(p.get("V_over_c", 2.0) - math.sqrt(2.0)) < 1e-9
            and p.get("wavelengths_per_period", 16) == 8
        )
        figure = "fig8" if low_dispersion else "fig5"
    manifest_path = out / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest[f"{command}_{tag}"] = {
        "command": command,
        "figure": figure,
        "files": [p.name for p in written],
    }
    write_json(manifest_path, manifest)
    for p in written:
        print(p)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lamwave",
        description="Wave analysis and simulation of magneto-active soft bi-laminates.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; sweep rows run serially"
    )
    parser.add_argument("--seed", type=int, default=0, help="accepted and ignored (no stochastic components)")
    args = parser.parse_args(argv)
    return run(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
