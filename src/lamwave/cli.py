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
from dataclasses import dataclass
from pathlib import Path

from . import dispersion as disp
from . import fv_sim, materials, soliton, spectral_sim, sweeps
from .errors import ConfigError, DomainError, LamwaveError
from .homogenize import CellState, cell_state
from .materials import HyperelasticModel, Laminate, MagneticLoad, Phase
from .output import config_hash, probe_table, write_csv, write_json

_FIGURES = {"dispersion": "fig3", "bandgap": "fig3", "soliton": "fig4a+fig4b",
            "simulate-fv": "fig5", "simulate-mkdv": "fig5"}
_SWEEP_FIGURES = {"magnetic_load_product": "fig6a+fig6b", "volume_fraction_2": "fig7",
                  "modulus_contrast": "fig7"}

REQUIRED = object()  # default of a param that must be given


@dataclass(frozen=True)
class Param:
    """One ``params`` key: its kind, its default and its bound.

    ``kind`` is ``"float"``, ``"int"``, ``"choice"`` (one of ``choices``) or
    ``"floats"`` (a non-empty list, each entry bounded like a float).  A number
    must exceed ``gt``, be at least ``ge`` and, if ``even``, be even; every
    float must also be finite.
    """

    kind: str
    default: object = REQUIRED
    gt: float | None = None
    ge: float | None = None
    even: bool = False
    choices: tuple = ()


# simulate-fv accepts and ignores the four spectral keys
_SIMULATE = {
    "cells_per_layer": Param("int", 32, ge=4, even=True),
    "V_over_c": Param("float", 2.0, gt=0.0),
    "wavelengths_per_period": Param("float", 16.0, gt=0.0),
    "probes_y_star_multiples": Param("floats", [1.0, 2.0], gt=0.0),
    "t_final_factor": Param("float", 1.25, gt=0.0),
    "limiter": Param("choice", "minmod", choices=tuple(fv_sim.LIMITERS)),
    "window_factor": Param("float", 4.0, ge=4.0),
    "n_points": Param("int", 1024, ge=64),  # per forcing period; 64 x 4 = 256, the grid floor
    "dy_m": Param("float", spectral_sim.DEFAULT_DY, gt=0.0),
    "viscosity": Param("float", spectral_sim.DEFAULT_VISCOSITY, ge=0.0),
}

#: The params table of every command; the resolved ``params`` of a config carry
#: every key of its command's table.
PARAMS = {
    "effective": {},
    "dispersion": {"omega_max_over_pi": Param("float", 2.6, gt=0.0), "n": Param("int", 2000, ge=2)},
    "bandgap": {"omega_max_over_pi": Param("float", 3.0, gt=0.0), "n_scan": Param("int", 10_000, ge=1000)},
    "soliton": {
        "speed_ratio": Param("float", 1.026),
        "xi_max": Param("float", 10.0),
        "n": Param("int", 801, ge=2),
    },
    "magnetostatic": {},
    "simulate-fv": _SIMULATE,
    "simulate-mkdv": _SIMULATE,
    "sweep": {
        "variable": Param("choice", choices=sweeps.VARIABLES),
        "lo": Param("float"),
        "hi": Param("float"),
        "n": Param("int", 201, ge=2),
    },
}

COMMANDS = tuple(PARAMS)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", where)
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected an object, got {type(mapping).__name__}", where)
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", where)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", where)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", where)
    return value


def _param(spec: Param, value, where: str):
    """``value`` of one param, checked against its kind and bound."""
    if spec.kind == "choice":
        if value not in spec.choices:
            raise ConfigError(f"expected one of {list(spec.choices)}, got {value!r}", where)
        return value
    if spec.kind == "floats":
        if not isinstance(value, list) or not value:
            raise ConfigError("expected a non-empty list of numbers", where)
        entry = Param("float", gt=spec.gt, ge=spec.ge)
        return [_param(entry, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if spec.kind == "int":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}", where)
    else:
        value = _number(value, where)
    if spec.gt is not None and not value > spec.gt:
        raise ConfigError(f"must be > {spec.gt:g}, got {value!r}", where)
    if spec.ge is not None and not value >= spec.ge:
        raise ConfigError(f"must be >= {spec.ge:g}, got {value!r}", where)
    if spec.even and value % 2:
        raise ConfigError(f"must be even, got {value!r}", where)
    return value


def _resolve_params(command: str, params) -> dict:
    """``params`` checked against the command's table, with every default filled in."""
    table = PARAMS[command]
    params = params or {}
    _check_keys(params, set(table), "params")
    resolved = {}
    for name, spec in table.items():
        value = params.get(name, spec.default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key {name!r}", "params")
        resolved[name] = _param(spec, value, f"params.{name}")
    return resolved


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
    """Validate a raw config: every config error is raised here, before any computation.

    The returned ``params`` are resolved against :data:`PARAMS`, with every default
    filled in; a ``sweep`` config also carries its :class:`~lamwave.sweeps.SweepSpec`.
    """
    _check_keys(raw, {"command", "laminate", "load", "params"}, "config")
    command = _require(raw, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}", "config.command")
    laminate_cfg = _require(raw, "laminate", "config")
    _check_keys(laminate_cfg, {"phases", "period_m"}, "config.laminate")
    cfg = {
        "command": command,
        "laminate": laminate_from_config(laminate_cfg),
        "load": load_from_config(raw.get("load")),
        "params": _resolve_params(command, raw.get("params")),
        "raw": raw,
    }
    if command == "sweep":
        try:
            cfg["sweep"] = sweeps.SweepSpec(**cfg["params"])
        except DomainError as exc:
            raise ConfigError(str(exc), "params") from exc
    if command in ("dispersion", "bandgap"):
        # the Bloch cosine oscillates in omega*ell/c at rates up to t1 + t2 <= 1 (the
        # layer travel fractions), so dispersion's node spacing of at most pi/4 keeps
        # 8 nodes per oscillation; bandgap's n_scan caps omega_max_over_pi alike and
        # sizes nothing
        p = cfg["params"]
        steps = p["n_scan"] if command == "bandgap" else p["n"] - 1
        if 4.0 * p["omega_max_over_pi"] > steps:
            raise ConfigError(
                f"must be <= {steps}/4, got {p['omega_max_over_pi']!r}", "params.omega_max_over_pi"
            )
    return cfg


def _cell(cfg: dict) -> CellState:
    """The one cell state of a run: the laminate at the stretch its load produces."""
    lam = cfg["laminate"]
    return cell_state(lam, materials.stretch_from_field(lam, cfg["load"]))


def _artifact(out: Path, command: str, tag: str, suffix: str) -> Path:
    return out / f"{command.replace('-', '_')}_{tag}.{suffix}"


def _run_effective(cfg, out: Path, tag: str) -> list[Path]:
    path = _artifact(out, "effective", tag, "json")
    write_json(path, _cell(cfg).eff.as_record())
    return [path]


def _run_magnetostatic(cfg, out: Path, tag: str) -> list[Path]:
    lam = cfg["laminate"]
    stretch = materials.stretch_from_field(lam, cfg["load"])
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
    st = _cell(cfg)
    p = cfg["params"]
    omega_max = p["omega_max_over_pi"] * math.pi
    written = []
    for folded, name in ((False, "dispersion"), (True, "dispersion_folded")):
        header, rows = disp.dispersion_table(st, omega_max, p["n"], folded=folded)
        path = out / f"{name}_{tag}.csv"
        view = "folded [0,pi]" if folded else "unfolded [0,2pi]"
        write_csv(path, [f"stretch = {st.eff.stretch!r}", f"kappa_ell view: {view}"], header, rows)
        written.append(path)
    gaps = disp.band_gap_records(st)
    path = _artifact(out, "dispersion", tag, "json")
    write_json(path, gaps)
    written.append(path)
    return written


def _run_bandgap(cfg, out: Path, tag: str) -> list[Path]:
    path = _artifact(out, "bandgap", tag, "json")
    write_json(path, disp.band_gap_records(_cell(cfg), cfg["params"]["omega_max_over_pi"] * math.pi))
    return [path]


def _run_soliton(cfg, out: Path, tag: str) -> list[Path]:
    eff = _cell(cfg).eff
    p = cfg["params"]
    speed_ratio = p["speed_ratio"]
    header, rows = soliton.waveform_table(eff, speed_ratio * eff.c, p["xi_max"], p["n"])
    wpath = out / f"soliton_waveform_{tag}.csv"
    write_csv(wpath, [f"speed_ratio = {speed_ratio!r}"], header, rows)
    header, rows = soliton.amplitude_table(eff)
    apath = out / f"soliton_amplitude_{tag}.csv"
    write_csv(apath, ["speed sweep up to the existence bound"], header, rows)
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
    spath = _artifact(out, "soliton", tag, "json")
    write_json(spath, summary)
    return [wpath, apath, spath]


def _run_simulate(cfg, out: Path, tag: str) -> list[Path]:
    """Impact run of simulate-fv (finite volume) or simulate-mkdv (spectral march)."""
    command, p = cfg["command"], cfg["params"]
    st = _cell(cfg)
    eff = st.eff
    velocity = p["V_over_c"] * eff.c
    kappa = 2.0 * math.pi / (p["wavelengths_per_period"] * eff.ell)
    y_star = soliton.shock_distance(eff, velocity, kappa)
    probes = [m * y_star for m in p["probes_y_star_multiples"]]
    t_final = p["t_final_factor"] * (max(probes) / eff.c + 3.0 * 2.0 * math.pi / (kappa * eff.c))
    summary = {"y_star_m": y_star, "c_eff": eff.c}
    if command == "simulate-fv":
        result = fv_sim.impact_run(
            st, velocity, kappa, probes, t_final,
            cells_per_layer=p["cells_per_layer"], limiter=p["limiter"],
        )
        traces = [(pr.position, pr.times, pr.v_over_c) for pr in result.probes]
        summary["t_final_s"] = t_final
    else:
        scfg = spectral_sim.config_for_impact(
            kappa, eff.c, window_factor=p["window_factor"], points_per_period=p["n_points"],
            dy=p["dy_m"], viscosity=p["viscosity"],
        )
        result = spectral_sim.impact_march(eff, velocity, kappa, probes, cfg=scfg)
        traces = [(y, result.t, v / eff.c) for y, v in sorted(result.records.items())]
        summary.update(window_s=scfg.window, scheme=result.scheme)
    summary["steps"] = result.steps
    summary["peak_v_over_c"] = max(float(abs(v).max()) for _, _, v in traces)
    theory = "fv" if command == "simulate-fv" else "mkdv"
    header, rows = probe_table(traces, kappa * eff.c / (2.0 * math.pi), theory)
    path = _artifact(out, command, tag, "csv")
    write_csv(path, [f"y_star_m = {y_star!r}", f"V_m_per_s = {velocity!r}"], header, rows)
    spath = _artifact(out, command, tag, "json")
    write_json(spath, summary)
    return [path, spath]


def _run_sweep(cfg, out: Path, tag: str) -> list[Path]:
    spec = cfg["sweep"]
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
    "simulate-fv": _run_simulate,
    "simulate-mkdv": _run_simulate,
    "sweep": _run_sweep,
}


def run(config_path: str | Path, out_dir: str | Path, threads: int = 1) -> int:
    """Execute one config; returns the exit status (0/1/2).

    ``threads`` is accepted and ignored (a sweep runs in one process); it stays in the
    signature because callers such as the benchmark harness pass it.
    """
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
    except (LamwaveError, ArithmeticError, ValueError, MemoryError) as exc:
        print(f"numerical failure in {command}: {exc}", file=sys.stderr)
        return 2

    p = cfg["params"]
    figure = _FIGURES.get(command, "")
    if command == "sweep":
        figure = _SWEEP_FIGURES[p["variable"]]
    elif figure == "fig5" and abs(p["V_over_c"] - math.sqrt(2.0)) < 1e-9 and p["wavelengths_per_period"] == 8:
        figure = "fig8"  # the low-dispersion impact
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
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
        "--threads", type=int, default=1, help="accepted and ignored; a sweep runs in one process"
    )
    parser.add_argument("--seed", type=int, default=0, help="accepted and ignored (no stochastic components)")
    args = parser.parse_args(argv)
    return run(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
