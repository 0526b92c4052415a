"""Command-line entry point: config validation, run orchestration, artifact emission.

A run is described by one JSON config file (schema documented in the README):
the laminate, a magnetic load, a ``command`` and command-specific ``params``.
Each command's runner returns its tables and its summary; :func:`run` alone writes
them to the chosen directory, as ``<stem>_<hash>.csv`` tables and one
``<command>_<hash>.json`` summary, and a manifest records which reference figure
each artifact corresponds to.  Identical configs produce byte-identical CSV bodies.
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
from .errors import ConfigError, DomainError, Instability, LamwaveError
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


# the impact keys of both simulate commands; each adds the keys of its discretisation
_IMPACT = {
    "V_over_c": Param("float", 2.0, gt=0.0),
    "wavelengths_per_period": Param("float", 16.0, gt=0.0),
    "probes_y_star_multiples": Param("floats", [1.0, 2.0], gt=0.0),
    "t_final_factor": Param("float", 1.25, gt=0.0),
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
    "simulate-fv": {
        "cells_per_layer": Param("int", 32, ge=4, even=True),
        **_IMPACT,
        "limiter": Param("choice", "minmod", choices=tuple(fv_sim.LIMITERS)),
    },
    "simulate-mkdv": {
        **_IMPACT,
        "window_factor": Param("float", 4.0, ge=4.0),
        "n_points": Param("int", 1024, ge=64),  # per forcing period; 64 x 4 = 256, the grid floor
        "dy_m": Param("float", spectral_sim.DEFAULT_DY, gt=0.0),
        "viscosity": Param("float", spectral_sim.DEFAULT_VISCOSITY, ge=0.0),
    },
    "sweep": {
        "variable": Param("choice", choices=tuple(sweeps.SWEEPS)),
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
    if unknown:  # the first by name, anchored at its own path
        raise ConfigError(f"unknown key; expected one of {sorted(allowed)}", f"{where}.{min(unknown)}")


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


def _run_effective(cfg):
    return [], _cell(cfg).eff.as_record()


def _run_magnetostatic(cfg):
    lam = cfg["laminate"]
    stretch = materials.stretch_from_field(lam, cfg["load"])
    norm = materials.load_normalization(lam)
    return [], {
        "stretch": stretch,
        "mu_breve": materials.effective_permeability(lam),
        "br_check_t": materials.effective_remnant_induction(lam),
        "average_modulus_pa": materials.average_shear_modulus(lam, stretch),
        "bn_scale_t": norm.b_scale,
        "br_n": norm.br_n,
        "rhs_norm": materials.dimensionless_load_rhs(lam, cfg["load"]),
    }


def _run_dispersion(cfg):
    st = _cell(cfg)
    p = cfg["params"]
    omega_max = p["omega_max_over_pi"] * math.pi
    header, unfolded, folded = disp.dispersion_table(st, omega_max, p["n"])
    stretch = f"stretch = {st.eff.stretch!r}"
    tables = [("dispersion", [stretch, "kappa_ell view: unfolded [0,2pi]"], header, unfolded),
              ("dispersion_folded", [stretch, "kappa_ell view: folded [0,pi]"], header, folded)]
    return tables, disp.band_gap_records(st)


def _run_bandgap(cfg):
    return [], disp.band_gap_records(_cell(cfg), cfg["params"]["omega_max_over_pi"] * math.pi)


def _run_soliton(cfg):
    eff = _cell(cfg).eff
    p = cfg["params"]
    speed_ratio = p["speed_ratio"]
    tables = [
        ("soliton_waveform", [f"speed_ratio = {speed_ratio!r}"],
         *soliton.waveform_table(eff, speed_ratio * eff.c, p["xi_max"], p["n"])),
        ("soliton_amplitude", ["speed sweep up to the existence bound"], *soliton.amplitude_table(eff)),
    ]
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
    return tables, summary


#: the most cells, window points or march steps a simulate run may ask for
MAX_RUN_SIZE = 2**31


def _check_size(size: float, key: str, what: str) -> None:
    """A run too large to hold fails here, before it allocates, naming ``params.<key>``."""
    if not size <= MAX_RUN_SIZE:
        raise DomainError(f"params.{key} asks for {size:.3g} {what}, more than {MAX_RUN_SIZE}")


def _run_simulate(cfg):
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
        try:
            periods = fv_sim.required_periods(st, t_final, max(probes), 2.0 * math.pi / kappa)
        except OverflowError:
            periods = math.inf
        # too large at the default cells_per_layer, the run is too long; else too fine
        scale = periods / st.nu2  # cells per unit of cells_per_layer
        _check_size(scale * PARAMS[command]["cells_per_layer"].default, "t_final_factor", "cells")
        _check_size(scale * p["cells_per_layer"], "cells_per_layer", "cells")
        try:
            result = fv_sim.impact_run(
                st, velocity, kappa, probes, t_final,
                cells_per_layer=p["cells_per_layer"], limiter=p["limiter"],
            )
        except Instability as exc:  # the signal speed grows with the impact velocity alone
            raise Instability(f"{exc} (params.V_over_c)") from None
        summary.update(t_final_s=t_final, cell_steps=result.cell_steps)
    else:
        scfg = spectral_sim.config_for_impact(
            kappa, eff.c, window_factor=p["window_factor"], points_per_period=p["n_points"],
            dy=p["dy_m"], viscosity=p["viscosity"],
        )
        # too many points at the default n_points, the window is too long; else too fine
        wide = round(p["window_factor"]) * PARAMS[command]["n_points"].default > MAX_RUN_SIZE
        _check_size(scfg.n_points, "window_factor" if wide else "n_points", "window points")
        # a march beyond the window's reach fails its own check in impact_march
        _check_size(min(max(probes), scfg.window * eff.c) / p["dy_m"], "dy_m", "march steps")
        result = spectral_sim.impact_march(eff, velocity, kappa, probes, cfg=scfg)
        summary.update(window_s=scfg.window, scheme=result.scheme)
    traces = [(y, result.t, v / eff.c) for y, v in zip(probes, result.records)]
    summary["steps"] = result.steps
    at = result.probe_cells if command == "simulate-fv" else result.stops
    if unresolved := [m for m, i in zip(p["probes_y_star_multiples"], at) if i == 0]:
        summary["unresolved_probes"] = unresolved  # in the first cell or step: the boundary signal
    summary["peak_v_over_c"] = max(float(abs(v).max()) for _, _, v in traces)
    theory = "fv" if command == "simulate-fv" else "mkdv"
    comments = [f"y_star_m = {y_star!r}", f"V_m_per_s = {velocity!r}"]
    table = probe_table(traces, kappa * eff.c / (2.0 * math.pi), theory)
    return [(command.replace("-", "_"), comments, *table)], summary


def _run_sweep(cfg):
    spec = cfg["sweep"]
    result = sweeps.SWEEPS[spec.variable](cfg["laminate"], spec)
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
    return [("sweep", comments, *sweeps.sweep_table(result))], result.summary


#: The runner of each command: ``cfg -> (tables, summary)``, with each table a
#: ``(stem, comments, header, columns)``.  Runners compute and return; :func:`run`
#: names and writes every artifact.
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    manifest_path = out / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
        if not isinstance(manifest, dict):
            raise ValueError("expected a JSON object")
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {manifest_path}: {exc}", file=sys.stderr)
        return 1
    command = cfg["command"]
    try:
        tables, summary = _RUNNERS[command](cfg)
    except (LamwaveError, ArithmeticError, ValueError, MemoryError) as exc:
        print(f"numerical failure in {command}: {exc}", file=sys.stderr)
        return 2

    # each table, then the summary, then the manifest entry: a run whose writes
    # stop part way never enters the manifest
    tag = config_hash(raw)
    writes = [(out / f"{stem}_{tag}.csv", write_csv, table) for stem, *table in tables]
    writes.append((out / f"{command.replace('-', '_')}_{tag}.json", write_json, (summary,)))
    p = cfg["params"]
    figure = _FIGURES.get(command, "")
    if command == "sweep":
        figure = _SWEEP_FIGURES[p["variable"]]
    elif figure == "fig5" and abs(p["V_over_c"] - math.sqrt(2.0)) < 1e-9 and p["wavelengths_per_period"] == 8:
        figure = "fig8"  # the low-dispersion impact
    manifest[f"{command}_{tag}"] = {
        "command": command,
        "figure": figure,
        "files": [path.name for path, _, _ in writes],
    }
    writes.append((manifest_path, write_json, (manifest,)))
    for path, write, args in writes:
        try:
            write(path, *args)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 1
    for path, _, _ in writes[:-1]:
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lamwave",
        description="Wave analysis and simulation of magneto-active soft bi-laminates.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; here 2 means a numerical failure
        return 0 if exc.code == 0 else 1
    return run(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
