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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import dispersion as disp
from . import fv_sim, materials, soliton, spectral_sim, sweeps
from .errors import ConfigError, DomainError, GeometryError, Instability, LamwaveError
from .homogenize import CellState, cell_state, effective_model
from .materials import HyperelasticModel, Laminate, MagneticLoad, Phase
from .output import config_hash, probe_table, write_csv, write_json

_FIGURES = {"dispersion": "fig3", "bandgap": "fig3", "soliton": "fig4a+fig4b",
            "simulate-fv": "fig5", "simulate-mkdv": "fig5"}
_SWEEP_FIGURES = {"magnetic_load_product": "fig6a+fig6b", "volume_fraction_2": "fig7",
                  "modulus_contrast": "fig7"}

REQUIRED = object()  # default of a key that must be given


@dataclass(frozen=True)
class Param:
    """One config key: its kind, its default and its bound.

    ``kind`` is ``"float"``, ``"int"``, ``"text"`` (its ``str``), ``"choice"`` (one of
    ``choices``), ``"floats"`` (a non-empty list, each entry bounded like a float) or
    ``"nested"`` (an object or list that its own reader checks).  A number must exceed
    ``gt``, be at least ``ge`` and, if ``even``, be even; every float must also be finite.
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
        "t_final_factor": Param("float", 1.25, gt=0.0),
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

# the tables of the other config objects: a top-level key is at ``config.<key>``,
# and the content of each nested object at its own path (``laminate.phases[0].rho``)
_CONFIG = {"command": Param("choice", choices=COMMANDS), "laminate": Param("nested"),
           "load": Param("nested", None), "params": Param("nested", None)}
_LAMINATE = {"phases": Param("nested"), "period_m": Param("float")}
_PHASE = {"model": Param("nested"), "rho": Param("float"), "nu": Param("float"),
          "mu_rel": Param("float", 1.0), "br_t": Param("float", 0.0)}
_MODEL = {"kind": Param("text"), "G_pa": Param("float"), "beta": Param("float", 0.0)}


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
    """``value`` of one key, checked against its kind and bound."""
    if spec.kind == "nested":
        return value
    if spec.kind == "text":
        return str(value)
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


def _resolve(table: dict, mapping, where: str) -> dict:
    """The object ``mapping`` at ``where`` checked against ``table``, with every default filled in."""
    _check_keys(mapping, set(table), where)
    resolved = {}
    for name, spec in table.items():
        value = mapping.get(name, spec.default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key {name!r}", where)
        resolved[name] = _param(spec, value, f"{where}.{name}")
    return resolved


@contextmanager
def _at(where: str):
    """A library error raised inside becomes a :class:`ConfigError` at the key path ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except LamwaveError as exc:
        raise ConfigError(str(exc), where) from exc


@contextmanager
def _failing_at(where: str):
    """A numerical failure raised inside names the key path ``where``; it still exits 2."""
    try:
        yield
    except (Instability, ArithmeticError, GeometryError) as exc:
        raise type(exc)(f"{exc} ({where})") from None


def phase_from_config(cfg: dict, where: str) -> Phase:
    p = _resolve(_PHASE, cfg, where)
    m = _resolve(_MODEL, p["model"], f"{where}.model")
    with _at(where):
        model = HyperelasticModel(kind=m["kind"], shear_modulus=m["G_pa"], beta=m["beta"])
        return Phase(model=model, density=p["rho"], volume_fraction=p["nu"],
                     permeability=p["mu_rel"] * materials.MU0, remnant_induction=p["br_t"])


def laminate_from_config(cfg: dict) -> Laminate:
    lam = _resolve(_LAMINATE, cfg, "laminate")
    if not isinstance(lam["phases"], list) or len(lam["phases"]) != 2:
        raise ConfigError("phases must be a list of exactly 2 entries", "laminate.phases")
    p1, p2 = (phase_from_config(phase, f"laminate.phases[{i}]") for i, phase in enumerate(lam["phases"]))
    with _at("laminate"):
        return Laminate(p1, p2, lam["period_m"])


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
    with _at(f"load.{key}"):
        return MagneticLoad(b=value) if key == "b_t" else MagneticLoad(bn_br_product=value)


def parse_config(raw: dict) -> dict:
    """Validate a raw config: every config error is raised here, before any computation.

    The returned ``params`` are resolved against :data:`PARAMS`, with every default
    filled in.
    """
    top = _resolve(_CONFIG, raw, "config")
    command = top["command"]
    cfg = {
        "command": command,
        "laminate": laminate_from_config(top["laminate"]),
        "load": load_from_config(top["load"]),
        "params": _resolve(PARAMS[command], {} if top["params"] is None else top["params"], "params"),
        "raw": raw,
    }
    p = cfg["params"]
    if command == "sweep":  # the range rules on two points; the run builds the grid (too large: exit 2)
        with _at("params"):
            sweeps.grid(p["variable"], p["lo"], p["hi"], 2)
    swept = command == "sweep" and p["variable"] == "magnetic_load_product"
    if swept or cfg["load"].bn_br_product is not None:  # a load product needs a vacuum-permeability stack
        with _at("params.variable" if swept else "load.bn_br_product"):
            materials.dimensionless_load_rhs(cfg["laminate"], MagneticLoad(bn_br_product=0.0))
    if command == "soliton" and math.isinf(2.0 * p["xi_max"]):  # the xi grid spans 2 xi_max
        raise ConfigError(f"must be at most {sys.float_info.max / 2:.6g} in magnitude, got {p['xi_max']!r}",
                          "params.xi_max")
    if command in ("dispersion", "bandgap"):
        # the Bloch cosine oscillates in omega*ell/c at rates up to t1 + t2 <= 1 (the
        # layer travel fractions), so dispersion's node spacing of at most pi/4 keeps
        # 8 nodes per oscillation; bandgap's n_scan caps omega_max_over_pi alike and
        # sizes nothing
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
    lam = cfg["laminate"]
    return [], effective_model(lam, materials.stretch_from_field(lam, cfg["load"])).as_record()


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
    with _failing_at("params.speed_ratio"):  # Python's float powers of it overflow or vanish
        speed = speed_ratio * eff.c
        if math.isinf(speed):  # a float product overflows without raising
            raise OverflowError(f"the speed speed_ratio * c = {speed_ratio!r} * {eff.c!r} overflows")
        waveform = soliton.waveform_table(eff, speed, p["xi_max"], p["n"])
    tables = [
        ("soliton_waveform", [f"speed_ratio = {speed_ratio!r}"], *waveform),
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


#: the most bytes a simulate run may hold: its cells or window points and probe samples
MAX_HELD = 3 * 2**30
#: the most cell-steps or point-steps a simulate run may compute, FV steps at the linear speeds
MAX_WORK = 2**40
#: the params each simulate command sizes its run by, in the order _check_sizes tries them
_SIZE_KEYS = {"simulate-fv": (*_IMPACT, "t_final_factor", "cells_per_layer"),
              "simulate-mkdv": (*_IMPACT, "window_factor", "n_points", "dy_m")}


def _plan(st: CellState, command: str, q: dict):
    """(shock distance y* (m), impact plan) of the simulate run of ``command`` at params ``q``;
    y* grows as 1/V^2.  A laminate whose layers are not whole cells fails, naming the key."""
    eff = st.eff
    velocity = q["V_over_c"] * eff.c
    kappa = 2.0 * math.pi / (q["wavelengths_per_period"] * eff.ell)
    y_star = soliton.shock_distance(eff, velocity, kappa)
    probes = [m * y_star for m in q["probes_y_star_multiples"]]
    if command == "simulate-mkdv":
        cfg = spectral_sim.config_for_impact(kappa, eff.c, q["window_factor"], q["n_points"], q["dy_m"],
                                             q["viscosity"])
        return y_star, spectral_sim.plan_impact(eff, velocity, kappa, probes, cfg)
    t_final = q["t_final_factor"] * (max(probes) / eff.c + 3.0 * 2.0 * math.pi / (kappa * eff.c))
    with _failing_at("params.cells_per_layer"):
        return y_star, fv_sim.plan_impact(st, velocity, kappa, probes, t_final, q["cells_per_layer"])


def _check_sizes(st: CellState, command: str, p: dict):
    """The :func:`_plan` of params ``p``.  A run whose plan passes :data:`MAX_HELD` or :data:`MAX_WORK`
    fails here, before it allocates, naming the first of its ``_SIZE_KEYS`` that makes it too large
    with the keys after it at their defaults (the last key at the latest); a size that overflows is
    too large, and layers that the default ``cells_per_layer`` cannot grid make no run to size."""
    def sized(q: dict):
        try:
            y_star, plan = _plan(st, command, q)
            return (y_star, plan), float(plan.held), float(plan.work)
        except ArithmeticError:
            return None, math.inf, math.inf

    planned, held, work = sized(p)
    if held <= MAX_HELD and work <= MAX_WORK:
        return planned
    q = {**p, **{key: PARAMS[command][key].default for key in _SIZE_KEYS[command]}}
    for key in _SIZE_KEYS[command]:
        q[key] = p[key]
        try:
            _, h, w = sized(q)
        except GeometryError:
            continue
        if not (h <= MAX_HELD and w <= MAX_WORK):
            raise DomainError(f"params.{key} asks for a run that holds {held:.3g} B (at most {MAX_HELD}) "
                              f"and computes {work:.3g} cell- or point-steps (at most {MAX_WORK})")


def _run_simulate(cfg):
    """Impact run of simulate-fv (finite volume) or simulate-mkdv (spectral march)."""
    command, p = cfg["command"], cfg["params"]
    st = _cell(cfg)
    eff = st.eff
    y_star, plan = _check_sizes(st, command, p)
    summary = {"y_star_m": y_star, "c_eff": eff.c}
    if command == "simulate-fv":
        with _failing_at("params.V_over_c"):  # the signal speed grows with V alone
            result = plan.run(p["limiter"])
        summary.update(t_final_s=plan.t_final, cell_steps=result.cell_steps)
    else:
        with _failing_at("params.window_factor"):
            plan.check_window()
        result = plan.run()
        summary.update(window_s=plan.cfg.window, scheme=result.scheme)
    traces = [(y, result.t, v / eff.c) for y, v in zip(plan.probes, result.records)]
    summary["steps"] = result.steps
    if unresolved := [m for m, i in zip(p["probes_y_star_multiples"], plan.probe_index) if i == 0]:
        summary["unresolved_probes"] = unresolved  # in the first cell or step: the boundary signal
    summary["peak_v_over_c"] = max(float(abs(v).max()) for _, _, v in traces)
    comments = [f"y_star_m = {y_star!r}", f"V_m_per_s = {plan.velocity!r}"]
    table = probe_table(traces, plan.kappa * eff.c / (2.0 * math.pi), command.removeprefix("simulate-"))
    return [(command.replace("-", "_"), comments, *table)], summary


def _run_sweep(cfg):
    p = cfg["params"]
    result = sweeps.SWEEPS[p["variable"]](cfg["laminate"], sweeps.grid(**p))
    freq_unit = (
        "omega*L/c0 (undeformed period and speed)"
        if p["variable"] == "magnetic_load_product"
        else "omega*ell/c"
    )
    comments = (
        [f"variable: {result.variable}"]
        + [f"fixed {k} = {v!r}" for k, v in sorted(result.fixed.items())]
        + [f"units: gap edges in {freq_unit}; speeds as ratios to c; strains dimensionless"]
    )
    return [("sweep", comments, list(result.columns), [tuple(result.columns.values())])], result.summary


#: The runner of each command: ``cfg -> (tables, summary)``, with each table a
#: ``(stem, comments, header, blocks)`` (:func:`lamwave.output.write_csv`).  Runners
#: compute and return; :func:`run` names and writes every artifact.
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
