"""Parameter studies: band-gap and solitary-wave tunability.

Three sweep variables are supported: the normalised magnetic load product,
the volume fraction of phase 2 (at unit stretch), and the shear-modulus
contrast (at unit stretch).  Rows are evaluated serially in grid order, and
the first exact band gaps of all rows are then found at once from Rytov's
closed-form bracket (:func:`lamwave.dispersion.first_band_gaps`), with no
frequency scan and no ceiling: a first gap reaching above 3 pi is reported
with its true edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dispersion, materials, soliton
from ._roots import golden_max
from .errors import DomainError, GentLocking, LamwaveError, NoRoot
from .homogenize import CellState, cell_state, effective_model
from .materials import Laminate, MagneticLoad

VARIABLES = ("magnetic_load_product", "volume_fraction_2", "modulus_contrast")


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one sweep variable."""

    variable: str
    lo: float
    hi: float
    n: int = 201

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise DomainError(f"unknown sweep variable {self.variable!r}")
        if not self.lo < self.hi:
            raise DomainError(f"sweep range needs lo < hi, got lo = {self.lo!r}, hi = {self.hi!r}")
        if self.n < 2:
            raise DomainError("sweep needs at least 2 points")
        if self.variable == "volume_fraction_2" and not (0.0 < self.lo and self.hi < 1.0):
            raise DomainError(
                f"volume fractions must stay inside (0, 1), got lo = {self.lo!r}, hi = {self.hi!r}"
            )
        if self.variable == "modulus_contrast" and not self.lo > 0.0:
            raise DomainError(f"modulus contrast must be positive, got lo = {self.lo!r}")

    def grid(self) -> np.ndarray:
        if self.variable == "modulus_contrast":
            # exact reciprocal pairs keep the inversion symmetry testable
            return np.exp(np.linspace(math.log(self.lo), math.log(self.hi), self.n))
        return np.linspace(self.lo, self.hi, self.n)


@dataclass
class SweepResult:
    variable: str
    values: np.ndarray
    rows: list[dict]
    fixed: dict
    summary: dict

    def column(self, key: str) -> np.ndarray:
        return np.asarray([row.get(key, math.nan) for row in self.rows], dtype=float)


def _gap_fields(row: dict, st: CellState, scale: float, pending: list) -> None:
    """Homogenised gap edges, rescaled by ``scale``; the exact ones wait in ``pending``.

    The exact columns are placed now (keeping the CSV column order) and filled
    by :func:`_exact_gap_fields` once every row of the sweep is known.
    """
    row["gap_exact_lo"] = row["gap_exact_hi"] = math.nan
    pending.append((row, st, scale))
    try:
        hg = dispersion.homogenized_band_gap(st.eff)
        row["gap_homog_lo"] = hg.lo * scale
        row["gap_homog_hi"] = hg.hi * scale
    except LamwaveError:
        row["gap_homog_lo"] = row["gap_homog_hi"] = math.nan


def _exact_gap_fields(pending: list) -> None:
    """First exact gap edges of every pending row, from one batched search."""
    lo, hi = dispersion.first_band_gaps([st for _, st, _ in pending])
    for (row, _, scale), a, b in zip(pending, lo.tolist(), hi.tolist()):
        row["gap_exact_lo"], row["gap_exact_hi"] = a * scale, b * scale


def _bound_fields(row: dict, eff, speed_scale: float):
    try:
        bound = soliton.existence_bound(eff)
        row["max_speed_ratio"] = bound * speed_scale if math.isfinite(bound) else math.inf
        row["max_strain"] = (
            soliton.max_strain_amplitude(eff) if math.isfinite(bound) else math.nan
        )
    except LamwaveError:
        row["max_speed_ratio"] = math.nan
        row["max_strain"] = math.nan


def sweep_magnetic(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Stretch, band gaps and solitary-wave bounds versus the magnetic load product.

    Frequencies are reported as omega*L/c0 with c0 the undeformed effective
    speed, so rows are comparable across stretch states.  Rows where the
    stretch solve hits the Gent validity limit are flagged ``locked`` instead
    of aborting the sweep.  The stretch balance has one root at every load
    (:func:`lamwave.materials.stretch_from_field`), so ``n_stretch_roots`` is 1
    on every row and the ``multi_root_rows`` summary is 0.
    """
    if spec.variable != "magnetic_load_product":
        raise DomainError("spec.variable must be 'magnetic_load_product'")
    c0 = effective_model(lam, 1.0).c
    pending: list = []

    def worker(p: float) -> dict:
        row: dict = {"load_product": float(p), "locked": 0, "n_stretch_roots": 1}
        try:
            stretch = materials.stretch_from_field(lam, MagneticLoad(bn_br_product=p))
            st = cell_state(lam, stretch)
        except (NoRoot, GentLocking) as exc:
            row["locked"] = 1
            row["stretch"] = math.nan
            row["eta"] = math.nan
            for key in ("gap_exact_lo", "gap_exact_hi", "gap_homog_lo", "gap_homog_hi",
                        "max_speed_ratio", "max_strain"):
                row[key] = math.nan
            row["note"] = str(exc)
            return row
        eff = st.eff
        row["stretch"] = stretch
        row["eta"] = eff.eta
        row["zeta"] = eff.zeta
        # omega*L/c0 = (omega*ell/c) * c / (stretch * c0)
        scale = eff.c / (stretch * c0)
        _gap_fields(row, st, scale, pending)
        _bound_fields(row, eff, speed_scale=eff.c / c0)
        return row

    values = spec.grid()
    rows = [worker(p) for p in values.tolist()]
    _exact_gap_fields(pending)
    unlocked = [r for r in rows if not r["locked"]]
    summary = {
        "n_locked": sum(r["locked"] for r in rows),
        "stretch_min": min((r["stretch"] for r in unlocked), default=math.nan),
        "stretch_max": max((r["stretch"] for r in unlocked), default=math.nan),
        "multi_root_rows": 0,
    }
    return SweepResult(
        variable=spec.variable,
        values=values,
        rows=rows,
        fixed={"period_m": lam.period},
        summary=summary,
    )


def _with_volume_fraction(lam: Laminate, nu2: float) -> Laminate:
    p1 = replace(lam.phase1, volume_fraction=1.0 - nu2)
    p2 = replace(lam.phase2, volume_fraction=nu2)
    return Laminate(p1, p2, lam.period)


def _with_contrast(lam: Laminate, ratio: float) -> Laminate:
    model2 = replace(lam.phase2.model, shear_modulus=ratio * lam.phase1.model.shear_modulus)
    return Laminate(lam.phase1, replace(lam.phase2, model=model2), lam.period)


def _unit_stretch_rows(lam: Laminate, spec: SweepSpec, variant) -> tuple[np.ndarray, list[dict]]:
    """Rows of a sweep over laminates ``variant(lam, x)`` at unit stretch."""
    values = spec.grid()
    rows = []
    pending: list = []
    for x in values:
        st = cell_state(variant(lam, float(x)), 1.0)
        row = {spec.variable: float(x), "eta": st.eff.eta, "zeta": st.eff.zeta}
        _gap_fields(row, st, 1.0, pending)
        _bound_fields(row, st.eff, speed_scale=1.0)
        rows.append(row)
    _exact_gap_fields(pending)
    return values, rows


def sweep_volume_fraction(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the phase-2 volume fraction (stretch 1)."""
    if spec.variable != "volume_fraction_2":
        raise DomainError("spec.variable must be 'volume_fraction_2'")
    values, rows = _unit_stretch_rows(lam, spec, _with_volume_fraction)

    def eta_of(x: float) -> float:
        return effective_model(_with_volume_fraction(lam, x), 1.0).eta

    def strain_of(x: float) -> float:
        try:
            return soliton.max_strain_amplitude(effective_model(_with_volume_fraction(lam, x), 1.0))
        except LamwaveError:
            return -math.inf

    eta_col = np.asarray([r["eta"] for r in rows])
    strain_col = np.asarray([r["max_strain"] for r in rows])
    pad = max((values[-1] - values[0]) / (len(values) - 1), 1e-4)

    def bracket(col: np.ndarray) -> tuple[float, float]:
        i = int(np.nanargmax(col))
        return max(values[0], values[i] - pad), min(values[-1], values[i] + pad)

    st = cell_state(lam, 1.0)
    summary = {
        "argmax_eta": golden_max(eta_of, *bracket(eta_col), xatol=1e-10),
        "argmax_max_strain": golden_max(strain_of, *bracket(strain_col), xatol=1e-10),
        "speed_ratio_prediction": st.c2 / (st.c1 + st.c2),
    }
    return SweepResult(
        variable=spec.variable,
        values=values,
        rows=rows,
        fixed={"stretch": 1.0, "period_m": lam.period},
        summary=summary,
    )


def sweep_contrast(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the shear-modulus contrast (stretch 1).

    The contrast multiplies the phase-1 modulus to give phase 2; the grid is
    logarithmic so reciprocal pairs are present exactly.
    """
    if spec.variable != "modulus_contrast":
        raise DomainError("spec.variable must be 'modulus_contrast'")
    values, rows = _unit_stretch_rows(lam, spec, _with_contrast)
    widths = [r["gap_exact_hi"] - r["gap_exact_lo"] for r in rows]
    summary = {
        "max_gap_width": float(np.nanmax(widths)) if widths else math.nan,
        "contrast_at_max_gap": float(values[int(np.nanargmax(widths))]) if widths else math.nan,
    }
    return SweepResult(
        variable=spec.variable,
        values=values,
        rows=rows,
        fixed={"stretch": 1.0, "period_m": lam.period},
        summary=summary,
    )


def sweep_table(result: SweepResult) -> tuple[list[str], list[tuple]]:
    """Column names and rows for CSV emission (union of row keys, stable order)."""
    keys: list[str] = []
    for row in result.rows:
        for k in row:
            if k not in keys and k != "note":
                keys.append(k)
    rows = [tuple(row.get(k, math.nan) for k in keys) for row in result.rows]
    return keys, rows
