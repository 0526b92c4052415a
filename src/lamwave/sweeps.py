"""Parameter studies: band-gap and solitary-wave tunability.

Three sweep variables are supported: the normalised magnetic load product,
the volume fraction of phase 2 (at unit stretch), and the shear-modulus
contrast (at unit stretch).  Rows are computed as columns: one batched
stretch solve (:func:`lamwave.materials.stretch_roots`), one cell-state
evaluation (:func:`lamwave.homogenize.cell_columns`) and one search for the
first exact band gaps of all rows, from Rytov's closed-form bracket
(:func:`lamwave.dispersion.band_gap_edges` at n = 1), with no frequency scan
and no ceiling: a first gap reaching above 3 pi is reported with its true edges.
The columns become row dicts at the end, where the homogenised gaps and the
soliton bounds are read row by row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import dispersion, materials, soliton
from ._roots import golden_max
from .errors import DomainError, LamwaveError
from .homogenize import CellState, EffectiveModel, cell_columns, cell_state, effective_model
from .materials import HyperelasticModel, Laminate, MagneticLoad, shear_coefficients

#: Column arithmetic as on one row's floats: an overflow gives inf and an invalid
#: operation NaN, silently, and a division by zero raises (an ArithmeticError).
_FLOAT_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "raise"}

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


def _rows(st: CellState, scale, speed_scale) -> list[dict]:
    """eta, zeta, gap edges and soliton bounds of every cell of a column state, with gap
    edges rescaled by ``scale`` and speed bounds by ``speed_scale`` (floats or columns)."""
    lo, hi = dispersion.band_gap_edges(st, 1)
    n = len(lo)
    effs = zip(*(np.broadcast_to(getattr(st.eff, f.name), n).tolist() for f in fields(EffectiveModel)))
    scales = zip((lo * scale).tolist(), (hi * scale).tolist(), np.broadcast_to(scale, n).tolist(),
                 np.broadcast_to(speed_scale, n).tolist())
    rows = []
    for eff, (a, b, s, v) in zip((EffectiveModel(*e) for e in effs), scales):
        row = {"eta": eff.eta, "zeta": eff.zeta, "gap_exact_lo": a, "gap_exact_hi": b}
        try:
            hg = dispersion.homogenized_band_gap(eff)
            row["gap_homog_lo"], row["gap_homog_hi"] = hg.lo * s, hg.hi * s
        except LamwaveError:
            row["gap_homog_lo"] = row["gap_homog_hi"] = math.nan
        try:
            bound = soliton.existence_bound(eff)
            row["max_speed_ratio"] = bound * v if math.isfinite(bound) else math.inf
            row["max_strain"] = soliton.max_strain_amplitude(eff) if math.isfinite(bound) else math.nan
        except LamwaveError:
            row["max_speed_ratio"] = row["max_strain"] = math.nan
        rows.append(row)
    return rows


def sweep_magnetic(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Stretch, band gaps and solitary-wave bounds versus the magnetic load product.

    Frequencies are reported as omega*L/c0 with c0 the undeformed effective
    speed, so rows are comparable across stretch states.  Rows where the
    stretch solve hits the Gent validity limit, or whose stretch is so small that
    its fourth power underflows, are flagged ``locked`` instead of aborting the
    sweep; the summary's ``locked_notes`` says why, one ``{"load_product", "note"}``
    per locked row.  The stretch balance has one root at every load
    (:func:`lamwave.materials.stretch_roots`), so ``n_stretch_roots`` is 1
    on every row and the ``multi_root_rows`` summary is 0.
    """
    if spec.variable != "magnetic_load_product":
        raise DomainError("spec.variable must be 'magnetic_load_product'")
    c0 = effective_model(lam, 1.0).c
    values = spec.grid()
    # every load passes the checks of a MagneticLoad: finite, and the product form
    # needs a vacuum-permeability stack
    if not np.isfinite(values).all():
        raise DomainError("magnetic load must be finite")
    materials.dimensionless_load_rhs(lam, MagneticLoad(bn_br_product=0.0))
    stretch, errors = materials.stretch_roots(lam, values)
    notes = {i: str(exc) for i, exc in errors.items()}
    # g = x^2 G and h = 3 x^4 G' lose their value once x^4 leaves the normal float
    # range (x < 1.2e-77: a neo-Hookean or Yeoh stack under a load near -1e300)
    for i in np.flatnonzero(stretch < sys.float_info.min ** 0.25).tolist():
        notes[i] = f"stretch {stretch[i]:.6g} underflows: its fourth power is below the float range"
    locked = np.isin(np.arange(len(values)), list(notes))
    free = stretch[~locked]
    with np.errstate(**_FLOAT_ERRORS):
        st = cell_state(lam, free)
        # omega*L/c0 = (omega*ell/c) * c / (stretch * c0)
        unlocked = iter(_rows(st, st.eff.c / (free * c0), st.eff.c / c0))
    no_root = dict.fromkeys(("stretch", "eta", "zeta", "gap_exact_lo", "gap_exact_hi",
                             "gap_homog_lo", "gap_homog_hi", "max_speed_ratio", "max_strain"),
                            math.nan)
    rows = []
    for i, (p, x) in enumerate(zip(values.tolist(), stretch.tolist())):
        row: dict = {"load_product": p, "locked": int(i in notes), "n_stretch_roots": 1}
        if i in notes:
            row.update(no_root, note=notes[i])
        else:
            row.update(stretch=x, **next(unlocked))
        rows.append(row)
    summary = {
        "n_locked": len(notes),
        "stretch_min": float(free.min()) if free.size else math.nan,
        "stretch_max": float(free.max()) if free.size else math.nan,
        "multi_root_rows": 0,
        "locked_notes": [{"load_product": values[i].item(), "note": notes[i]} for i in sorted(notes)],
    }
    return SweepResult(spec.variable, values, rows, {"period_m": lam.period}, summary)


def _unit_stretch_rows(lam: Laminate, variable: str, values: np.ndarray, sc, nu) -> list[dict]:
    """Rows at unit stretch from the phases' shear coefficients ``sc`` and volume
    fractions ``nu``, each a pair of floats or columns with one entry per row."""
    with np.errstate(**_FLOAT_ERRORS):
        st = cell_columns(sc, (lam.phase1.density, lam.phase2.density), nu, 1.0, lam.period)
        rows = _rows(st, 1.0, 1.0)
    return [{variable: x, **row} for x, row in zip(values.tolist(), rows)]


def sweep_volume_fraction(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the phase-2 volume fraction (stretch 1)."""
    if spec.variable != "volume_fraction_2":
        raise DomainError("spec.variable must be 'volume_fraction_2'")
    values = spec.grid()
    p1, p2 = lam.phases
    sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(p2.model, 1.0))
    rows = _unit_stretch_rows(lam, spec.variable, values, sc, (1.0 - values, values))

    def eff_of(x: float) -> EffectiveModel:
        return cell_columns(sc, (p1.density, p2.density), (1.0 - x, x), 1.0, lam.period).eff

    def strain_of(x: float) -> float:
        try:
            return soliton.max_strain_amplitude(eff_of(x))
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
        "argmax_eta": golden_max(lambda x: eff_of(x).eta, *bracket(eta_col), xatol=1e-10),
        "argmax_max_strain": golden_max(strain_of, *bracket(strain_col), xatol=1e-10),
        "speed_ratio_prediction": st.c2 / (st.c1 + st.c2),
    }
    return SweepResult(spec.variable, values, rows, {"stretch": 1.0, "period_m": lam.period}, summary)


def sweep_contrast(lam: Laminate, spec: SweepSpec) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the shear-modulus contrast (stretch 1).

    The contrast multiplies the phase-1 modulus to give phase 2; the grid is
    logarithmic so reciprocal pairs are present exactly.
    """
    if spec.variable != "modulus_contrast":
        raise DomainError("spec.variable must be 'modulus_contrast'")
    values = spec.grid()
    p1, p2 = lam.phases
    with np.errstate(**_FLOAT_ERRORS):  # one model holding the column of phase-2 moduli
        model2 = HyperelasticModel(p2.model.kind, values * p1.model.shear_modulus, p2.model.beta)
        sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(model2, 1.0))
    rows = _unit_stretch_rows(lam, spec.variable, values, sc, (p1.volume_fraction, p2.volume_fraction))
    widths = [r["gap_exact_hi"] - r["gap_exact_lo"] for r in rows]
    summary = {
        "max_gap_width": float(np.nanmax(widths)) if widths else math.nan,
        "contrast_at_max_gap": float(values[int(np.nanargmax(widths))]) if widths else math.nan,
    }
    return SweepResult(spec.variable, values, rows, {"stretch": 1.0, "period_m": lam.period}, summary)


def sweep_table(result: SweepResult) -> tuple[list[str], list[tuple]]:
    """Column names and rows for CSV emission (union of row keys, stable order)."""
    keys = list(dict.fromkeys(k for row in result.rows for k in row if k != "note"))
    missing = [math.nan] * len(keys)
    return keys, [tuple(map(row.get, keys, missing)) for row in result.rows]
