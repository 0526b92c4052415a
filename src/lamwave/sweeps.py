"""Parameter studies: band-gap and solitary-wave tunability.

Three sweep variables are supported: the normalised magnetic load product,
the volume fraction of phase 2 (at unit stretch), and the shear-modulus
contrast (at unit stretch).  Rows are computed as columns: one batched
stretch solve (:func:`lamwave.materials.stretch_roots`), one cell-state
evaluation (:func:`lamwave.homogenize.cell_columns`) and one search for the
first exact band gaps of all rows, from Rytov's closed-form bracket
(:func:`lamwave.dispersion.band_gap_edges` at n = 1), with no frequency scan
and no ceiling: a first gap reaching above 3 pi is reported with its true edges.
The homogenised gaps and the soliton bounds are read from the same column state,
one call each, and the columns stay columns up to the CSV writer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dispersion, materials, soliton
from ._roots import golden_max
from .errors import DomainError, LamwaveError
from .homogenize import FLOAT_ERRORS, CellState, EffectiveModel, cell_columns, cell_state, effective_model
from .materials import HyperelasticModel, Laminate, MagneticLoad, shear_coefficients


def grid(variable: str, lo: float, hi: float, n: int) -> np.ndarray:
    """The ``n`` values of a sweep of ``variable`` from ``lo`` to ``hi``: log-spaced for the
    modulus contrast, linear otherwise.  Raises :class:`DomainError` on a range the variable
    cannot take."""
    if not lo < hi:
        raise DomainError(f"sweep range needs lo < hi, got lo = {lo!r}, hi = {hi!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"sweep range width hi - lo overflows, got lo = {lo!r}, hi = {hi!r}")
    if variable == "volume_fraction_2" and not (0.0 < lo and hi < 1.0):
        raise DomainError(f"volume fractions must stay inside (0, 1), got lo = {lo!r}, hi = {hi!r}")
    if variable == "modulus_contrast":
        if not lo > 0.0:
            raise DomainError(f"modulus contrast must be positive, got lo = {lo!r}")
        # exact reciprocal pairs keep the inversion symmetry testable
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    return np.linspace(lo, hi, n)


@dataclass
class SweepResult:
    """A sweep's table as columns, one entry per grid value, in CSV column order."""

    variable: str
    values: np.ndarray
    columns: dict[str, np.ndarray]
    fixed: dict
    summary: dict

    def column(self, key: str) -> np.ndarray:
        return np.asarray(self.columns[key], dtype=float)


def _columns(st: CellState, scale, speed_scale) -> dict[str, np.ndarray]:
    """eta, zeta, gap edges and soliton bounds of every cell of a column state, with gap
    edges rescaled by ``scale`` and speed bounds by ``speed_scale`` (floats or columns).
    The soliton bounds are NaN where eta <= 0 or, with a finite speed bound, zeta <= 0;
    an unbounded speed is inf and its strain NaN."""
    eff = st.eff
    lo, hi = dispersion.band_gap_edges(st, 1)
    homog = dispersion.homogenized_band_gap(eff)
    bound = soliton.existence_bound(eff)
    speed = np.where(np.isinf(bound), math.inf, np.where(eff.zeta <= 0.0, math.nan, bound * speed_scale))
    return {"eta": eff.eta, "zeta": eff.zeta, "gap_exact_lo": lo * scale, "gap_exact_hi": hi * scale,
            "gap_homog_lo": homog.lo * scale, "gap_homog_hi": homog.hi * scale,
            "max_speed_ratio": speed, "max_strain": soliton.max_strain_amplitude(eff)}


def sweep_magnetic(lam: Laminate, values: np.ndarray) -> SweepResult:
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
    c0 = effective_model(lam, 1.0).c
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
    solved = ~locked
    free = stretch[solved]
    with np.errstate(**FLOAT_ERRORS):
        st = cell_state(lam, free)
        # omega*L/c0 = (omega*ell/c) * c / (stretch * c0)
        unlocked = {"stretch": free, **_columns(st, st.eff.c / (free * c0), st.eff.c / c0)}
    # zeta and eta are NaN where their terms overflow (cell_columns): such a row locks too
    overflow = np.flatnonzero(solved)[np.isnan(st.eff.zeta)]
    for i in overflow.tolist():
        notes[i] = f"stretch {stretch[i]:.6g}: zeta or eta overflows the float range"
    locked[overflow] = True
    columns = {"load_product": values, "locked": locked.astype(int),
               "n_stretch_roots": np.ones(len(values), dtype=int)}
    for key, column in unlocked.items():
        columns[key] = np.full(len(values), math.nan)
        columns[key][solved] = column
        columns[key][overflow] = math.nan
    free = stretch[~locked]
    summary = {
        "n_locked": len(notes),
        "stretch_min": float(free.min()) if free.size else math.nan,
        "stretch_max": float(free.max()) if free.size else math.nan,
        "multi_root_rows": 0,
        "locked_notes": [{"load_product": values[i].item(), "note": notes[i]} for i in sorted(notes)],
    }
    return SweepResult("magnetic_load_product", values, columns, {"period_m": lam.period}, summary)


def _unit_stretch_columns(lam: Laminate, variable: str, values: np.ndarray, sc, nu) -> dict[str, np.ndarray]:
    """Columns at unit stretch from the phases' shear coefficients ``sc`` and volume
    fractions ``nu``, each a pair of floats or columns with one entry per row."""
    with np.errstate(**FLOAT_ERRORS):
        st = cell_columns(sc, (lam.phase1.density, lam.phase2.density), nu, 1.0, lam.period)
        return {variable: values, **_columns(st, 1.0, 1.0)}


def sweep_volume_fraction(lam: Laminate, values: np.ndarray) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the phase-2 volume fraction (stretch 1)."""
    p1, p2 = lam.phases
    sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(p2.model, 1.0))
    columns = _unit_stretch_columns(lam, "volume_fraction_2", values, sc, (1.0 - values, values))

    def eff_of(x: float) -> EffectiveModel:
        return cell_columns(sc, (p1.density, p2.density), (1.0 - x, x), 1.0, lam.period).eff

    def strain_of(x: float) -> float:
        try:
            return soliton.max_strain_amplitude(eff_of(x))
        except LamwaveError:
            return -math.inf

    pad = max((values[-1] - values[0]) / (len(values) - 1), 1e-4)
    notes = []

    def argmax(f, key: str) -> float | None:
        """The maximiser of ``f`` near the row of the largest ``key``; None if no row has one."""
        if np.isnan(columns[key]).all():
            notes.append(f"argmax_{key} is null: no row has a finite {key}")
            return None
        i = int(np.nanargmax(columns[key]))
        return golden_max(f, max(values[0], values[i] - pad), min(values[-1], values[i] + pad), xatol=1e-10)

    st = cell_state(lam, 1.0)
    summary = {
        "argmax_eta": argmax(lambda x: eff_of(x).eta, "eta"),
        "argmax_max_strain": argmax(strain_of, "max_strain"),
        "speed_ratio_prediction": st.c2 / (st.c1 + st.c2),
    }
    if notes:
        summary["note"] = "; ".join(notes)
    fixed = {"stretch": 1.0, "period_m": lam.period}
    return SweepResult("volume_fraction_2", values, columns, fixed, summary)


def sweep_contrast(lam: Laminate, values: np.ndarray) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the shear-modulus contrast (stretch 1).

    The contrast multiplies the phase-1 modulus to give phase 2; the grid is
    logarithmic so reciprocal pairs are present exactly.
    """
    p1, p2 = lam.phases
    with np.errstate(**FLOAT_ERRORS):  # one model holding the column of phase-2 moduli
        model2 = HyperelasticModel(p2.model.kind, values * p1.model.shear_modulus, p2.model.beta)
        sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(model2, 1.0))
    nu = (p1.volume_fraction, p2.volume_fraction)
    columns = _unit_stretch_columns(lam, "modulus_contrast", values, sc, nu)
    widths = columns["gap_exact_hi"] - columns["gap_exact_lo"]
    summary = {
        "max_gap_width": float(np.nanmax(widths)),
        "contrast_at_max_gap": float(values[int(np.nanargmax(widths))]),
    }
    fixed = {"stretch": 1.0, "period_m": lam.period}
    return SweepResult("modulus_contrast", values, columns, fixed, summary)


#: The sweep of each variable, as ``(laminate, grid values) -> SweepResult``.  Each entry
#: calls its function by this module's name for it, so that a wrapper bound over
#: that name (the benchmark's tracer binds one) is what runs.
SWEEPS = {
    "magnetic_load_product": lambda lam, values: sweep_magnetic(lam, values),
    "volume_fraction_2": lambda lam, values: sweep_volume_fraction(lam, values),
    "modulus_contrast": lambda lam, values: sweep_contrast(lam, values),
}
