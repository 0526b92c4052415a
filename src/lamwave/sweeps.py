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
from .homogenize import FLOAT_ERRORS, CellState, cell_columns, cell_state
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

    Frequencies are reported as omega*L/c0 with c0 the speed of the undeformed cell, the
    last entry of the sweep's column state, so rows are comparable across stretch states.
    A row whose stretch solve hits the Gent validity limit, whose stretch has a fourth
    power below the float range, or whose zeta or eta overflows is flagged ``locked``
    instead of aborting the sweep; the summary's ``locked_notes`` says why, one
    ``{"load_product", "note"}`` per locked row.  The stretch balance has one root at
    every load (:func:`lamwave.materials.stretch_roots`), so ``n_stretch_roots`` is 1
    on every row and the ``multi_root_rows`` summary is 0.
    """
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
    # one column state: a locked row at the placeholder stretch 1, then the undeformed cell
    x = np.append(np.where(locked, 1.0, stretch), 1.0)
    with np.errstate(**FLOAT_ERRORS):
        st = cell_state(lam, x)
        c0 = st.eff.c[-1]
        # omega*L/c0 = (omega*ell/c) * c / (stretch * c0)
        table = {"stretch": x, **_columns(st, st.eff.c / (x * c0), st.eff.c / c0)}
    # zeta and eta are NaN where their terms overflow (cell_columns): such a row locks too
    for i in np.flatnonzero(np.isnan(st.eff.zeta[:-1])).tolist():
        notes.setdefault(i, f"stretch {stretch[i]:.6g}: zeta or eta overflows the float range")
    locked = np.isin(np.arange(len(values)), list(notes))
    columns = {"load_product": values, "locked": locked.astype(int),
               "n_stretch_roots": np.ones(len(values), dtype=int)}
    columns.update((key, np.where(locked, math.nan, column[:-1])) for key, column in table.items())
    free = stretch[~locked]
    summary = {
        "n_locked": len(notes),
        "stretch_min": float(free.min()) if free.size else math.nan,
        "stretch_max": float(free.max()) if free.size else math.nan,
        "multi_root_rows": 0,
        "locked_notes": [{"load_product": values[i].item(), "note": notes[i]} for i in sorted(notes)],
    }
    return SweepResult("magnetic_load_product", values, columns, {"period_m": lam.period}, summary)


def _unit_stretch_columns(lam: Laminate, variable: str, values: np.ndarray, sc, nu):
    """The column state at unit stretch from the phases' shear coefficients ``sc`` and volume
    fractions ``nu``, each a pair of floats or columns with one entry per row, and its columns."""
    with np.errstate(**FLOAT_ERRORS):
        st = cell_columns(sc, (lam.phase1.density, lam.phase2.density), nu, 1.0, lam.period)
        return st, {variable: values, **_columns(st, 1.0, 1.0)}


def sweep_volume_fraction(lam: Laminate, values: np.ndarray) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the phase-2 volume fraction (stretch 1).

    An argmax of the summary is ``null``, with a ``note``, where no two finite entries of
    its column differ or where the one cell of its largest row cannot be evaluated."""
    p1, p2 = lam.phases
    sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(p2.model, 1.0))
    st, columns = _unit_stretch_columns(lam, "volume_fraction_2", values, sc, (1.0 - values, values))
    pad = max((values[-1] - values[0]) / (len(values) - 1), 1e-4)
    notes = []

    def argmax(form, key: str) -> float | None:
        def of(x: float) -> float:  # ``form`` of one cell's model; -inf where that cell fails
            try:
                return form(cell_columns(sc, (p1.density, p2.density), (1.0 - x, x), 1.0, lam.period).eff)
            except (LamwaveError, ArithmeticError):
                return -math.inf

        finite = columns[key][np.isfinite(columns[key])]
        if not finite.size or finite.min() == finite.max():
            notes.append(f"argmax_{key} is null: no two rows differ in a finite {key}")
            return None
        x = values[int(np.nanargmax(columns[key]))]
        if of(x) == -math.inf:
            notes.append(f"argmax_{key} is null: its top row's one cell ({x:.6g}) fails")
            return None
        return golden_max(of, max(values[0], x - pad), min(values[-1], x + pad), xatol=1e-10)

    summary = {
        "argmax_eta": argmax(lambda eff: eff.eta, "eta"),
        "argmax_max_strain": argmax(soliton.max_strain_amplitude, "max_strain"),
        "speed_ratio_prediction": st.c2 / (st.c1 + st.c2),
    }
    if notes:
        summary["note"] = "; ".join(notes)
    return SweepResult("volume_fraction_2", values, columns, {"stretch": 1.0, "period_m": lam.period}, summary)


def sweep_contrast(lam: Laminate, values: np.ndarray) -> SweepResult:
    """Band gaps and solitary-wave bounds versus the shear-modulus contrast (stretch 1).

    The contrast multiplies the phase-1 modulus to give phase 2; the grid is
    logarithmic so reciprocal pairs are present exactly.
    """
    p1, p2 = lam.phases
    with np.errstate(**FLOAT_ERRORS):  # one model holding the column of phase-2 moduli
        model2 = HyperelasticModel(p2.model.kind, values * p1.model.shear_modulus, p2.model.beta)
        sc = (shear_coefficients(p1.model, 1.0), shear_coefficients(model2, 1.0))
    _, columns = _unit_stretch_columns(lam, "modulus_contrast", values, sc, (p1.volume_fraction, p2.volume_fraction))
    widths = columns["gap_exact_hi"] - columns["gap_exact_lo"]
    if np.isnan(widths).all():
        summary = {"max_gap_width": None, "contrast_at_max_gap": None, "note": "no row has a first gap"}
    else:
        i = int(np.nanargmax(widths))
        summary = {"max_gap_width": float(widths[i]), "contrast_at_max_gap": float(values[i])}
    return SweepResult("modulus_contrast", values, columns, {"stretch": 1.0, "period_m": lam.period}, summary)


#: The sweep of each variable, as ``(laminate, grid values) -> SweepResult``.  Each entry
#: calls its function by this module's name for it, so that a wrapper bound over
#: that name (the benchmark's tracer binds one) is what runs.
SWEEPS = {
    "magnetic_load_product": lambda lam, values: sweep_magnetic(lam, values),
    "volume_fraction_2": lambda lam, values: sweep_volume_fraction(lam, values),
    "modulus_contrast": lambda lam, values: sweep_contrast(lam, values),
}
