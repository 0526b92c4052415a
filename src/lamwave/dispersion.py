"""Floquet-Bloch dispersion of the bi-laminate and its homogenised approximations.

A time-harmonic shear wave in the periodic stack satisfies

    cos(kappa ell) = cos(a1) cos(a2) - (z1/z2 + z2/z1)/2 * sin(a1) sin(a2),

with ``a_i = omega * ell_i / c_i`` the per-layer phase travel and ``z_i`` the
acoustic impedances.  Frequencies are handled in the dimensionless form
``omega * ell / c`` throughout (``c`` the effective speed), wave numbers as
``kappa * ell``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq
from .errors import DomainError, NoGap
from .homogenize import CellState, EffectiveModel, cell_state
from .materials import Laminate

#: band-edge refinement tolerance in omega*ell/c
EDGE_TOL = 1e-10


@dataclass(frozen=True)
class BandGap:
    """Frequency interval (in omega*ell/c) where harmonic waves cannot propagate."""

    lo: float
    hi: float
    index: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class DispersionBranch:
    """Sampled branch: arrays of kappa*ell (folded and unfolded) and omega*ell/c."""

    kappa_ell: np.ndarray
    kappa_ell_folded: np.ndarray
    omega_norm: np.ndarray
    index: int


def _cosine(st: CellState, omega_norm) -> np.ndarray | float:
    w = np.asarray(omega_norm, dtype=float)
    a1 = w * st.t1
    a2 = w * st.t2
    zz = 0.5 * (st.z1 / st.z2 + st.z2 / st.z1)
    out = np.cos(a1) * np.cos(a2) - zz * np.sin(a1) * np.sin(a2)
    return out if out.ndim else float(out)


def bloch_cosine(lam: Laminate, stretch: float, omega_norm) -> np.ndarray | float:
    """cos(kappa*ell) of the exact layered medium at frequency omega*ell/c.

    Values outside [-1, 1] mark evanescent (band-gap) frequencies.
    Accepts scalars or arrays.
    """
    return _cosine(cell_state(lam, stretch), omega_norm)


def _band_gaps(st: CellState, omega_max: float, n_scan: int) -> list[BandGap]:
    if not omega_max > 0.0:
        raise DomainError("omega_max must be positive")
    if n_scan < 1000:
        raise DomainError("n_scan must be at least 1000")
    w = np.linspace(0.0, omega_max, n_scan + 1)
    w[0] = 1e-12 * omega_max
    inside = np.abs(_cosine(st, w)) > 1.0

    def refine(a: float, b: float) -> float:
        return brentq(lambda x: abs(_cosine(st, x)) - 1.0, a, b, xtol=EDGE_TOL)

    gaps: list[BandGap] = []
    padded = np.concatenate([[False], inside, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    n = len(w)
    for i, j in zip(flips[::2], flips[1::2] - 1):  # first and last scan index of each gap
        lo = refine(w[i - 1], w[i]) if i > 0 else w[0]
        hi = refine(w[j], w[j + 1]) if j + 1 < n else w[-1]
        if hi > lo:
            gaps.append(BandGap(lo=lo, hi=hi, index=len(gaps) + 1))
    return gaps


def bloch_band_gaps(
    lam: Laminate, stretch: float = 1.0, omega_max: float = 3.0 * math.pi, n_scan: int = 10_000
) -> list[BandGap]:
    """Band gaps of the exact dispersion relation up to ``omega_max`` (omega*ell/c).

    Scans ``n_scan`` frequencies, then refines each edge with the in-repo
    Brent zero finder (:func:`lamwave._roots.brentq`) on |cos(kappa ell)| - 1
    to ``EDGE_TOL``.  Returns an empty list when no gap opens (e.g. matched
    impedances).
    """
    return _band_gaps(cell_state(lam, stretch), omega_max, n_scan)


def exact_acoustic_frequency(lam: Laminate, stretch: float, kappa_ell: float) -> float:
    """Invert the exact relation on the acoustic branch: omega*ell/c at given kappa*ell."""
    if not 0.0 <= kappa_ell <= math.pi:
        raise DomainError("acoustic-branch inversion needs kappa*ell in [0, pi]")
    if kappa_ell == 0.0:
        return 0.0
    target = math.cos(kappa_ell)
    st = cell_state(lam, stretch)

    def f(w: float) -> float:
        return _cosine(st, w) - target

    # the acoustic branch ends at the first |cos| = 1 crossing above omega = 0
    hi = math.pi
    gaps = _band_gaps(st, omega_max=2.0 * math.pi, n_scan=2000)
    if gaps:
        hi = gaps[0].lo
    return brentq(f, 1e-14, hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)


def homogenized_branch_frequencies(eff: EffectiveModel, kappa_ell) -> np.ndarray:
    """Real non-negative omega*ell/c roots of the optimised homogenised relation.

    Solves ``eta_t chi^2 - (1 - eta_m k^2) chi + k^2 - eta_y k^4 = 0`` for
    ``chi = (omega ell / c)^2`` and returns the real branch frequencies sorted
    ascending (acoustic first).  May return fewer than two values where roots
    are complex or negative.
    """
    k = float(kappa_ell)
    k2 = k * k
    a = eff.eta_t
    b = -(1.0 - eff.eta_m * k2)
    c = k2 - eff.eta_y * k2 * k2
    if a == 0.0:
        if b == 0.0:
            return np.array([])
        chi = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return np.array([])
        s = math.sqrt(disc)
        chi = [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]
    out = sorted(x for x in chi if x >= -1e-14)
    return np.sqrt(np.clip(np.asarray(out), 0.0, None))


def homogenized_band_gap(eff: EffectiveModel) -> BandGap:
    """First band gap predicted by the optimised homogenised model."""
    if eff.eta <= 0.0:
        raise NoGap("a non-dispersive laminate (eta <= 0) has no band gap")
    if eff.eta_t <= 0.0:
        raise NoGap("homogenised gap formula requires eta_t > 0")
    root = math.pi * math.sqrt(2.0 * eff.eta)
    lo = math.sqrt((1.0 - root) / (2.0 * eff.eta_t))
    hi = math.sqrt((1.0 + root) / (2.0 * eff.eta_t))
    return BandGap(lo=lo, hi=hi, index=1)


def mkdv_wavenumber(eff: EffectiveModel, omega_norm) -> np.ndarray | float:
    """kappa*ell of the unidirectional (mKdV) linearised model at omega*ell/c."""
    w = np.asarray(omega_norm, dtype=float)
    out = w + 0.5 * eff.eta * w**3
    return out if out.ndim else float(out)


def _unfold(kappa_folded: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Monotone-continuation unfolding of kappa*ell onto [0, n*pi]."""
    even = band % 2 == 0
    return np.where(even, band * math.pi + kappa_folded, (band + 1) * math.pi - kappa_folded)


def sample_exact_branches(
    lam: Laminate, stretch: float = 1.0, omega_max: float = 2.6 * math.pi, n: int = 2000
) -> list[DispersionBranch]:
    """Sample the exact dispersion curves on an omega grid, split per pass band.

    Each branch carries the folded wave number (first Brillouin zone) and the
    monotone-continuation unfolded one.
    """
    return _branches(cell_state(lam, stretch), omega_max, n)


def _branches(st: CellState, omega_max: float, n: int) -> list[DispersionBranch]:
    w = np.linspace(0.0, omega_max, n)
    rhs = _cosine(st, w)
    propagating = np.abs(rhs) <= 1.0
    # band index = number of completed gaps below each frequency
    gap = ~propagating
    band = np.cumsum(np.diff(np.concatenate([[False], gap]).astype(int)) == 1)
    folded = np.arccos(np.clip(rhs, -1.0, 1.0))
    branches = []
    for b in range(int(band.max()) + 1 if len(band) else 1):
        sel = propagating & (band == b)
        if not np.any(sel):
            continue
        kf = folded[sel]
        ku = _unfold(kf, np.full(kf.shape, b))
        branches.append(
            DispersionBranch(kappa_ell=ku, kappa_ell_folded=kf, omega_norm=w[sel], index=b)
        )
    return branches


def dispersion_table(
    lam: Laminate,
    stretch: float = 1.0,
    omega_max: float = 2.6 * math.pi,
    n: int = 2000,
    folded: bool = False,
) -> tuple[list[str], list[tuple]]:
    """Rows (kappa_ell, omega_norm, branch, theory) for all three theories."""
    st = cell_state(lam, stretch)
    eff = st.eff
    rows: list[tuple] = []
    for br in _branches(st, omega_max, n):
        k = br.kappa_ell_folded if folded else br.kappa_ell
        rows.extend(
            (float(ki), float(wi), br.index, "exact") for ki, wi in zip(k, br.omega_norm)
        )
    kgrid = np.linspace(0.0, 2.0 * math.pi, n // 2)
    for k in kgrid:
        freqs = homogenized_branch_frequencies(eff, k)
        kk = k if not folded else (k if k <= math.pi else 2.0 * math.pi - k)
        for b, wv in enumerate(freqs):
            rows.append((float(kk), float(wv), b, "homogenized"))
    wgrid = np.linspace(0.0, omega_max, n // 2)
    km = np.asarray(mkdv_wavenumber(eff, wgrid))
    for ki, wi in zip(km, wgrid):
        kk = ki if not folded else math.acos(math.cos(ki))
        rows.append((float(kk), float(wi), 0, "mkdv"))
    return ["kappa_ell", "omega_norm", "branch", "theory"], rows


def band_gap_records(
    lam: Laminate, stretch: float = 1.0, omega_max: float = 3.0 * math.pi, n_scan: int = 10_000
) -> list[dict]:
    """JSON-ready gap records for both theories, frequencies in units of pi."""
    st = cell_state(lam, stretch)
    records = [
        {
            "index": g.index,
            "lo_over_pi": g.lo / math.pi,
            "hi_over_pi": g.hi / math.pi,
            "theory": "exact",
        }
        for g in _band_gaps(st, omega_max, n_scan)
    ]
    try:
        g = homogenized_band_gap(st.eff)
        records.append(
            {
                "index": g.index,
                "lo_over_pi": g.lo / math.pi,
                "hi_over_pi": g.hi / math.pi,
                "theory": "homogenized",
            }
        )
    except NoGap:
        pass
    return records
