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

from ._roots import bisect, brentq
from .errors import DomainError, NoGap
from .homogenize import CellState, EffectiveModel, cell_state
from .materials import Laminate

#: accuracy of exact band edges in omega*ell/c (bisection resolves them to float spacing)
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


def _scan_grid(omega_max: float, n_scan: int) -> np.ndarray:
    """The ``n_scan + 1`` scan frequencies of every gap search, allocated up front."""
    if not omega_max > 0.0:
        raise DomainError("omega_max must be positive")
    if n_scan < 1000:
        raise DomainError("n_scan must be at least 1000")
    w = np.linspace(0.0, omega_max, n_scan + 1)
    w[0] = 1e-12 * omega_max
    return w


def _evanescent(cells, w) -> np.ndarray:
    return np.abs(_cosine(cells, w)) > 1.0


def _refine_edges(st: CellState, w: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Edges (lo, hi) of the gaps whose evanescent scan samples are ``w[start:stop]``.

    Each edge is bisected between its last scan samples on either side on
    whether |F| > 1, and the evanescent end is kept, so lo <= hi.  A gap that
    starts at ``w[0]`` or runs to ``w[-1]`` keeps that sample as its edge.
    """
    inn = np.stack([w[start], w[stop - 1]])
    out = np.stack([w[np.maximum(start - 1, 0)], w[np.minimum(stop, len(w) - 1)]])
    return bisect(lambda mid: _evanescent(st, mid), inn, out)


def _band_gaps(st: CellState, omega_max: float, n_scan: int) -> list[BandGap]:
    w = _scan_grid(omega_max, n_scan)
    padded = np.concatenate([[False], _evanescent(st, w), [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    start, stop = flips[::2], flips[1::2]  # first evanescent and next propagating sample
    lo, hi = _refine_edges(st, w, start, stop).tolist()
    return [BandGap(lo=a, hi=b, index=i + 1) for i, (a, b) in enumerate(zip(lo, hi))]


def bloch_band_gaps(
    lam: Laminate, stretch: float = 1.0, omega_max: float = 3.0 * math.pi, n_scan: int = 10_000
) -> list[BandGap]:
    """Band gaps of the exact dispersion relation up to ``omega_max`` (omega*ell/c).

    Scans ``n_scan`` frequencies for |cos(kappa ell)| > 1, then bisects every
    gap edge to float resolution (well inside ``EDGE_TOL``).  Returns an empty
    list when no gap opens (e.g. matched impedances).
    """
    return _band_gaps(cell_state(lam, stretch), omega_max, n_scan)


def _rytov_factors(t1, t2, w, q) -> np.ndarray:
    """``cos x cos y - q sin x sin y`` at x = w t1 / 2, y = w t2 / 2."""
    half = 0.5 * w
    x, y = half * t1, half * t2
    return np.cos(x) * np.cos(y) - q * (np.sin(x) * np.sin(y))


def first_band_gaps(cells) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lo, hi) of the first exact band gap of every cell, NaN where none opens.

    Rytov's factorisation (README, "Notes on the numerics") brackets each gap
    edge on (0, pi / max(t1, t2)) as the one zero there of a factor
    P(q) = cos x cos y - q sin x sin y, x = omega t1 / 2, y = omega t2 / 2:
    q = R = max(z1/z2, z2/z1) for the lower edge, 1/R for the upper one.  All
    are bisected at once to adjacent floats, keeping the end inside the gap.
    R = 1, or a gap holding no float, gives NaN.  ``cells`` is anything with
    the fields t1, t2, z1, z2, each a float or a column (a :class:`CellState`
    of many cells); the edges come as arrays, one entry per cell.
    """
    columns = (np.asarray(v, dtype=float) for v in (cells.t1, cells.t2, cells.z1, cells.z2))
    t1, t2, z1, z2 = np.broadcast_arrays(*np.atleast_1d(*columns))
    r = z1 / z2
    big = np.maximum(r, 1.0 / r)
    top = np.pi / np.maximum(t1, t2)
    gap = (r != 1.0) & np.isfinite(top)
    top = np.where(gap, top, 0.0)  # an empty bracket where no gap opens
    q = np.stack([big, 1.0 / big])
    # inside the gap P(R) < 0 (above the lower edge) and P(1/R) > 0 (below the upper one)
    sign = np.array([[1.0], [-1.0]])
    lo, hi = bisect(
        lambda mid: sign * _rytov_factors(t1, t2, mid, q) < 0.0,
        np.stack([top, np.zeros_like(top)]),
        np.stack([np.zeros_like(top), top]),
    )
    gap &= lo <= hi  # r within a few ulp of 1: no float lies inside the gap
    return np.where(gap, lo, math.nan), np.where(gap, hi, math.nan)


def exact_acoustic_frequency(lam: Laminate, stretch: float, kappa_ell: float) -> float:
    """Invert the exact relation on the acoustic branch: omega*ell/c at given kappa*ell."""
    if not 0.0 <= kappa_ell <= math.pi:
        raise DomainError("acoustic-branch inversion needs kappa*ell in [0, pi]")
    if kappa_ell == 0.0:
        return 0.0
    target = math.cos(kappa_ell)
    st = cell_state(lam, stretch)
    r = st.z1 / st.z2

    def f(w: float) -> float:
        # cos(kappa ell) in Rytov's factors reads <= -1 at the gap edge even after rounding
        p, p_inv = _rytov_factors(st.t1, st.t2, w, np.array([r, 1.0 / r]))
        return 2.0 * p * p_inv - 1.0 - target

    lo, _ = first_band_gaps(st)
    hi = float(lo[0]) if math.isfinite(lo[0]) else math.pi
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
            (ki, wi, br.index, "exact") for ki, wi in zip(k.tolist(), br.omega_norm.tolist())
        )
    # homogenized_branch_frequencies at every node at once, by the same operations;
    # eta_t > 0, so each node's pair of roots comes out ascending
    kgrid = np.linspace(0.0, 2.0 * math.pi, n // 2)
    k2 = kgrid * kgrid
    b = -(1.0 - eff.eta_m * k2)
    c = k2 - eff.eta_y * k2 * k2
    s = np.sqrt(b * b - 4.0 * eff.eta_t * c)  # real roots: eta_m = 0 and eta_t <= eta_y
    chi = np.stack([(-b - s) / (2.0 * eff.eta_t), (-b + s) / (2.0 * eff.eta_t)], 1)
    real = chi >= -1e-14
    if folded:
        kgrid = np.where(kgrid <= math.pi, kgrid, 2.0 * math.pi - kgrid)
    kk = np.broadcast_to(kgrid[:, None], chi.shape)[real].tolist()
    w = np.sqrt(np.clip(chi[real], 0.0, None)).tolist()
    branch = (np.cumsum(real, axis=1) - 1)[real].tolist()
    rows.extend((ki, wi, bi, "homogenized") for ki, wi, bi in zip(kk, w, branch))
    wgrid = np.linspace(0.0, omega_max, n // 2)
    km = np.asarray(mkdv_wavenumber(eff, wgrid)).tolist()
    if folded:
        km = [math.acos(math.cos(ki)) for ki in km]
    rows.extend((ki, wi, 0, "mkdv") for ki, wi in zip(km, wgrid.tolist()))
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
