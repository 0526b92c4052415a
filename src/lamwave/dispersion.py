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

from ._roots import bisect, newton
from .errors import DomainError, NoGap
from .homogenize import CellState, EffectiveModel, _fails, _nan_where, _sqrt

@dataclass(frozen=True)
class BandGap:
    """Frequency interval (in omega*ell/c) where harmonic waves cannot propagate."""

    lo: float
    hi: float
    index: int


@dataclass(frozen=True)
class DispersionBranch:
    """Sampled branch: arrays of kappa*ell (folded and unfolded) and omega*ell/c."""

    kappa_ell: np.ndarray
    kappa_ell_folded: np.ndarray
    omega_norm: np.ndarray
    index: int


def bloch_cosine(st: CellState, omega_norm) -> np.ndarray | float:
    """cos(kappa*ell) of the exact layered medium at frequency omega*ell/c.

    Values outside [-1, 1] mark evanescent (band-gap) frequencies.
    Accepts scalars or arrays.
    """
    w = np.asarray(omega_norm, dtype=float)
    a1 = w * st.t1
    a2 = w * st.t2
    zz = 0.5 * (st.z1 / st.z2 + st.z2 / st.z1)
    out = np.cos(a1) * np.cos(a2) - zz * np.sin(a1) * np.sin(a2)
    return out if out.ndim else float(out)


def _rytov_factors(t1, t2, w, turn=(1.0, 0.0)) -> tuple[np.ndarray, ...]:
    """(a, b, da/dw, db/dw) with sin(k) P(q) - cos(k) S(q) = a - q b at x = w t1 / 2,
    y = w t2 / 2, for ``turn`` = (sin k, cos k), k a multiple of pi/2: a = cos y sin(k - x)
    and b = sin y cos(k - x).  k = pi/2 gives P(q) = cos x cos y - q sin x sin y, and
    k = pi gives S(q) = sin x cos y + q cos x sin y."""
    half = 0.5 * w
    x, y = half * t1, half * t2
    cx, sx, cy, sy = np.cos(x), np.sin(x), np.cos(y), np.sin(y)
    sk, ck = turn
    s, c = sk * cx - ck * sx, ck * cx + sk * sx  # sin(k - x), cos(k - x)
    return cy * s, sy * c, -0.5 * (t2 * sy * s + t1 * cy * c), 0.5 * (t2 * cy * c + t1 * sy * s)


def band_gap_edges(cells, n) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lo, hi) of exact band gap ``n`` of every cell, NaN where it is closed.

    Rytov's factorisation (README, "Notes on the numerics"): the argument phi_q
    of P(q) + i S(q) (see :func:`_rytov_factors`) rises with omega and stays
    within pi/2 of x + y, and gap n lies between the frequencies where phi_R and
    phi_{1/R} reach n pi/2, R = max(z1/z2, z2/z1).  Each is the one zero of
    sin(n pi/2) P(q) - cos(n pi/2) S(q) on [(n - 1) pi, (n + 1) pi] / (t1 + t2),
    which is positive below it.  The lower edge is where the first of the two
    falls below 0, the upper where the last does; Newton steps on that factor and a
    bisection find both, for every cell and gap at once, to adjacent floats, keeping
    the end inside the gap.
    R = 1, or a gap holding fewer than two floats, gives NaN.  ``cells`` is anything with the
    fields t1, t2, z1, z2, each a float or a column (a :class:`CellState` of
    many cells), and ``n`` a gap number or an array of them; they broadcast.
    """
    columns = (np.asarray(v, dtype=float) for v in (cells.t1, cells.t2, cells.z1, cells.z2))
    # every operand is stacked to the shape (2, cells) of the brackets, the lower edges
    # in row 0, so that the solve broadcasts nothing
    t1, t2, z1, z2, n = (np.stack([v, v]) for v in np.broadcast_arrays(*np.atleast_1d(*columns, n)))
    r = z1 / z2
    big = np.maximum(r, 1.0 / r)
    small = 1.0 / big
    low = (n - 1) * np.pi / (t1 + t2)
    # at n pi / max(t1, t2) the thicker layer's phase is n pi/2, so phi_q >= n pi/2
    # there: for n = 1 the bracket is (0, pi / max(t1, t2)), where P(1/R) >= P(R)
    top = np.minimum((n + 1) * np.pi / (t1 + t2), n * np.pi / np.maximum(t1, t2))
    gap = (r != 1.0) & np.isfinite(top)
    low, top = np.where(gap, low, 0.0), np.where(gap, top, 0.0)  # empty where no gap opens
    # (sin, cos) of n pi/2, negated for the upper edge: inside the gap one factor is
    # below 0 (above the lower edge) and the other above 0 (below the upper one)
    turn = np.array([[0.0, 1.0, 0.0, -1.0], [1.0, 0.0, -1.0, 0.0]])[:, n % 4] * np.array([[1.0], [-1.0]])

    def past_edge(w):  # the smaller of the factors a - R b and a - b/R is below 0, with that
        a, b, da, db = _rytov_factors(t1, t2, w, turn)  # factor a - q b and its slope
        qb = np.maximum(big * b, small * b)  # q b, q = R where b >= 0 and 1/R elsewhere
        return a < qb, a - qb, da - np.where(b >= 0.0, big, small) * db

    brackets = newton(past_edge, np.stack([top[0], low[1]]), np.stack([low[0], top[1]]))
    lo, hi = bisect(lambda w: past_edge(w)[0], *brackets)
    # r within a few ulp of 1, or a closed gap: no float inside, or one by rounding
    gap = gap[0] & (lo < hi)
    return np.where(gap, lo, math.nan), np.where(gap, hi, math.nan)


def bloch_band_gaps(st: CellState, omega_max: float = 3.0 * math.pi) -> list[BandGap]:
    """Band gaps of the exact dispersion relation up to ``omega_max`` (omega*ell/c).

    Every gap n of the cell that opens below ``omega_max`` (:func:`band_gap_edges`),
    with its edges at float resolution, its upper edge cut at ``omega_max``, and
    indexed by its Bloch gap number n (a closed gap leaves a hole).  Returns an
    empty list when no gap opens (e.g. matched impedances).
    """
    if not omega_max > 0.0:
        raise DomainError("omega_max must be positive")
    # gap n lies above (n - 1) pi / (t1 + t2)
    n = np.arange(1, math.floor(omega_max * (st.t1 + st.t2) / math.pi) + 2)
    lo, hi = band_gap_edges(st, n)
    keep = lo < omega_max
    return [
        BandGap(lo=a, hi=min(b, omega_max), index=i)
        for a, b, i in zip(lo[keep].tolist(), hi[keep].tolist(), n[keep].tolist())
    ]


def homogenized_band_gap(eff: EffectiveModel) -> BandGap:
    """First band gap predicted by the optimised homogenised model; of a model of many
    cells, its edges are columns, NaN where one cell raises."""
    no_gap = _fails(eff.eta <= 0.0, lambda: NoGap("a non-dispersive laminate (eta <= 0) has no band gap"))
    no_gap = no_gap | _fails(eff.eta_t <= 0.0, lambda: NoGap("homogenised gap formula requires eta_t > 0"))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in entries that become NaN
        root = math.pi * _sqrt(2.0 * eff.eta)
        lo2 = (1.0 - root) / (2.0 * eff.eta_t)
        closed = _fails(lo2 < 0.0, lambda: NoGap(f"homogenised gap closed: pi sqrt(2 eta) = {root:.6g} > 1"))
        lo, hi = _sqrt(lo2), _sqrt((1.0 + root) / (2.0 * eff.eta_t))
    no_gap = no_gap | closed
    return BandGap(lo=_nan_where(no_gap, lo), hi=_nan_where(no_gap, hi), index=1)


def mkdv_wavenumber(eff: EffectiveModel, omega_norm) -> np.ndarray | float:
    """kappa*ell of the unidirectional (mKdV) linearised model at omega*ell/c."""
    w = np.asarray(omega_norm, dtype=float)
    out = w + 0.5 * eff.eta * w**3
    return out if out.ndim else float(out)


def sample_exact_branches(
    st: CellState, omega_max: float = 2.6 * math.pi, n: int = 2000
) -> list[DispersionBranch]:
    """Sample the exact dispersion curves on an omega grid, one branch per Bloch band.

    Branch ``index`` b is the band between exact gaps b and b + 1; frequencies
    inside a gap are dropped.  Each branch carries the folded wave number (first
    Brillouin zone) and the unfolded one, which rises from b pi to (b + 1) pi.
    """
    w = np.linspace(0.0, omega_max, n)
    # phi_q = x + y + arctan(...) is the argument of P(q) + i S(q) = e^{ix} (cos y + i q sin y)
    # (band_gap_edges): band b, between gaps b and b + 1, is where floor(2 phi_q / pi) = b for
    # both q = R and 1/R, and inside a gap the two floors differ
    x, y = 0.5 * w * st.t1, 0.5 * w * st.t2
    cy, sy = np.cos(y), np.sin(y)
    q = np.array([[st.z1 / st.z2], [st.z2 / st.z1]])
    phi = x + y + np.arctan((q - 1.0) * sy * cy / (cy * cy + q * sy * sy))
    band, other = np.floor(2.0 * phi / math.pi).astype(int)
    folded = np.arccos(np.clip(bloch_cosine(st, w), -1.0, 1.0))
    unfolded = np.where(band % 2 == 0, band * math.pi + folded, (band + 1) * math.pi - folded)
    keep = band == other
    branches = []
    for b in sorted(set(band[keep].tolist())):  # np.unique's first call imports numpy.ma (15 ms)
        sel = keep & (band == b)
        branches.append(DispersionBranch(unfolded[sel], folded[sel], w[sel], index=b))
    return branches


def dispersion_table(
    st: CellState, omega_max: float = 2.6 * math.pi, n: int = 2000
) -> tuple[list[str], list[tuple], list[tuple]]:
    """Row blocks (kappa_ell, omega_norm, branch, theory), one per exact branch and model,
    from one sample: the header, the blocks with kappa*ell unfolded (in [0, 2 pi] and up
    the exact branches) and the same blocks with kappa*ell folded into [0, pi]."""
    eff = st.eff
    blocks = [(br.kappa_ell, br.kappa_ell_folded, br.omega_norm, np.broadcast_to(br.index, len(br.omega_norm)),
               np.broadcast_to("exact", len(br.omega_norm))) for br in sample_exact_branches(st, omega_max, n)]
    # the real roots chi = (omega ell / c)^2 of
    # eta_t chi^2 - (1 - eta_m k^2) chi + k^2 - eta_y k^4 = 0 at every node at once;
    # eta_t > 0, so each node's pair of roots comes out ascending
    kgrid = np.linspace(0.0, 2.0 * math.pi, n // 2)
    k2 = kgrid * kgrid
    b = -(1.0 - eff.eta_m * k2)
    c = k2 - eff.eta_y * k2 * k2
    s = np.sqrt(b * b - 4.0 * eff.eta_t * c)  # real roots: eta_m = 0 and eta_t <= eta_y
    chi = np.stack([(-b - s) / (2.0 * eff.eta_t), (-b + s) / (2.0 * eff.eta_t)], 1)
    real = chi >= -1e-14
    kk = np.broadcast_to(kgrid[:, None], chi.shape)[real]
    w = np.sqrt(np.clip(chi[real], 0.0, None))
    branch = (np.cumsum(real, axis=1) - 1)[real]
    kk_folded = np.where(kk <= math.pi, kk, 2.0 * math.pi - kk)
    blocks.append((kk, kk_folded, w, branch, np.broadcast_to("homogenized", kk.shape)))
    wgrid = np.linspace(0.0, omega_max, n // 2)
    km = mkdv_wavenumber(eff, wgrid)
    # libm's acos(cos(k)), as numpy's own cos may round differently
    blocks.append((km, np.array([math.acos(math.cos(k)) for k in km.tolist()]), wgrid,
                   np.broadcast_to(0, wgrid.shape), np.broadcast_to("mkdv", wgrid.shape)))
    return (["kappa_ell", "omega_norm", "branch", "theory"], [(k, *rest) for k, _, *rest in blocks],
            [(k, *rest) for _, k, *rest in blocks])


def band_gap_records(st: CellState, omega_max: float = 3.0 * math.pi) -> list[dict]:
    """JSON-ready gap records for both theories, frequencies in units of pi."""
    gaps = [(g, "exact") for g in bloch_band_gaps(st, omega_max)]
    try:
        gaps.append((homogenized_band_gap(st.eff), "homogenized"))
    except NoGap:
        pass
    return [
        {"index": g.index, "lo_over_pi": g.lo / math.pi, "hi_over_pi": g.hi / math.pi, "theory": theory}
        for g, theory in gaps
    ]
