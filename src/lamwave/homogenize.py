"""Effective wave model of the bi-laminate and its supporting cell quantities.

Long shear waves in the stack obey

    c^2 (1 + zeta * u_y^2) u_yy + eta * ell^2 * c^2 * u_yyyy = u_tt,

with the harmonic-mean stiffness ``<g>``, arithmetic-mean density ``<rho>``,
``c = sqrt(<g>/<rho>)``, the cubic-nonlinearity weight ``zeta`` and the
dispersion weight ``eta``.  The fourth-derivative term can be traded for an
equivalent (y, t)-mixed triple ``(eta_y, eta_m, eta_t)`` chosen so that both
branches of the dispersion relation have zero group velocity at the edge of
the first Brillouin zone; that optimised triple is stored alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DispersionTooStrong
from .materials import Laminate, ShearCoefficients, shear_coefficients

#: zone-edge value of eta_y forced by the zero-group-velocity condition
ETA_Y_OPT = 1.0 / (2.0 * math.pi**2)


@dataclass(frozen=True)
class EffectiveModel:
    """Coefficients of the homogenised shear-wave equation at one stretch state (or many)."""

    g_eff: float  # Pa
    rho_eff: float  # kg/m^3
    c: float  # m/s
    zeta: float
    eta: float
    eta_y: float
    eta_m: float
    eta_t: float
    ell: float  # deformed period, m
    stretch: float

    def as_record(self) -> dict[str, float]:
        """Flat key/value view used by CLI JSON output, in field order."""
        return asdict(self)


def optimized_dispersion_coeffs(eta) -> tuple[float, float, float]:
    """Split ``eta`` into the (eta_y, eta_m, eta_t) triple with zone-edge standing waves.

    Requires ``eta < 1/(2 pi^2)`` so that ``eta_t`` stays positive; of an array
    of eta, ``eta_t`` is NaN on each entry too large.
    """
    too_strong = _fails(eta >= ETA_Y_OPT, lambda: DispersionTooStrong(
        f"eta = {eta:.6g} >= 1/(2 pi^2) = {ETA_Y_OPT:.6g}; "
        "the optimised coefficient set does not exist for this laminate"))
    return (ETA_Y_OPT, 0.0, _nan_where(too_strong, ETA_Y_OPT - eta))


@dataclass(frozen=True)
class CellState:
    """Per-phase data of one laminate at one stretch, read by every analysis.

    Holds the shear coefficients, densities, volume fractions, layer speeds
    ``c_i = sqrt(g_i/rho_i)``, impedances ``z_i = rho_i c_i``, travel fractions
    ``t_i = nu_i c / c_i`` (so that ``omega ell_i / c_i = t_i * omega ell / c``)
    and the effective model; a state of many cells holds arrays.  Layer ``i``
    is ``nu_i * eff.ell`` thick.
    """

    sc1: ShearCoefficients
    sc2: ShearCoefficients
    rho1: float  # kg/m^3
    rho2: float
    nu1: float
    nu2: float
    c1: float  # m/s
    c2: float
    z1: float  # kg/(m^2 s)
    z2: float
    t1: float
    t2: float
    eff: EffectiveModel


#: Column arithmetic as on one cell's floats: an overflow gives inf and an invalid
#: operation NaN, silently, and a division by zero raises (an ArithmeticError).
FLOAT_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "raise"}


def _sqrt(x):
    """Square root of a float as a float, of an array as an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _fails(bad, error):
    """The mask ``bad`` of a column's entries that become NaN (:func:`_nan_where`); of
    one cell, ``False``, after raising ``error()`` if ``bad`` holds."""
    if isinstance(bad, np.ndarray):
        return bad
    if bad:
        raise error()
    return False


def _nan_where(failed, value):
    """A column ``value`` with NaN where ``failed``, or one cell's value as a float."""
    return np.where(failed, math.nan, value) if isinstance(failed, np.ndarray) else float(value)


def cell_columns(sc: tuple[ShearCoefficients, ShearCoefficients], rho: tuple, nu: tuple,
                 stretch, period: float) -> CellState:
    """Cell states from the per-phase shear coefficients, densities and volume fractions.

    Each of g, h, rho and nu, and the stretch, is a float or an array, all arrays
    of one length: floats give one cell (:func:`cell_state`), arrays every cell
    of a sweep.  ``zeta`` and ``eta`` are evaluated from the normalised
    per-phase coefficients, which keeps them dimensionless by construction.
    """
    (sc1, sc2), (rho1, rho2), (n1, n2) = sc, rho, nu
    g_eff = 1.0 / (n1 / sc1.g + n2 / sc2.g)
    rho_eff = n1 * rho1 + n2 * rho2
    c = _sqrt(g_eff / rho_eff)

    g1, g2 = np.divide(sc1.g, g_eff), np.divide(sc2.g, g_eff)  # numpy floats: powers overflow to inf
    h1, h2 = sc1.h / g_eff, sc2.h / g_eff
    r1, r2 = rho1 / rho_eff, rho2 / rho_eff

    mix = n1 * g2 + n2 * g1
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        num, den = n1 * h1 * g2**4 + n2 * h2 * g1**4, mix**4
        gg, dr = (g1 * g2) ** 2, (r1 * g1 - r2 * g2) ** 2
        zeta, eta = num / den, (n1 * n2) ** 2 / gg * dr / 12.0
    # a term that overflows from finite coefficients fails one cell, and makes a
    # column's zeta and eta NaN on its entry
    finite = np.isfinite((g1, g2, h1, h2)).all(axis=0)
    overflow = _fails(finite & ~np.isfinite((num, den, gg, dr)).all(axis=0),
                      lambda: FloatingPointError("zeta or eta overflows the float range"))
    zeta, eta = _nan_where(overflow, zeta), _nan_where(overflow, eta)

    eta_y, eta_m, eta_t = optimized_dispersion_coeffs(eta)
    eff = EffectiveModel(g_eff, rho_eff, c, zeta, eta, eta_y, eta_m, eta_t, stretch * period, stretch)
    c1 = _sqrt(sc1.g / rho1)
    c2 = _sqrt(sc2.g / rho2)
    return CellState(
        sc1=sc1, sc2=sc2, rho1=rho1, rho2=rho2, nu1=n1, nu2=n2, c1=c1, c2=c2,
        z1=rho1 * c1, z2=rho2 * c2, t1=n1 * c / c1, t2=n2 * c / c2, eff=eff,
    )


def cell_state(lam: Laminate, stretch: float = 1.0) -> CellState:
    """Evaluate the per-phase data and the homogenised model of the laminate at ``stretch``."""
    p1, p2 = lam.phases
    sc = (shear_coefficients(p1.model, stretch), shear_coefficients(p2.model, stretch))
    return cell_columns(sc, (p1.density, p2.density), (p1.volume_fraction, p2.volume_fraction),
                        stretch, lam.period)


def effective_model(lam: Laminate, stretch: float = 1.0) -> EffectiveModel:
    """Homogenised wave model of the laminate at the given axial stretch."""
    return cell_state(lam, stretch).eff

