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

from . import materials
from .errors import DispersionTooStrong, DomainError, SingularDeformation
from .materials import Laminate, ShearCoefficients, shear_coefficients, uniaxial_first_invariant

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
    of eta, the first entry too large is reported.
    """
    too_strong = np.asarray(eta >= ETA_Y_OPT)
    if too_strong.any():
        raise DispersionTooStrong(
            f"eta = {float(np.asarray(eta)[too_strong][0]):.6g} >= 1/(2 pi^2) = {ETA_Y_OPT:.6g}; "
            "the optimised coefficient set does not exist for this laminate"
        )
    return (ETA_Y_OPT, 0.0, ETA_Y_OPT - eta)


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


def _sqrt(x):
    """Square root of a float as a float, of an array as an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


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

    g1, g2 = sc1.g / g_eff, sc2.g / g_eff
    h1, h2 = sc1.h / g_eff, sc2.h / g_eff
    r1, r2 = rho1 / rho_eff, rho2 / rho_eff

    mix = n1 * g2 + n2 * g1
    with np.errstate(over="raise"):  # of arrays as of floats, a power that overflows raises
        zeta = (n1 * h1 * g2**4 + n2 * h2 * g1**4) / mix**4
        eta = (n1 * n2) ** 2 / (g1 * g2) ** 2 * (r1 * g1 - r2 * g2) ** 2 / 12.0

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


def eta_dimensional(lam: Laminate, stretch: float = 1.0) -> float:
    """Dispersion weight computed from dimensional quantities and the c^4 prefactor.

    Alternate accessor; agrees with :func:`effective_model` by construction.
    """
    st = cell_state(lam, stretch)
    p1, p2 = lam.phases
    n1, n2 = p1.volume_fraction, p2.volume_fraction
    c2 = st.eff.g_eff / st.eff.rho_eff
    return (
        c2**2
        / 12.0
        * (n1 * n2) ** 2
        / (st.sc1.g * st.sc2.g) ** 2
        * (p1.density * st.sc1.g - p2.density * st.sc2.g) ** 2
    )


@dataclass(frozen=True)
class CellCorrectors:
    """Slopes of the first-order cell corrections (linear P, cubic Q)."""

    P: float
    Q: float


def cell_correctors(st: CellState) -> CellCorrectors:
    """First-order corrector slopes over the unit cell, in normalised variables."""
    n1, n2 = st.nu1, st.nu2
    g_eff = st.eff.g_eff
    g1, g2 = st.sc1.g / g_eff, st.sc2.g / g_eff
    h1, h2 = st.sc1.h / g_eff, st.sc2.h / g_eff
    mix = n1 * g2 + n2 * g1
    P = (g2 - g1) / mix
    Q = (h2 * g1**3 - h1 * g2**3) / (3.0 * mix**4)
    return CellCorrectors(P=P, Q=Q)


def unit_cell_profiles(st: CellState, y_fast: np.ndarray) -> dict[str, np.ndarray]:
    """Piecewise material and corrector data sampled on the fast coordinate.

    ``y_fast`` lives on the unit cell [-1/2, 1/2] with phase 2 occupying the
    centred band |y| <= nu2/2.  Returns normalised ``g``, ``h``, ``rho`` plus
    the corrector slope factor ``tau`` and offset ``phi``.
    """
    n1, n2 = st.nu1, st.nu2
    g_eff, rho_eff = st.eff.g_eff, st.eff.rho_eff

    y = np.asarray(y_fast, dtype=float)
    if np.any(np.abs(y) > 0.5 + 1e-12):
        raise DomainError("fast coordinate must lie in [-1/2, 1/2]")
    in2 = np.abs(y) <= 0.5 * n2
    g = np.where(in2, st.sc2.g, st.sc1.g) / g_eff
    h = np.where(in2, st.sc2.h, st.sc1.h) / g_eff
    rho = np.where(in2, st.rho2, st.rho1) / rho_eff
    tau = np.where(in2, -n1, n2)
    phi = np.where(in2, 0.0, np.where(y < 0.0, 0.5, -0.5))
    return {"g": g, "h": h, "rho": rho, "tau": tau, "phi": phi}


@dataclass(frozen=True)
class EffectiveEnergyCoeffs:
    """Mixture moduli entering the laminate's effective strain energy."""

    G_bar: float  # arithmetic mean of ground-state moduli, Pa
    G_breve: float  # harmonic mean, Pa
    gb1: float  # <G^1 beta>, Pa
    gbm1: float  # <G^-1 beta>, 1/Pa
    gbm3: float  # <G^-3 beta>, 1/Pa^3


def effective_energy_coeffs(lam: Laminate) -> EffectiveEnergyCoeffs:
    p1, p2 = lam.phases
    n1, n2 = p1.volume_fraction, p2.volume_fraction
    G1, G2 = p1.model.shear_modulus, p2.model.shear_modulus
    b1, b2 = p1.model.beta, p2.model.beta

    def mix(power: int) -> float:
        return n1 * G1**power * b1 + n2 * G2**power * b2

    return EffectiveEnergyCoeffs(
        G_bar=n1 * G1 + n2 * G2,
        G_breve=1.0 / (n1 / G1 + n2 / G2),
        gb1=mix(1),
        gbm1=mix(-1),
        gbm3=mix(-3),
    )


def effective_energy(coeffs: EffectiveEnergyCoeffs, I1: float, K: float) -> float:
    """Effective strain energy density (Pa) at invariants (I1, K).

    ``K`` measures the deformation transmitted across the layer normal;
    ``D = I1 - 3 - K`` is the complementary in-plane part.  Valid to leading
    order in the phase nonlinearities.
    """
    if I1 < 3.0 - 1e-12:
        raise DomainError(f"first invariant must satisfy I1 >= 3, got {I1}")
    D = I1 - 3.0 - K
    return (
        0.5 * coeffs.G_bar * D
        + 0.5 * coeffs.G_breve * K
        + 0.25 * coeffs.gb1 * D * D
        + 0.5 * coeffs.G_breve**2 * coeffs.gbm1 * D * K
        + 0.25 * coeffs.G_breve**4 * coeffs.gbm3 * K * K
    )


def shear_kinematics(stretch: float, gamma: float) -> np.ndarray:
    """Deformation gradient of a simple shear superposed on an axial stretch.

    ``gamma`` is the shear strain measured per unit deformed length; the
    gradient entry is ``stretch * gamma``.
    """
    if not stretch > 0.0:
        raise DomainError(f"stretch must be positive, got {stretch}")
    s = 1.0 / math.sqrt(stretch)
    F = np.diag([s, stretch, s])
    F[0, 1] = stretch * gamma
    return F


def shear_invariants(stretch: float, gamma: float) -> tuple[float, float]:
    """(I1, K) of the sheared-and-stretched state with the layer normal along y."""
    I1 = uniaxial_first_invariant(stretch) + (stretch * gamma) ** 2
    K = (stretch * gamma) ** 2
    return I1, K


def _normal_images(F: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The unit lamination direction n, F n, F^-T n and |F^-T n|^2."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    Fn = F @ n
    FinvTn = np.linalg.solve(F.T, n)
    norm2 = float(FinvTn @ FinvTn)
    if norm2 == 0.0:
        raise SingularDeformation("F^-T n vanished; lamination direction degenerate")
    return n, Fn, FinvTn, norm2


def _rank_one_jump(lam: Laminate, I1: float) -> tuple[float, float, float]:
    """Jump factor P = G_breve (G1 - G2)/(G1 G2) of the phase moduli at the macroscopic
    invariant, and the phase weights (tau1, tau2) = (-nu2, nu1) of the jump."""
    p1, p2 = lam.phases
    G1 = materials.generalized_shear_modulus(p1.model, I1)
    G2 = materials.generalized_shear_modulus(p2.model, I1)
    G_breve = 1.0 / (p1.volume_fraction / G1 + p2.volume_fraction / G2)
    return G_breve * (G1 - G2) / (G1 * G2), -p2.volume_fraction, p1.volume_fraction


def invariant_K(F: np.ndarray, n: np.ndarray) -> float:
    """K = |F n|^2 - |F^-T n|^-2 for a unit lamination direction n."""
    _, Fn, _, norm2 = _normal_images(F, n)
    return float(Fn @ Fn) - 1.0 / norm2


def per_phase_deformation(
    lam: Laminate, F: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-phase deformation gradients compatible with a macroscopic gradient.

    The phases share the macroscopic ``F`` up to a rank-one jump along the
    lamination direction ``n``; traction continuity fixes the jump vector.
    Per-phase moduli are evaluated at the macroscopic invariant (leading order
    in the phase nonlinearities).  Both returned gradients are isochoric
    whenever ``F`` is.
    """
    F = np.asarray(F, dtype=float)
    det = np.linalg.det(F)
    if abs(det - 1.0) > 1e-8:
        raise DomainError(f"macroscopic deformation must be isochoric, det F = {det:.6g}")
    P, tau1, tau2 = _rank_one_jump(lam, float(np.tensordot(F, F)))
    n, Fn, FinvTn, norm2 = _normal_images(F, n)
    theta = P * (Fn - FinvTn / norm2)
    return F + tau1 * np.outer(theta, n), F + tau2 * np.outer(theta, n), theta


def per_phase_invariants(lam: Laminate, F: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    """Closed-form per-phase first invariants implied by the rank-one jump."""
    F = np.asarray(F, dtype=float)
    I1 = float(np.tensordot(F, F))
    K = invariant_K(F, n)
    P, tau1, tau2 = _rank_one_jump(lam, I1)
    i1 = I1 + tau1 * P * (2.0 + tau1 * P) * K
    i2 = I1 + tau2 * P * (2.0 + tau2 * P) * K
    return i1, i2
