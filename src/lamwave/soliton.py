"""Travelling-wave analysis of the homogenised equation and its mKdV reductions.

Steady profiles u(xi), xi = (y - s*t)/ell, reduce every model variant to the
same oscillator  Phi'' - c1 Phi + c3 Phi^3 = 0  (integration constant zero),
whose localized solutions are sech pulses.  The three variants differ only in
the map from the wave speed to (c1, c3):

* ``FULL``        - the full homogenised equation with mixed dispersion terms,
* ``SLOW_SPACE``  - the unidirectional reduction marched in space,
* ``SLOW_TIME``   - the unidirectional reduction marched in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._roots import bisect
from .errors import NoBound, NoSoliton, NotReached
from .homogenize import FLOAT_ERRORS, EffectiveModel, _fails, _nan_where, _sqrt


class WaveModel(Enum):
    FULL = "full"
    SLOW_SPACE = "slow_space"
    SLOW_TIME = "slow_time"


@dataclass(frozen=True)
class SolitonSolution:
    """A sech strain pulse travelling at constant speed, or a column of them."""

    speed: float  # m/s
    c1: float
    c3: float
    strain_amplitude: float  # peak shear strain
    length: float  # characteristic length, m
    displacement_amplitude: float  # m
    ell: float  # laminate period, m


def _pow(s, p):
    """s**p of a speed ratio s/c, or of each of a column, by Python's float power (libm pow):
    numpy's ``**`` rounds some powers of arrays differently.  An overflow raises an
    :class:`OverflowError` that names the power."""
    try:
        return np.array([v**p for v in s.tolist()]) if isinstance(s, np.ndarray) else s**p
    except OverflowError:  # Python's own message is an errno tuple
        raise OverflowError(f"(s/c)**{p} overflows the float range") from None


def oscillator_coeffs(eff: EffectiveModel, variant: WaveModel, speed):
    """Oscillator coefficients (c1, c3) for a travelling wave of the given speed.

    ``speed`` is dimensional (m/s).  At exactly the sonic speed all variants
    return ``c1 = 0`` (zero-amplitude limit).  Raises :class:`NoSoliton` when
    the coefficients leave the sech-admissible quadrant (c1 < 0 or c3 <= 0).
    A column of speeds gives columns, NaN where one speed raises.
    """
    s, failed = speed / eff.c, False
    if variant is WaveModel.FULL:
        denom = eff.eta_y - eff.eta_m * _pow(s, 2) - eff.eta_t * _pow(s, 4)
        failed = _fails(denom == 0.0, lambda: NoSoliton(f"dispersion denominator vanishes at s/c = {s:.6g}"))
        c3 = 1.0 / _nan_where(failed, denom)
        c1 = (s * s - 1.0) * c3
    elif variant is WaveModel.SLOW_SPACE:
        if eff.eta <= 0.0:
            raise NoSoliton("unidirectional solitons need eta > 0")
        failed = _fails(s == 0.0,
                        lambda: NoSoliton("the slow-space model has no travelling wave at zero speed"))
        s = _nan_where(failed, s)
        c3 = 1.0 / eff.eta
        c1 = 2.0 * (s - 1.0) / _pow(s, 3) * c3
    elif variant is WaveModel.SLOW_TIME:
        if eff.eta <= 0.0:
            raise NoSoliton("unidirectional solitons need eta > 0")
        c3 = 1.0 / eff.eta
        c1 = 2.0 * (s - 1.0) * c3
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    failed = failed | _fails((c1 < 0.0) | (c3 <= 0.0), lambda: NoSoliton(
        f"no sech solution at s/c = {s:.6g} for {variant.value}: c1 = {c1:.6g}, c3 = {c3:.6g}"))
    return _nan_where(failed, c1), _nan_where(failed, c3)


def solve_soliton(eff: EffectiveModel, variant: WaveModel, speed) -> SolitonSolution:
    """Construct the sech solitary wave of the given variant and speed; a column of
    speeds gives a solution of columns, NaN where one speed raises."""
    if eff.zeta <= 0.0:
        raise NoSoliton("solitary waves need a stiffening laminate (zeta > 0)")
    c1, c3 = oscillator_coeffs(eff, variant, speed)
    sonic = _fails(c1 == 0.0,
                   lambda: NoSoliton("zero-amplitude limit: speed equals the effective sound speed"))
    c1, c3 = _nan_where(sonic, c1), _nan_where(sonic, c3)
    delta = _sqrt(6.0 * c1 / (c3 * eff.zeta))
    length = eff.ell / _sqrt(c1)
    amp = eff.ell * _sqrt(6.0 / (c3 * eff.zeta))
    return SolitonSolution(speed=speed, c1=c1, c3=c3, strain_amplitude=delta, length=length,
                           displacement_amplitude=amp, ell=eff.ell)


def soliton_waveform(sol: SolitonSolution, xi) -> tuple[np.ndarray, np.ndarray]:
    """Strain and displacement profiles on the phase grid xi = (y - s t)/ell.

    Strain is ``delta * sech``, displacement the Gudermannian ramp of height
    ``pi * amplitude``.
    """
    # far tails overflow x, cosh and sinh to inf, whose limits 1/inf = 0 and
    # arctan(inf) = pi/2 are the right values
    with np.errstate(over="ignore"):
        x = np.asarray(xi, dtype=float) * sol.ell / sol.length
        strain = sol.strain_amplitude / np.cosh(x)
        displacement = sol.displacement_amplitude * np.arctan(np.sinh(x))
    return strain, displacement


def existence_bound(eff: EffectiveModel) -> float:
    """Largest admissible s/c for the full model, ``inf`` when unbounded.

    Supersonic sech solutions exist while the dispersion denominator stays
    positive, i.e. while ``eta - (eta_m + 2 eta_t) x - eta_t x^2 > 0`` with
    ``x = s^2/c^2 - 1``.  The bound is the smallest positive root of that
    polynomial; with no positive root the range is unbounded.  Of a model of
    many cells, a column, NaN where eta <= 0 (where one cell raises) or where
    ``eta_t`` is NaN (too strong a dispersion for the optimised triple).
    """
    failed = _fails(eff.eta <= 0.0, lambda: NoSoliton("existence analysis needs eta > 0"))
    eta, eta_t = (np.asarray(v, dtype=float) for v in (eff.eta, eff.eta_t))
    # both branches are evaluated: the quadratic's roots divide by eta_t, whose zero
    # selects the linear root eta/b, and a negative discriminant gives NaN roots
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = eff.eta_m + 2.0 * eta_t
        s = np.sqrt(b * b + 4.0 * eta_t * eta)
        roots = np.stack([(-b - s) / (2.0 * eta_t), (-b + s) / (2.0 * eta_t)])
        x = np.where(roots > 0.0, roots, math.inf).min(axis=0)
        x = np.where(eta_t == 0.0, np.where(b <= 0.0, math.inf, eta / b), x)
        x = np.where(np.isnan(eta_t), math.nan, x)  # its NaN roots read as unbounded above
        return _nan_where(failed, np.sqrt(1.0 + x))


def max_strain_amplitude(eff: EffectiveModel) -> float:
    """Strain amplitude reached at the existence bound of the full model; of a model of
    many cells, a column, NaN where one cell raises."""
    failed = _fails(eff.zeta <= 0.0, lambda: NoSoliton("solitary waves need a stiffening laminate (zeta > 0)"))
    bound = existence_bound(eff)
    unbounded = _fails(np.isinf(bound),
                       lambda: NoBound("solitary-wave speeds are unbounded; no strain ceiling exists"))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in entries that become NaN
        return _nan_where(failed | unbounded, _sqrt(6.0 * (bound * bound - 1.0) / eff.zeta))


def max_particle_velocity(eff: EffectiveModel) -> float:
    """Peak particle velocity over c implied by the existence bound: delta_max * s_max/c."""
    bound = existence_bound(eff)
    if math.isinf(bound):
        raise NoBound("solitary-wave speeds are unbounded; no velocity ceiling exists")
    return max_strain_amplitude(eff) * bound


def _amplitude_ratio(variant: WaveModel, s: float) -> float:
    """delta_variant / delta_full at speed ratio s, from the amplitude-velocity laws."""
    if variant is WaveModel.FULL:
        return 1.0
    if variant is WaveModel.SLOW_SPACE:
        return math.sqrt(2.0 / (s**3 * (s + 1.0)))
    return math.sqrt(2.0 / (s + 1.0))


def mkdv_validity_speed(variant: WaveModel, rel_err: float = 0.1) -> float:
    """Smallest s/c > 1 at which the variant's amplitude departs from the full model.

    Bisects |delta_variant/delta_full - 1| < ``rel_err`` to adjacent floats and
    returns the last s/c at which it holds.  The comparison uses the closed
    amplitude-velocity laws, which remain defined past the full model's
    existence bound and hold for every laminate: the speed depends on the
    variant alone.  The amplitude error stays below 1 at every speed, so
    ``rel_err >= 1`` (or NaN) raises :class:`NotReached`.
    """
    if rel_err < 0.0:
        raise NotReached("rel_err must be non-negative")
    if rel_err == 0.0:
        return 1.0
    if variant is WaveModel.FULL:
        raise NotReached("the full model has zero amplitude error by definition")
    if not rel_err < 1.0:
        raise NotReached(f"amplitude error never reaches {rel_err:.3g}")
    # the slow-time error 1 - sqrt(2/(s + 1)) reaches rel_err at s = 2/(1 - rel_err)^2 - 1;
    # the slow-space amplitude ratio is smaller by s^(3/2) >= 1, so its error gets there
    # no later; the bracket end 2/(1 - rel_err)^2 lies past both by more than rounding
    hi = 2.0 / (1.0 - rel_err) ** 2
    return float(bisect(lambda s: abs(_amplitude_ratio(variant, s) - 1.0) < rel_err, 1.0, hi))


def shock_distance(eff: EffectiveModel, velocity: float, kappa: float) -> float:
    """Shock formation distance of the non-dispersive impact problem (m).

    ``velocity`` is the boundary velocity amplitude (m/s), ``kappa`` the
    forcing wave number (rad/m).
    """
    if eff.zeta <= 0.0 or velocity <= 0.0 or kappa <= 0.0:
        raise NoSoliton("shock distance needs zeta, velocity and kappa all positive")
    return 16.0 * math.sqrt(3.0) / (9.0 * eff.zeta * kappa) * (eff.c / velocity) ** 2


def waveform_table(
    eff: EffectiveModel, speed: float, xi_max: float = 10.0, n: int = 801
) -> tuple[list[str], list[tuple]]:
    """Row blocks (xi, strain, displacement, variant) at one speed, one per variant that
    has a soliton there."""
    xi = np.linspace(-xi_max, xi_max, n)
    blocks = []
    for variant in WaveModel:
        try:
            sol = solve_soliton(eff, variant, speed)
        except NoSoliton:
            continue
        blocks.append((xi, *soliton_waveform(sol, xi), np.broadcast_to(variant.value, xi.shape)))
    return ["xi", "strain", "displacement", "variant"], blocks


def amplitude_table(eff: EffectiveModel, n: int = 200) -> tuple[list[str], list[tuple]]:
    """Row blocks (speed_ratio, delta, L_over_ell, variant), one per variant, along the speed
    axis up to the existence bound (1.5 where there is none)."""
    bound = existence_bound(eff)
    top = bound if math.isfinite(bound) else 1.5
    blocks = []
    for variant in WaveModel:
        hi = bound - 1e-9 if variant is WaveModel.FULL and math.isfinite(bound) else top
        s = np.linspace(1.0 + 1e-9, hi, n)
        try:
            with np.errstate(**FLOAT_ERRORS):
                sol = solve_soliton(eff, variant, s * eff.c)
        except NoSoliton:
            continue
        ok = ~np.isnan(sol.c1)  # the speeds that have a soliton
        blocks.append((s[ok], sol.strain_amplitude[ok], sol.length[ok] / eff.ell,
                       np.broadcast_to(variant.value, ok.sum())))
    return ["speed_ratio", "delta", "L_over_ell", "variant"], blocks
