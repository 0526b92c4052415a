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
from .homogenize import EffectiveModel


class WaveModel(Enum):
    FULL = "full"
    SLOW_SPACE = "slow_space"
    SLOW_TIME = "slow_time"


@dataclass(frozen=True)
class SolitonSolution:
    """A sech strain pulse travelling at constant speed."""

    speed: float  # m/s
    c1: float
    c3: float
    strain_amplitude: float  # peak shear strain
    length: float  # characteristic length, m
    displacement_amplitude: float  # m
    ell: float  # laminate period, m
    sign: int = 1


def oscillator_coeffs(eff: EffectiveModel, variant: WaveModel, speed: float) -> tuple[float, float]:
    """Oscillator coefficients (c1, c3) for a travelling wave of the given speed.

    ``speed`` is dimensional (m/s).  At exactly the sonic speed all variants
    return ``c1 = 0`` (zero-amplitude limit).  Raises :class:`NoSoliton` when
    the coefficients leave the sech-admissible quadrant (c1 < 0 or c3 <= 0).
    """
    s = speed / eff.c
    if variant is WaveModel.FULL:
        denom = eff.eta_y - eff.eta_m * s**2 - eff.eta_t * s**4
        if denom == 0.0:
            raise NoSoliton(f"dispersion denominator vanishes at s/c = {s:.6g}")
        c3 = 1.0 / denom
        c1 = (s * s - 1.0) * c3
    elif variant is WaveModel.SLOW_SPACE:
        if eff.eta <= 0.0:
            raise NoSoliton("unidirectional solitons need eta > 0")
        if s == 0.0:
            raise NoSoliton("the slow-space model has no travelling wave at zero speed")
        c3 = 1.0 / eff.eta
        c1 = 2.0 * (s - 1.0) / s**3 * c3
    elif variant is WaveModel.SLOW_TIME:
        if eff.eta <= 0.0:
            raise NoSoliton("unidirectional solitons need eta > 0")
        c3 = 1.0 / eff.eta
        c1 = 2.0 * (s - 1.0) * c3
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    if c1 < 0.0 or c3 <= 0.0:
        raise NoSoliton(
            f"no sech solution at s/c = {s:.6g} for {variant.value}: c1 = {c1:.6g}, c3 = {c3:.6g}"
        )
    return c1, c3


def solve_soliton(
    eff: EffectiveModel, variant: WaveModel, speed: float, sign: int = 1
) -> SolitonSolution:
    """Construct the sech solitary wave of the given variant and speed."""
    if eff.zeta <= 0.0:
        raise NoSoliton("solitary waves need a stiffening laminate (zeta > 0)")
    c1, c3 = oscillator_coeffs(eff, variant, speed)
    if c1 == 0.0:
        raise NoSoliton("zero-amplitude limit: speed equals the effective sound speed")
    delta = math.sqrt(6.0 * c1 / (c3 * eff.zeta))
    length = eff.ell / math.sqrt(c1)
    amp = eff.ell * math.sqrt(6.0 / (c3 * eff.zeta))
    return SolitonSolution(
        speed=speed,
        c1=c1,
        c3=c3,
        strain_amplitude=delta,
        length=length,
        displacement_amplitude=amp,
        ell=eff.ell,
        sign=1 if sign >= 0 else -1,
    )


def soliton_waveform(sol: SolitonSolution, xi) -> tuple[np.ndarray, np.ndarray]:
    """Strain and displacement profiles on the phase grid xi = (y - s t)/ell.

    Strain is ``delta * sech``, displacement the Gudermannian ramp of height
    ``pi * amplitude``; the sign picks the mirror-image branch.
    """
    x = np.asarray(xi, dtype=float) * sol.ell / sol.length
    # far tails overflow cosh and sinh to inf, whose limits 1/inf = 0 and
    # arctan(inf) = pi/2 are the right values
    with np.errstate(over="ignore"):
        strain = sol.sign * sol.strain_amplitude / np.cosh(x)
        displacement = sol.sign * sol.displacement_amplitude * np.arctan(np.sinh(x))
    return strain, displacement


def strain_amplitude(eff: EffectiveModel, variant: WaveModel, speed: float) -> float:
    """Peak strain of the sech pulse as a function of speed (amplitude-velocity law)."""
    if eff.zeta <= 0.0:
        raise NoSoliton("solitary waves need a stiffening laminate (zeta > 0)")
    s = speed / eff.c
    if variant is WaveModel.FULL:
        ratio = s * s - 1.0
    elif variant is WaveModel.SLOW_SPACE:
        if s == 0.0:
            raise NoSoliton("the slow-space model has no travelling wave at zero speed")
        ratio = 2.0 * (s - 1.0) / s**3
    else:
        ratio = 2.0 * (s - 1.0)
    if ratio < 0.0:
        raise NoSoliton(f"subsonic speed s/c = {s:.6g}")
    return math.sqrt(6.0 * ratio / eff.zeta)


def existence_bound(eff: EffectiveModel) -> float:
    """Largest admissible s/c for the full model, ``inf`` when unbounded.

    Supersonic sech solutions exist while the dispersion denominator stays
    positive, i.e. while ``eta - (eta_m + 2 eta_t) x - eta_t x^2 > 0`` with
    ``x = s^2/c^2 - 1``.  The bound is the smallest positive root of that
    polynomial; with no positive root the range is unbounded.
    """
    if eff.eta <= 0.0:
        raise NoSoliton("existence analysis needs eta > 0")
    b = eff.eta_m + 2.0 * eff.eta_t
    if eff.eta_t == 0.0:
        if b <= 0.0:
            return math.inf
        return math.sqrt(1.0 + eff.eta / b)
    disc = b * b + 4.0 * eff.eta_t * eff.eta
    if disc < 0.0:
        return math.inf
    s = math.sqrt(disc)
    roots = [(-b - s) / (2.0 * eff.eta_t), (-b + s) / (2.0 * eff.eta_t)]
    positive = [x for x in roots if x > 0.0]
    if not positive:
        return math.inf
    return math.sqrt(1.0 + min(positive))


def max_strain_amplitude(eff: EffectiveModel) -> float:
    """Strain amplitude reached at the existence bound of the full model."""
    if eff.zeta <= 0.0:
        raise NoSoliton("solitary waves need a stiffening laminate (zeta > 0)")
    bound = existence_bound(eff)
    if math.isinf(bound):
        raise NoBound("solitary-wave speeds are unbounded; no strain ceiling exists")
    return math.sqrt(6.0 * (bound * bound - 1.0) / eff.zeta)


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


def mkdv_validity_speed(eff: EffectiveModel, variant: WaveModel, rel_err: float = 0.1) -> float:
    """Smallest s/c > 1 at which the variant's amplitude departs from the full model.

    Bisects |delta_variant/delta_full - 1| < ``rel_err`` to adjacent floats and
    returns the last s/c at which it holds.  The comparison uses the closed
    amplitude-velocity laws, which remain defined past the full model's
    existence bound.  The amplitude error stays below 1 at every speed, so
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
    """Rows (xi, strain, displacement, variant) for all variants at one speed."""
    xi = np.linspace(-xi_max, xi_max, n)
    xs = xi.tolist()
    rows: list[tuple] = []
    for variant in WaveModel:
        try:
            sol = solve_soliton(eff, variant, speed)
        except NoSoliton:
            continue
        strain, disp = soliton_waveform(sol, xi)
        rows.extend(
            (x, s, u, variant.value)
            for x, s, u in zip(xs, strain.tolist(), disp.tolist())
        )
    return ["xi", "strain", "displacement", "variant"], rows


def amplitude_table(eff: EffectiveModel, n: int = 200) -> tuple[list[str], list[tuple]]:
    """Rows (speed_ratio, delta, L_over_ell, variant) along the speed axis, up to the
    existence bound (1.5 where there is none)."""
    bound = existence_bound(eff)
    top = bound if math.isfinite(bound) else 1.5
    rows: list[tuple] = []
    for variant in WaveModel:
        hi = bound - 1e-9 if variant is WaveModel.FULL and math.isfinite(bound) else top
        for s in np.linspace(1.0 + 1e-9, hi, n).tolist():
            try:
                sol = solve_soliton(eff, variant, s * eff.c)
            except NoSoliton:
                continue
            rows.append(
                (float(s), sol.strain_amplitude, sol.length / eff.ell, variant.value)
            )
    return ["speed_ratio", "delta", "L_over_ell", "variant"], rows
