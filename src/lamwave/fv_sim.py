"""Direct time-domain simulation of the layered medium.

First-order system for shear strain gamma and velocity v,

    gamma_t - v_y = 0,        (rho v)_t - sigma_y = 0,
    sigma = g gamma + (h/3) gamma^3,

with piecewise-constant (g, h, rho) per cell.  The update is a wave-propagation
scheme: interface flux differences are decomposed exactly into two acoustic
f-waves using the adjacent cells' nonlinear impedances, plus limited
second-order correction waves.  The time step keeps a fixed Courant number
against the instantaneous global maximum signal speed.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, DomainError, GeometryError
from .homogenize import cell_state, effective_model
from .materials import Laminate, ShearCoefficients

#: margin of the front speed over the period-crossing speed in ``required_periods``
SPEED_MARGIN = 1.35


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid over [0, domain_length] with a per-cell phase map.

    The origin sits in the middle of a phase-2 layer, so the leftmost half
    layer is phase 2 and layers alternate from there.
    """

    dy: float
    n_cells: int
    phase_index: np.ndarray  # 1 or 2 per cell
    g: np.ndarray
    h: np.ndarray
    rho: np.ndarray
    ell: float
    domain_length: float

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dy

    def cell_at(self, y: float) -> int:
        i = int(round(y / self.dy - 0.5))
        if not 0 <= i < self.n_cells:
            raise DomainError(f"position {y} lies outside the domain")
        return i


def build_grid(
    lam: Laminate, stretch: float, cells_per_layer: int, n_periods: int
) -> Grid1D:
    """Discretise ``n_periods`` spatial periods with ``cells_per_layer`` cells per layer.

    ``cells_per_layer`` applies to the phase-2 layer (the one straddling the
    origin) and must be even so the half layer at the origin is resolved by
    whole cells; the phase-1 layer thickness must then also be an integer
    number of cells.
    """
    if cells_per_layer < 4 or cells_per_layer % 2 != 0:
        raise GeometryError(f"cells_per_layer must be even and >= 4, got {cells_per_layer}")
    if n_periods < 1:
        raise GeometryError("n_periods must be at least 1")
    ell1, ell2 = lam.layer_thicknesses(stretch)
    dy = ell2 / cells_per_layer
    n1_f = ell1 / dy
    n1 = int(round(n1_f))
    if abs(n1_f - n1) > 1e-9 * max(1.0, n1_f) or n1 < 1:
        raise GeometryError(
            f"phase-1 layer is not an integer number of cells: {ell1:.6g} / {dy:.6g}"
        )
    half2 = cells_per_layer // 2
    pattern: list[np.ndarray] = [np.full(half2, 2, dtype=np.int8)]
    for k in range(n_periods):
        pattern.append(np.full(n1, 1, dtype=np.int8))
        last = k == n_periods - 1
        pattern.append(np.full(half2 if last else cells_per_layer, 2, dtype=np.int8))
    phase = np.concatenate(pattern)
    st = cell_state(lam, stretch)
    is2 = phase == 2
    g = np.where(is2, st.sc2.g, st.sc1.g)
    h = np.where(is2, st.sc2.h, st.sc1.h)
    rho = np.where(is2, lam.phase2.density, lam.phase1.density)
    n_cells = len(phase)
    return Grid1D(
        dy=dy,
        n_cells=n_cells,
        phase_index=phase,
        g=g,
        h=h,
        rho=rho,
        ell=lam.deformed_period(stretch),
        domain_length=n_cells * dy,
    )


def flux_and_speed(coeffs: ShearCoefficients, rho: float, gamma):
    """Shear stress and local signal speed at strain gamma.

    ``sigma = g gamma + (h/3) gamma^3`` and ``c = sqrt((g + h gamma^2)/rho)``.
    Vectorised over gamma.
    """
    gam = np.asarray(gamma, dtype=float)
    sigma = (coeffs.g + coeffs.h * gam * gam / 3.0) * gam
    speed = np.sqrt((coeffs.g + coeffs.h * gam * gam) / rho)
    if sigma.ndim:
        return sigma, speed
    return float(sigma), float(speed)


@dataclass
class SimState:
    """Cell-averaged strain and velocity fields at one instant."""

    gamma: np.ndarray
    velocity: np.ndarray
    time: float = 0.0

    @classmethod
    def quiescent(cls, grid: Grid1D) -> "SimState":
        return cls(np.zeros(grid.n_cells), np.zeros(grid.n_cells), 0.0)


def _minmod(theta: np.ndarray) -> np.ndarray:
    return np.clip(theta, 0.0, 1.0)


def _mc(theta: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.minimum(np.minimum(0.5 * (1.0 + theta), 2.0), 2.0 * theta))


LIMITERS: dict[str, Callable[[np.ndarray], np.ndarray]] = {"minmod": _minmod, "mc": _mc}

BoundarySpec = str | tuple[str, Callable[[float], float]]


def _extend(a: np.ndarray, left: BoundarySpec, right: BoundarySpec) -> np.ndarray:
    """Extend a per-cell quantity by two ghost cells per side.

    ``outflow`` copies the edge cell, ``periodic`` wraps around the domain, and
    ``wall`` and ``("velocity", fn)`` mirror the interior; velocity boundaries
    are accepted on the left only.
    """
    n = len(a)
    e = np.empty(n + 4)
    e[2:-2] = a
    if left == "outflow":
        e[0] = e[1] = a[0]
    elif left == "periodic":
        e[0], e[1] = a[n - 2], a[n - 1]
    elif left == "wall" or (not isinstance(left, str) and left[0] == "velocity"):
        e[1], e[0] = a[0], a[1]
    else:
        raise DomainError(f"unknown boundary condition {left!r}")
    if right == "outflow":
        e[-2] = e[-1] = a[n - 1]
    elif right == "periodic":
        e[-2], e[-1] = a[0], a[1]
    elif right == "wall":
        e[-2], e[-1] = a[n - 1], a[n - 2]
    else:
        raise DomainError(f"unknown boundary condition {right!r}")
    return e


def step(
    state: SimState,
    grid: Grid1D,
    *,
    cfl: float = 0.95,
    limiter: str = "minmod",
    left: BoundarySpec = "outflow",
    right: BoundarySpec = "outflow",
    dt_max: float = math.inf,
) -> float:
    """Advance the state by one conservative update; returns the dt taken.

    The Courant number is enforced against the instantaneous global maximum
    speed.  Ghost strains mirror the interior, so interior speeds already
    bound the ghost speeds and fix dt before boundary data is evaluated.
    """
    phi = LIMITERS[limiter]
    n = grid.n_cells
    dy = grid.dy

    gam2 = state.gamma * state.gamma
    c_int = np.sqrt((grid.g + grid.h * gam2) / grid.rho)
    c_max = float(c_int.max())
    if c_max <= 0.0:
        raise DomainError("non-positive signal speed")
    dt = min(cfl * dy / c_max, dt_max)
    if c_max * dt / dy > 1.0 + 1e-12:
        raise CFLViolation(
            f"wave speed {c_max:.6g} exceeds dy/dt = {dy / dt:.6g} at t = {state.time:.6g}"
        )

    # every ghost cell copies one interior cell, so speeds, impedances and
    # stresses extend directly; only the ghost velocities carry boundary data
    c_e = _extend(c_int, left, right)
    z_e = _extend(grid.rho * c_int, left, right)
    sig_int = (grid.g + grid.h * gam2 / 3.0) * state.gamma
    v_e = _extend(state.velocity, left, right)
    if left == "wall":
        v_e[:2] = -v_e[:2]
    elif not isinstance(left, str):
        vb = left[1](state.time + 0.5 * dt)
        v_e[:2] = 2.0 * vb - v_e[:2]
    if right == "wall":
        v_e[-2:] = -v_e[-2:]
    f1 = -v_e
    f2 = -_extend(sig_int, left, right)

    # f-wave decomposition of the interface flux differences
    df1 = np.diff(f1)
    df2 = np.diff(f2)
    zl = z_e[:-1]
    zr = z_e[1:]
    den = zl + zr
    b1 = (df1 * zr + df2) / den
    b2 = (df1 * zl - df2) / den
    w1g, w1m = b1, b1 * zl  # left-going, speed -c(left cell)
    w2g, w2m = b2, -b2 * zr  # right-going, speed +c(right cell)
    s1 = c_e[:-1]
    s2 = c_e[1:]

    coef = dt / dy
    mom = grid.rho * state.velocity
    gam_new = state.gamma - coef * (w2g[1 : n + 1] + w1g[2 : n + 2])
    mom_new = mom - coef * (w2m[1 : n + 1] + w1m[2 : n + 2])

    # limited second-order corrections on interfaces 1 .. n+1
    sl = slice(1, n + 2)

    def theta(wg, wm, up):
        num = wg[sl] * wg[up] + wm[sl] * wm[up]
        den_ = wg[sl] * wg[sl] + wm[sl] * wm[sl]
        return num / (den_ + 1e-300)

    th1 = theta(w1g, w1m, slice(2, n + 3))  # upwind of the left-going family
    th2 = theta(w2g, w2m, slice(0, n + 1))  # upwind of the right-going family
    p1 = phi(th1)
    p2 = phi(th2)
    fac1 = -0.5 * (1.0 - s1[sl] * coef) * p1
    fac2 = 0.5 * (1.0 - s2[sl] * coef) * p2
    fg = fac1 * w1g[sl] + fac2 * w2g[sl]
    fm = fac1 * w1m[sl] + fac2 * w2m[sl]
    gam_new -= coef * np.diff(fg)
    mom_new -= coef * np.diff(fm)

    state.gamma = gam_new
    state.velocity = mom_new / grid.rho
    state.time += dt
    return dt


@dataclass
class ProbeRecord:
    """Velocity time series recorded at a fixed position."""

    position: float
    cell: int
    times: np.ndarray
    v_over_c: np.ndarray


@dataclass
class SimResult:
    probes: list[ProbeRecord]
    grid: Grid1D
    state: SimState
    c_ref: float
    steps: int
    elapsed_s: float


def impact_signal(velocity: float, kappa: float, c_ref: float) -> Callable:
    """Smooth single-hump boundary velocity: V sin^2(kappa c t / 2) over one period.

    The returned function takes a scalar time or an array of times; the FV run
    and the spectral march share it.
    """

    def fn(t):
        phase = kappa * c_ref * t
        return np.where(
            (phase >= 0.0) & (phase <= 2.0 * math.pi),
            velocity * np.sin(0.5 * phase) ** 2,
            0.0,
        )

    return fn


def simulate(
    grid: Grid1D,
    *,
    left_velocity: Callable[[float], float],
    t_final: float,
    probe_positions: list[float],
    c_ref: float,
    limiter: str = "minmod",
) -> SimResult:
    """March a quiescent grid under a prescribed boundary velocity, recording probes."""
    state = SimState.quiescent(grid)
    cells = [grid.cell_at(y) for y in probe_positions]
    times: list[float] = [0.0]
    series: list[list[float]] = [[0.0] for _ in cells]
    t0 = _time.perf_counter()
    steps = 0
    while state.time < t_final - 1e-15:
        step(
            state,
            grid,
            limiter=limiter,
            left=("velocity", left_velocity),
            dt_max=t_final - state.time,
        )
        steps += 1
        times.append(state.time)
        for k, cell in enumerate(cells):
            series[k].append(state.velocity[cell] / c_ref)
    elapsed = _time.perf_counter() - t0
    t_arr = np.asarray(times)
    probes = [
        ProbeRecord(position=y, cell=c, times=t_arr, v_over_c=np.asarray(s))
        for y, c, s in zip(probe_positions, cells, series)
    ]
    return SimResult(
        probes=probes,
        grid=grid,
        state=state,
        c_ref=c_ref,
        steps=steps,
        elapsed_s=elapsed,
    )


def required_periods(
    lam: Laminate,
    stretch: float,
    t_final: float,
    probe_max: float,
    wavelength: float,
) -> int:
    """Periods needed so the outflow boundary cannot reflect into any probe.

    A front crossing one period needs at least the sum of the per-layer
    travel times, so the period-crossing speed bounds every signal;
    ``SPEED_MARGIN`` covers nonlinear stiffening of the layer speeds.  The
    farthest probe plus two forcing wavelengths are added on top.
    """
    st = cell_state(lam, stretch)
    ell1, ell2 = lam.layer_thicknesses(stretch)
    crossing_time = ell1 / st.c1 + ell2 / st.c2
    c_front = lam.deformed_period(stretch) / crossing_time * SPEED_MARGIN
    length = c_front * t_final + probe_max + 2.0 * wavelength
    return int(math.ceil(length / lam.deformed_period(stretch)))


def impact_run(
    lam: Laminate,
    stretch: float,
    velocity: float,
    kappa: float,
    probe_positions: list[float],
    t_final: float,
    cells_per_layer: int = 32,
    limiter: str = "minmod",
) -> SimResult:
    """Impact problem on an initially quiescent half-space of the layered medium.

    The boundary velocity follows the smooth single-hump signal with the
    effective sound speed as clock; the right boundary is non-reflecting
    (zero-order extrapolation) and the domain is sized so it cannot contaminate
    the probes within ``t_final``.
    """
    if velocity < 0.0 or kappa <= 0.0:
        raise DomainError("impact needs velocity >= 0 and kappa > 0")
    eff = effective_model(lam, stretch)
    wavelength = 2.0 * math.pi / kappa
    n_periods = required_periods(
        lam, stretch, t_final, max(probe_positions, default=0.0), wavelength
    )
    grid = build_grid(lam, stretch, cells_per_layer, n_periods)
    return simulate(
        grid,
        left_velocity=impact_signal(velocity, kappa, eff.c),
        t_final=t_final,
        probe_positions=probe_positions,
        c_ref=eff.c,
        limiter=limiter,
    )

