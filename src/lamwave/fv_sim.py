"""Direct time-domain simulation of the layered medium.

First-order system for shear strain gamma and velocity v,

    gamma_t - v_y = 0,        (rho v)_t - sigma_y = 0,
    sigma = g gamma + (h/3) gamma^3,

with piecewise-constant (g, h, rho) per cell.  The update is a wave-propagation
scheme: interface flux differences are decomposed exactly into two acoustic
f-waves using the adjacent cells' nonlinear impedances, plus limited
second-order correction waves.  The time step keeps a fixed Courant number
against the instantaneous global maximum signal speed; a step updates only the
active prefix of a state that started quiescent, in preallocated buffers.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CFLViolation, DomainError, GeometryError
from .homogenize import CellState
from .materials import ShearCoefficients

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
    c_tail: np.ndarray  # [i]: max linear speed sqrt(g/rho) over cells i.., 0 at n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dy

    def cell_at(self, y: float) -> int:
        i = int(round(y / self.dy - 0.5))
        if not 0 <= i < self.n_cells:
            raise DomainError(f"position {y} lies outside the domain")
        return i


def build_grid(st: CellState, cells_per_layer: int, n_periods: int) -> Grid1D:
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
    ell1, ell2 = st.nu1 * st.eff.ell, st.nu2 * st.eff.ell
    dy = ell2 / cells_per_layer
    n1_f = ell1 / dy
    n1 = int(round(n1_f))
    if abs(n1_f - n1) > 1e-9 * max(1.0, n1_f) or n1 < 1:
        raise GeometryError(
            f"phase-1 layer is not an integer number of cells: {ell1:.6g} / {dy:.6g}"
        )
    # one period from the origin: half a phase-2 layer, a phase-1 layer, half a phase-2 layer
    half2 = cells_per_layer // 2
    phase = np.tile(np.repeat(np.array([2, 1, 2], dtype=np.int8), [half2, n1, half2]), n_periods)
    is2 = phase == 2
    g = np.where(is2, st.sc2.g, st.sc1.g)
    h = np.where(is2, st.sc2.h, st.sc1.h)
    rho = np.where(is2, st.rho2, st.rho1)
    n_cells = len(phase)
    return Grid1D(
        dy=dy,
        n_cells=n_cells,
        phase_index=phase,
        g=g,
        h=h,
        rho=rho,
        ell=st.eff.ell,
        domain_length=n_cells * dy,
        c_tail=np.append(np.maximum.accumulate(np.sqrt(g / rho)[::-1])[::-1], 0.0),
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
    """Cell-averaged strain and velocity fields at one instant.

    ``front`` is the first cell at or beyond which ``gamma`` and ``velocity``
    are exactly 0.0: 0 for a quiescent state, the whole grid by default.
    ``step`` updates the arrays in place, using the buffers in ``work``.
    """

    gamma: np.ndarray
    velocity: np.ndarray
    time: float = 0.0
    front: int = field(init=False)
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.front = len(self.gamma)
        self.work = np.empty((10, len(self.gamma) + 4))

    @classmethod
    def quiescent(cls, grid: Grid1D) -> "SimState":
        state = cls(np.zeros(grid.n_cells), np.zeros(grid.n_cells))
        state.front = 0
        return state


def _minmod(theta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # the same bits as np.clip(theta, 0, 1), -0.0 and NaN included, without its
    # Python-level wrapper; the bound goes first so that -0.0 stays -0.0
    return np.minimum(1.0, np.maximum(0.0, theta, out=theta), out=theta)


def _mc(theta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    half = np.multiply(0.5, np.add(1.0, theta, out=scratch), out=scratch)
    np.minimum(np.minimum(half, 2.0, out=half), np.multiply(2.0, theta, out=theta), out=theta)
    return np.maximum(0.0, theta, out=theta)


#: limiter phi(theta, scratch), evaluated in place in ``theta``
LIMITERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {"minmod": _minmod, "mc": _mc}

BoundarySpec = str | tuple[str, Callable[[float], float]]


def _extend(e: np.ndarray, left: BoundarySpec, right: BoundarySpec) -> None:
    """Fill the two ghost cells per side of ``e``, per-cell quantities held in ``e[..., 2:-2]``.

    ``e`` is one quantity or a stack of them, one per row; cells run along the
    last axis.  ``outflow`` copies the edge cell, ``periodic`` wraps around the
    domain, and ``wall`` and ``("velocity", fn)`` mirror the interior; velocity
    boundaries are accepted on the left only.
    """
    if left == "outflow":
        e[..., 0] = e[..., 1] = e[..., 2]
    elif left == "periodic":
        e[..., 0], e[..., 1] = e[..., -4], e[..., -3]
    elif left == "wall" or (not isinstance(left, str) and left[0] == "velocity"):
        e[..., 1], e[..., 0] = e[..., 2], e[..., 3]
    else:
        raise DomainError(f"unknown boundary condition {left!r}")
    if right == "outflow":
        e[..., -2] = e[..., -1] = e[..., -3]
    elif right == "periodic":
        e[..., -2], e[..., -1] = e[..., 2], e[..., 3]
    elif right == "wall":
        e[..., -2], e[..., -1] = e[..., -3], e[..., -4]
    else:
        raise DomainError(f"unknown boundary condition {right!r}")


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
    """Advance the state in place by one conservative update; returns the dt taken.

    Only the active window, cells ``[0, front + 4)``, is updated, with its real
    neighbours as right ghost cells.  The stencil reaches two cells each way, so
    a cell with an all-zero neighbourhood gets zero f-waves and theta =
    0/(0 + 1e-300) = 0 and stays exactly 0.0: skipping it changes no bit.  The
    whole grid is updated near the right edge and with a periodic boundary (a
    window must not wrap).  dt still comes from the global maximum speed: the
    window's or, beyond it, the linear ``grid.c_tail``.  Ghost strains mirror
    the interior, so interior speeds bound the ghost speeds.
    """
    phi, n, dy = LIMITERS[limiter], grid.n_cells, grid.dy
    window = "periodic" not in (left, right) and state.front + 6 <= n
    m, k = (state.front + 4, state.front + 6) if window else (n, n)  # cells updated, read
    c_e, z_e, v_e, s_e = ext = state.work[:4, : k + 4]  # extended with ghost cells
    t1, t2, w1g, w2g, w1m, w2m = state.work[4:, : k + 4]
    cells = slice(2, k + 2)

    gam = state.gamma[:k]
    hg = np.multiply(gam, gam, out=t1[:k])
    hg *= grid.h[:k]
    c = np.add(grid.g[:k], hg, out=c_e[cells])
    c /= grid.rho[:k]
    np.sqrt(c, out=c)
    c_max = max(float(c[:m].max()), float(grid.c_tail[m]))
    if c_max <= 0.0:
        raise DomainError("non-positive signal speed")
    dt = min(cfl * dy / c_max, dt_max)
    if c_max * dt / dy > 1.0 + 1e-12:
        raise CFLViolation(
            f"wave speed {c_max:.6g} exceeds dy/dt = {dy / dt:.6g} at t = {state.time:.6g}"
        )

    # every ghost cell copies one interior cell, so speeds, impedances and
    # stresses extend directly; only the ghost velocities carry boundary data.
    # A window reads its real neighbours past its right edge, never these ghosts.
    np.multiply(grid.rho[:k], c, out=z_e[cells])
    hg /= 3.0
    sig = np.add(grid.g[:k], hg, out=s_e[cells])
    sig *= gam
    v_e[cells] = state.velocity[:k]
    _extend(ext, left, right)
    if left == "wall":
        v_e[:2] = -v_e[:2]
    elif not isinstance(left, str):
        vb = left[1](state.time + 0.5 * dt)
        v_e[:2] = 2.0 * vb - v_e[:2]
    if right == "wall":
        v_e[-2:] = -v_e[-2:]

    # f-wave decomposition of the interface differences of the flux (-v, -sigma)
    df1 = np.subtract(v_e[:-1], v_e[1:], out=t1[: k + 3])
    df2 = np.subtract(s_e[:-1], s_e[1:], out=t2[: k + 3])
    zl, zr = z_e[:-1], z_e[1:]
    den = np.add(zl, zr, out=v_e[: k + 3])
    w1g = np.multiply(df1, zr, out=w1g[: k + 3])  # left-going, speed -c(left cell)
    w1g += df2
    w1g /= den
    w2g = np.multiply(df1, zl, out=w2g[: k + 3])  # right-going, speed +c(right cell)
    w2g -= df2
    w2g /= den
    w1m = np.multiply(w1g, zl, out=w1m[: k + 3])
    w2m = np.negative(w2g, out=w2m[: k + 3])
    w2m *= zr

    # limited second-order corrections on interfaces 1 .. m+1; (1 - c dt/dy)/2 on cells
    # 1 .. m+2, in place of the speeds read last above, serves the left-going family
    # (negated below) and the right-going one
    coef = dt / dy
    sl = slice(1, m + 2)
    a, b = t1[: m + 1], t2[: m + 1]
    half_c = c_e[1 : m + 3]
    np.subtract(1.0, np.multiply(half_c, coef, out=half_c), out=half_c)
    half_c *= 0.5
    fac = []
    for wg, wm, up, scale, out in (
        (w1g, w1m, slice(2, m + 3), half_c[: m + 1], z_e),  # upwind of the left-going family
        (w2g, w2m, slice(0, m + 1), half_c[1:], v_e),  # upwind of the right-going family
    ):
        theta = np.multiply(wg[sl], wg[up], out=out[: m + 1])
        theta += np.multiply(wm[sl], wm[up], out=a)
        den_ = np.multiply(wg[sl], wg[sl], out=a)
        den_ += np.multiply(wm[sl], wm[sl], out=b)
        den_ += 1e-300
        theta /= den_
        p = phi(theta, a)
        fac.append(np.multiply(scale, p, out=p))

    # first-order update, then the difference of the correction fluxes
    mom = np.multiply(grid.rho[:m], state.velocity[:m], out=s_e[:m])
    for q, wm, wp in ((state.gamma[:m], w1g, w2g), (mom, w1m, w2m)):
        upd = np.add(wp[1 : m + 1], wm[2 : m + 2], out=b[:m])
        upd *= coef
        q -= upd
        # fac[0] is minus the left-going factor: the bits of (-fac[0]) wm + fac[1] wp
        flux = np.multiply(fac[1], wp[sl], out=a)
        flux -= np.multiply(fac[0], wm[sl], out=b)
        dflux = np.subtract(flux[1:], flux[:-1], out=b[:m])
        dflux *= coef
        q -= dflux

    np.divide(mom, grid.rho[:m], out=state.velocity[:m])
    state.time += dt
    if window:
        lo = state.front  # scan the at most 4 newly updated cells in Python
        new = zip(state.gamma[lo:m].tolist(), state.velocity[lo:m].tolist())
        live = [i for i, gv in enumerate(new) if any(gv)]
        state.front += live[-1] + 1 if live else 0
    else:
        state.front = n
    return dt


@dataclass
class SimResult:
    """Probe velocities (m/s) of a run, its final state and its counters.

    ``records`` holds one velocity array per requested probe, in request order
    with repeats kept, each sampled at the probe's nearest cell centre at the
    times ``t`` (the start and the end of every step).
    """

    t: np.ndarray
    records: list[np.ndarray]
    grid: Grid1D
    state: SimState
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
    limiter: str = "minmod",
) -> SimResult:
    """March a quiescent grid under a prescribed boundary velocity, recording probes."""
    state = SimState.quiescent(grid)
    cells = [grid.cell_at(y) for y in probe_positions]
    times, samples = [0.0], [state.velocity[cells]]
    t0 = _time.perf_counter()
    while state.time < t_final - 1e-15:
        step(
            state,
            grid,
            limiter=limiter,
            left=("velocity", left_velocity),
            dt_max=t_final - state.time,
        )
        times.append(state.time)
        samples.append(state.velocity[cells])
    elapsed = _time.perf_counter() - t0
    return SimResult(
        t=np.asarray(times),
        records=list(np.array(samples).T),
        grid=grid,
        state=state,
        steps=len(times) - 1,
        elapsed_s=elapsed,
    )


def required_periods(
    st: CellState,
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
    ell = st.eff.ell
    crossing_time = st.nu1 * ell / st.c1 + st.nu2 * ell / st.c2
    c_front = ell / crossing_time * SPEED_MARGIN
    length = c_front * t_final + probe_max + 2.0 * wavelength
    return int(math.ceil(length / ell))


def impact_run(
    st: CellState,
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
    wavelength = 2.0 * math.pi / kappa
    n_periods = required_periods(st, t_final, max(probe_positions, default=0.0), wavelength)
    grid = build_grid(st, cells_per_layer, n_periods)
    return simulate(
        grid,
        left_velocity=impact_signal(velocity, kappa, st.eff.c),
        t_final=t_final,
        probe_positions=probe_positions,
        limiter=limiter,
    )

