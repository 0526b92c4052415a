"""Direct time-domain simulation of the layered medium.

First-order system for shear strain gamma and velocity v,

    gamma_t - v_y = 0,        (rho v)_t - sigma_y = 0,
    sigma = g gamma + (h/3) gamma^3,

with piecewise-constant (g, h, rho) per cell.  The update is a wave-propagation
scheme: interface flux differences are decomposed exactly into two acoustic
f-waves using the adjacent cells' nonlinear impedances, plus limited
second-order correction waves.  The time step keeps a fixed Courant number
against the instantaneous global maximum signal speed; a step updates only the
active prefix of a state that started quiescent, in preallocated buffers.  The
scheme carries values ahead of the wave faster than any physical speed, down to
subnormals; with a ``floor`` a cell joins the prefix only once a field rises
above it, and the numerical precursor below it is flushed to 0.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, GeometryError, Instability
from .homogenize import CellState

#: margin of the front speed over the period-crossing speed in ``required_periods``
SPEED_MARGIN = 1.35
#: Courant number of every step against the global maximum signal speed
CFL = 0.95
#: the most a signal speed may exceed the fastest linear speed; past it the cubic part of
#: the stress is over (32^2 - 1)/3, about 340 times the linear part
MAX_SPEEDUP = 32.0
#: the floor of an impact run, relative to the impact velocity: the precursor below it is
#: flushed, which moves the probes by about an ulp of V; the default impact run then
#: updates about 23% fewer cells
PRECURSOR_FLOOR = 2.0**-64
#: bytes an impact run holds a grid cell: the grid's and the state's arrays and the step's buffers
BYTES_PER_CELL = 160


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
    h_third: np.ndarray  # h/3
    rho: np.ndarray
    rho_inv: np.ndarray  # 1/rho
    domain_length: float
    c_tail: np.ndarray  # [i]: max linear speed sqrt(g (1/rho)) over cells i.., 0 at n_cells

    def cell_at(self, y: float) -> int:
        return _cell_index(y, self.dy, self.n_cells)


def _cell_index(y: float, dy: float, n_cells: int) -> int:
    if not 0 <= (i := int(round(y / dy - 0.5))) < n_cells:
        raise DomainError(f"position {y} lies outside the domain")
    return i


def _layer_cells(st: CellState, cells_per_layer: int) -> tuple[float, int]:
    """(dy, cells in a phase-1 layer) of a grid of ``cells_per_layer`` cells in the phase-2 layer
    straddling the origin: even, so that whole cells resolve its half there, as they must each layer."""
    if cells_per_layer < 4 or cells_per_layer % 2 != 0:
        raise GeometryError(f"cells_per_layer must be even and >= 4, got {cells_per_layer}")
    ell1, ell2 = st.nu1 * st.eff.ell, st.nu2 * st.eff.ell
    dy = ell2 / cells_per_layer
    n1_f = ell1 / dy
    n1 = int(round(n1_f))
    if abs(n1_f - n1) > 1e-9 * max(1.0, n1_f) or n1 < 1:
        raise GeometryError(
            f"phase-1 layer is not an integer number of cells: {ell1:.6g} / {dy:.6g}"
        )
    return dy, n1


def build_grid(st: CellState, cells_per_layer: int, n_periods: int) -> Grid1D:
    """Discretise ``n_periods`` spatial periods with ``cells_per_layer`` cells per phase-2
    layer and whole cells per phase-1 layer (``_layer_cells``)."""
    dy, n1 = _layer_cells(st, cells_per_layer)
    if n_periods < 1:
        raise GeometryError("n_periods must be at least 1")
    # one period from the origin: half a phase-2 layer, a phase-1 layer, half a phase-2 layer
    half2 = cells_per_layer // 2
    phase = np.tile(np.repeat(np.array([2, 1, 2], dtype=np.int8), [half2, n1, half2]), n_periods)
    is2 = phase == 2
    g = np.where(is2, st.sc2.g, st.sc1.g)
    rho = np.where(is2, st.rho2, st.rho1)
    rho_inv = 1.0 / rho
    n_cells = len(phase)
    return Grid1D(
        dy=dy,
        n_cells=n_cells,
        phase_index=phase,
        g=g,
        h_third=np.where(is2, st.sc2.h, st.sc1.h) / 3.0,
        rho=rho,
        rho_inv=rho_inv,
        domain_length=n_cells * dy,
        # the step's speed at gamma = 0, sqrt((g + 3 (h/3) 0^2) (1/rho)), to the bit
        c_tail=np.append(np.maximum.accumulate(np.sqrt(g * rho_inv)[::-1])[::-1], 0.0),
    )


@dataclass
class SimState:
    """Cell-averaged strain and velocity fields at one instant.

    ``front`` is the first cell at or beyond which ``gamma`` and ``velocity``
    are exactly 0.0: 0 for a quiescent state, the whole grid by default.
    ``step`` updates the arrays in place, using the buffers in ``work`` through
    views it keeps in ``_plan``; they are built again when the window's block
    changes or the grid, a field array or ``work`` is another object.
    """

    gamma: np.ndarray
    velocity: np.ndarray
    time: float = 0.0
    front: int = field(init=False)
    work: np.ndarray = field(init=False, repr=False)
    _plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.front = len(self.gamma)
        self.work = np.empty((10, len(self.gamma) + 4))

    @classmethod
    def quiescent(cls, grid: Grid1D) -> "SimState":
        state = cls(np.zeros(grid.n_cells), np.zeros(grid.n_cells))
        state.front = 0
        return state


# the constant operands of the step's ufunc calls, as 0-d float64 arrays: the same
# bits as Python floats, which numpy converts again on every call (about 0.8 us)
_ZERO, _HALF, _ONE, _TWO, _THREE, _TINY = map(np.array, (0.0, 0.5, 1.0, 2.0, 3.0, 1e-300))


def _minmod(theta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # np.clip(theta, 0, 1) to the bit, -0.0 and NaN included, without its Python
    # wrapper; the bound goes first so that -0.0 stays -0.0 (out= by keyword, as numpy asks)
    return np.minimum(_ONE, np.maximum(_ZERO, theta, out=theta), out=theta)


def _mc(theta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    half = np.multiply(_HALF, np.add(_ONE, theta, scratch), scratch)
    np.minimum(np.minimum(half, _TWO, out=half), np.multiply(_TWO, theta, theta), out=theta)
    return np.maximum(_ZERO, theta, out=theta)


#: limiter phi(theta, scratch), evaluated in place in ``theta``
LIMITERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {"minmod": _minmod, "mc": _mc}

#: a window updates a whole number of blocks of cells, so that its views change
#: only when the front crosses a block edge
_BLOCK = 64


class _Plan:
    """Every view a step reads or writes, for ``key[0]`` cells updated and ``k`` read.

    ``state.work`` rows: speed, impedance, velocity and stress, each with two ghost
    cells a side, then two scratch rows and the f-waves w1g, w2g, w1m, w2m.  The speed
    row then holds 1/2 - c dt/(2 dy), and the stress row each update row's increment.
    """

    def __init__(self, state: SimState, grid: Grid1D, key: tuple[int, ...], k: int):
        # keyed by ids, so that a copied state builds its own views; the objects are
        # held so that their ids cannot pass to new ones
        m, self.key, self.held = key[0], key, (grid, state.gamma, state.velocity, state.work)
        c_e, z_e, v_e, s_e, t1, t2, *waves = rows = state.work[:, : k + 4]
        cells, sl = slice(2, k + 2), slice(1, m + 2)
        self.c_tail = float(grid.c_tail[m])
        self.cells = (state.gamma[:k], state.velocity[:k], grid.g[:k], grid.h_third[:k], grid.rho[:k],
                      grid.rho_inv[:k], t1[:k], c_e[cells], c_e[2 : m + 2], z_e[cells], s_e[cells],
                      v_e[cells])
        self.ghosts = tuple(rows[:4, j] for j in (0, 1, 2, 3, -3, -2, -1)), v_e[:2]
        w1g, w2g, w1m, w2m = (w[: k + 3] for w in waves)
        self.faces = (v_e[:-1], v_e[1:], s_e[:-1], s_e[1:], z_e[:-1], z_e[1:],
                      t1[: k + 3], t2[: k + 3], v_e[: k + 3], w1g, w2g, w1m, w2m)
        # 1/2 - c dt/(2 dy) on cells 1 .. m+2, and theta on interfaces 1 .. m+1 per family:
        # the left-going family reads upwind interfaces 2 .. m+2, the right-going 0 .. m
        self.half_c, self.a, self.b = c_e[1 : m + 3], t1[: m + 1], t2[: m + 1]
        self.coef, self.half_coef = np.empty(()), np.empty(())  # dt/dy and dt/(2 dy), 0-d operands
        self.families = (
            (w1g[sl], w1g[2 : m + 3], w1m[sl], w1m[2 : m + 3], self.half_c[: m + 1], z_e[: m + 1]),
            (w2g[sl], w2g[: m + 1], w2m[sl], w2m[: m + 1], self.half_c[1:], v_e[: m + 1]),
        )
        # w2m holds minus the right-going momentum f-wave, so the momentum row adds
        # w1m - w2m, forms minus its correction fluxes and differences them in reverse;
        # its update reaches the velocity through 1/rho
        a = self.a
        self.rows = ((state.gamma[:m], w2g[1 : m + 1], w1g[2 : m + 2], np.add,
                      w2g[sl], w1g[sl], np.subtract, a[1:], a[:-1], (self.coef,)),
                     (state.velocity[:m], w1m[2 : m + 2], w2m[1 : m + 1], np.subtract,
                      w2m[sl], w1m[sl], np.add, a[:-1], a[1:], (self.coef, grid.rho_inv[:m])))
        self.flux = s_e[:m], self.b[:m], z_e[: m + 1], v_e[: m + 1]


def step(
    state: SimState,
    grid: Grid1D,
    *,
    limiter: str = "minmod",
    forcing: Callable[[float], float] | None = None,
    dt_max: float = math.inf,
    floor: float = 0.0,
) -> float:
    """Advance the state in place by one conservative update; returns the dt taken.

    The right edge is outflow: its two ghost cells copy the edge cell.  The left
    edge is outflow too with ``forcing`` None, else the prescribed velocity
    ``forcing(t)``: its ghost cells mirror the interior, with the ghost velocities
    reflected about ``forcing`` at the half step.  Only the active window is
    updated: cells ``[0, front + 4)`` rounded up to whole ``_BLOCK``s, at most
    ``n_cells - 2``, with its real neighbours as right ghost cells.  The stencil
    reaches two cells each way, so a cell with an all-zero neighbourhood gets zero
    f-waves and theta = 0/(0 + 1e-300) = 0 and steps to +0.0: skipping or stepping
    it changes no bit.  The whole grid is updated near the right edge.  The front
    moves to just past the last newly updated cell with a field above ``floor``
    (a velocity; the strain floor is ``floor / grid.c_tail[0]``) or not finite, and
    never recedes; with ``floor`` > 0 the cells past it are flushed to 0.0, so the
    window stops growing with the scheme's numerical precursor.  At ``floor`` 0
    nothing is flushed and every bit is that of whole-grid stepping.  dt keeps
    the Courant number ``CFL`` against the global maximum speed: the window's
    sqrt((g + 3 hg3) (1/rho)), hg3 = gamma^2 h/3 from the grid's h/3 and 1/rho, or,
    beyond it, the linear ``grid.c_tail``, which a quiescent cell's speed matches bit for
    bit; a speed that is not positive and finite, or above ``MAX_SPEEDUP`` times the
    fastest linear speed (so that a run takes at most that many times the steps of a
    linear one), raises ``Instability``.  Ghost strains copy interior ones, so interior
    speeds bound the ghost speeds.  The velocity is updated directly, its momentum row
    times 1/rho.  Every kernel writes into views built once per block (``_Plan``).
    """
    phi, n, dy = LIMITERS[limiter], grid.n_cells, grid.dy
    window = state.front + 6 <= n
    m = min(-(-(state.front + 4) // _BLOCK) * _BLOCK, n - 2) if window else n  # cells updated
    key = (m, id(grid), id(state.gamma), id(state.velocity), id(state.work))
    p = state._plan
    if p is None or p.key != key:
        p = state._plan = _Plan(state, grid, key, m + 2 if window else n)
    gam, vel, g, h_third, rho, rho_inv, hg3, c, c_m, z, sig, v = p.cells

    np.multiply(np.multiply(gam, gam, hg3), h_third, hg3)  # h gamma^2 / 3
    np.sqrt(np.multiply(np.add(g, np.multiply(_THREE, hg3, c), c), rho_inv, c), c)
    c_max = max(float(np.maximum.reduce(c_m)), p.c_tail)
    if not 0.0 < c_max < math.inf:
        raise Instability(f"signal speed {c_max:.6g} m/s at t = {state.time:.6g} s: the fields overflowed")
    if c_max > MAX_SPEEDUP * grid.c_tail[0]:
        raise Instability(f"signal speed {c_max:.6g} m/s at t = {state.time:.6g} s: above {MAX_SPEEDUP:g} "
                          f"times the fastest linear speed {grid.c_tail[0]:.6g} m/s")
    dt = min(CFL * dy / c_max, dt_max)

    # every ghost cell copies one interior cell, so speeds, impedances and
    # stresses extend directly; only the left ghost velocities carry boundary data.
    # A window reads its real neighbours past its right edge, never these ghosts.
    np.multiply(rho, c, z)
    np.multiply(np.add(g, hg3, sig), gam, sig)
    v[...] = vel
    (l0, l1, l2, l3, r3, r2, r1), v_lo = p.ghosts
    if forcing is None:
        l0[...] = l1[...] = l2
    else:
        l1[...], l0[...] = l2, l3
        np.subtract(2.0 * forcing(state.time + 0.5 * dt), v_lo, v_lo)
    r2[...] = r1[...] = r3

    # f-wave decomposition of the interface differences of the flux (-v, -sigma)
    v_l, v_r, s_l, s_r, zl, zr, df1, df2, den, w1g, w2g, w1m, w2m = p.faces
    np.subtract(v_l, v_r, df1)
    np.subtract(s_l, s_r, df2)
    np.add(zl, zr, den)
    np.divide(np.add(np.multiply(df1, zr, w1g), df2, w1g), den, w1g)  # left-going, speed -c(left)
    np.divide(np.subtract(np.multiply(df1, zl, w2g), df2, w2g), den, w2g)  # right-going, +c(right)
    np.multiply(w1g, zl, w1m)
    np.multiply(w2g, zr, w2m)  # minus the right-going momentum wave, negated by the update

    # limited second-order corrections; 1/2 - c dt/(2 dy), in place of the speeds read last
    # above, serves the left-going family (negated below) and the right-going one
    a, b, half_c = p.a, p.b, p.half_c
    p.coef[()] = coef = dt / dy
    p.half_coef[()] = 0.5 * coef
    np.subtract(_HALF, np.multiply(half_c, p.half_coef, half_c), half_c)
    for wg, wg_up, wm, wm_up, scale, theta in p.families:
        np.add(np.multiply(wg, wg_up, theta), np.multiply(wm, wm_up, a), theta)
        np.add(np.add(np.multiply(wg, wg, a), np.multiply(wm, wm, b), a), _TINY, a)
        np.multiply(scale, phi(np.divide(theta, a, theta), a), theta)

    # each row adds its first-order term to the difference of its correction fluxes and
    # subtracts that times dt/dy (and 1/rho for the velocity); fac0 is minus the
    # left-going factor: the bits of (-fac0) wm + fac1 wp.  In the momentum row every
    # sign that w2m drops is an exact IEEE negation; only a flux that is an exact zero
    # can change sign, which can move only a velocity that is -0.0
    du, b_m, fac0, fac1 = p.flux
    for q, in_1, in_2, combine, wp, wm, fold, flux_r, flux_l, factors in p.rows:
        combine(in_1, in_2, du)
        fold(np.multiply(fac1, wp, a), np.multiply(fac0, wm, b), a)
        np.add(du, np.subtract(flux_r, flux_l, b_m), du)
        for factor in factors:
            np.multiply(du, factor, du)
        np.subtract(q, du, q)

    state.time += dt
    if window:  # scan the at most 4 newly updated cells in Python, last first
        lo, floor_g = state.front, floor / grid.c_tail[0]
        # NaN and inf are not <= a floor, so they count and reach the speed check
        state.front = next((i + 1 for i in range(lo + 3, lo - 1, -1)
                            if not (abs(gam[i]) <= floor_g and abs(vel[i]) <= floor)), lo)
        if floor:
            gam[state.front : lo + 4] = vel[state.front : lo + 4] = 0.0
    else:
        state.front = n
    return dt


@dataclass
class SimResult:
    """Probe velocities (m/s) of a run, its final state and its counters.

    ``records`` holds one velocity array per requested probe, in request order
    with repeats kept, each sampled at the probe's nearest cell centre at the times
    ``t`` (the start and the end of every step).  ``t`` and each record are views of
    flat float64 buffers that grow by one float a step.  ``cell_steps`` sums the cells
    each step updated.  A run's wall time is the caller's to measure.
    """

    t: np.ndarray
    records: list[np.ndarray]
    state: SimState
    steps: int
    cell_steps: int


def impact_signal(velocity: float, kappa: float, c_ref: float) -> Callable:
    """Smooth single-hump boundary velocity: V sin^2(kappa c t / 2) over one period.

    The returned function takes a scalar time or an array of times; the FV run
    and the spectral march share it.
    """

    def fn(t):
        phase = kappa * c_ref * t
        if isinstance(t, float):  # the FV step's scalar time: np.where costs ~2.6 us here
            return velocity * np.sin(0.5 * phase) ** 2 if 0.0 <= phase <= 2.0 * math.pi else 0.0
        return np.where(
            (phase >= 0.0) & (phase <= 2.0 * math.pi),
            velocity * np.sin(0.5 * phase) ** 2,
            0.0,
        )

    return fn


@np.errstate(over="ignore", invalid="ignore")  # fields that overflow fail the speed check
def simulate(
    grid: Grid1D,
    *,
    left_velocity: Callable[[float], float],
    t_final: float,
    probe_positions: list[float],
    limiter: str = "minmod",
    floor: float = 0.0,
) -> SimResult:
    """March a quiescent grid under a prescribed boundary velocity, recording probes.

    ``floor`` is the step's precursor floor (m/s); at 0 the run keeps the bits of
    whole-grid stepping.
    """
    state = SimState.quiescent(grid)
    times, cell_steps = array("d", [0.0]), 0
    samples = [(array("d", [state.velocity[i]]), i) for i in map(grid.cell_at, probe_positions)]
    while state.time < t_final - 1e-15:
        step(state, grid, limiter=limiter, forcing=left_velocity, dt_max=t_final - state.time,
             floor=floor)
        cell_steps += state._plan.key[0]
        times.append(state.time)
        for record, i in samples:
            record.append(state.velocity[i])
    return SimResult(
        t=np.frombuffer(times),
        records=[np.frombuffer(record) for record, _ in samples],
        state=state,
        steps=len(times) - 1,
        cell_steps=cell_steps,
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


@dataclass(frozen=True)
class ImpactPlan:
    """An impact run on a quiescent half-space, resolved before it allocates: ``n_periods``
    periods (``required_periods``) of ``n_cells`` cells, the cell each probe samples, and the
    steps to ``t_final`` at the fastest linear speed (an estimate: a nonlinear run takes up to
    ``MAX_SPEEDUP`` times as many).  It holds ``held`` bytes, its cells at ``BYTES_PER_CELL``
    and a float a step for its clock and each probe, and computes ``work``, cells x steps."""

    st: CellState
    velocity: float
    kappa: float
    probes: tuple[float, ...]
    t_final: float
    cells_per_layer: int
    n_periods: int
    n_cells: int
    probe_index: tuple[int, ...]
    steps: float
    held: float
    work: float

    def run(self, limiter: str = "minmod") -> SimResult:
        """The left edge follows ``impact_signal``; the precursor below ``PRECURSOR_FLOOR`` x V is flushed."""
        return simulate(build_grid(self.st, self.cells_per_layer, self.n_periods),
                        left_velocity=impact_signal(self.velocity, self.kappa, self.st.eff.c),
                        t_final=self.t_final, probe_positions=self.probes, limiter=limiter,
                        floor=self.velocity * PRECURSOR_FLOOR)


def plan_impact(st: CellState, velocity: float, kappa: float, probes: list[float], t_final: float,
                cells_per_layer: int) -> ImpactPlan:
    """The impact run at boundary velocity ``velocity`` (m/s) and forcing wave number ``kappa``
    (rad/m), probed at ``probes`` (m) until ``t_final`` (s); a laminate whose layers are not
    whole cells raises ``GeometryError`` first."""
    if velocity < 0.0 or kappa <= 0.0:
        raise DomainError("impact needs velocity >= 0 and kappa > 0")
    dy, n1 = _layer_cells(st, cells_per_layer)
    n_periods = required_periods(st, t_final, max(probes, default=0.0), 2.0 * math.pi / kappa)
    n_cells = n_periods * (cells_per_layer + n1)
    steps = t_final * max(st.c1, st.c2) / (CFL * st.nu2 * st.eff.ell / cells_per_layer)
    return ImpactPlan(st, velocity, kappa, tuple(probes), t_final, cells_per_layer, n_periods, n_cells,
                      tuple(_cell_index(y, dy, n_cells) for y in probes), steps,
                      n_cells * BYTES_PER_CELL + 8.0 * steps * (1 + len(probes)), n_cells * steps)
