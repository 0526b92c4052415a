"""Fourier pseudo-spectral marching of the unidirectional wave model.

The slow-space reduction is advanced in the propagation coordinate y over a
periodic time window:

    v_y = -(1/c) v_t + (zeta/(2 c^3)) v^2 v_t + (eta ell^2/(2 c^3)) v_ttt
          + nu v_tt,

where nu is a small numerical viscosity (s^2/m).  Linear terms advance exactly
in Fourier space through an integrating factor; the cubic term uses a
fourth-order Adams-Bashforth predictor and Adams-Moulton corrector (PEC mode,
one nonlinear evaluation a step), started by three classical Runge-Kutta
steps, where the viscosity damps the modes near the cutoff (see
:data:`MULTISTEP_DAMPING`), and classical Runge-Kutta throughout elsewhere.
Given fixed inputs the march is sequential and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, Instability
from .fv_sim import impact_signal
from .homogenize import EffectiveModel
from .soliton import SolitonSolution, WaveModel, solve_soliton

#: default numerical viscosity, s^2/m
DEFAULT_VISCOSITY = 1e-8
#: default march step, m
DEFAULT_DY = 7.81e-5
#: abort when any Fourier amplitude exceeds this multiple of the initial maximum
BLOWUP_FACTOR = 1e3
#: wrap-around contamination threshold relative to the window maximum
QUIET_LEVEL = 1e-6
#: the multistep scheme runs only where the viscous decay rate of the cutoff mode
#: is at least this multiple of the cubic term's linearised rate there,
#: omega |zeta| max v0^2 / (2 c^3); below it (an inviscid march among them) modes
#: near the cutoff grow from round-off, and every step is RK4.  The growth stops
#: between ratios 0.0086 and 0.02 on the soliton transport window, and between
#: 0.02 and 0.05 on the paper stack's impact at 4096 points per period.
MULTISTEP_DAMPING = 0.1


@dataclass(frozen=True)
class SpectralConfig:
    """Discretisation of the periodic time window and the y march."""

    n_points: int
    window: float  # s
    dy: float = DEFAULT_DY
    viscosity: float = DEFAULT_VISCOSITY
    quiet_zone_check: bool = True

    def __post_init__(self):
        if self.n_points < 256 or self.n_points & (self.n_points - 1):
            raise DomainError(f"n_points must be a power of two >= 256, got {self.n_points}")
        if not self.window > 0.0:
            raise DomainError("window must be positive")
        if not self.dy > 0.0:
            raise DomainError("dy must be positive")
        if not self.viscosity >= 0.0:
            raise DomainError("viscosity must be non-negative")

    @property
    def dt(self) -> float:
        return self.window / self.n_points

    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dt


def config_for_impact(
    kappa: float,
    c: float,
    window_factor: float = 4.0,
    points_per_period: int = 1024,
    dy: float = DEFAULT_DY,
    viscosity: float = DEFAULT_VISCOSITY,
) -> SpectralConfig:
    """Window sized as a multiple of the forcing duration (quiet zone >= 3x)."""
    if window_factor < 4.0:
        raise DomainError("window_factor must be >= 4 to leave a quiet zone of 3 durations")
    duration = 2.0 * math.pi / (kappa * c)
    n = points_per_period * int(round(window_factor))
    n_pow2 = 1 << (n - 1).bit_length()
    return SpectralConfig(
        n_points=n_pow2,
        window=window_factor * duration,
        dy=dy,
        viscosity=viscosity,
    )


@dataclass
class MarchResult:
    """Fields recorded along the march, its counters and the gradient-growth trace.

    ``steps`` is the number of march steps, and ``scheme`` the one that took
    them: ``"abm4"`` (three RK4 steps, then the multistep scheme) or ``"rk4"``.
    ``grad_y`` holds the distance of every step, starting at 0.  Only a march
    run with ``gradient=True`` samples the trace: ``grad_max`` holds max|v_t|
    per step; ``char_v`` and ``char_vt`` the signed field value and gradient at
    the steepest point, which drive the shock-distance extrapolation.  Without
    it the three are empty.
    """

    t: np.ndarray
    records: dict[float, np.ndarray]
    y_final: float
    grad_y: np.ndarray
    grad_max: np.ndarray
    char_v: np.ndarray
    char_vt: np.ndarray
    config: SpectralConfig
    steps: int
    scheme: str


def _check_quiet(v: np.ndarray, n_edge: int) -> None:
    """Reject boundary signals whose tails already touch the window edge."""
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return
    edge = float(np.max(np.abs(v[-n_edge:])))
    if edge > QUIET_LEVEL * peak:
        raise Instability(
            f"wrap-around contamination: trailing window level {edge / peak:.3e} "
            f"exceeds {QUIET_LEVEL:.0e}; enlarge the window",
            position=0.0,
        )


def mkdv_march(
    eff: EffectiveModel,
    signal: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    cfg: SpectralConfig,
    y_stops: list[float],
    *,
    gradient: bool = False,
) -> MarchResult:
    """March the boundary signal v(0, t) to each requested distance.

    ``signal`` is a callable evaluated on the window grid, or an array of
    ``n_points`` samples.  Distances snap to whole steps of ``cfg.dy``.
    The scheme is chosen once, from ``cfg.viscosity`` and the signal's peak
    (:data:`MULTISTEP_DAMPING`).
    ``gradient=True`` also samples the gradient trace after every step (for
    :func:`gradient_blowup_distance`), at the cost of a 2-row inverse transform
    a step.  Raises :class:`Instability` on spectral blow-up or on wrap-around
    contamination of the quiet zone.
    """
    t = cfg.times()
    v0 = np.asarray(signal(t) if callable(signal) else signal, dtype=float)
    if v0.shape != t.shape:
        raise DomainError(f"boundary signal must have {cfg.n_points} samples")
    if cfg.quiet_zone_check:
        _check_quiet(v0, max(cfg.n_points // 16, 4))

    n = cfg.n_points
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=cfg.dt)
    iw = 1j * omega
    iw[-1] = 0.0  # odd derivatives drop the Nyquist mode
    lin = (
        -iw / eff.c
        + (eff.eta * eff.ell**2 / (2.0 * eff.c**3)) * iw**3
        - cfg.viscosity * omega**2
    )
    h = cfg.dy
    e_half = np.exp(0.5 * h * lin)
    e_full = e_half * e_half
    # cubic nonlinearity: (zeta/(2 c^3)) v^2 v_t = (zeta/(6 c^3)) d/dt (v^3)
    nl_scale = iw * eff.zeta / (6.0 * eff.c**3)
    # alias-free cutoff for triple products: retain modes below half Nyquist
    # (the quadratic-product 2/3 cutoff left cubic aliasing that destabilised
    # coarse inviscid marches)
    keep = omega <= 0.5 * omega[-1]
    # keep is a prefix, and irfft zero-pads a short input, so the nonlinear
    # terms are transformed and combined on the m kept modes only; above the
    # cutoff they are exact zeros and modes advance by e_full alone
    m = int(np.count_nonzero(keep))
    # the multistep scheme extrapolates its history across linear phases of up to
    # thousands of radians a step near the cutoff, where only viscosity keeps
    # round-off from growing: it runs where that damping dominates the cubic term
    w_cut = omega[m - 1]
    nl_rate = w_cut * abs(eff.zeta) * float(np.max(np.abs(v0))) ** 2 / (2.0 * eff.c**3)
    multistep = cfg.viscosity * w_cut**2 >= MULTISTEP_DAMPING * nl_rate
    eh, ef, scale = e_half[:m], e_full[:m], nl_scale[:m]
    eh_h = eh * h
    eh_2 = 2.0 * eh
    # integrating-factor Adams-Bashforth-Moulton 4, with E = e_full and N_j the
    # history (N_k newest):
    #   predictor  v* = E v_k + h/24 (55 E N_k - 59 E^2 N_k-1 + 37 E^3 N_k-2 - 9 E^4 N_k-3)
    #   corrector  v_k+1 = E v_k + h/24 (19 E N_k - 5 E^2 N_k-1 + E^3 N_k-2 + 9 N(v*))
    # N(v*) is the step's one evaluation and becomes N_k+1 (PEC mode)
    ef2 = ef * ef
    ef3 = ef2 * ef
    h24 = h / 24.0
    predict = (55.0 * h24 * ef, -59.0 * h24 * ef2, 37.0 * h24 * ef3, -9.0 * h24 * (ef3 * ef))
    correct = (19.0 * h24 * ef, -5.0 * h24 * ef2, h24 * ef3)
    correct_new = 9.0 * h24

    v = np.empty(n)
    cube = np.empty(n)
    spec = np.empty(omega.size, dtype=complex)
    stage = np.empty(m, dtype=complex)
    tmp = np.empty(m, dtype=complex)
    n2, n3, n4 = (np.empty(m, dtype=complex) for _ in range(3))
    # N_k, N_k-1, N_k-2, N_k-3: a step writes the oldest slot and rotates the list
    hist = [np.empty(m, dtype=complex) for _ in range(4)]

    def nonlinear(xk: np.ndarray, out: np.ndarray) -> None:
        np.fft.irfft(xk, n, out=v)
        np.multiply(v, v, out=cube)
        np.multiply(cube, v, out=cube)
        np.fft.rfft(cube, out=spec)
        np.multiply(scale, spec[:m], out=out)

    def rk4_step(n1: np.ndarray) -> None:
        """Classical RK4 step from v_k, given n1 = N(v_k)."""
        # a = e_half * (vhat + 0.5 * h * n1)
        np.multiply(0.5 * h, n1, out=tmp)
        np.add(vk, tmp, out=tmp)
        nonlinear(np.multiply(eh, tmp, out=stage), n2)
        # b = e_half * vhat + 0.5 * h * n2
        np.multiply(eh, vk, out=stage)
        np.multiply(0.5 * h, n2, out=tmp)
        nonlinear(np.add(stage, tmp, out=stage), n3)
        # c = e_full * vhat + e_half * h * n3
        np.multiply(ef, vk, out=stage)
        np.multiply(eh_h, n3, out=tmp)
        nonlinear(np.add(stage, tmp, out=stage), n4)
        # vhat = e_full * vhat + (h / 6) * (e_full * n1 + 2 e_half * (n2 + n3) + n4)
        np.add(n2, n3, out=tmp)
        np.multiply(eh_2, tmp, out=tmp)
        np.multiply(ef, n1, out=stage)
        np.add(stage, tmp, out=tmp)
        np.add(tmp, n4, out=tmp)
        np.multiply(h / 6.0, tmp, out=tmp)
        np.multiply(e_full, vhat, out=vhat)
        np.add(vk, tmp, out=vk)

    def abm_step() -> None:
        """Predict, evaluate N(v*) into the oldest slot, correct: one evaluation."""
        np.multiply(e_full, vhat, out=vhat)  # vk is now E v_k
        stage[:] = vk
        for coef, nj in zip(predict, hist):
            np.multiply(coef, nj, out=tmp)
            np.add(stage, tmp, out=stage)
        for coef, nj in zip(correct, hist):
            np.multiply(coef, nj, out=tmp)
            np.add(vk, tmp, out=vk)
        nonlinear(stage, hist[3])
        np.multiply(correct_new, hist[3], out=tmp)
        np.add(vk, tmp, out=vk)
        hist.insert(0, hist.pop())

    stops = sorted(set(max(0, int(round(y / h))) for y in y_stops))
    n_steps = stops[-1] if stops else 0
    stop_set = set(stops)

    vhat = np.fft.rfft(v0)
    vk = vhat[:m]
    amp0 = float(np.max(np.abs(vhat)))
    amp = np.empty(m)
    records: dict[float, np.ndarray] = {}
    grad_max: list[float] = []
    char_v: list[float] = []
    char_vt: list[float] = []
    if gradient:
        # rows [iw * vhat, vhat] go through one batched irfft: rows [v_t, v]
        rec_in = np.empty((2, omega.size), dtype=complex)
        rec = np.empty((2, n))
        rec_abs = np.empty(n)

        def record_gradient() -> None:
            np.multiply(iw, vhat, out=rec_in[0])
            rec_in[1] = vhat
            np.fft.irfft(rec_in, n, out=rec)
            i = int(np.argmax(np.abs(rec[0], out=rec_abs)))
            grad_max.append(abs(float(rec[0, i])))
            char_vt.append(float(rec[0, i]))
            char_v.append(float(rec[1, i]))

        record_gradient()
    if 0 in stop_set:
        records[0.0] = v0.copy()
    for k in range(1, n_steps + 1):
        if k <= 4 or not multistep:
            # N(v_k-1) is an RK4 step's first stage; in the multistep scheme the
            # first three steps fill the history with it and the fourth completes it
            nonlinear(vk, hist[3])
            hist.insert(0, hist.pop())
        if k <= 3 or not multistep:
            rk4_step(hist[0])
        else:
            abm_step()
        # modes above the cutoff only ever get multiplied by e_full, |e_full| <= 1 at
        # viscosity >= 0, so they never exceed amp0: the kept modes decide blow-up
        if amp0 > 0.0 and float(np.max(np.abs(vk, out=amp))) > BLOWUP_FACTOR * amp0:
            raise Instability(
                f"spectral amplitude exceeded {BLOWUP_FACTOR:.0e} x initial at y = {k * h:.6g} m",
                position=k * h,
            )
        if gradient:
            record_gradient()
        if k in stop_set:
            records[k * h] = np.fft.irfft(vhat, n)
    return MarchResult(
        t=t,
        records=records,
        y_final=n_steps * h,
        grad_y=np.arange(n_steps + 1) * h,
        grad_max=np.asarray(grad_max),
        char_v=np.asarray(char_v),
        char_vt=np.asarray(char_vt),
        config=cfg,
        steps=n_steps,
        scheme="abm4" if multistep else "rk4",
    )


def gradient_blowup_distance(result: MarchResult, eff: EffectiveModel) -> float:
    """Shock-formation distance extrapolated from the steepening characteristic.

    Along a characteristic carrying field value v, the reciprocal gradient
    decays linearly at the exact rate zeta*v/c^3, so the point of maximum
    gradient predicts its own blow-up distance; the minimum of those
    predictions over the march approaches the first-crossing distance from
    above (viscosity only inflates it).  Requires appreciable growth of
    max|v_t| over the trace, so the march must have run with ``gradient=True``.
    """
    if eff.zeta <= 0.0:
        raise DomainError("a medium with zeta <= 0 does not steepen")
    if not result.grad_max.size:
        raise DomainError("march has no gradient trace; run it with gradient=True")
    g0 = result.grad_max[0]
    if g0 <= 0.0:
        raise DomainError("gradient trace starts at zero; nothing steepens")
    if float(result.grad_max.max()) < 4.0 * g0:
        raise DomainError("gradient never grew enough; no blow-up detected in range")
    drive = result.char_v * result.char_vt
    mask = drive > 0.0
    if not np.any(mask):
        raise DomainError("no steepening characteristic found")
    estimates = result.grad_y[mask] + eff.c**3 / (eff.zeta * drive[mask])
    return float(np.min(estimates))


def impact_march(
    eff: EffectiveModel,
    velocity: float,
    kappa: float,
    y_stops: list[float],
    cfg: SpectralConfig | None = None,
    *,
    gradient: bool = False,
) -> MarchResult:
    """Impact problem for the unidirectional model (same forcing as the FV run).

    ``cfg`` defaults to :func:`config_for_impact` at its defaults; ``gradient``
    is passed to :func:`mkdv_march`.
    """
    if cfg is None:
        cfg = config_for_impact(kappa, eff.c)
    # signal content can shift by at most y/c in t; keep one duration of slack
    duration = 2.0 * math.pi / (kappa * eff.c)
    if cfg.quiet_zone_check and y_stops:
        if duration + max(y_stops) / eff.c + duration > cfg.window:
            raise Instability(
                "march distance would push the signal front past the periodic "
                f"window; need window > {2 * duration + max(y_stops) / eff.c:.6g} s"
            )
    return mkdv_march(
        eff, impact_signal(velocity, kappa, eff.c), cfg, y_stops, gradient=gradient
    )


@dataclass(frozen=True)
class TransportError:
    """Drift and shape error after propagating an exact sech solution."""

    amplitude_drift: float
    shape_error: float
    distance: float


def soliton_boundary_signal(
    sol: SolitonSolution, speed: float, t_peak: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary velocity trace of a sech soliton passing y = 0 at ``t_peak``."""

    def fn(t: np.ndarray) -> np.ndarray:
        return -speed * sol.strain_amplitude / np.cosh(speed * (t - t_peak) / sol.length)

    return fn


def soliton_transport_test(
    eff: EffectiveModel,
    speed: float,
    n_lengths: float = 100.0,
    cfg: SpectralConfig | None = None,
) -> TransportError:
    """Propagate the slow-space sech soliton and measure drift and shape error.

    The sech pulse solves the marched equation exactly, so the recorded field
    at the target distance is compared against the boundary trace delayed by
    distance/speed (circularly on the periodic window).
    """
    sol = solve_soliton(eff, WaveModel.SLOW_SPACE, speed)
    width_t = sol.length / speed
    if cfg is None:
        window = 44.0 * width_t
        cfg = SpectralConfig(
            n_points=4096, window=window, dy=DEFAULT_DY, viscosity=0.0, quiet_zone_check=False
        )
    t_peak = 0.5 * cfg.window
    y_target = n_lengths * sol.length
    signal = soliton_boundary_signal(sol, speed, t_peak)
    result = mkdv_march(eff, signal, cfg, [y_target])
    y_snap = result.y_final
    got = result.records[y_snap]
    t = result.t
    # exact solution, delayed and wrapped onto the periodic window
    shift = (t - y_snap / speed - t_peak) % cfg.window
    shift = np.where(shift > 0.5 * cfg.window, shift - cfg.window, shift)
    exact = -speed * sol.strain_amplitude / np.cosh(speed * shift / sol.length)
    ref = float(np.linalg.norm(exact))
    shape = float(np.linalg.norm(got - exact)) / ref
    drift = abs(float(np.max(np.abs(got))) - speed * sol.strain_amplitude) / (
        speed * sol.strain_amplitude
    )
    return TransportError(amplitude_drift=drift, shape_error=shape, distance=y_snap)

