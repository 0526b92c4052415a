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

#: default numerical viscosity, s^2/m
DEFAULT_VISCOSITY = 1e-8
#: default march step, m
DEFAULT_DY = 7.81e-5
#: abort when any Fourier amplitude exceeds this multiple of the initial maximum
BLOWUP_FACTOR = 1e3
#: the multistep scheme runs only where the viscous decay rate of the cutoff mode
#: is at least this multiple of the cubic term's linearised rate there,
#: omega |zeta| max v0^2 / (2 c^3); below it (an inviscid march among them) modes
#: near the cutoff grow from round-off, and every step is RK4.  The growth stops
#: between ratios 0.0086 and 0.02 on the soliton transport window, and between
#: 0.02 and 0.05 on the paper stack's impact at 4096 points per period.
MULTISTEP_DAMPING = 0.1
#: modes above the cutoff are zeroed once their modulus is below this (see :func:`mkdv_march`)
_FLOOR = 2.0**-960
#: ... on a march whose largest initial mode modulus is at least this
_FLUSH_AMP = 2.0**-850


@dataclass(frozen=True)
class SpectralConfig:
    """Discretisation of the periodic time window and the y march."""

    n_points: int
    window: float  # s
    dy: float = DEFAULT_DY
    viscosity: float = DEFAULT_VISCOSITY

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
    """Fields recorded along the march and its counters.

    ``records`` holds one field v(t) (m/s) per requested distance, in request
    order with repeats kept (a repeat is the same array), each at the distance's
    nearest whole step of ``config.dy``, the step ``stops`` names; ``y_final`` is
    the farthest of those.
    ``steps`` is the number of march steps, and ``scheme`` the one that took
    them: ``"abm4"`` (three RK4 steps, then the multistep scheme) or ``"rk4"``.
    ``grad_y`` holds the distance of every step, starting at 0.
    """

    t: np.ndarray
    records: list[np.ndarray]
    stops: list[int]
    config: SpectralConfig
    steps: int
    scheme: str

    @property
    def y_final(self) -> float:
        return self.steps * self.config.dy

    @property
    def grad_y(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.config.dy


@np.errstate(over="ignore", invalid="ignore")  # a field that overflows fails the blow-up check
def mkdv_march(
    eff: EffectiveModel,
    signal: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    cfg: SpectralConfig,
    y_stops: list[float],
    *,
    observe: Callable[[int, np.ndarray], object] | None = None,
) -> MarchResult:
    """March the boundary signal v(0, t) to each requested distance.

    ``signal`` is a callable evaluated on the window grid, or an array of
    ``n_points`` samples.  Each distance is recorded at its nearest whole step
    of ``cfg.dy``, one record per entry of ``y_stops``.
    The scheme is chosen once, from ``cfg.viscosity`` and the signal's peak
    (:data:`MULTISTEP_DAMPING`).
    ``observe(k, vhat)``, if given, is called with the read-only spectrum (the
    ``rfft`` of the field) at step 0 and after each step k.  Raises
    :class:`Instability` on spectral blow-up or NaN.
    """
    t = cfg.times()
    v0 = np.asarray(signal(t) if callable(signal) else signal, dtype=float)
    if v0.shape != t.shape:
        raise DomainError(f"boundary signal must have {cfg.n_points} samples")

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
    # a 0-d array: a Python float operand costs more per ufunc call
    correct_new = np.array(9.0 * h24)

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
        np.multiply(ef, vk, out=vk)
        np.add(vk, tmp, out=vk)

    def abm_step() -> None:
        """Predict, evaluate N(v*) into the oldest slot, correct: one evaluation."""
        np.multiply(ef, vk, out=vk)  # vk is now E v_k
        np.multiply(predict[0], hist[0], out=tmp)
        np.add(vk, tmp, out=stage)
        for coef, nj in zip(predict[1:], hist[1:]):
            np.multiply(coef, nj, out=tmp)
            np.add(stage, tmp, out=stage)
        for coef, nj in zip(correct, hist):
            np.multiply(coef, nj, out=tmp)
            np.add(vk, tmp, out=vk)
        nonlinear(stage, hist[3])
        np.multiply(correct_new, hist[3], out=tmp)
        np.add(vk, tmp, out=vk)
        hist.insert(0, hist.pop())

    stops = [max(0, int(round(y / h))) for y in y_stops]
    n_steps = max(stops, default=0)
    fields = dict.fromkeys(stops)  # step -> field there

    vhat = np.fft.rfft(v0)
    vk, v_up = vhat[:m], vhat[m:]
    amp0 = float(np.max(np.abs(vhat)))
    limit = BLOWUP_FACTOR * amp0
    # above the cutoff e_full alone advances the modes, once a step in the loop.
    # Where viscosity damps them they would decay through the subnormals, where
    # every multiply is slow, so every flush_every steps those below _FLOOR are
    # zeroed.  They reach outputs only through an inverse transform (a record's, or
    # an observer's), where a term below _FLOOR is absorbed as long as the field
    # stands well above it.  max|v| >= amp0 / n, so from amp0 >= _FLUSH_AMP = 2^110
    # _FLOOR the field clears _FLOOR by a mantissa and log2(n) bits more, up to 2^28
    # points, and no output moves; below _FLUSH_AMP nothing is zeroed (flush_every
    # is past the last step).
    # flush_every is the most steps over which the strongest damping keeps a mode
    # at _FLOOR above 2^-1021, one bit clear of the subnormals, or 1 where one step
    # takes more; at most 16, which spreads a flush (about 17 us at 8,192 points) to
    # about 1 us a step.  An undamped mode is zeroed only if it starts below _FLOOR.
    e_up = e_full[m:]
    e_min = float(np.min(np.abs(e_up)))
    flush_every = (
        next((s for s in range(16, 0, -1) if _FLOOR * e_min**s >= 2.0**-1021), 1)
        if amp0 >= _FLUSH_AMP
        else n_steps + 1
    )
    amp = np.empty(2 * m)
    if observe is not None:
        spectrum = vhat.view()
        spectrum.flags.writeable = False
        observe(0, spectrum)
    if 0 in fields:
        fields[0] = v0.copy()
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
        np.multiply(e_up, v_up, out=v_up)
        if k % flush_every == 0:
            v_up[np.abs(v_up) < _FLOOR] = 0.0
        # modes above the cutoff only ever get multiplied by e_full, |e_full| <= 1 at
        # viscosity >= 0, so they never exceed amp0: the kept modes decide blow-up
        if amp0 > 0.0 and _exceeds(vk, limit, amp):
            raise Instability(
                f"spectral amplitude exceeded {BLOWUP_FACTOR:.0e} x initial or not finite at y = {k * h:.6g} m",
                position=k * h,
            )
        if observe is not None:
            observe(k, spectrum)
        if k in fields:
            fields[k] = np.fft.irfft(vhat, n)
    return MarchResult(
        t=t,
        records=[fields[k] for k in stops],
        stops=stops,
        config=cfg,
        steps=n_steps,
        scheme="abm4" if multistep else "rk4",
    )


def _exceeds(z: np.ndarray, bound: float, scratch: np.ndarray) -> bool:
    """``not float(np.max(np.abs(z))) <= bound``, settled from the components where they can.

    max|z| <= sqrt(2) max(|Re z|, |Im z|), and 1.5 > sqrt(2), so a component
    maximum of at most ``bound / 1.5`` answers no; anything else, NaN included,
    takes the exact moduli, where NaN answers yes.  ``scratch`` holds ``2 * z.size`` floats.
    """
    parts = np.abs(z.view(float), out=scratch)
    if np.maximum.reduce(parts) * 1.5 <= bound:
        return False
    return not float(np.max(np.abs(z, out=scratch[: z.size]))) <= bound


def impact_march(
    eff: EffectiveModel,
    velocity: float,
    kappa: float,
    y_stops: list[float],
    cfg: SpectralConfig | None = None,
) -> MarchResult:
    """Impact problem for the unidirectional model (same forcing as the FV run).

    ``cfg`` defaults to :func:`config_for_impact` at its defaults.  Raises
    :class:`Instability` unless the window holds the forcing duration, its shift
    to the farthest stop and one more duration of quiet zone.
    """
    if cfg is None:
        cfg = config_for_impact(kappa, eff.c)
    # signal content can shift by at most y/c in t; keep one duration of slack
    duration = 2.0 * math.pi / (kappa * eff.c)
    shift = max(y_stops, default=0.0) / eff.c
    if duration + shift + duration > cfg.window:
        raise Instability(
            "march distance would push the signal front past the periodic "
            f"window; need window > {2 * duration + shift:.6g} s"
        )
    return mkdv_march(eff, impact_signal(velocity, kappa, eff.c), cfg, y_stops)

