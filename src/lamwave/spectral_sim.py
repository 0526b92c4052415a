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
The cubic term is evaluated on the modes below half Nyquist by one complex
FFT each way at half the window's length, of the field packed as
even + i odd samples (:func:`cubic_term`).
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
#: bytes a march holds a window point: its field, spectra, tables and stage buffers
BYTES_PER_POINT = 165
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

    def steps_to(self, y: float) -> int:
        """The march steps to distance ``y`` (m): the nearest whole number of ``dy``, at least 0."""
        return max(0, int(round(y / self.dy)))


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
    nearest whole step of ``config.dy``, the step ``stops`` names.
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
    def grad_y(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.config.dy


def cubic_term(n: int, scale: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """``f(x, out)``: ``out = scale * rfft(irfft(x[:m], n) ** 3)[:m]``, m = n/4 + 1.

    ``x`` holds (at least) the m modes below half Nyquist of a real field of ``n``
    points, n a multiple of 4, with a real DC mode; the modes above are zero,
    which keeps the cube alias-free on the m modes written.  Both transforms are
    complex FFTs of n/2 points of the field packed as z[l] = v[2l] + i v[2l+1]
    (Cooley, Lewis & Welch, J. Sound Vib. 12 (1970) 315).  With w = exp(2 pi i/n)
    and N = n/2, the packed inverse coefficients are
    Z[k] = ((1 + i w^k) X[k] + (1 - i w^k) conj(X[N-k])) / n, of which the first
    term vanishes for k >= n/4 and the second below it, and from C = fft(z) the
    spectrum is ((1 - i w^-k) C[k] + (1 + i w^-k) conj(C[N-k])) / 2, C[N] = C[0];
    only k <= n/4 is formed, with ``scale`` folded in.  Each table is exact at
    k = 0 and n/4.  ``f`` owns its buffers: calls must not overlap.
    """
    q, half = n // 4, n // 2
    # w^k = cos + i sin for k = 0..q, cos read off the reversed sines: exact at both ends
    sin = np.sin((2.0 * math.pi / n) * np.arange(q + 1))
    cos = sin[::-1]
    inv_lower = ((1.0 - sin[:q]) + 1j * cos[:q]) / n  # k < q: 1 + i w^k
    inv_upper = ((1.0 + cos[:q]) + 1j * sin[:q]) / n  # k = q + j: 1 - i w^k = 1 + w^j
    fwd = scale * (0.5 * ((1.0 - sin) - 1j * cos))  # 1 - i w^-k
    fwd_conj = scale * (0.5 * ((1.0 + sin) + 1j * cos))  # 1 + i w^-k
    buf = np.empty(half + 1, dtype=complex)  # the n/2 packed points and C[N] = C[0]
    packed = buf[:half]
    field = packed.view(float)
    lower, upper, low = packed[:q], packed[q:], buf[: q + 1]
    wrapped = buf[half : q - 1 : -1]  # C[N-k], k = 0..q
    cube = np.empty(n)
    cube_packed = cube.view(complex)

    def evaluate(x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(inv_lower, x[:q], out=lower)
        np.conjugate(x[q:0:-1], out=upper)
        np.multiply(inv_upper, upper, out=upper)
        np.fft.ifft(packed, norm="forward", out=packed)
        np.multiply(field, field, out=cube)
        np.multiply(cube, field, out=cube)
        np.fft.fft(cube_packed, out=packed)
        buf[half] = buf[0]
        # the conj(C[N-k]) term first: its last entry reads C[q], which low then overwrites
        np.conjugate(wrapped, out=out)
        np.multiply(fwd_conj, out, out=out)
        np.multiply(fwd, low, out=low)
        np.add(out, low, out=out)

    return evaluate


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
    # keep is a prefix, and cubic_term reads and writes the m kept modes only, so
    # the nonlinear terms are combined on those; above the cutoff they are exact
    # zeros and modes advance by e_full alone
    m = int(np.count_nonzero(keep))
    # the multistep scheme extrapolates its history across linear phases of up to
    # thousands of radians a step near the cutoff, where only viscosity keeps
    # round-off from growing: it runs where that damping dominates the cubic term
    w_cut = omega[m - 1]
    nl_rate = w_cut * abs(eff.zeta) * float(np.max(np.abs(v0))) ** 2 / (2.0 * eff.c**3)
    multistep = cfg.viscosity * w_cut**2 >= MULTISTEP_DAMPING * nl_rate
    eh, ef = e_half[:m], e_full[:m]
    nonlinear = cubic_term(n, nl_scale[:m])
    del iw, lin, nl_scale  # set-up only: their memory serves the records instead
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

    stage = np.empty(m, dtype=complex)
    tmp = np.empty(m, dtype=complex)
    n2, n3, n4 = (np.empty(m, dtype=complex) for _ in range(3))
    # N_k, N_k-1, N_k-2, N_k-3: a step writes the oldest slot and rotates the list
    hist = [np.empty(m, dtype=complex) for _ in range(4)]

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

    stops = [cfg.steps_to(y) for y in y_stops]
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


@dataclass(frozen=True)
class ImpactPlan:
    """An impact march (the FV run's forcing), resolved before it allocates: the march step of
    each probe (``MarchResult.stops``) and the largest.  It holds ``held`` bytes, its window points
    at ``BYTES_PER_POINT`` and a window of floats a distinct stop, and computes ``work``, points x steps."""

    eff: EffectiveModel
    velocity: float
    kappa: float
    probes: tuple[float, ...]
    cfg: SpectralConfig
    probe_index: tuple[int, ...]
    steps: int
    held: int
    work: int

    def check_window(self) -> None:
        """Raises :class:`Instability` unless the window holds the forcing, its shift (at most y/c) to the
        farthest probe and a quiet duration, naming the least window in durations, rounded up at 1e-4."""
        duration = 2.0 * math.pi / (self.kappa * self.eff.c)
        need = duration + max(self.probes, default=0.0) / self.eff.c + duration
        if need > self.cfg.window:
            raise Instability("march distance would push the signal front past the periodic window: it holds "
                              f"{self.cfg.window / duration:.5g} forcing durations and needs "
                              f"{math.ceil(need / duration * 1e4) / 1e4}")

    def run(self) -> MarchResult:
        self.check_window()
        signal = impact_signal(self.velocity, self.kappa, self.eff.c)
        return mkdv_march(self.eff, signal, self.cfg, self.probes)


def plan_impact(eff: EffectiveModel, velocity: float, kappa: float, probes: list[float],
                cfg: SpectralConfig) -> ImpactPlan:
    """The impact march at boundary velocity ``velocity`` (m/s) and forcing wave number
    ``kappa`` (rad/m) on the window ``cfg``, recorded at ``probes`` (m)."""
    stops = tuple(cfg.steps_to(y) for y in probes)
    steps = max(stops, default=0)
    return ImpactPlan(eff, velocity, kappa, tuple(probes), cfg, stops, steps,
                      cfg.n_points * (BYTES_PER_POINT + 8 * len(set(stops))), cfg.n_points * steps)
