"""Shared fixtures and helpers: the benchmark bi-laminate, the expensive simulation
runs, and the oracles and check harnesses that more than one test module uses.

The benchmark stack is two equal-thickness Gent layers (4.7 MPa / 0.94 MPa,
beta 0.0132, 930 kg/m^3, 1 cm period).  Two variants appear throughout: the
matched-impedance stack (phase-2 density 4650 kg/m^3, no dispersion) and the
low-dispersion stack (3720 kg/m^3).  Long simulations are session-scoped so
module tests and the acceptance suite share one run.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

import lamwave as lw
from lamwave import dispersion, fv_sim, materials, soliton, spectral_sim
from lamwave.errors import DomainError
from lamwave.homogenize import EffectiveModel, cell_state, effective_model


#: tolerance of the oracle's band edges in omega*ell/c, and of comparisons against
#: them (the library bisects every edge to adjacent floats)
EDGE_TOL = 1e-10


# Brent's zero finder (Brent, *Algorithms for Minimization without Derivatives*,
# 1973, ch. 4), step for step the common C formulation of it, with its stopping
# rule |x - x0| <= xtol + rtol * |x0|; test_roots.py checks that it returns the
# same bits as that routine.  The library bisects every root; this is the gap
# oracle's independent route.
def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
    return fx


def brentq(
    f, a: float, b: float, xtol: float, rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100
) -> float:
    """Zero of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops once the bracket is narrower than ``xtol + rtol * |x|``.  Raises
    ``ValueError`` on a same-sign bracket, a NaN value or after ``maxiter``
    steps without convergence.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise ValueError(f"failed to converge after {maxiter} iterations, value is {xcur}")


class Cell(NamedTuple):
    """The four numbers the Bloch relation reads of a cell state, for cells no laminate gives."""

    t1: float
    t2: float
    z1: float
    z2: float


def gent_bilaminate() -> lw.Laminate:
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel("gent", 4.7e6, 0.0132), 930.0, 0.5),
        lw.Phase(lw.HyperelasticModel("gent", 0.94e6, 0.0132), 930.0, 0.5),
        0.01,
    )


def swapped(lam: lw.Laminate) -> lw.Laminate:
    """The same laminate with phase labels exchanged."""
    return lw.Laminate(lam.phase2, lam.phase1, lam.period)


def with_phase2_density(lam: lw.Laminate, rho2: float) -> lw.Laminate:
    return lw.Laminate(lam.phase1, dataclasses.replace(lam.phase2, density=rho2), lam.period)


def with_volume_fraction(lam: lw.Laminate, nu2: float) -> lw.Laminate:
    """The laminate with phase-2 volume fraction nu2: one row of a volume-fraction sweep."""
    p1 = dataclasses.replace(lam.phase1, volume_fraction=1.0 - nu2)
    p2 = dataclasses.replace(lam.phase2, volume_fraction=nu2)
    return lw.Laminate(p1, p2, lam.period)


def with_contrast(lam: lw.Laminate, ratio: float) -> lw.Laminate:
    """The laminate with phase-2 modulus ratio * phase 1's: one row of a contrast sweep."""
    model2 = dataclasses.replace(lam.phase2.model, shear_modulus=ratio * lam.phase1.model.shear_modulus)
    return lw.Laminate(lam.phase1, dataclasses.replace(lam.phase2, model=model2), lam.period)


def columns(states) -> Cell:
    """A list of cell states (or Cells) as one Cell of columns, as band_gap_edges reads them."""
    return Cell(*np.array([(s.t1, s.t2, s.z1, s.z2) for s in states], dtype=float).reshape(-1, 4).T)


def excess(cell, w):
    """|F| - 1 of the Bloch cosine F = cos(kappa ell), to full relative precision near F = +-1.

    With a = w t1, b = w t2 and d = (z1 - z2)^2 / (2 z1 z2) sin a sin b,
    F = cos(a + b) - d, so F + 1 = 2 cos^2((a + b)/2) - d and F - 1 =
    -2 sin^2((a + b)/2) - d.  Both terms are small where F is near -1 or 1, while
    cos a cos b - (z1/z2 + z2/z1)/2 sin a sin b loses them in one rounding of F.
    """
    a, b = w * cell.t1, w * cell.t2
    d = (cell.z1 - cell.z2) ** 2 / (2.0 * cell.z1 * cell.z2) * np.sin(a) * np.sin(b)
    half = 0.5 * (a + b)
    return np.where(np.cos(a + b) - d > 0.0, -2.0 * np.sin(half) ** 2 - d, d - 2.0 * np.cos(half) ** 2)


def oracle_gaps(cell, omega_max: float, n_scan: int) -> list[tuple[int, float, float]]:
    """Every exact gap below ``omega_max`` by an independent route, as (n, lo, hi).

    Scans |F| = |cos(kappa ell)| > 1 on ``n_scan + 1`` frequencies and refines each
    edge by Brent on |F| - 1 (:func:`excess`) between its two scan samples; a gap
    running past the ceiling keeps it as its upper edge.  The gap number n is the
    unfolded wave number kappa ell / pi at the gap: the total variation of
    arccos F below it, in units of pi, which also counts a closed gap (F touching
    +-1).  A gap narrower than a scan step may be missed, and a run of evanescent
    samples in which F changes sign (a pass band inside one step) is left out.  So
    is a gap no wider than EDGE_TOL, cut at the ceiling or not: the float round-off
    of F can open or close a gap a few ulp wide, so it cannot be told from a closed
    one.
    """
    w = np.linspace(0.0, omega_max, n_scan + 1)
    w[0] = 1e-12 * w[-1]
    f = dispersion.bloch_cosine(cell, w)
    kappa = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(np.arccos(np.clip(f, -1.0, 1.0)))))])
    padded = np.concatenate([[False], excess(cell, w) > 0.0, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])

    def edge(a: float, b: float) -> float:
        return brentq(lambda x: excess(cell, x), a, b, xtol=EDGE_TOL)

    gaps = []
    for i, j in zip(flips[::2], flips[1::2]):  # first evanescent and next propagating sample
        if np.ptp(np.sign(f[i:j])):
            continue
        lo = edge(w[i - 1], w[i]) if i else w[0]
        hi = edge(w[j - 1], w[j]) if j < len(w) else w[-1]
        if hi - lo > EDGE_TOL:
            gaps.append((round(kappa[i] / math.pi), lo, hi))
    return gaps


def _check_invariant(I1: float) -> None:
    if I1 < 3.0 - 1e-12:
        raise DomainError(f"first invariant must satisfy I1 >= 3, got {I1}")


def strain_energy(model: lw.HyperelasticModel, I1: float) -> float:
    """Strain energy density W(I1) in Pa, in closed form: the oracle of the library's
    moduli G = 2 dW/dI1."""
    _check_invariant(I1)
    G, b, d = model.shear_modulus, model.beta, I1 - 3.0
    if model.kind == materials.NEO_HOOKEAN or b == 0.0:
        return 0.5 * G * d
    if model.kind == materials.YEOH:
        return 0.5 * G * (d + 0.5 * b * d * d)
    if model.kind == materials.FUNG_DEMIRAY:
        return 0.5 * G / b * math.expm1(b * d)
    denom = materials._gent_denominator(model, d)
    return -0.5 * G / b * math.log(denom)


def generalized_shear_modulus(model: lw.HyperelasticModel, I1: float) -> float:
    """Generalised shear modulus G(I1) = 2 dW/dI1 in Pa, by the library's ``_modulus``."""
    _check_invariant(I1)
    return materials._modulus(model, I1 - 3.0)


def uniaxial_first_invariant(stretch: float) -> float:
    """First invariant of an isochoric uniaxial stretch along the layer normal."""
    if not stretch > 0.0:
        raise DomainError(f"stretch must be positive, got {stretch}")
    return stretch * stretch + 2.0 / stretch


@dataclasses.dataclass(frozen=True)
class TransportError:
    """Drift and shape error after propagating an exact sech solution."""

    amplitude_drift: float
    shape_error: float
    distance: float


def soliton_boundary_signal(sol: soliton.SolitonSolution, speed: float, t_peak: float):
    """Boundary velocity trace of a sech soliton passing y = 0 at ``t_peak``."""

    def fn(t: np.ndarray) -> np.ndarray:
        return -speed * sol.strain_amplitude / np.cosh(speed * (t - t_peak) / sol.length)

    return fn


def soliton_transport_test(
    eff: EffectiveModel,
    speed: float,
    n_lengths: float = 100.0,
    cfg: spectral_sim.SpectralConfig | None = None,
) -> TransportError:
    """Propagate the slow-space sech soliton with ``spectral_sim.mkdv_march`` and
    measure drift and shape error.

    The sech pulse solves the marched equation exactly, so the recorded field
    at the target distance is compared against the boundary trace delayed by
    distance/speed (circularly on the periodic window).
    """
    sol = soliton.solve_soliton(eff, soliton.WaveModel.SLOW_SPACE, speed)
    width_t = sol.length / speed
    if cfg is None:
        window = 44.0 * width_t
        cfg = spectral_sim.SpectralConfig(n_points=4096, window=window, dy=spectral_sim.DEFAULT_DY,
                                          viscosity=0.0)
    t_peak = 0.5 * cfg.window
    y_target = n_lengths * sol.length
    signal = soliton_boundary_signal(sol, speed, t_peak)
    result = spectral_sim.mkdv_march(eff, signal, cfg, [y_target])
    y_snap = result.y_final
    (got,) = result.records
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


class GradientTrace:
    """Observer of ``spectral_sim.mkdv_march`` that samples the gradient trace.

    At each step k it appends k to ``k`` and (max|v_t|, v_t, v) to ``samples``:
    the steepest gradient, and the signed gradient and field value where it is,
    read off the rows [v_t, v] of one batched 2-row ``irfft`` of
    [i omega v-hat, v-hat].  ``y`` is the distance of each sampled step.
    """

    def __init__(self, cfg: spectral_sim.SpectralConfig):
        self.n, self.dy = cfg.n_points, cfg.dy
        omega = 2.0 * math.pi * np.fft.rfftfreq(self.n, d=cfg.dt)
        self.iw = 1j * omega
        self.iw[-1] = 0.0  # as the march: odd derivatives drop the Nyquist mode
        self.rows_in = np.empty((2, omega.size), dtype=complex)
        self.rows = np.empty((2, self.n))
        self.abs_vt = np.empty(self.n)
        self.k: list[int] = []
        self.samples: list[tuple[float, float, float]] = []  # (max|v_t|, v_t, v)

    def __call__(self, k: int, vhat: np.ndarray) -> None:
        np.multiply(self.iw, vhat, out=self.rows_in[0])
        self.rows_in[1] = vhat
        np.fft.irfft(self.rows_in, self.n, out=self.rows)
        i = int(np.argmax(np.abs(self.rows[0], out=self.abs_vt)))
        vt = float(self.rows[0, i])
        self.k.append(k)
        self.samples.append((abs(vt), vt, float(self.rows[1, i])))

    def table(self) -> np.ndarray:
        """The trace as rows (max|v_t|, v_t, v), one per sampled step."""
        return np.array(self.samples).reshape(-1, 3)

    @property
    def y(self) -> np.ndarray:
        return np.asarray(self.k) * self.dy


def gradient_blowup_distance(trace: GradientTrace, eff: EffectiveModel) -> float:
    """Shock-formation distance extrapolated from the steepening characteristic.

    Along a characteristic carrying field value v, the reciprocal gradient
    decays linearly at the exact rate zeta*v/c^3, so the point of maximum
    gradient predicts its own blow-up distance; the minimum of those
    predictions over the march approaches the first-crossing distance from
    above (viscosity only inflates it).  Requires appreciable growth of
    max|v_t| over ``trace``, which must have observed the march.
    """
    if eff.zeta <= 0.0:
        raise DomainError("a medium with zeta <= 0 does not steepen")
    if not trace.samples:
        raise DomainError("empty gradient trace; pass it to mkdv_march as observe")
    grad_max, char_vt, char_v = trace.table().T
    g0 = grad_max[0]
    if g0 <= 0.0:
        raise DomainError("gradient trace starts at zero; nothing steepens")
    if float(grad_max.max()) < 4.0 * g0:
        raise DomainError("gradient never grew enough; no blow-up detected in range")
    drive = char_v * char_vt
    mask = drive > 0.0
    if not np.any(mask):
        raise DomainError("no steepening characteristic found")
    estimates = trace.y[mask] + eff.c**3 / (eff.zeta * drive[mask])
    return float(np.min(estimates))


def cell_centers(grid: fv_sim.Grid1D) -> np.ndarray:
    """The centre of every cell of ``grid``."""
    return (np.arange(grid.n_cells) + 0.5) * grid.dy


def joined(blocks) -> list[np.ndarray]:
    """The columns of a table given as row blocks (``output.write_csv``), each block's
    rows in turn."""
    return [np.concatenate(column) for column in zip(*blocks)]


@pytest.fixture(scope="session")
def bilam() -> lw.Laminate:
    return gent_bilaminate()


@pytest.fixture(scope="session")
def eff(bilam):
    return effective_model(bilam, 1.0)


@pytest.fixture(scope="session")
def matched_bilam(bilam) -> lw.Laminate:
    """Impedance-matched variant: rho2 = rho1 * G1/G2, so eta = 0."""
    return with_phase2_density(bilam, 4650.0)


@pytest.fixture(scope="session")
def low_disp_bilam(bilam) -> lw.Laminate:
    """Low-dispersion variant: rho2 = 4 rho1."""
    return with_phase2_density(bilam, 3720.0)


def impact_geometry(lam: lw.Laminate, v_over_c: float, wavelengths: float):
    """Common impact-run quantities: (eff, velocity, kappa, y_star, duration)."""
    e = effective_model(lam, 1.0)
    velocity = v_over_c * e.c
    kappa = 2.0 * math.pi / (wavelengths * e.ell)
    y_star = soliton.shock_distance(e, velocity, kappa)
    duration = 2.0 * math.pi / (kappa * e.c)
    return e, velocity, kappa, y_star, duration


@pytest.fixture(scope="session")
def fv_matched_run(matched_bilam):
    """Matched-impedance impact with a probe ladder through the shock region."""
    e, velocity, kappa, y_star, duration = impact_geometry(matched_bilam, 2.0, 16.0)
    multiples = (0.3, 0.6, 0.9, 1.0, 1.1, 1.25, 1.4, 1.6, 1.8, 2.0)
    probes = [m * y_star for m in multiples]
    t_final = 2.0 * y_star / e.c + 3.0 * duration
    start = time.perf_counter()
    result = fv_sim.plan_impact(cell_state(matched_bilam, 1.0), velocity, kappa, probes, t_final, 32).run()
    elapsed_s = time.perf_counter() - start
    return {"result": result, "probes": probes, "eff": e, "y_star": y_star, "kappa": kappa,
            "velocity": velocity, "elapsed_s": elapsed_s}


@pytest.fixture(scope="session")
def fv_nonlinear_run(bilam):
    """Nonlinear dispersive impact on the benchmark stack.

    Probes sit at y*, 2y* (the reference recording positions) and 3y* (past
    soliton separation, for the fission property).
    """
    e, velocity, kappa, y_star, duration = impact_geometry(bilam, 2.0, 16.0)
    probes = [y_star, 2.0 * y_star, 3.0 * y_star]
    t_final = 3.0 * y_star / e.c + 4.0 * duration
    result = fv_sim.plan_impact(cell_state(bilam, 1.0), velocity, kappa, probes, t_final, 32).run()
    return {"result": result, "probes": probes, "eff": e, "y_star": y_star, "kappa": kappa,
            "velocity": velocity}


@pytest.fixture(scope="session")
def mkdv_nonlinear_run(bilam):
    """Spectral march of the same nonlinear dispersive impact problem."""
    e, velocity, kappa, y_star, _ = impact_geometry(bilam, 2.0, 16.0)
    result = spectral_sim.plan_impact(
        e, velocity, kappa, [y_star, 2.0 * y_star], spectral_sim.config_for_impact(kappa, e.c, 8.0)
    ).run()
    return {"result": result, "eff": e, "y_star": y_star, "kappa": kappa, "velocity": velocity}


@pytest.fixture(scope="session")
def mkdv_blowup_run(matched_bilam):
    """Spectral march of the non-dispersive analogue, past the shock distance, and
    its gradient trace."""
    e, velocity, kappa, y_star, _ = impact_geometry(matched_bilam, 2.0, 16.0)
    cfg = spectral_sim.config_for_impact(kappa, e.c, 8.0)
    trace = GradientTrace(cfg)
    result = spectral_sim.mkdv_march(
        e, spectral_sim.impact_signal(velocity, kappa, e.c), cfg, [1.3 * y_star], observe=trace
    )
    return {"result": result, "trace": trace, "eff": e, "y_star": y_star}


@pytest.fixture(scope="session")
def low_dispersion_pair(low_disp_bilam):
    """FV and spectral runs of the low-dispersion impact, probed at y* and 2y*."""
    e, velocity, kappa, y_star, duration = impact_geometry(low_disp_bilam, math.sqrt(2.0), 8.0)
    probes = [y_star, 2.0 * y_star]
    t_final = 2.0 * y_star / e.c + 3.0 * duration
    st = cell_state(low_disp_bilam, 1.0)
    fv_result = fv_sim.plan_impact(st, velocity, kappa, probes, t_final, 32).run()
    mk_result = spectral_sim.plan_impact(
        e, velocity, kappa, probes, spectral_sim.config_for_impact(kappa, e.c, 8.0)
    ).run()
    return {
        "fv": fv_result,
        "mkdv": mk_result,
        "probes": probes,
        "eff": e,
        "y_star": y_star,
        "kappa": kappa,
        "velocity": velocity,
    }


@pytest.fixture(scope="session")
def transport_results(bilam):
    """Soliton transport at the default step (shape error sits near the window floor)."""
    e = effective_model(bilam, 1.0)
    speed = 1.02 * e.c
    return {"default": soliton_transport_test(e, speed), "eff": e, "speed": speed}


@pytest.fixture(scope="session")
def march_refinement(bilam):
    """Step-halving error ladder of the spectral march against a fine reference.

    At the production step the stepping error is small (about 2e-7 relative at
    2y* against a march at half the step), so the convergence order is
    exhibited on coarse steps of the nonlinear impact march (pre-shock), all
    dividing the same target distance, where it stands well above the error of
    the 512-step reference.
    """
    e, velocity, kappa, _, _ = impact_geometry(bilam, 2.0, 16.0)
    y_target = 0.1
    base = spectral_sim.config_for_impact(kappa, e.c, window_factor=8.0)
    fields = {}
    for divisor in (16, 32, 64, 512):
        cfg = dataclasses.replace(base, dy=y_target / divisor)
        res = spectral_sim.plan_impact(e, velocity, kappa, [y_target], cfg).run()
        fields[divisor] = res.records[-1]
    ref = fields[512]
    scale = float(np.linalg.norm(ref))
    errors = {
        d: float(np.linalg.norm(fields[d] - ref)) / scale for d in (16, 32, 64)
    }
    return errors
