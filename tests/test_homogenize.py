"""Effective wave model, cell correctors, and the effective strain energy."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

import lamwave as lw
from lamwave import homogenize as hz
from lamwave import materials as m
from lamwave.errors import DispersionTooStrong, DomainError
from lamwave.homogenize import CellState

from conftest import generalized_shear_modulus, gent_bilaminate, strain_energy, swapped, uniaxial_first_invariant


class SingularDeformation(DomainError):
    """A deformation gradient produced a degenerate lamination-direction image."""


def eta_dimensional(lam: lw.Laminate, stretch: float = 1.0) -> float:
    """Dispersion weight computed from dimensional quantities and the c^4 prefactor.

    Alternate accessor; agrees with :func:`lamwave.homogenize.effective_model` by
    construction.
    """
    st = hz.cell_state(lam, stretch)
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


def effective_energy_coeffs(lam: lw.Laminate) -> EffectiveEnergyCoeffs:
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


def _rank_one_jump(lam: lw.Laminate, I1: float) -> tuple[float, float, float]:
    """Jump factor P = G_breve (G1 - G2)/(G1 G2) of the phase moduli at the macroscopic
    invariant, and the phase weights (tau1, tau2) = (-nu2, nu1) of the jump."""
    p1, p2 = lam.phases
    G1 = generalized_shear_modulus(p1.model, I1)
    G2 = generalized_shear_modulus(p2.model, I1)
    G_breve = 1.0 / (p1.volume_fraction / G1 + p2.volume_fraction / G2)
    return G_breve * (G1 - G2) / (G1 * G2), -p2.volume_fraction, p1.volume_fraction


def invariant_K(F: np.ndarray, n: np.ndarray) -> float:
    """K = |F n|^2 - |F^-T n|^-2 for a unit lamination direction n."""
    _, Fn, _, norm2 = _normal_images(F, n)
    return float(Fn @ Fn) - 1.0 / norm2


def per_phase_deformation(
    lam: lw.Laminate, F: np.ndarray, n: np.ndarray
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


def per_phase_invariants(lam: lw.Laminate, F: np.ndarray, n: np.ndarray) -> tuple[float, float]:
    """Closed-form per-phase first invariants implied by the rank-one jump."""
    F = np.asarray(F, dtype=float)
    I1 = float(np.tensordot(F, F))
    K = invariant_K(F, n)
    P, tau1, tau2 = _rank_one_jump(lam, I1)
    i1 = I1 + tau1 * P * (2.0 + tau1 * P) * K
    i2 = I1 + tau2 * P * (2.0 + tau2 * P) * K
    return i1, i2


def uniform_laminate(model=None, rho=1000.0):
    model = model or lw.HyperelasticModel("yeoh", 2e6, 0.1)
    p = lw.Phase(model, rho, 0.5)
    return lw.Laminate(p, dataclasses.replace(p), 0.01)


class TestEffectiveModel:
    def test_benchmark_values(self, bilam, eff):
        assert eff.g_eff == pytest.approx(2.0 * 4.7e6 * 0.94e6 / 5.64e6, rel=1e-12)
        assert eff.rho_eff == 930.0
        assert eff.c == pytest.approx(math.sqrt(eff.g_eff / 930.0), rel=1e-14)
        assert eff.zeta == pytest.approx(0.0924, rel=1e-6)
        assert eff.eta == pytest.approx(1.0 / 108.0, rel=1e-12)
        assert eff.ell == pytest.approx(0.01)

    def test_homogeneous_limit(self):
        lam = uniform_laminate()
        eff = hz.effective_model(lam, 1.0)
        sc = m.shear_coefficients(lam.phase1.model, 1.0)
        assert eff.g_eff == pytest.approx(sc.g, rel=1e-13)
        assert eff.eta == pytest.approx(0.0, abs=1e-30)
        assert eff.zeta == pytest.approx(sc.h / sc.g, rel=1e-12)

    def test_single_phase_limit(self, bilam):
        lam = lw.Laminate(
            dataclasses.replace(bilam.phase1, volume_fraction=1.0 - 1e-9),
            dataclasses.replace(bilam.phase2, volume_fraction=1e-9),
            bilam.period,
        )
        eff = hz.effective_model(lam, 1.0)
        assert eff.g_eff == pytest.approx(4.7e6, rel=1e-7)
        assert eff.rho_eff == pytest.approx(930.0, rel=1e-9)

    def test_dimensional_form_agrees(self, bilam):
        for stretch in (0.7, 1.0, 1.5):
            eff = hz.effective_model(bilam, stretch)
            assert eta_dimensional(bilam, stretch) == pytest.approx(eff.eta, rel=1e-12)

    def test_budget_identity(self, bilam):
        eff = hz.effective_model(bilam, 1.0)
        assert eff.eta_y - eff.eta_m - eff.eta_t == pytest.approx(eff.eta, abs=1e-14)

    def test_eta_zero_iff_impedance_matched(self, bilam):
        matched = lw.Laminate(
            bilam.phase1,
            dataclasses.replace(bilam.phase2, density=930.0 * 4.7 / 0.94),
            bilam.period,
        )
        assert hz.effective_model(matched, 1.0).eta < 1e-30
        # off-match in either direction gives eta > 0
        for rho2 in (4000.0, 5000.0):
            off = lw.Laminate(
                bilam.phase1, dataclasses.replace(bilam.phase2, density=rho2), bilam.period
            )
            assert hz.effective_model(off, 1.0).eta > 1e-7

    def test_relabeling_invariance(self, bilam):
        eff = hz.effective_model(bilam, 1.0)
        relabeled = hz.effective_model(swapped(bilam), 1.0)
        assert relabeled.eta == pytest.approx(eff.eta, rel=1e-13)
        assert relabeled.zeta == pytest.approx(eff.zeta, rel=1e-13)

    def test_neo_hookean_eta_stretch_independent(self):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 930.0, 0.5),
            0.01,
        )
        etas = [hz.effective_model(lam, s).eta for s in np.linspace(0.5, 2.0, 7)]
        assert max(etas) - min(etas) < 1e-15
        # ell/c scales out of the normalised dispersion, so both stay proportional
        ratios = [hz.effective_model(lam, s).ell / hz.effective_model(lam, s).c
                  for s in np.linspace(0.5, 2.0, 7)]
        rel = (max(ratios) - min(ratios)) / ratios[0]
        assert rel < 1e-12

    def test_gent_equal_beta_eta_stretch_independent(self, bilam):
        etas = [hz.effective_model(bilam, s).eta for s in np.linspace(0.5, 2.0, 7)]
        assert max(etas) - min(etas) < 1e-15


class TestOptimizedCoefficients:
    def test_zero_dispersion(self):
        ey, em, et = hz.optimized_dispersion_coeffs(0.0)
        assert ey == pytest.approx(0.050660, abs=1e-6)
        assert em == 0.0
        assert et == ey

    def test_benchmark_dispersion(self):
        ey, em, et = hz.optimized_dispersion_coeffs(0.00926)
        assert ey == pytest.approx(0.0507, abs=5e-5)
        assert et == pytest.approx(0.0414, abs=5e-5)

    def test_arithmetic(self):
        _, _, et = hz.optimized_dispersion_coeffs(0.04)
        assert et == pytest.approx(0.010661, abs=1e-6)

    def test_too_strong(self):
        """One cell too dispersive raises; a column gets NaN eta_t on those entries only."""
        with pytest.raises(DispersionTooStrong):
            hz.optimized_dispersion_coeffs(0.06)
        _, _, et = hz.optimized_dispersion_coeffs(np.array([0.04, 0.06]))
        assert et[0] == pytest.approx(0.010661, abs=1e-6) and math.isnan(et[1])


class TestCellCorrectors:
    def test_identical_phases(self):
        cc = cell_correctors(hz.cell_state(uniform_laminate(), 1.0))
        assert cc.P == 0.0 and cc.Q == 0.0

    def test_benchmark_value(self, bilam):
        cc = cell_correctors(hz.cell_state(bilam, 1.0))
        # normalised moduli 3.0 and 0.6: P = (0.6 - 3.0) / 1.8
        assert cc.P == pytest.approx(-4.0 / 3.0, rel=1e-12)

    def test_swap_antisymmetry(self, bilam):
        cc = cell_correctors(hz.cell_state(bilam, 1.0))
        cs = cell_correctors(hz.cell_state(swapped(bilam), 1.0))
        assert cs.P == pytest.approx(-cc.P, rel=1e-13)

    @pytest.mark.parametrize("nu2", [0.5, 0.3])
    def test_cell_average_reproduces_zeta(self, nu2):
        """Averaging the corrected cell equation must return the nonlinearity weight.

        Composite midpoint rule with 1e4 cells; the material interfaces sit on
        quadrature-cell boundaries, so the piecewise integrand is integrated
        exactly.
        """
        base = gent_bilaminate()
        lam = lw.Laminate(
            dataclasses.replace(base.phase1, volume_fraction=1.0 - nu2),
            dataclasses.replace(base.phase2, volume_fraction=nu2),
            base.period,
        )
        stretch = 1.1
        eff = hz.effective_model(lam, stretch)
        cc = cell_correctors(hz.cell_state(lam, stretch))
        n = 10_000
        y = -0.5 + (np.arange(n) + 0.5) / n
        prof = unit_cell_profiles(hz.cell_state(lam, stretch), y)
        lin = np.mean(prof["g"] * (1.0 + prof["tau"] * cc.P))
        assert lin == pytest.approx(1.0, rel=1e-10)
        zeta_quad = np.mean(
            prof["h"] * (1.0 + prof["tau"] * cc.P) ** 3 + 3.0 * prof["g"] * prof["tau"] * cc.Q
        )
        assert zeta_quad == pytest.approx(eff.zeta, rel=1e-8)


class TestEffectiveEnergy:
    def test_neo_hookean_mixture(self):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 930.0, 0.5),
            0.01,
        )
        coeffs = effective_energy_coeffs(lam)
        assert coeffs.gb1 == coeffs.gbm1 == coeffs.gbm3 == 0.0
        assert coeffs.G_breve <= coeffs.G_bar

    def test_harmonic_mean(self, bilam):
        coeffs = effective_energy_coeffs(bilam)
        assert coeffs.G_breve == pytest.approx(1.566667e6, rel=1e-6)
        assert coeffs.G_bar == pytest.approx(2.82e6, rel=1e-12)

    def test_single_phase_reduces_to_yeoh(self):
        yeoh = lw.HyperelasticModel("yeoh", 2e6, 0.1)
        lam = lw.Laminate(
            lw.Phase(yeoh, 1000.0, 1.0 - 1e-12),
            lw.Phase(lw.HyperelasticModel("yeoh", 1e6, 0.3), 1000.0, 1e-12),
            0.01,
        )
        coeffs = effective_energy_coeffs(lam)
        I1, K = 4.1, 0.35
        D = I1 - 3.0 - K
        w_iso = 0.5 * 2e6 * ((I1 - 3.0) + 0.05 * (I1 - 3.0) ** 2)
        # with a single phase the energy must not depend on the D/K split
        w_eff = effective_energy(coeffs, I1, K)
        assert w_eff == pytest.approx(
            0.5 * 2e6 * ((D + K) + 0.05 * (D + K) ** 2), rel=1e-9
        )
        assert w_eff == pytest.approx(w_iso, rel=1e-9)

    def test_undeformed_zero(self, bilam):
        coeffs = effective_energy_coeffs(bilam)
        assert effective_energy(coeffs, 3.0, 0.0) == 0.0

    def test_k_zero_equals_energy_mixture(self):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("yeoh", 4.7e6, 0.0132), 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("yeoh", 0.94e6, 0.0132), 930.0, 0.5),
            0.01,
        )
        coeffs = effective_energy_coeffs(lam)
        for I1 in (3.0, 3.5, 4.4):
            mixture = 0.5 * strain_energy(lam.phase1.model, I1) + 0.5 * strain_energy(
                lam.phase2.model, I1
            )
            assert effective_energy(coeffs, I1, 0.0) == pytest.approx(mixture, rel=1e-13)

    def test_axial_stretch_has_zero_k(self):
        F = shear_kinematics(1.1, 0.0)
        assert invariant_K(F, [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_shear_invariants_helper(self):
        I1, K = shear_invariants(1.2, 0.3)
        F = shear_kinematics(1.2, 0.3)
        assert I1 == pytest.approx(float(np.tensordot(F, F)), rel=1e-13)
        assert K == pytest.approx(invariant_K(F, [0.0, 1.0, 0.0]), rel=1e-12)

    @pytest.mark.parametrize("stretch", [1.15, 1.3])
    def test_small_beta_derivative_consistency(self, stretch):
        """Shear-direction stiffnesses of the energy match <g> and 2<g>zeta to O(beta^2).

        Equal phase nonlinearities make the linearised coefficients exact, so
        the quadratic error decay is probed with distinct betas at a finite
        pre-stretch.
        """

        def errors(beta):
            lam = lw.Laminate(
                lw.Phase(lw.HyperelasticModel("yeoh", 4.7e6, beta), 930.0, 0.5),
                lw.Phase(lw.HyperelasticModel("yeoh", 0.94e6, 2.5 * beta), 930.0, 0.5),
                0.01,
            )
            coeffs = effective_energy_coeffs(lam)
            eff = hz.effective_model(lam, stretch)

            def w(gamma):
                return effective_energy(coeffs, *shear_invariants(stretch, gamma))

            # W is an exact polynomial in gamma^2: fit w = w0 + w1 g^2 + w2 g^4
            gs = np.array([0.0, 0.05, 0.1])
            mat = np.vander(gs**2, 3, increasing=True)
            w0, w1, w2 = np.linalg.solve(mat, np.array([w(g) for g in gs]))
            d2 = 2.0 * w1
            d4 = 24.0 * w2
            return abs(d2 - eff.g_eff), abs(d4 - 2.0 * eff.g_eff * eff.zeta)

        e2_small, e4_small = errors(1e-3)
        e2_big, e4_big = errors(1e-2)
        assert e2_big / max(e2_small, 1e-30) == pytest.approx(100.0, rel=0.5)
        assert e4_big / max(e4_small, 1e-30) == pytest.approx(100.0, rel=0.5)


class TestPerPhaseDeformation:
    N = np.array([0.0, 1.0, 0.0])

    def test_identical_phases(self):
        lam = uniform_laminate()
        F = shear_kinematics(1.2, 0.4)
        F1, F2, theta = per_phase_deformation(lam, F, self.N)
        assert np.allclose(theta, 0.0)
        assert np.allclose(F1, F)
        assert np.allclose(F2, F)

    def test_shear_strain_ratio(self, bilam):
        """Per-phase shear strains split inversely to the phase stiffnesses."""
        F = shear_kinematics(1.0, 0.01)
        F1, F2, _ = per_phase_deformation(bilam, F, self.N)
        g1 = generalized_shear_modulus(bilam.phase1.model, float(np.tensordot(F, F)))
        g2 = generalized_shear_modulus(bilam.phase2.model, float(np.tensordot(F, F)))
        assert F1[0, 1] / F2[0, 1] == pytest.approx(g2 / g1, rel=1e-12)

    def test_isochoric_per_phase(self, bilam):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            det = np.linalg.det(A)
            if det <= 0.1:
                continue
            F = A / det ** (1.0 / 3.0)
            F1, F2, _ = per_phase_deformation(bilam, F, self.N)
            assert np.linalg.det(F1) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(F2) == pytest.approx(1.0, abs=1e-10)

    def test_invariant_formula(self, bilam):
        rng = np.random.default_rng(5)
        A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        F = A / np.linalg.det(A) ** (1.0 / 3.0)
        F1, F2, _ = per_phase_deformation(bilam, F, self.N)
        i1, i2 = per_phase_invariants(bilam, F, self.N)
        assert float(np.tensordot(F1, F1)) == pytest.approx(i1, rel=1e-12)
        assert float(np.tensordot(F2, F2)) == pytest.approx(i2, rel=1e-12)
