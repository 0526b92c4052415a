"""Effective wave model, cell correctors, and the effective strain energy."""

import dataclasses
import math

import numpy as np
import pytest

import lamwave as lw
from lamwave import homogenize as hz
from lamwave import materials as m
from lamwave.errors import DispersionTooStrong

from conftest import gent_bilaminate


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
            assert hz.eta_dimensional(bilam, stretch) == pytest.approx(eff.eta, rel=1e-12)

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
        swapped = hz.effective_model(bilam.swapped(), 1.0)
        assert swapped.eta == pytest.approx(eff.eta, rel=1e-13)
        assert swapped.zeta == pytest.approx(eff.zeta, rel=1e-13)

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
        with pytest.raises(DispersionTooStrong):
            hz.optimized_dispersion_coeffs(0.06)


class TestCellCorrectors:
    def test_identical_phases(self):
        cc = hz.cell_correctors(hz.cell_state(uniform_laminate(), 1.0))
        assert cc.P == 0.0 and cc.Q == 0.0

    def test_benchmark_value(self, bilam):
        cc = hz.cell_correctors(hz.cell_state(bilam, 1.0))
        # normalised moduli 3.0 and 0.6: P = (0.6 - 3.0) / 1.8
        assert cc.P == pytest.approx(-4.0 / 3.0, rel=1e-12)

    def test_swap_antisymmetry(self, bilam):
        cc = hz.cell_correctors(hz.cell_state(bilam, 1.0))
        cs = hz.cell_correctors(hz.cell_state(bilam.swapped(), 1.0))
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
        cc = hz.cell_correctors(hz.cell_state(lam, stretch))
        n = 10_000
        y = -0.5 + (np.arange(n) + 0.5) / n
        prof = hz.unit_cell_profiles(hz.cell_state(lam, stretch), y)
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
        coeffs = hz.effective_energy_coeffs(lam)
        assert coeffs.gb1 == coeffs.gbm1 == coeffs.gbm3 == 0.0
        assert coeffs.G_breve <= coeffs.G_bar

    def test_harmonic_mean(self, bilam):
        coeffs = hz.effective_energy_coeffs(bilam)
        assert coeffs.G_breve == pytest.approx(1.566667e6, rel=1e-6)
        assert coeffs.G_bar == pytest.approx(2.82e6, rel=1e-12)

    def test_single_phase_reduces_to_yeoh(self):
        yeoh = lw.HyperelasticModel("yeoh", 2e6, 0.1)
        lam = lw.Laminate(
            lw.Phase(yeoh, 1000.0, 1.0 - 1e-12),
            lw.Phase(lw.HyperelasticModel("yeoh", 1e6, 0.3), 1000.0, 1e-12),
            0.01,
        )
        coeffs = hz.effective_energy_coeffs(lam)
        I1, K = 4.1, 0.35
        D = I1 - 3.0 - K
        w_iso = 0.5 * 2e6 * ((I1 - 3.0) + 0.05 * (I1 - 3.0) ** 2)
        # with a single phase the energy must not depend on the D/K split
        w_eff = hz.effective_energy(coeffs, I1, K)
        assert w_eff == pytest.approx(
            0.5 * 2e6 * ((D + K) + 0.05 * (D + K) ** 2), rel=1e-9
        )
        assert w_eff == pytest.approx(w_iso, rel=1e-9)

    def test_undeformed_zero(self, bilam):
        coeffs = hz.effective_energy_coeffs(bilam)
        assert hz.effective_energy(coeffs, 3.0, 0.0) == 0.0

    def test_k_zero_equals_energy_mixture(self):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("yeoh", 4.7e6, 0.0132), 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("yeoh", 0.94e6, 0.0132), 930.0, 0.5),
            0.01,
        )
        coeffs = hz.effective_energy_coeffs(lam)
        for I1 in (3.0, 3.5, 4.4):
            mixture = 0.5 * m.strain_energy(lam.phase1.model, I1) + 0.5 * m.strain_energy(
                lam.phase2.model, I1
            )
            assert hz.effective_energy(coeffs, I1, 0.0) == pytest.approx(mixture, rel=1e-13)

    def test_axial_stretch_has_zero_k(self):
        F = hz.shear_kinematics(1.1, 0.0)
        assert hz.invariant_K(F, [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_shear_invariants_helper(self):
        I1, K = hz.shear_invariants(1.2, 0.3)
        F = hz.shear_kinematics(1.2, 0.3)
        assert I1 == pytest.approx(float(np.tensordot(F, F)), rel=1e-13)
        assert K == pytest.approx(hz.invariant_K(F, [0.0, 1.0, 0.0]), rel=1e-12)

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
            coeffs = hz.effective_energy_coeffs(lam)
            eff = hz.effective_model(lam, stretch)

            def w(gamma):
                return hz.effective_energy(coeffs, *hz.shear_invariants(stretch, gamma))

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
        F = hz.shear_kinematics(1.2, 0.4)
        F1, F2, theta = hz.per_phase_deformation(lam, F, self.N)
        assert np.allclose(theta, 0.0)
        assert np.allclose(F1, F)
        assert np.allclose(F2, F)

    def test_shear_strain_ratio(self, bilam):
        """Per-phase shear strains split inversely to the phase stiffnesses."""
        F = hz.shear_kinematics(1.0, 0.01)
        F1, F2, _ = hz.per_phase_deformation(bilam, F, self.N)
        g1 = m.generalized_shear_modulus(bilam.phase1.model, float(np.tensordot(F, F)))
        g2 = m.generalized_shear_modulus(bilam.phase2.model, float(np.tensordot(F, F)))
        assert F1[0, 1] / F2[0, 1] == pytest.approx(g2 / g1, rel=1e-12)

    def test_isochoric_per_phase(self, bilam):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            det = np.linalg.det(A)
            if det <= 0.1:
                continue
            F = A / det ** (1.0 / 3.0)
            F1, F2, _ = hz.per_phase_deformation(bilam, F, self.N)
            assert np.linalg.det(F1) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(F2) == pytest.approx(1.0, abs=1e-10)

    def test_invariant_formula(self, bilam):
        rng = np.random.default_rng(5)
        A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        F = A / np.linalg.det(A) ** (1.0 / 3.0)
        F1, F2, _ = hz.per_phase_deformation(bilam, F, self.N)
        i1, i2 = hz.per_phase_invariants(bilam, F, self.N)
        assert float(np.tensordot(F1, F1)) == pytest.approx(i1, rel=1e-12)
        assert float(np.tensordot(F2, F2)) == pytest.approx(i2, rel=1e-12)
