"""Travelling-wave analysis: oscillator reduction, sech pulses, bounds, diagnostics."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamwave
from lamwave import soliton as sol
from lamwave.errors import NoBound, NoSoliton, NotReached
from lamwave.homogenize import FLOAT_ERRORS
from lamwave.soliton import WaveModel

from conftest import joined


def sech(x):
    return 1.0 / np.cosh(x)


class TestOscillatorCoeffs:
    def test_sonic_limit_gives_zero_c1(self, eff):
        for variant in WaveModel:
            c1, c3 = sol.oscillator_coeffs(eff, variant, eff.c)
            assert c1 == 0.0
            assert c3 > 0.0

    def test_full_regression_anchors(self, eff):
        """Speed 1.026c: amplitude and width frozen from the closed formulas."""
        s = sol.solve_soliton(eff, WaveModel.FULL, 1.026 * eff.c)
        assert s.strain_amplitude == pytest.approx(1.8495, abs=2e-4)
        assert s.length / eff.ell == pytest.approx(0.30134, abs=5e-5)

    def test_subsonic_raises(self, eff):
        with pytest.raises(NoSoliton):
            sol.oscillator_coeffs(eff, WaveModel.FULL, 0.9 * eff.c)

    def test_slow_time_coefficients(self, eff):
        s = 1.1
        c1, c3 = sol.oscillator_coeffs(eff, WaveModel.SLOW_TIME, s * eff.c)
        assert c3 == pytest.approx(1.0 / eff.eta, rel=1e-13)
        assert c1 == pytest.approx(2.0 * (s - 1.0) * c3, rel=1e-13)

    def test_near_sonic_equivalence(self, eff):
        """All variants share the amplitude-speed law delta^2 zeta/6 -> 2(s/c - 1)."""
        s = 1.0 + 1e-4
        for variant in WaveModel:
            c1, c3 = sol.oscillator_coeffs(eff, variant, s * eff.c)
            assert c1 / c3 == pytest.approx(2.0e-4, rel=5e-4)


class TestWaveform:
    def test_peak_and_tails(self, eff):
        s = sol.solve_soliton(eff, WaveModel.FULL, 1.03 * eff.c)
        xi = np.array([-80.0, 0.0, 80.0])
        strain, disp = sol.soliton_waveform(s, xi)
        assert strain[1] == pytest.approx(s.strain_amplitude, rel=1e-14)
        assert abs(strain[0]) < 1e-12 and abs(strain[2]) < 1e-12
        half_height = 0.5 * math.pi * s.displacement_amplitude
        assert disp[2] == pytest.approx(half_height, rel=1e-6)
        assert disp[0] == pytest.approx(-half_height, rel=1e-6)

    def test_oscillator_residual(self, eff):
        """The sech profile satisfies Phi'' - c1 Phi + c3 Phi^3 = 0 pointwise."""
        for variant in WaveModel:
            c1, c3 = sol.oscillator_coeffs(eff, variant, 1.04 * eff.c)
            xi = np.linspace(-20.0, 20.0, 4001)
            amp = math.sqrt(2.0 * c1 / c3)
            phi = amp * sech(xi * math.sqrt(c1))
            # sech'' = sech - 2 sech^3 under the sqrt(c1) scaling
            phi_pp = c1 * phi - 2.0 * c1 / amp**2 * phi**3
            residual = phi_pp - c1 * phi + c3 * phi**3
            assert np.max(np.abs(residual)) / (c3 * amp**3) < 1e-10

    def test_pde_residual_of_full_waveform(self, eff):
        """Closed-form derivatives satisfy the mixed-dispersion wave equation."""
        s_ratio = 1.03
        s = sol.solve_soliton(eff, WaveModel.FULL, s_ratio * eff.c)
        x = np.linspace(-15.0, 15.0, 2001)  # (y - s t)/L_soliton
        S, T = 1.0 / np.cosh(x), np.tanh(x)
        L = s.length
        a = s.displacement_amplitude
        u1 = a / L * S
        u2 = -a / L**2 * S * T
        u4 = a / L**4 * S * T * (5.0 * S * S - T * T)
        sp2 = (s_ratio * eff.c) ** 2
        lhs = sp2 / eff.c**2 * u2
        rhs = (1.0 + eff.zeta * u1**2) * u2 + eff.ell**2 * (
            eff.eta_y * u4
            - eff.eta_m * sp2 / eff.c**2 * u4
            - eff.eta_t * sp2**2 / eff.c**4 * u4
        )
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-8


class TestExistenceBound:
    def test_benchmark(self, eff):
        assert sol.existence_bound(eff) == pytest.approx(1.052, abs=1e-3)

    def test_pure_fourth_derivative_is_unbounded(self, eff):
        bare = dataclasses.replace(eff, eta_y=eff.eta, eta_m=0.0, eta_t=0.0)
        assert math.isinf(sol.existence_bound(bare))

    def test_negative_discriminant_unbounded(self, eff):
        # eta_t < 0 with (eta_m + 2 eta_t)^2 + 4 eta_t eta < 0
        crafted = dataclasses.replace(
            eff, eta=0.01, eta_t=-0.05, eta_m=0.09, eta_y=0.01 + 0.09 - 0.05
        )
        assert (0.09 + 2 * -0.05) ** 2 + 4 * -0.05 * 0.01 < 0
        assert math.isinf(sol.existence_bound(crafted))

    def test_negative_roots_unbounded(self, eff):
        # eta_t < 0 with non-positive root sum and real discriminant: roots negative
        eta, eta_t, eta_m = 0.01, -0.02, 0.0
        assert (eta_m + 2 * eta_t) ** 2 + 4 * eta_t * eta >= 0
        assert -(eta_m + 2 * eta_t) / eta_t <= 0
        crafted = dataclasses.replace(
            eff, eta=eta, eta_t=eta_t, eta_m=eta_m, eta_y=eta + eta_m + eta_t
        )
        assert math.isinf(sol.existence_bound(crafted))

    def test_strain_ceiling(self, eff):
        assert sol.max_strain_amplitude(eff) == pytest.approx(2.6259, abs=2e-3)

    def test_ceiling_scales_inverse_sqrt_zeta(self, eff):
        quad = dataclasses.replace(eff, zeta=4.0 * eff.zeta)
        assert sol.max_strain_amplitude(quad) == pytest.approx(
            0.5 * sol.max_strain_amplitude(eff), rel=1e-12
        )

    def test_no_bound_when_unbounded(self, eff):
        bare = dataclasses.replace(eff, eta_y=eff.eta, eta_m=0.0, eta_t=0.0)
        with pytest.raises(NoBound):
            sol.max_strain_amplitude(bare)
        with pytest.raises(NoBound):
            sol.max_particle_velocity(bare)

    def test_velocity_ceiling_product(self, eff):
        assert sol.max_particle_velocity(eff) == pytest.approx(
            sol.max_strain_amplitude(eff) * sol.existence_bound(eff), rel=1e-14
        )

    def test_amplitude_approaches_ceiling(self, eff):
        bound = sol.existence_bound(eff)
        ceiling = sol.max_strain_amplitude(eff)
        s = sol.solve_soliton(eff, WaveModel.FULL, (bound - 1e-9) * eff.c)
        assert s.strain_amplitude == pytest.approx(ceiling, rel=1e-6)
        assert s.length / eff.ell < 1e-3  # width collapses at the bound


def strain_amplitude(eff, variant: WaveModel, speed: float) -> float:
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


class TestAmplitudeVelocityLaws:
    def test_full_even_and_increasing(self, eff):
        speeds = np.array([1.01, 1.02, 1.035, 1.05])
        deltas = [strain_amplitude(eff, WaveModel.FULL, s * eff.c) for s in speeds]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        # even: the squared law depends on s^2 only
        for s in speeds:
            d_pos = strain_amplitude(eff, WaveModel.FULL, s * eff.c)
            assert d_pos**2 == pytest.approx(6.0 * (s**2 - 1.0) / eff.zeta, rel=1e-12)

    def test_slow_space_local_maximum_at_1_5(self, eff):
        def d2(s):
            return strain_amplitude(eff, WaveModel.SLOW_SPACE, s * eff.c) ** 2

        eps = 1e-4
        slope_lo = d2(1.45 + eps) - d2(1.45 - eps)
        slope_hi = d2(1.55 + eps) - d2(1.55 - eps)
        assert slope_lo > 0 > slope_hi
        slope_mid = d2(1.5 + eps) - d2(1.5 - eps)
        assert abs(slope_mid) < abs(slope_lo)

    def test_variants_agree_to_first_order(self, eff):
        for ds in (1e-2, 1e-3):
            s = (1.0 + ds) * eff.c
            d_full = strain_amplitude(eff, WaveModel.FULL, s)
            for variant in (WaveModel.SLOW_SPACE, WaveModel.SLOW_TIME):
                rel = abs(strain_amplitude(eff, variant, s) / d_full - 1.0)
                assert rel < 2.0 * ds


class TestValiditySpeeds:
    def test_slow_space(self, eff):
        assert sol.mkdv_validity_speed(eff, WaveModel.SLOW_SPACE) == pytest.approx(
            1.06, abs=5e-3
        )

    def test_slow_time(self, eff):
        assert sol.mkdv_validity_speed(eff, WaveModel.SLOW_TIME) == pytest.approx(
            1.46, abs=1e-2
        )

    def test_degenerate_tolerance(self, eff):
        assert sol.mkdv_validity_speed(eff, WaveModel.SLOW_SPACE, rel_err=0.0) == 1.0

    def test_full_not_reached(self, eff):
        with pytest.raises(NotReached):
            sol.mkdv_validity_speed(eff, WaveModel.FULL)

    @pytest.mark.parametrize("variant", [WaveModel.SLOW_SPACE, WaveModel.SLOW_TIME])
    @pytest.mark.parametrize("rel_err", [1e-300, 1e-12, 0.01, 0.1, 0.5, 0.9])
    def test_speed_is_the_last_float_inside(self, eff, variant, rel_err):
        """The amplitude error is below rel_err at the speed and reaches it one float higher."""
        s = sol.mkdv_validity_speed(eff, variant, rel_err)
        assert _amplitude_error(variant, s) < rel_err <= _amplitude_error(variant, np.nextafter(s, 2.0 * s))

    def test_large_speeds_end_and_unreachable_errors_raise(self):
        """Where s/c is so large that floats are wider than any fixed tolerance, the search
        still ends at the flip; an error of 1 or NaN is never reached.  Run in a child
        process so that a search that never ends fails the test instead of hanging it."""
        script = (
            "import json, math\n"
            "from lamwave import soliton as sol\n"
            "from lamwave.errors import NotReached\n"
            "from lamwave.homogenize import effective_model\n"
            "from lamwave.materials import HyperelasticModel, Laminate, Phase\n"
            "lam = Laminate(*(Phase(HyperelasticModel('gent', g, 0.0132), 930.0, 0.5)\n"
            "                 for g in (4.7e6, 0.94e6)), 0.01)\n"
            "eff = effective_model(lam, 1.0)\n"
            "speeds = {v: sol.mkdv_validity_speed(eff, sol.WaveModel[v], e)\n"
            "          for v, e in (('SLOW_TIME', 0.9999), ('SLOW_SPACE', 1.0 - 2.0**-53))}\n"
            "raised = 0\n"
            "for v in ('SLOW_SPACE', 'SLOW_TIME'):\n"
            "    for e in (1.0, math.nan):\n"
            "        try:\n"
            "            sol.mkdv_validity_speed(eff, sol.WaveModel[v], e)\n"
            "        except NotReached:\n"
            "            raised += 1\n"
            "print(json.dumps({'speeds': speeds, 'raised': raised}))\n"
        )
        src = str(Path(lamwave.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["raised"] == 4
        for name, rel_err in (("SLOW_TIME", 0.9999), ("SLOW_SPACE", 1.0 - 2.0**-53)):
            variant, s = WaveModel[name], result["speeds"][name]
            assert s > 2.0**26  # floats there are 1.5e-8 apart
            assert _amplitude_error(variant, s) < rel_err <= _amplitude_error(variant, np.nextafter(s, 2.0 * s))


def _amplitude_error(variant: WaveModel, s: float) -> float:
    """|delta_variant/delta_full - 1| at s/c, the error the validity search bisects."""
    return abs(sol._amplitude_ratio(variant, s) - 1.0)


class TestShockDistance:
    def test_benchmark(self, matched_bilam):
        from lamwave.homogenize import effective_model

        eff2 = effective_model(matched_bilam, 1.0)
        kappa = 2.0 * math.pi / (16.0 * eff2.ell)
        y = sol.shock_distance(eff2, 2.0 * eff2.c, kappa)
        assert y == pytest.approx(0.212, abs=0.003)

    def test_inverse_square_in_velocity(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        y1 = sol.shock_distance(eff, 2.0 * eff.c, kappa)
        y2 = sol.shock_distance(eff, 4.0 * eff.c, kappa)
        assert y2 == pytest.approx(y1 / 4.0, rel=1e-14)

    def test_low_dispersion_config_matches(self, eff, low_disp_bilam):
        """Halving the wavelength while dropping V to c*sqrt(2) keeps y* unchanged."""
        from lamwave.homogenize import effective_model

        base_kappa = 2.0 * math.pi / (16.0 * eff.ell)
        y_base = sol.shock_distance(eff, 2.0 * eff.c, base_kappa)
        eff_low = effective_model(low_disp_bilam, 1.0)
        low_kappa = 2.0 * math.pi / (8.0 * eff_low.ell)
        y_low = sol.shock_distance(eff_low, math.sqrt(2.0) * eff_low.c, low_kappa)
        assert y_low == pytest.approx(y_base, rel=1e-12)


class TestTables:
    def test_waveform_table(self, eff):
        header, blocks = sol.waveform_table(eff, 1.026 * eff.c, xi_max=5.0, n=51)
        columns = joined(blocks)
        assert header == ["xi", "strain", "displacement", "variant"]
        assert set(columns[3].tolist()) == {"full", "slow_space", "slow_time"}
        assert all(len(c) == 3 * 51 for c in columns)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.2)), max_size=20),
           st.floats(0.5, 1.2), st.sampled_from(list(WaveModel)))
    def test_column_of_speeds_matches_each_speed(self, eff, ratios, top, variant):
        """A column of speeds (the amplitude table's) solves as each speed alone does, bit
        for bit, and is NaN where one speed raises: at rest, sonic, subsonic or past the
        existence bound.  Powers of the column must round as Python's float power does.
        (Below 1e-103 c, s^3 underflows to 0, and both forms divide by zero.)"""
        speeds = np.concatenate([ratios, np.linspace(1.0 + 1e-9, top, 50)]) * eff.c
        with np.errstate(**FLOAT_ERRORS):
            column = sol.solve_soliton(eff, variant, speeds)
        fields = ("c1", "c3", "strain_amplitude", "length", "displacement_amplitude")
        for i, speed in enumerate(speeds.tolist()):
            try:
                one = sol.solve_soliton(eff, variant, speed)
            except NoSoliton:
                assert all(math.isnan(getattr(column, f)[i]) for f in fields)
                continue
            for f in fields:
                assert np.float64(getattr(column, f)[i]).tobytes() == np.float64(getattr(one, f)).tobytes(), f

    def test_amplitude_table_respects_bound(self, eff):
        _, blocks = sol.amplitude_table(eff, n=60)
        speeds, _, _, variants = joined(blocks)
        bound = sol.existence_bound(eff)
        assert max(speeds[variants == "full"]) <= bound + 1e-9
