"""Pseudo-spectral marching: exact linear transport, conservation, solitons, blow-up."""

import dataclasses
import math

import numpy as np
import pytest

import lamwave as lw
from lamwave import output, soliton
from lamwave import spectral_sim as sp
from lamwave.errors import DomainError, Instability
from lamwave.homogenize import effective_model


def neo_hookean_stack():
    """Linear (zeta = 0) variant of the benchmark stack; eta is unchanged."""
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
        lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 930.0, 0.5),
        0.01,
    )


def reference_march(eff, v0, cfg, n_steps):
    """Full-spectrum march with the masked nonlinear term, one irfft per quantity.

    Returns the field after each step and the (max|v_t|, v_t, v) gradient trace.
    """
    n, h = cfg.n_points, cfg.dy
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=cfg.dt)
    iw = 1j * omega
    iw[-1] = 0.0
    lin = (
        -iw / eff.c
        + (eff.eta * eff.ell**2 / (2.0 * eff.c**3)) * iw**3
        - cfg.viscosity * omega**2
    )
    e_half = np.exp(0.5 * h * lin)
    e_full = e_half * e_half
    nl_scale = iw * eff.zeta / (6.0 * eff.c**3)
    keep = omega <= 0.5 * omega[-1]

    def nonlinear(vhat):
        v = np.fft.irfft(np.where(keep, vhat, 0.0), n)
        return np.where(keep, nl_scale * np.fft.rfft(v * v * v), 0.0)

    vhat = np.fft.rfft(v0)
    fields, trace = [v0], []
    for k in range(n_steps + 1):
        if k:
            n1 = nonlinear(vhat)
            a = e_half * (vhat + 0.5 * h * n1)
            n2 = nonlinear(a)
            b = e_half * vhat + 0.5 * h * n2
            n3 = nonlinear(b)
            c_ = e_full * vhat + e_half * h * n3
            n4 = nonlinear(c_)
            vhat = e_full * vhat + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
            fields.append(np.fft.irfft(vhat, n))
        vt = np.fft.irfft(iw * vhat, n)
        i = int(np.argmax(np.abs(vt)))
        trace.append((abs(float(vt[i])), float(vt[i]), float(np.fft.irfft(vhat, n)[i])))
    return fields, np.array(trace)


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            sp.SpectralConfig(n_points=1000, window=1.0)
        with pytest.raises(DomainError):
            sp.SpectralConfig(n_points=128, window=1.0)

    @pytest.mark.parametrize("viscosity", [-1e-8, math.nan])
    def test_viscosity_must_be_non_negative(self, viscosity):
        """Modes above the de-aliasing cutoff never grow only at viscosity >= 0."""
        with pytest.raises(DomainError):
            sp.SpectralConfig(n_points=256, window=1.0, viscosity=viscosity)

    def test_impact_window_sizing(self):
        cfg = sp.config_for_impact(kappa=40.0, c=40.0, window_factor=4.0)
        assert cfg.n_points == 4096
        assert cfg.window == pytest.approx(4.0 * 2.0 * math.pi / (40.0 * 40.0), rel=1e-12)
        with pytest.raises(DomainError):
            sp.config_for_impact(kappa=40.0, c=40.0, window_factor=2.0)


class TestLinear:
    def test_zero_signal_stays_zero(self, eff):
        cfg = sp.SpectralConfig(n_points=256, window=1e-2, quiet_zone_check=False)
        res = sp.mkdv_march(eff, lambda t: np.zeros_like(t), cfg, [0.01])
        assert np.all(res.records[res.y_final] == 0.0)

    def test_single_harmonic_phase_shift(self):
        """With zeta = 0 each mode advances by exactly kappa(omega) * y."""
        eff = effective_model(neo_hookean_stack(), 1.0)
        assert eff.zeta == 0.0
        window = 0.02
        cfg = sp.SpectralConfig(
            n_points=1024, window=window, viscosity=0.0, quiet_zone_check=False
        )
        m_mode = 12
        omega = 2.0 * math.pi * m_mode / window
        res = sp.mkdv_march(eff, lambda t: np.sin(omega * t), cfg, [0.05])
        y = res.y_final
        kappa = omega / eff.c + eff.eta * eff.ell**2 * omega**3 / (2.0 * eff.c**3)
        exact = np.sin(omega * res.t - kappa * y)
        assert np.max(np.abs(res.records[y] - exact)) < 1e-10

    def test_l2_norm_conserved(self):
        """Linear inviscid evolution is unitary: discrete L2 exactly preserved."""
        eff = effective_model(neo_hookean_stack(), 1.0)
        cfg = sp.SpectralConfig(
            n_points=256, window=5e-3, dy=1e-4, viscosity=0.0, quiet_zone_check=False
        )
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(256)
        res = sp.mkdv_march(eff, sig, cfg, [10_000 * cfg.dy])
        n0 = float(np.linalg.norm(sig))
        n1 = float(np.linalg.norm(res.records[res.y_final]))
        assert abs(n1 - n0) / n0 < 1e-10

    def test_viscosity_decays_modes(self):
        eff = effective_model(neo_hookean_stack(), 1.0)
        window = 0.02
        cfg = sp.SpectralConfig(
            n_points=1024, window=window, viscosity=1e-6, quiet_zone_check=False
        )
        m_mode = 20
        omega = 2.0 * math.pi * m_mode / window
        res = sp.mkdv_march(eff, lambda t: np.sin(omega * t), cfg, [0.05])
        amp = float(np.max(np.abs(res.records[res.y_final])))
        assert amp == pytest.approx(math.exp(-1e-6 * omega**2 * res.y_final), rel=1e-3)


class TestInvariants:
    def test_mkdv_integrals_drift(self, bilam):
        """Inviscid smooth marching preserves the two lowest invariants."""
        eff = effective_model(bilam, 1.0)
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        velocity = 2.0 * eff.c
        cfg = dataclasses.replace(
            sp.config_for_impact(kappa, eff.c, window_factor=8.0), viscosity=0.0
        )
        from lamwave.soliton import shock_distance

        y_star = shock_distance(eff, velocity, kappa)
        res = sp.impact_march(eff, velocity, kappa, [0.5 * y_star], cfg=cfg)
        v0 = velocity * np.sin(0.5 * kappa * eff.c * res.t) ** 2
        v0[res.t > 2.0 * math.pi / (kappa * eff.c)] = 0.0
        v1 = res.records[res.y_final]
        for power in (1, 2):
            i0 = float(np.sum(v0**power))
            i1 = float(np.sum(v1**power))
            assert abs(i1 - i0) / abs(i0) < 1e-6

    def test_instability_detected(self, eff):
        """A huge step size blows the nonlinear stage up and is reported."""
        cfg = sp.SpectralConfig(
            n_points=512, window=5e-3, dy=1.0, viscosity=0.0, quiet_zone_check=False
        )
        big = 50.0 * eff.c
        with pytest.raises(Instability):
            sp.mkdv_march(eff, lambda t: big * np.sin(2e3 * math.pi * t), cfg, [100.0])

    def test_quiet_zone_enforced(self, eff):
        cfg = sp.SpectralConfig(n_points=512, window=1e-2)
        with pytest.raises(Instability):
            sp.mkdv_march(eff, lambda t: np.sin(2.0 * math.pi * t / 1e-2), cfg, [0.01])

    def test_window_overrun_rejected(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        with pytest.raises(Instability):
            sp.impact_march(eff, 0.1 * eff.c, kappa, [50.0])


class TestSolitonTransport:
    def test_shape_preserved(self, transport_results):
        default = transport_results["default"]
        assert default.distance >= 99.0 * 0.0049  # ~100 soliton lengths
        assert default.shape_error < 1e-3
        assert default.amplitude_drift < 1e-3

    def test_fourth_order_refinement(self, march_refinement):
        """Halving the march step cuts the error by at least 8x (4th order gives ~16x)."""
        errors = march_refinement
        assert errors[16] / errors[32] >= 8.0
        assert errors[32] / errors[64] >= 8.0

    def test_sonic_speed_rejected(self, eff):
        from lamwave.errors import NoSoliton

        with pytest.raises(NoSoliton):
            sp.soliton_transport_test(eff, eff.c)


class TestBlowup:
    def test_blowup_at_shock_distance(self, mkdv_blowup_run):
        """The non-dispersive march steepens into a shock at the analytic distance."""
        res = mkdv_blowup_run["result"]
        eff = mkdv_blowup_run["eff"]
        y_star = mkdv_blowup_run["y_star"]
        y_est = sp.gradient_blowup_distance(res, eff)
        assert y_est == pytest.approx(y_star, rel=0.05)

    def test_blowup_insensitive_to_window_doubling(self, mkdv_blowup_run, matched_bilam):
        eff = mkdv_blowup_run["eff"]
        y_star = mkdv_blowup_run["y_star"]
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        wide = sp.impact_march(
            eff, 2.0 * eff.c, kappa, [1.3 * y_star], sp.config_for_impact(kappa, eff.c, 16.0),
            gradient=True,
        )
        base = sp.gradient_blowup_distance(mkdv_blowup_run["result"], eff)
        doubled = sp.gradient_blowup_distance(wide, eff)
        assert doubled == pytest.approx(base, rel=0.01)

    def test_no_blowup_without_steepening(self):
        eff = effective_model(neo_hookean_stack(), 1.0)
        cfg = sp.SpectralConfig(n_points=512, window=2e-2, quiet_zone_check=False)
        res = sp.mkdv_march(
            eff, lambda t: np.sin(2.0 * math.pi * 8 * t / 2e-2), cfg, [0.02], gradient=True
        )
        with pytest.raises(DomainError, match="does not steepen"):
            sp.gradient_blowup_distance(res, eff)

    def test_no_blowup_before_growth(self, eff):
        """A steepening medium whose gradient has not yet grown 4x gives no estimate."""
        assert eff.zeta > 0.0
        cfg = sp.SpectralConfig(n_points=512, window=2e-2, quiet_zone_check=False)
        res = sp.mkdv_march(
            eff, lambda t: 1e-3 * eff.c * np.sin(2.0 * math.pi * 8 * t / 2e-2), cfg, [0.02],
            gradient=True,
        )
        with pytest.raises(DomainError, match="never grew enough"):
            sp.gradient_blowup_distance(res, eff)

    def test_untraced_march_has_no_estimate(self, eff):
        """A march run without the gradient trace says so, rather than failing on an index."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = sp.impact_march(eff, 2.0 * eff.c, kappa, [0.01])
        assert res.grad_max.size == res.char_v.size == res.char_vt.size == 0
        with pytest.raises(DomainError, match="no gradient trace; run it with gradient=True"):
            sp.gradient_blowup_distance(res, eff)


class TestEmission:
    def test_march_bit_reproducible(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        runs = [
            sp.impact_march(eff, 0.5 * eff.c, kappa, [0.02])
            for _ in range(2)
        ]
        a = runs[0].records[runs[0].y_final]
        b = runs[1].records[runs[1].y_final]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["impact", "soliton"])
    def test_untraced_march_is_bit_identical(self, eff, case):
        """Skipping the gradient trace leaves the records, the distances and the steps unchanged."""
        if case == "impact":
            # the benchmark's window: 8 forcing durations, 8192 points
            kappa = 2.0 * math.pi / (16.0 * eff.ell)
            cfg = sp.config_for_impact(kappa, eff.c, window_factor=8.0)
            assert cfg.n_points == 8192
            signal = sp.impact_signal(2.0 * eff.c, kappa, eff.c)
        else:
            speed = 1.02 * eff.c
            sol = soliton.solve_soliton(eff, soliton.WaveModel.SLOW_SPACE, speed)
            cfg = sp.SpectralConfig(
                n_points=4096, window=44.0 * sol.length / speed, viscosity=0.0,
                quiet_zone_check=False,
            )
            signal = sp.soliton_boundary_signal(sol, speed, 0.5 * cfg.window)
        stops = [0.0, 60 * cfg.dy, 150 * cfg.dy]
        plain = sp.mkdv_march(eff, signal, cfg, stops)
        traced = sp.mkdv_march(eff, signal, cfg, stops, gradient=True)
        assert plain.records.keys() == traced.records.keys() and len(plain.records) == 3
        for y, v in plain.records.items():
            assert v.tobytes() == traced.records[y].tobytes()
        assert plain.y_final == traced.y_final == 150 * cfg.dy
        assert plain.grad_y.tobytes() == traced.grad_y.tobytes()
        assert len(plain.grad_y) == len(traced.grad_max) == 150 + 1
        assert plain.grad_max.size == plain.char_v.size == plain.char_vt.size == 0

    def test_march_matches_full_spectrum_reference(self, eff):
        """Stages on the kept modes only give the bits of the masked full-spectrum step."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        cfg = sp.SpectralConfig(n_points=512, window=4.0 * 2.0 * math.pi / (kappa * eff.c))
        v0 = sp.impact_signal(2.0 * eff.c, kappa, eff.c)(cfg.times())
        res = sp.mkdv_march(eff, v0, cfg, [0.0, 50 * cfg.dy, 100 * cfg.dy], gradient=True)
        fields, trace = reference_march(eff, v0, cfg, 100)
        assert len(res.records) == 3
        for y, v in res.records.items():
            assert np.array_equal(v, fields[round(y / cfg.dy)])
        assert np.array_equal(res.grad_max, trace[:, 0])
        assert np.array_equal(res.char_vt, trace[:, 1])
        assert np.array_equal(res.char_v, trace[:, 2])

    def test_probe_table_schema(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = sp.impact_march(eff, 0.1 * eff.c, kappa, [0.01])
        traces = [(y, res.t, v / eff.c) for y, v in sorted(res.records.items())]
        header, rows = output.probe_table(traces, kappa * eff.c / (2.0 * math.pi), "mkdv")
        assert header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"]
        assert len(rows) == len(res.records) * len(res.t)
        assert all(r[4] == "mkdv" for r in rows)
