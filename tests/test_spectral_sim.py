"""Pseudo-spectral marching: exact linear transport, conservation, solitons, blow-up."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamwave as lw
from lamwave import output, soliton
from lamwave import spectral_sim as sp
from lamwave.errors import DomainError, Instability
from lamwave.homogenize import effective_model

from conftest import (
    GradientTrace,
    gradient_blowup_distance,
    joined,
    soliton_boundary_signal,
    soliton_transport_test,
)


def neo_hookean_stack():
    """Linear (zeta = 0) variant of the benchmark stack; eta is unchanged."""
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
        lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 930.0, 0.5),
        0.01,
    )


def reference_march(eff, v0, cfg, n_steps, multistep=False):
    """Full-spectrum march with the masked nonlinear term, one irfft per quantity.

    The cubic term is the library's :func:`~lamwave.spectral_sim.cubic_term` of the
    masked spectrum (``test_cubic_term_matches_real_transforms`` checks it against
    ``irfft``/``rfft``).

    Every step is classical RK4 (four evaluations), or with ``multistep=True``
    the library's scheme: three RK4 steps, then integrating-factor
    Adams-Bashforth-Moulton 4 in PEC mode, in the library's order of operations.
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
    e2 = e_full * e_full
    e3 = e2 * e_full
    h24 = h / 24.0
    predict = (55.0 * h24 * e_full, -59.0 * h24 * e2, 37.0 * h24 * e3, -9.0 * h24 * (e3 * e_full))
    correct = (19.0 * h24 * e_full, -5.0 * h24 * e2, h24 * e3)

    m = int(np.count_nonzero(keep))
    cube = sp.cubic_term(n, nl_scale[:m])

    def nonlinear(vhat):
        out = np.zeros_like(vhat)
        cube(np.where(keep, vhat, 0.0), out[:m])
        return out

    vhat = np.fft.rfft(v0)
    fields, trace, hist = [v0], [], []  # hist: N_k, N_k-1, ... newest first
    for k in range(n_steps + 1):
        if k and (not multistep or k <= 3):
            hist.insert(0, nonlinear(vhat))
            n1 = hist[0]
            a = e_half * (vhat + 0.5 * h * n1)
            n2 = nonlinear(a)
            b = e_half * vhat + 0.5 * h * n2
            n3 = nonlinear(b)
            c_ = e_full * vhat + e_half * h * n3
            n4 = nonlinear(c_)
            vhat = e_full * vhat + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        elif k:
            if k == 4:
                hist.insert(0, nonlinear(vhat))
            base = e_full * vhat
            pred = base + predict[0] * hist[0] + predict[1] * hist[1] + predict[2] * hist[2]
            pred = pred + predict[3] * hist[3]
            hist.insert(0, nonlinear(pred))
            vhat = base + correct[0] * hist[1] + correct[1] * hist[2] + correct[2] * hist[3]
            vhat = vhat + 9.0 * h24 * hist[0]
        del hist[4:]
        if k:
            fields.append(np.fft.irfft(vhat, n))
        vt = np.fft.irfft(iw * vhat, n)
        i = int(np.argmax(np.abs(vt)))
        trace.append((abs(float(vt[i])), float(vt[i]), float(np.fft.irfft(vhat, n)[i])))
    return fields, np.array(trace)


def small_impact(eff):
    """A 512-point window of four forcing durations and its impact signal."""
    kappa = 2.0 * math.pi / (16.0 * eff.ell)
    cfg = sp.SpectralConfig(n_points=512, window=4.0 * 2.0 * math.pi / (kappa * eff.c))
    return cfg, sp.impact_signal(2.0 * eff.c, kappa, eff.c)(cfg.times())


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


class TestCubicTerm:
    @pytest.mark.parametrize("n", [256, 1024, 8192, 16384])
    def test_cubic_term_matches_real_transforms(self, n):
        """The packed half-length transforms give scale * rfft(irfft(x, n)^3) on the kept
        modes within 1e-14 of its largest modulus (at most 9e-16 over 20 seeds): for a random
        band-limited spectrum, for the DC mode and the half-Nyquist mode K = n/4 (the one
        that both halves of the packed coefficients read) alone, and for a spectrum with
        zeros above the kept modes; all-zero modes give exact zeros."""
        rng = np.random.default_rng(n)
        m = n // 4 + 1
        scale = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = sp.cubic_term(n, scale)
        out = np.empty(m, dtype=complex)
        band = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        band[0] = band[0].real  # a real field's DC mode is real
        ends = np.zeros(m, dtype=complex)
        ends[0], ends[-1] = 0.7, 0.3 - 0.4j
        for x in (band, ends):
            ref = scale * np.fft.rfft(np.fft.irfft(x, n) ** 3)[:m]
            f(x, out)
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        full = np.zeros(n // 2 + 1, dtype=complex)
        full[:m] = band
        f(band, out)
        prefix = out.copy()
        f(full, out)
        assert out.tobytes() == prefix.tobytes()
        f(np.zeros(m, dtype=complex), out)
        assert not np.any(out.view(float))


class TestLinear:
    def test_zero_signal_stays_zero(self, eff):
        cfg = sp.SpectralConfig(n_points=256, window=1e-2)
        res = sp.mkdv_march(eff, lambda t: np.zeros_like(t), cfg, [0.01])
        assert np.all(res.records[-1] == 0.0)

    def test_single_harmonic_phase_shift(self):
        """With zeta = 0 each mode advances by exactly kappa(omega) * y."""
        eff = effective_model(neo_hookean_stack(), 1.0)
        assert eff.zeta == 0.0
        window = 0.02
        cfg = sp.SpectralConfig(n_points=1024, window=window, viscosity=0.0)
        m_mode = 12
        omega = 2.0 * math.pi * m_mode / window
        res = sp.mkdv_march(eff, lambda t: np.sin(omega * t), cfg, [0.05])
        y = res.y_final
        kappa = omega / eff.c + eff.eta * eff.ell**2 * omega**3 / (2.0 * eff.c**3)
        exact = np.sin(omega * res.t - kappa * y)
        assert np.max(np.abs(res.records[-1] - exact)) < 1e-10

    def test_l2_norm_conserved(self):
        """Linear inviscid evolution is unitary: discrete L2 exactly preserved."""
        eff = effective_model(neo_hookean_stack(), 1.0)
        cfg = sp.SpectralConfig(n_points=256, window=5e-3, dy=1e-4, viscosity=0.0)
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(256)
        res = sp.mkdv_march(eff, sig, cfg, [10_000 * cfg.dy])
        n0 = float(np.linalg.norm(sig))
        n1 = float(np.linalg.norm(res.records[-1]))
        assert abs(n1 - n0) / n0 < 1e-10

    def test_viscosity_decays_modes(self):
        eff = effective_model(neo_hookean_stack(), 1.0)
        window = 0.02
        cfg = sp.SpectralConfig(n_points=1024, window=window, viscosity=1e-6)
        m_mode = 20
        omega = 2.0 * math.pi * m_mode / window
        res = sp.mkdv_march(eff, lambda t: np.sin(omega * t), cfg, [0.05])
        amp = float(np.max(np.abs(res.records[-1])))
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
        res = sp.plan_impact(eff, velocity, kappa, [0.5 * y_star], cfg).run()
        v0 = velocity * np.sin(0.5 * kappa * eff.c * res.t) ** 2
        v0[res.t > 2.0 * math.pi / (kappa * eff.c)] = 0.0
        v1 = res.records[-1]
        for power in (1, 2):
            i0 = float(np.sum(v0**power))
            i1 = float(np.sum(v1**power))
            assert abs(i1 - i0) / abs(i0) < 1e-6

    def test_instability_detected(self, eff):
        """A huge step size blows the nonlinear stage up and is reported."""
        cfg = sp.SpectralConfig(n_points=512, window=5e-3, dy=1.0, viscosity=0.0)
        big = 50.0 * eff.c
        with pytest.raises(Instability):
            sp.mkdv_march(eff, lambda t: big * np.sin(2e3 * math.pi * t), cfg, [100.0])

    def test_impact_window_holds_forcing_and_quiet_zone(self, eff):
        """Without stops the window must still hold the forcing and one quiet duration."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        duration = 2.0 * math.pi / (kappa * eff.c)
        cfg = sp.SpectralConfig(n_points=512, window=1.5 * duration)
        with pytest.raises(Instability, match="window: it holds 1.5 forcing durations and needs 2.0$"):
            sp.plan_impact(eff, 0.1 * eff.c, kappa, [], cfg).run()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_blowup_check_matches_exact_moduli(self, data):
        """The component shortcut never changes the blow-up decision, not max|z| <= bound
        (so a NaN modulus stops a march), on 45-degree entries (where it is loosest),
        zeros, subnormals, +-inf and NaN."""
        tiny = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022]
        special = st.sampled_from(tiny + [math.inf, -math.inf, math.nan])
        part = st.one_of(special, st.floats())
        diagonal = st.one_of(special, st.floats(min_value=0.0)).flatmap(
            lambda r: st.sampled_from([complex(r, r), complex(-r, r), complex(r, -r)])
        )
        # |inf + nan j| is inf, while the component maximum is NaN
        mixed = st.sampled_from([complex(math.inf, math.nan), complex(math.nan, -math.inf)])
        entry = st.one_of(diagonal, st.builds(complex, part, part), mixed)
        z = np.array(data.draw(st.lists(entry, min_size=1, max_size=8)), dtype=complex)
        exact = float(np.max(np.abs(z)))
        # bounds at and beside the exact maximum, and where the shortcut gives way
        near = [0.0, 5e-324]
        if math.isfinite(exact):
            near += [exact * f for f in (1.0 / 1.5, 1.0 / math.sqrt(2.0), 0.75, 0.995, 1.0)]
        beside = st.sampled_from(near).flatmap(
            lambda b: st.sampled_from([b, *(float(np.nextafter(b, d)) for d in (0.0, math.inf))])
        )
        bound = data.draw(st.one_of(st.floats(min_value=0.0, allow_nan=False), beside))
        with np.errstate(over="ignore"):
            assert sp._exceeds(z, bound, np.empty(2 * z.size)) == (not exact <= bound)

    def test_window_overrun_rejected(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        with pytest.raises(Instability, match=r"window: it holds 4 forcing durations and needs \d"):
            sp.plan_impact(eff, 0.1 * eff.c, kappa, [50.0], sp.config_for_impact(kappa, eff.c)).run()


class TestSolitonTransport:
    def test_shape_preserved(self, transport_results):
        default = transport_results["default"]
        assert default.distance >= 99.0 * 0.0049  # ~100 soliton lengths
        assert default.shape_error < 1e-3
        assert default.amplitude_drift < 1e-3

    def test_shape_preserved_far(self, eff):
        """An inviscid window marches RK4, so transport holds far past the default
        100 lengths (the multistep scheme there grows round-off past 1e-3 by 150)."""
        res = soliton_transport_test(eff, 1.02 * eff.c, n_lengths=200.0)
        assert res.distance >= 199.0 * 0.0049
        assert res.shape_error < 1e-3
        assert res.amplitude_drift < 1e-3

    def test_fourth_order_refinement(self, march_refinement):
        """Halving the march step cuts the error by at least 8x.

        A fourth-order scheme gives 16x in the limit; on these coarse steps the
        multistep march gives about 76x and 34x, still approaching it from above.
        """
        errors = march_refinement
        assert errors[16] / errors[32] >= 8.0
        assert errors[32] / errors[64] >= 8.0

    def test_sonic_speed_rejected(self, eff):
        from lamwave.errors import NoSoliton

        with pytest.raises(NoSoliton):
            soliton_transport_test(eff, eff.c)


class TestBlowup:
    def test_blowup_at_shock_distance(self, mkdv_blowup_run):
        """The non-dispersive march steepens into a shock at the analytic distance."""
        eff = mkdv_blowup_run["eff"]
        y_star = mkdv_blowup_run["y_star"]
        y_est = gradient_blowup_distance(mkdv_blowup_run["trace"], eff)
        assert y_est == pytest.approx(y_star, rel=0.05)

    def test_blowup_insensitive_to_window_doubling(self, mkdv_blowup_run, matched_bilam):
        eff = mkdv_blowup_run["eff"]
        y_star = mkdv_blowup_run["y_star"]
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        cfg = sp.config_for_impact(kappa, eff.c, 16.0)
        wide = GradientTrace(cfg)
        sp.mkdv_march(
            eff, sp.impact_signal(2.0 * eff.c, kappa, eff.c), cfg, [1.3 * y_star], observe=wide
        )
        base = gradient_blowup_distance(mkdv_blowup_run["trace"], eff)
        doubled = gradient_blowup_distance(wide, eff)
        assert doubled == pytest.approx(base, rel=0.01)

    def test_no_blowup_without_steepening(self):
        eff = effective_model(neo_hookean_stack(), 1.0)
        cfg = sp.SpectralConfig(n_points=512, window=2e-2, )
        trace = GradientTrace(cfg)
        sp.mkdv_march(
            eff, lambda t: np.sin(2.0 * math.pi * 8 * t / 2e-2), cfg, [0.02], observe=trace
        )
        with pytest.raises(DomainError, match="does not steepen"):
            gradient_blowup_distance(trace, eff)

    def test_no_blowup_before_growth(self, eff):
        """A steepening medium whose gradient has not yet grown 4x gives no estimate."""
        assert eff.zeta > 0.0
        cfg = sp.SpectralConfig(n_points=512, window=2e-2, )
        trace = GradientTrace(cfg)
        sp.mkdv_march(
            eff, lambda t: 1e-3 * eff.c * np.sin(2.0 * math.pi * 8 * t / 2e-2), cfg, [0.02],
            observe=trace,
        )
        with pytest.raises(DomainError, match="never grew enough"):
            gradient_blowup_distance(trace, eff)

    def test_untraced_march_has_no_estimate(self, eff):
        """A march run without the trace as its observer leaves the trace empty, and the
        estimate says so rather than failing on an index."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        cfg = sp.config_for_impact(kappa, eff.c)
        trace = GradientTrace(cfg)
        sp.plan_impact(eff, 2.0 * eff.c, kappa, [0.01], cfg).run()
        assert trace.samples == [] and trace.k == []
        with pytest.raises(DomainError, match="empty gradient trace; pass it to mkdv_march as observe"):
            gradient_blowup_distance(trace, eff)


class TestEmission:
    def test_march_bit_reproducible(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        runs = [
            sp.plan_impact(eff, 0.5 * eff.c, kappa, [0.02], sp.config_for_impact(kappa, eff.c)).run()
            for _ in range(2)
        ]
        a = runs[0].records[-1]
        b = runs[1].records[-1]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["impact", "soliton"])
    def test_untraced_march_is_bit_identical(self, eff, case):
        """An observer sees steps 0..steps in order, and a march without one has the same
        records, distances, steps and scheme: the multistep one on the impact window,
        RK4 on the inviscid soliton one."""
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
                n_points=4096, window=44.0 * sol.length / speed, viscosity=0.0
            )
            signal = soliton_boundary_signal(sol, speed, 0.5 * cfg.window)
        stops = [0.0, 60 * cfg.dy, 150 * cfg.dy]
        plain = sp.mkdv_march(eff, signal, cfg, stops)
        trace = GradientTrace(cfg)
        observed = sp.mkdv_march(eff, signal, cfg, stops, observe=trace)
        assert len(plain.records) == len(observed.records) == 3
        for v, w in zip(plain.records, observed.records):
            assert v.tobytes() == w.tobytes()
        assert plain.steps == observed.steps == 150
        assert plain.scheme == observed.scheme == ("abm4" if case == "impact" else "rk4")
        assert plain.y_final == observed.y_final == 150 * cfg.dy
        assert trace.k == list(range(150 + 1))
        assert trace.y.tobytes() == plain.grad_y.tobytes()

    def test_observer_cannot_write_the_spectrum(self, eff):
        """The spectrum an observer is handed is read-only."""
        cfg, v0 = small_impact(eff)

        def overwrite(k, vhat):
            vhat[0] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            sp.mkdv_march(eff, v0, cfg, [cfg.dy], observe=overwrite)

    def test_march_matches_full_spectrum_reference(self, eff):
        """Steps on the kept modes only give the bits of the masked full-spectrum scheme."""
        cfg, v0 = small_impact(eff)
        stops = [0.0, 50 * cfg.dy, 100 * cfg.dy]
        trace = GradientTrace(cfg)
        res = sp.mkdv_march(eff, v0, cfg, stops, observe=trace)
        fields, ref_trace = reference_march(eff, v0, cfg, 100, multistep=True)
        assert res.scheme == "abm4" and len(res.records) == 3
        for y, v in zip(stops, res.records):
            assert np.array_equal(v, fields[round(y / cfg.dy)])
        assert trace.table().tobytes() == ref_trace.tobytes()

    @pytest.mark.parametrize(
        "scale, viscosity, below",
        [(1.0, 1e-5, 2.0**-1022), (1e-290, 0.0, 2.0**-960)],
        ids=["viscous", "tiny-inviscid"],
    )
    def test_upper_mode_flush_keeps_every_bit(self, eff, scale, viscosity, below):
        """Modes above the cutoff that decay below the floor are zeroed, and a field so
        small that they start below it keeps them; the reference multiplies the full
        spectrum every step and keeps its subnormals, and every record and the whole
        gradient trace still have the same bits."""
        cfg, v0 = small_impact(eff)
        # at viscosity 1e-5 |e_full| goes down to 2^-12 above the cutoff
        cfg = dataclasses.replace(cfg, viscosity=viscosity)
        v0 = scale * v0
        n_steps = 150
        stops = [k * cfg.dy for k in range(0, n_steps + 1, 25)]
        trace = GradientTrace(cfg)
        res = sp.mkdv_march(eff, v0, cfg, stops, observe=trace)
        fields, ref_trace = reference_march(eff, v0, cfg, n_steps, multistep=True)
        assert res.scheme == "abm4"
        for y, v in zip(stops, res.records):
            assert v.tobytes() == fields[round(y / cfg.dy)].tobytes()
        assert trace.table().tobytes() == ref_trace.tobytes()
        # not vacuous: above the cutoff the reference multiplies by e_full alone, and some
        # non-zero mode |v0_hat| |e_full|^k is below `below` before the last stop: the
        # subnormals on the viscous march, the floor from the start on the tiny one
        omega = 2.0 * math.pi * np.fft.rfftfreq(cfg.n_points, d=cfg.dt)
        upper = omega > 0.5 * omega[-1]
        start = np.abs(np.fft.rfft(v0)[upper])
        log_decay = -cfg.viscosity * omega[upper] ** 2 * cfg.dy / math.log(2.0)
        k = n_steps - 25
        nz = start > 0.0
        assert np.any(np.log2(start[nz]) + k * log_decay[nz] < math.log2(below))

    def test_startup_steps_are_rk4(self, eff):
        """Stops at steps 0-4 are recorded; steps 1-3 give RK4's bits, step 4 the first
        multistep one."""
        cfg, v0 = small_impact(eff)
        res = sp.mkdv_march(eff, v0, cfg, [k * cfg.dy for k in range(5)])
        rk4, _ = reference_march(eff, v0, cfg, 4)
        multistep, _ = reference_march(eff, v0, cfg, 4, multistep=True)
        assert len(res.records) == 5
        for k in range(4):
            assert res.records[k].tobytes() == rk4[k].tobytes()
        assert np.array_equal(res.records[4], multistep[4])
        assert not np.array_equal(multistep[4], rk4[4])

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 3])
    def test_march_shorter_than_history(self, eff, n_steps):
        """A march that ends before the four-entry history is full is plain RK4."""
        cfg, v0 = small_impact(eff)
        res = sp.mkdv_march(eff, v0, cfg, [n_steps * cfg.dy])
        rk4, _ = reference_march(eff, v0, cfg, n_steps)
        assert res.steps == n_steps and len(res.grad_y) == n_steps + 1
        assert res.y_final == n_steps * cfg.dy
        assert res.records[-1].tobytes() == rk4[n_steps].tobytes()

    def test_march_within_rk4_oracle(self, eff):
        """At twice the default step the multistep march stays within 1e-6 (relative L2)
        of full-spectrum RK4 at 2y*, the farthest probe of the impact comparison (it is
        at 3.8e-7 there, and at 1.7e-8 at the default step)."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        velocity = 2.0 * eff.c
        cfg = sp.config_for_impact(
            kappa, eff.c, 8.0, points_per_period=128, dy=2.0 * sp.DEFAULT_DY
        )
        assert cfg.n_points == 1024
        v0 = sp.impact_signal(velocity, kappa, eff.c)(cfg.times())
        n_steps = round(2.0 * soliton.shock_distance(eff, velocity, kappa) / cfg.dy)
        res = sp.mkdv_march(eff, v0, cfg, [n_steps * cfg.dy])
        assert res.scheme == "abm4"
        fields, _ = reference_march(eff, v0, cfg, n_steps)
        ref = fields[n_steps]
        error = float(np.linalg.norm(res.records[-1] - ref)) / float(np.linalg.norm(ref))
        assert error <= 1e-6

    @pytest.mark.parametrize("damping, scheme", [(0.0, "rk4"), (0.99, "rk4"), (1.01, "abm4")])
    def test_scheme_follows_damping(self, eff, damping, scheme):
        """The multistep scheme runs only where the viscous rate at the cutoff is at least
        MULTISTEP_DAMPING times the cubic term's linearised rate there (in units of
        that bound here); below it every step is RK4, bit for bit."""
        cfg, v0 = small_impact(eff)
        w_cut = 2.0 * math.pi * (cfg.n_points // 4) / cfg.window
        nl_rate = w_cut * eff.zeta * float(np.max(np.abs(v0))) ** 2 / (2.0 * eff.c**3)
        bound = sp.MULTISTEP_DAMPING * nl_rate / w_cut**2
        cfg = dataclasses.replace(cfg, viscosity=damping * bound)
        res = sp.mkdv_march(eff, v0, cfg, [20 * cfg.dy])
        fields, _ = reference_march(eff, v0, cfg, 20, multistep=scheme == "abm4")
        assert res.scheme == scheme
        assert res.records[-1].tobytes() == fields[20].tobytes()

    def test_counters(self, eff):
        """``steps`` counts the march; a zero signal needs no damping for the multistep scheme."""
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = sp.plan_impact(eff, 0.5 * eff.c, kappa, [0.02], sp.config_for_impact(kappa, eff.c)).run()
        assert res.steps == round(0.02 / res.config.dy) == len(res.grad_y) - 1
        zero = sp.SpectralConfig(n_points=256, window=1e-2, viscosity=0.0, )
        assert sp.mkdv_march(eff, np.zeros(256), zero, [0.01]).scheme == "abm4"

    def test_probe_table_schema(self, eff):
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = sp.plan_impact(eff, 0.1 * eff.c, kappa, [0.01], sp.config_for_impact(kappa, eff.c)).run()
        traces = [(y, res.t, v / eff.c) for y, v in zip([0.01], res.records)]
        header, blocks = output.probe_table(traces, kappa * eff.c / (2.0 * math.pi), "mkdv")
        t_s, *_, theory = joined(blocks)
        assert header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"]
        assert len(t_s) == len(res.records) * len(res.t)
        assert set(theory.tolist()) == {"mkdv"}
