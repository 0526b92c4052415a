"""Exact and homogenised dispersion, band gaps, and the monodromy-matrix oracle."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lamwave as lw
from lamwave import dispersion as dsp
from lamwave import materials as m
from lamwave._roots import bisect
from lamwave.errors import DomainError, NoGap
from lamwave.homogenize import CellState, EffectiveModel, cell_state, effective_model

from conftest import EDGE_TOL, Cell, columns, joined, oracle_gaps, swapped


def exact_acoustic_frequency(st: CellState, kappa_ell: float) -> float:
    """Invert the exact relation on the acoustic branch: omega*ell/c at given kappa*ell."""
    if not 0.0 <= kappa_ell <= math.pi:
        raise DomainError("acoustic-branch inversion needs kappa*ell in [0, pi]")
    if kappa_ell == 0.0:
        return 0.0
    target = math.sin(0.5 * kappa_ell) ** 2
    r = st.z1 / st.z2
    q = np.array([r, 1.0 / r])

    def below(w):  # (1 - cos(kappa ell)) / 2 = S(R) S(1/R) rises with omega on the acoustic branch
        a, b, _, _ = dsp._rytov_factors(st.t1, st.t2, w, turn=(0.0, -1.0))
        s, s_inv = a - q * b
        return s * s_inv < target

    # it reads 0 at omega = 0 and > 1 at the first gap's lower edge; unlike F - cos(kappa ell),
    # it keeps the relative precision of a small kappa ell
    lo, _ = dsp.band_gap_edges(st, 1)
    hi = float(lo[0]) if math.isfinite(lo[0]) else math.pi
    return float(bisect(below, 0.0, hi))


def homogenized_branch_frequencies(eff: EffectiveModel, kappa_ell) -> np.ndarray:
    """Real non-negative omega*ell/c roots of the optimised homogenised relation: the
    scalar oracle of the homogenised rows of ``dispersion.dispersion_table``.

    Solves ``eta_t chi^2 - (1 - eta_m k^2) chi + k^2 - eta_y k^4 = 0`` for
    ``chi = (omega ell / c)^2`` and returns the real branch frequencies sorted
    ascending (acoustic first).  May return fewer than two values where roots
    are complex or negative.
    """
    k = float(kappa_ell)
    k2 = k * k
    a = eff.eta_t
    b = -(1.0 - eff.eta_m * k2)
    c = k2 - eff.eta_y * k2 * k2
    if a == 0.0:
        if b == 0.0:
            return np.array([])
        chi = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return np.array([])
        s = math.sqrt(disc)
        chi = [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]
    out = sorted(x for x in chi if x >= -1e-14)
    return np.sqrt(np.clip(np.asarray(out), 0.0, None))


def monodromy_half_trace(lam: lw.Laminate, stretch: float, omega_norm: float) -> float:
    """Independent oracle: half trace of the 2x2 transfer matrix across one period.

    Propagates the (displacement, traction) state through each uniform layer
    with the standard harmonic-layer matrix and multiplies the two factors.
    """
    eff = effective_model(lam, stretch)
    ell = stretch * lam.period
    omega = omega_norm * eff.c / ell
    mat = np.eye(2)
    for phase in lam.phases:
        thickness = phase.volume_fraction * ell
        sc = m.shear_coefficients(phase.model, stretch)
        c = math.sqrt(sc.g / phase.density)
        k = omega / c
        kd = k * thickness
        layer = np.array(
            [
                [math.cos(kd), math.sin(kd) / (sc.g * k)],
                [-sc.g * k * math.sin(kd), math.cos(kd)],
            ]
        )
        mat = layer @ mat
    return 0.5 * float(np.trace(mat))


def random_laminate(rng) -> lw.Laminate:
    kind = rng.choice(["neo-hookean", "yeoh", "gent", "fung-demiray"])
    beta = 0.0 if kind == "neo-hookean" else float(rng.uniform(0.0, 0.05))
    g1 = float(rng.uniform(2e5, 2e7))
    g2 = g1 * float(rng.uniform(0.05, 0.95))
    nu = float(rng.uniform(0.1, 0.9))
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel(kind, g1, beta), float(rng.uniform(800, 5000)), nu),
        lw.Phase(lw.HyperelasticModel(kind, g2, beta), float(rng.uniform(800, 5000)), 1.0 - nu),
        float(rng.uniform(0.002, 0.05)),
    )


class TestBlochCosine:
    def test_zero_frequency(self, bilam):
        assert dsp.bloch_cosine(cell_state(bilam, 1.0), 0.0) == 1.0

    def test_homogeneous_limit(self):
        p = lw.Phase(lw.HyperelasticModel("neo-hookean", 2e6), 1000.0, 0.5)
        lam = lw.Laminate(p, dataclasses.replace(p), 0.01)
        w = np.linspace(0.0, 8.0, 50)
        assert np.allclose(dsp.bloch_cosine(cell_state(lam, 1.0), w), np.cos(w), atol=1e-13)

    def test_even_in_frequency(self, bilam):
        w = np.linspace(0.1, 6.0, 17)
        st = cell_state(bilam, 1.0)
        assert np.allclose(dsp.bloch_cosine(st, w), dsp.bloch_cosine(st, -w), atol=1e-14)

    def test_relabeling_invariance(self, bilam):
        w = np.linspace(0.1, 6.0, 17)
        assert np.allclose(
            dsp.bloch_cosine(cell_state(bilam, 1.0), w),
            dsp.bloch_cosine(cell_state(swapped(bilam), 1.0), w),
            atol=1e-13,
        )

    def test_monodromy_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            lam = random_laminate(rng)
            stretch = float(rng.uniform(0.8, 1.3))
            w = float(rng.uniform(0.05, 8.0))
            closed = float(dsp.bloch_cosine(cell_state(lam, stretch), w))
            oracle = monodromy_half_trace(lam, stretch, w)
            assert closed == pytest.approx(oracle, abs=1e-12 * max(1.0, abs(oracle)))


class TestBandGaps:
    def test_homogeneous_has_none(self):
        p = lw.Phase(lw.HyperelasticModel("neo-hookean", 2e6), 1000.0, 0.5)
        lam = lw.Laminate(p, dataclasses.replace(p), 0.01)
        assert dsp.bloch_band_gaps(cell_state(lam, 1.0), 3.0 * math.pi) == []

    def test_benchmark_first_gap(self, bilam):
        gaps = dsp.bloch_band_gaps(cell_state(bilam, 1.0), 3.0 * math.pi)
        assert gaps[0].lo == pytest.approx(0.83 * math.pi, abs=0.01 * math.pi)
        assert gaps[0].hi == pytest.approx(1.27 * math.pi, abs=0.01 * math.pi)

    def test_matched_impedance_gap_closes(self, matched_bilam):
        gaps = dsp.bloch_band_gaps(cell_state(matched_bilam, 1.0), 2.0 * math.pi)
        assert not gaps or gaps[0].hi - gaps[0].lo < 1e-6

    def test_scan_evaluates_coefficients_once_per_phase(self, bilam, monkeypatch):
        original = m.shear_coefficients
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("lamwave") and getattr(mod, "shear_coefficients", None) is original:
                monkeypatch.setattr(mod, "shear_coefficients", counted)
        gaps = dsp.bloch_band_gaps(cell_state(bilam, 1.0), 3.0 * math.pi)
        assert gaps
        assert len(calls) <= 2

    def test_edges_refined(self, bilam):
        st = cell_state(bilam, 1.0)
        gaps = dsp.bloch_band_gaps(st, 2.0 * math.pi)
        for edge in (gaps[0].lo, gaps[0].hi):
            assert abs(abs(float(dsp.bloch_cosine(st, edge))) - 1.0) < 1e-8

    def test_edges_at_float_resolution(self, bilam):
        """Each edge is evanescent, and the next float outward propagates."""
        st = cell_state(bilam, 1.0)
        for gap in dsp.bloch_band_gaps(st, 3.0 * math.pi):
            for edge, outward in ((gap.lo, -math.inf), (gap.hi, math.inf)):
                assert abs(dsp.bloch_cosine(st, edge)) > 1.0
                assert abs(dsp.bloch_cosine(st, math.nextafter(edge, outward))) <= 1.0

    def test_first_gaps_match_all_gaps(self, bilam, matched_bilam, low_disp_bilam):
        """The first gaps of many cells are gap 1 of each one's all-gaps search, bit for bit,
        and gap 1 of the scan oracle to EDGE_TOL."""
        lams = [bilam, matched_bilam, low_disp_bilam, bilam]
        stretches = [1.0, 1.0, 1.0, 1.6]
        states = [cell_state(lam, s) for lam, s in zip(lams, stretches)]
        lo, hi = dsp.band_gap_edges(columns(states), 1)
        for st, a, b in zip(states, lo.tolist(), hi.tolist()):
            gaps = [g for g in dsp.bloch_band_gaps(st, 3.0 * math.pi) if g.index == 1]
            oracle = [(g_lo, g_hi) for n, g_lo, g_hi in oracle_gaps(st, 3.0 * math.pi, 4000) if n == 1]
            if oracle:
                assert (gaps[0].lo, gaps[0].hi) == (a, b)
                assert abs(a - oracle[0][0]) <= EDGE_TOL
                assert abs(b - oracle[0][1]) <= EDGE_TOL
            else:
                assert not gaps and math.isnan(a) and math.isnan(b)
        empty = dsp.band_gap_edges(columns([]), 1)
        assert [len(x) for x in empty] == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        t1=st.floats(0.02, 0.98),
        shrink=st.floats(0.8, 1.0),
        log_r=st.floats(math.log(1e-3), math.log(1e3)),
    )
    # equal travel times and impedances 6e-8 apart: gap 3 is 1.2e-7 wide around 3 pi
    @example(t1=0.5, shrink=1.0, log_r=5.960464477539063e-08)
    def test_all_gaps_match_oracle(self, t1, shrink, log_r):
        """Every gap the scan oracle resolves up to 6 pi is found, with its Bloch gap
        number and its edges within EDGE_TOL."""
        cell = Cell(t1=t1, t2=(1.0 - t1) * shrink, z1=math.exp(log_r), z2=1.0)
        omega_max = 6.0 * math.pi
        gaps = {g.index: g for g in dsp.bloch_band_gaps(cell, omega_max)}
        for n, lo, hi in oracle_gaps(cell, omega_max, 20_000):
            assert abs(gaps[n].lo - lo) <= EDGE_TOL
            assert abs(gaps[n].hi - hi) <= EDGE_TOL

    def test_gaps_a_scan_step_misses(self):
        """Two near-matched neo-Hookean phases: gaps 1, 2 and 3 below 3 pi, each under
        3e-4 wide.  A 10,000-frequency scan sees only gap 3, cut at 3 pi."""
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.7),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.699e6), 930.0, 0.3),
            0.01,
        )
        gaps = dsp.bloch_band_gaps(cell_state(lam, 1.0), 3.0 * math.pi)
        assert [g.index for g in gaps] == [1, 2, 3]
        assert all(0.0 < g.hi - g.lo < 3e-4 for g in gaps)
        (lo,), (hi,) = dsp.band_gap_edges(cell_state(lam, 1.0), 1)
        assert (gaps[0].lo, gaps[0].hi) == (lo, hi)
        assert gaps[2].hi == 3.0 * math.pi
        coarse = oracle_gaps(cell_state(lam, 1.0), 3.0 * math.pi, 10_000)
        assert [n for n, _, _ in coarse] == [3]
        fine = oracle_gaps(cell_state(lam, 1.0), 3.0 * math.pi, 200_000)
        assert [n for n, _, _ in fine] == [1, 2, 3]
        for gap, (_, a, b) in zip(gaps, fine):
            assert abs(gap.lo - a) <= EDGE_TOL and abs(gap.hi - b) <= EDGE_TOL

    def test_equal_travel_closes_even_gaps(self):
        """With t1 = t2, S(q) = sin x cos x (1 + q) vanishes at x = pi/2 for both q: gap 2
        closes (absent, or narrower than 1e-12) and the numbering of gap 3 holds."""
        cell = Cell(t1=0.45, t2=0.45, z1=3.0, z2=1.0)
        gaps = {g.index: g for g in dsp.bloch_band_gaps(cell, 4.0 * math.pi)}
        assert gaps.keys() >= {1, 3}
        assert 2 not in gaps or gaps[2].hi - gaps[2].lo < 1e-12
        assert gaps[3].lo > gaps[1].hi + 1.0

    def test_one_bisection_and_no_frequency_grid(self, bilam, monkeypatch):
        """band_gap_records brackets both edges of each gap number once, all in one
        bisection, and samples no frequency grid."""
        brackets = []

        def counted(inside, inn, out):
            brackets.append(inn.shape)
            return bisect(inside, inn, out)

        def no_grid(*args, **kwargs):
            raise AssertionError("a frequency grid was built")

        monkeypatch.setattr(dsp, "bisect", counted)
        monkeypatch.setattr(np, "linspace", no_grid)
        records = dsp.band_gap_records(cell_state(bilam, 1.0), 3.0 * math.pi)
        # t1 + t2 = 0.93: gaps 1, 2 and 3 start below 3 pi (t1 + t2) / pi + 1; gap 3 opens above
        assert brackets == [(2, 3)]
        assert [r["index"] for r in records if r["theory"] == "exact"] == [1, 2]


def one_plus_cosine(cell, w: float) -> float:
    """1 + cos(kappa ell) in Rytov's factored form, 2 P(R) P(1/R) with R = max(r, 1/r)."""
    x, y = 0.5 * w * cell.t1, 0.5 * w * cell.t2
    r = cell.z1 / cell.z2
    big = max(r, 1.0 / r)
    cc, ss = math.cos(x) * math.cos(y), math.sin(x) * math.sin(y)
    return 2.0 * (cc - big * ss) * (cc - ss / big)


class TestClosedFormFirstGap:
    @settings(max_examples=60, deadline=None)
    @given(
        t1=st.floats(0.02, 0.98),
        shrink=st.floats(0.8, 1.0),
        log_r=st.floats(math.log(1e-3), math.log(1e3)),
    )
    def test_matches_scan(self, t1, shrink, log_r):
        """Where the scan oracle resolves gap 1, both give its edges to EDGE_TOL."""
        cell = Cell(t1=t1, t2=(1.0 - t1) * shrink, z1=math.exp(log_r), z2=1.0)
        (lo,), (hi,) = dsp.band_gap_edges(cell, 1)
        omega_max = 3.0 * math.pi
        oracle = [(a, b) for n, a, b in oracle_gaps(cell, omega_max, 4000) if n == 1]
        if not oracle or oracle[0][1] == omega_max:
            return  # too narrow for the scan, or cut by its ceiling
        assert abs(lo - oracle[0][0]) <= EDGE_TOL
        assert abs(hi - oracle[0][1]) <= EDGE_TOL

    def test_edges_at_float_resolution(self, bilam, low_disp_bilam):
        """Each edge is evanescent, and the next float outward propagates."""
        cells = [cell_state(bilam, 1.0), cell_state(low_disp_bilam, 1.3),
                 Cell(0.3, 0.65, 1e-3, 1.0), Cell(0.9, 0.05, 1.0, 7.0),
                 Cell(0.05, 0.25, 30.0, 1.0)]
        lo, hi = dsp.band_gap_edges(columns(cells), 1)
        for cell, a, b in zip(cells, lo.tolist(), hi.tolist()):
            assert 0.0 < a < b
            for edge, outward in ((a, -math.inf), (b, math.inf)):
                assert one_plus_cosine(cell, edge) < 0.0
                assert one_plus_cosine(cell, math.nextafter(edge, outward)) >= 0.0
                # the unfactored form loses about eps * (r + 1/r) / 2 to cancellation
                assert dsp.bloch_cosine(cell, edge) == pytest.approx(-1.0, abs=1e-12)

    def test_matched_impedance_has_none(self, matched_bilam):
        cells = [cell_state(matched_bilam, 1.0), Cell(0.3, 0.7, 2.0, 2.0),
                 Cell(0.9, 0.05, 5e3, 5e3)]
        lo, hi = dsp.band_gap_edges(columns(cells), 1)
        assert np.isnan(lo).all() and np.isnan(hi).all()

    def test_gap_narrower_than_a_scan_step(self):
        """A gap 1e-3 wide, under the 2.4e-3 step of a 4000-frequency scan to 3 pi, is found;
        that scan steps over it, and its first gap is gap 2."""
        cell = Cell(t1=0.7148705720283964, t2=0.17192873424055835, z1=1.000801746581671, z2=1.0)
        (lo,), (hi,) = dsp.band_gap_edges(cell, 1)
        assert 0.0 < hi - lo < 3.0 * math.pi / 4000
        gaps = dsp.bloch_band_gaps(cell, 3.0 * math.pi)
        assert (gaps[0].index, gaps[0].lo, gaps[0].hi) == (1, lo, hi)
        coarse = oracle_gaps(cell, 3.0 * math.pi, 4000)[0]
        assert coarse[0] == 2 and coarse[1] > hi + 1.0
        fine = oracle_gaps(cell, 3.0 * math.pi, 100_000)[0]
        assert fine[0] == 1
        assert abs(lo - fine[1]) <= EDGE_TOL
        assert abs(hi - fine[2]) <= EDGE_TOL

    @pytest.mark.parametrize("kappa_ell", [1e-9, 1e-8, 1e-7])
    def test_acoustic_inversion_at_small_kappa(self, bilam, kappa_ell):
        """omega ell / c = kappa ell (1 + O(kappa ell^2)) on the long-wave end, and the
        inversion keeps it to 1e-12 relative."""
        w = exact_acoustic_frequency(cell_state(bilam, 1.0), kappa_ell)
        assert w == pytest.approx(kappa_ell, rel=1e-12)

    def test_acoustic_branch_ends_at_lower_edge(self, bilam, low_disp_bilam):
        """At kappa*ell = pi the acoustic-branch inversion returns the lower gap edge."""
        for lam in (bilam, low_disp_bilam):
            st = cell_state(lam, 1.0)
            (lo,), _ = dsp.band_gap_edges(st, 1)
            assert exact_acoustic_frequency(st, math.pi) == pytest.approx(lo, rel=1e-14)


class TestHomogenizedBranches:
    def test_zero_wavenumber_roots(self, eff):
        freqs = homogenized_branch_frequencies(eff, 0.0)
        assert freqs[0] == pytest.approx(0.0, abs=1e-12)
        assert freqs[1] == pytest.approx(1.0 / math.sqrt(eff.eta_t), rel=1e-12)

    def test_degenerate_relation(self, eff):
        bare = dataclasses.replace(eff, eta_y=eff.eta, eta_m=0.0, eta_t=0.0)
        for k in (0.3, 1.0, 2.0):
            freqs = homogenized_branch_frequencies(bare, k)
            assert len(freqs) == 1
            assert freqs[0] == pytest.approx(math.sqrt(k**2 - eff.eta * k**4), rel=1e-12)

    def test_acoustic_long_wave(self, eff):
        k = 1e-3
        freqs = homogenized_branch_frequencies(eff, k)
        assert freqs[0] == pytest.approx(k, rel=1e-5)

    def test_zero_group_velocity_at_zone_edge(self, eff):
        dk = 1e-4
        for branch in (0, 1):
            w_m = homogenized_branch_frequencies(eff, math.pi - dk)[branch]
            w_p = homogenized_branch_frequencies(eff, math.pi + dk)[branch]
            assert abs(w_p - w_m) / (2.0 * dk) < 1e-5

    def test_gap_formula(self, eff):
        gap = dsp.homogenized_band_gap(eff)
        assert gap.lo == pytest.approx(0.84 * math.pi, abs=0.005 * math.pi)
        assert gap.hi == pytest.approx(1.32 * math.pi, abs=0.005 * math.pi)

    def test_gap_width_arithmetic(self, eff):
        gap = dsp.homogenized_band_gap(eff)
        assert (gap.hi - gap.lo) / math.pi == pytest.approx(0.48, abs=0.01)

    def test_zero_width_limit(self):
        tiny = dataclasses.replace(
            effective_model(
                lw.Laminate(
                    lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
                    lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 930.0, 0.5),
                    0.01,
                )
            ),
            eta=1e-12,
            eta_t=1.0 / (2.0 * math.pi**2) - 1e-12,
        )
        gap = dsp.homogenized_band_gap(tiny)
        assert gap.lo == pytest.approx(math.pi, rel=1e-5)
        assert gap.hi == pytest.approx(math.pi, rel=1e-5)

    def test_no_gap_without_dispersion(self, eff):
        flat = dataclasses.replace(eff, eta=0.0)
        with pytest.raises(NoGap):
            dsp.homogenized_band_gap(flat)


class TestMkdvDispersion:
    def test_trivials(self, eff):
        assert dsp.mkdv_wavenumber(eff, 0.0) == 0.0
        flat = dataclasses.replace(eff, eta=0.0)
        assert dsp.mkdv_wavenumber(flat, 1.7) == pytest.approx(1.7, rel=1e-15)

    def test_cubic_term(self, eff):
        w = math.pi
        assert dsp.mkdv_wavenumber(eff, w) == pytest.approx(
            math.pi + 0.5 * eff.eta * math.pi**3, rel=1e-14
        )


class TestLongWaveAgreement:
    def test_quartic_error_decay(self, bilam, eff):
        """The homogenised acoustic branch matches the exact one to O((k ell)^4).

        Sampled on k*ell in [0.03, 0.3]: below that the relative difference
        falls under double-precision resolution of the root finder.
        """
        ks = np.array([0.03, 0.06, 0.12, 0.24])
        errs = []
        for k in ks:
            w_exact = exact_acoustic_frequency(cell_state(bilam, 1.0), float(k))
            w_h = homogenized_branch_frequencies(eff, float(k))[0]
            errs.append(abs(w_h - w_exact) / w_exact)
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.4)

    def test_first_cutoff_within_two_percent(self, bilam, eff):
        exact = dsp.bloch_band_gaps(cell_state(bilam, 1.0), 2.0 * math.pi)[0]
        homog = dsp.homogenized_band_gap(eff)
        assert homog.lo == pytest.approx(exact.lo, rel=0.02)


def assert_bloch_bands(cell, omega_max: float, n: int) -> list:
    """The exact branches on ``n`` frequencies to ``omega_max`` are the Bloch bands
    between the exact gaps of :func:`band_gap_edges`, and returns them.

    No node inside an open gap lies on a branch, and a node outside them is left
    out only where |F| = 1 (a closed gap: a node at one is a band edge, on either
    side by rounding); unfolded kappa ell never falls across all branches; a node
    of branch b lies above every gap up to b and below every gap past it; and each
    branch end lies within one grid step of the gap edge next to it.
    """
    branches = dsp.sample_exact_branches(cell, omega_max, n)
    w = np.linspace(0.0, omega_max, n)
    step = 1.000001 * w[1]
    gap = np.arange(1, math.floor(omega_max * (cell.t1 + cell.t2) / math.pi) + 2)
    lo, hi = dsp.band_gap_edges(cell, gap)
    gap, lo, hi = gap[~np.isnan(lo)], lo[~np.isnan(lo)], hi[~np.isnan(lo)]
    inside = ((w[:, None] >= lo) & (w[:, None] <= hi)).any(axis=1)
    kept = np.concatenate([br.omega_norm for br in branches])
    assert not np.isin(kept, w[inside]).any()
    dropped = np.setdiff1d(w[~inside], kept)
    assert np.allclose(np.abs(dsp.bloch_cosine(cell, dropped)), 1.0, rtol=0.0, atol=1e-9)
    assert (np.diff(np.concatenate([br.kappa_ell for br in branches])) >= 0.0).all()
    assert [br.index for br in branches] == sorted({br.index for br in branches})
    for br in branches:
        first, last = br.omega_norm[0], br.omega_norm[-1]
        assert (first > hi[gap <= br.index]).all() and (last < lo[gap > br.index]).all()
        below, above = hi[gap == br.index], lo[gap == br.index + 1]
        assert (first - below <= step).all() and (np.minimum(above, omega_max) - last <= step).all()
    return branches


class TestSampling:
    def test_branch_shapes(self, bilam):
        branches = dsp.sample_exact_branches(cell_state(bilam, 1.0), 2.6 * math.pi, 1200)
        assert len(branches) >= 3
        acoustic = branches[0]
        assert np.all(np.diff(acoustic.omega_norm) > 0)
        assert np.all(acoustic.kappa_ell_folded >= 0)
        assert np.all(acoustic.kappa_ell_folded <= math.pi + 1e-12)
        second = branches[1]
        # unfolded continuation enters the second zone
        assert second.kappa_ell.max() > math.pi

    def test_bands_of_the_paper_stack(self, bilam):
        branches = assert_bloch_bands(cell_state(bilam, 1.0), 2.6 * math.pi, 2000)
        assert [br.index for br in branches] == [0, 1, 2]

    def test_gaps_narrower_than_a_grid_step(self):
        """Gaps 1 and 2 of the near-matched stack (under 2e-4 wide) fall between grid
        nodes 4e-3 apart, and still split the bands: branches 0, 1 and 2."""
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.7),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.699e6), 930.0, 0.3),
            0.01,
        )
        branches = dsp.sample_exact_branches(cell_state(lam, 1.0), 2.6 * math.pi, 2000)
        assert [br.index for br in branches] == [0, 1, 2]
        assert branches[-1].kappa_ell[-1] == pytest.approx(2.6 * math.pi, rel=1e-3)
        assert_bloch_bands(cell_state(lam, 1.0), 2.6 * math.pi, 2000)

    def test_closed_gap_splits_bands(self):
        """With t1 = t2 the even gaps close; bands 1 and 2, and 3 and 4, meet there and
        keep their own numbers."""
        cell = Cell(t1=0.45, t2=0.45, z1=3.0, z2=1.0)
        branches = assert_bloch_bands(cell, 4.0 * math.pi, 2000)
        assert [br.index for br in branches] == [0, 1, 2, 3]
        assert branches[1].kappa_ell[-1] < 2.0 * math.pi < branches[2].kappa_ell[0]
        # the closed gap 2 lies at 2 pi / (t1 + t2), between two adjacent nodes
        step = 4.0 * math.pi / 1999
        assert branches[2].omega_norm[0] - branches[1].omega_norm[-1] == pytest.approx(step)
        assert branches[1].omega_norm[-1] < 2.0 * math.pi / 0.9 < branches[2].omega_norm[0]

    @settings(max_examples=40, deadline=None)
    @given(
        t1=st.floats(0.02, 0.98),
        shrink=st.floats(0.8, 1.0),
        log_r=st.floats(math.log(1e-3), math.log(1e3)),
    )
    @example(t1=1.0 / 3.0, shrink=1.0, log_r=2.0)  # gap 6 closes at the last node, 6 pi
    def test_branches_are_bloch_bands(self, t1, shrink, log_r):
        assert_bloch_bands(Cell(t1=t1, t2=(1.0 - t1) * shrink, z1=math.exp(log_r), z2=1.0),
                           6.0 * math.pi, 2000)

    def test_gap_closed_to_one_float_reads_closed(self):
        """Gap 6 of t1 = 1/3, t2 = 2/3 is closed (both layer phases are whole multiples
        of pi at 6 pi); rounding leaves one float where both factors read inside it.
        That gap is closed, as the exact branches, which keep the node at 6 pi, say."""
        cell = Cell(t1=1.0 / 3.0, t2=1.0 - 1.0 / 3.0, z1=math.exp(2.0), z2=1.0)
        lo, hi = dsp.band_gap_edges(cell, np.arange(5, 8))
        assert np.isnan(lo[1]) and np.isnan(hi[1])
        assert lo[0] < hi[0] < 6.0 * math.pi < lo[2] < hi[2]
        branches = dsp.sample_exact_branches(cell, 6.0 * math.pi, 2000)
        assert branches[-1].omega_norm[-1] == 6.0 * math.pi

    def test_tables(self, bilam):
        header, *views = dsp.dispersion_table(cell_state(bilam, 1.0), 2.0 * math.pi, 400)
        assert header == ["kappa_ell", "omega_norm", "branch", "theory"]
        unfolded, folded = map(joined, views)
        assert set(unfolded[3].tolist()) == {"exact", "homogenized", "mkdv"}
        # one sample, two views: only kappa*ell differs, folded into [0, pi]
        assert all(a is b for pair in zip(*views) for a, b in zip(*(block[1:] for block in pair)))
        assert folded[0].max() <= math.pi < unfolded[0].max()

    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_homogenized_rows_match_scalar_roots(self, bilam, homogeneous, folded):
        """The table's homogenised rows are the scalar roots at every node, bit for bit.

        A homogeneous stack (eta = 0) on 1001 nodes has a double root at the
        node kappa ell = pi."""
        p = lw.Phase(lw.HyperelasticModel("neo-hookean", 2e6), 1000.0, 0.5)
        lam = lw.Laminate(p, dataclasses.replace(p), 0.01) if homogeneous else bilam
        n = 2002
        _, *views = dsp.dispersion_table(cell_state(lam, 1.0), 2.0 * math.pi, n)
        rows = list(zip(*(column.tolist() for column in joined(views[folded]))))
        want = []
        eff = effective_model(lam, 1.0)
        for k in np.linspace(0.0, 2.0 * math.pi, n // 2):
            kk = k if not folded or k <= math.pi else 2.0 * math.pi - k
            want += [(float(kk), float(w), b, "homogenized")
                     for b, w in enumerate(homogenized_branch_frequencies(eff, k))]
        assert [r for r in rows if r[3] == "homogenized"] == want

    def test_gap_records(self, bilam):
        records = dsp.band_gap_records(cell_state(bilam, 1.0), 2.0 * math.pi)
        exact = [r for r in records if r["theory"] == "exact"]
        homog = [r for r in records if r["theory"] == "homogenized"]
        assert exact and homog
        assert 0.8 < exact[0]["lo_over_pi"] < 0.9
