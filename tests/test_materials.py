"""Constitutive models, coefficient calibration, and the magneto-elastic stretch."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamwave as lw
from lamwave import materials as m
from lamwave.errors import DomainError, GentLocking, NoRoot

from conftest import generalized_shear_modulus, gent_bilaminate, strain_energy, uniaxial_first_invariant

KINDS_NL = ("yeoh", "fung-demiray", "gent")


def residual(lam, x, r):
    """The stretch balance residual at x (a float or an array) under the normalised load r,
    read off the solver's own probe."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return m._stretch_probe(lam, np.asarray(x, dtype=float), r)[1]


class InversionFailure(DomainError):
    """Coefficient calibration hit a singular inverse formula."""


def calibrate_from_gh(kind: str, g: float, h: float, stretch: float) -> lw.HyperelasticModel:
    """Recover model parameters from shear coefficients measured at a given stretch.

    Inverts :func:`lamwave.materials.shear_coefficients` for the requested model
    kind.  The intermediate ``beta_u = h / (3 stretch^2 g)`` is the exact
    Fung-Demiray nonlinearity; the Yeoh and Gent inverses follow from it.
    """
    kind = m.canonical_kind(kind)
    if not g > 0.0:
        raise DomainError(f"g must be positive, got {g}")
    if h < 0.0:
        raise DomainError(f"h must be non-negative, got {h}")
    d = m.uniaxial_invariant_excess(stretch)
    l2 = stretch * stretch
    beta_u = h / (3.0 * l2 * g)
    if h == 0.0:
        if kind == m.NEO_HOOKEAN:
            return lw.HyperelasticModel(kind, g / l2)
        return lw.HyperelasticModel(kind, g / l2, 0.0)
    if kind == m.NEO_HOOKEAN:
        raise InversionFailure("neo-Hookean model cannot produce h != 0")
    if kind == m.FUNG_DEMIRAY:
        return lw.HyperelasticModel(kind, g / l2 * math.exp(-beta_u * d), beta_u)
    if kind == m.YEOH:
        scale = 1.0 - beta_u * d
        if scale <= 0.0:
            raise InversionFailure(
                f"Yeoh inverse singular: 1/beta_u = {1.0 / beta_u:.6g} <= I1 - 3 = {d:.6g}"
            )
        return lw.HyperelasticModel(kind, g / l2 * scale, beta_u / scale)
    scale = 1.0 + beta_u * d
    return lw.HyperelasticModel(kind, g / l2 / scale, beta_u / scale)


def stiffness_ratio_curve(kind: str, r: float) -> float:
    """Tangent shear stiffness over g as a function of the normalised strain r.

    ``r^2 = gamma^2 h / g`` collapses all stretches onto a single curve per
    model family.
    """
    kind = m.canonical_kind(kind)
    x = r * r / 3.0
    if kind == m.NEO_HOOKEAN:
        return 1.0
    if kind == m.YEOH:
        return 1.0 + x
    if kind == m.FUNG_DEMIRAY:
        return math.exp(x)
    if x >= 1.0 - m.GENT_MARGIN:
        raise GentLocking(f"Gent stiffness ratio diverges at r^2 = 3, got r^2 = {r * r:.6g}")
    return 1.0 / (1.0 - x)


def is_gent_equal_beta(lam):
    """True when both phases are Gent with the same nonlinearity parameter."""
    m1, m2 = lam.phase1.model, lam.phase2.model
    return m1.kind == m.GENT and m2.kind == m.GENT and m1.beta == m2.beta and m1.beta > 0.0


def gent_equal_beta_stretch_roots(lam, rhs_norm):
    """Independent oracle: every admissible stretch root of an equal-beta Gent laminate.

    The balance reduces to a cubic in the stretch; roots are filtered to the
    positive axis and the Gent validity domain, and sorted ascending.
    """
    assert is_gent_equal_beta(lam)
    beta = lam.phase1.model.beta
    coeffs = [1.0 + beta * rhs_norm, 0.0, -rhs_norm * (1.0 + 3.0 * beta), 2.0 * beta * rhs_norm - 1.0]
    good = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        if x <= 0.0:
            continue
        if 1.0 - beta * (uniaxial_first_invariant(x) - 3.0) <= m.GENT_MARGIN:
            continue
        # reject spurious roots introduced by clearing denominators
        if abs(residual(lam, x, rhs_norm)) > 1e-6 * max(1.0, abs(rhs_norm)):
            continue
        good.append(x)
    return sorted(good)


def finite_difference_modulus(model, I1, step=1e-6):
    """Independent oracle: G = 2 dW/dI1 by central difference."""
    wp = strain_energy(model, I1 + step)
    wm = strain_energy(model, I1 - step)
    return (wp - wm) / step


class TestGeneralizedModulus:
    def test_neo_hookean_identity(self):
        assert generalized_shear_modulus(lw.HyperelasticModel("neo-hookean", 1e6), 3.0) == 1e6

    def test_gent_undeformed(self):
        gent = lw.HyperelasticModel("gent", 4.7e6, 0.0132)
        assert generalized_shear_modulus(gent, 3.0) == pytest.approx(4.7e6, rel=1e-14)

    def test_yeoh_value_and_energy_consistency(self):
        yeoh = lw.HyperelasticModel("yeoh", 2e6, 0.1)
        g = generalized_shear_modulus(yeoh, 4.0)
        assert g == pytest.approx(2.2e6, rel=1e-12)
        assert g == pytest.approx(finite_difference_modulus(yeoh, 4.0), rel=1e-7)

    @pytest.mark.parametrize("kind,beta", [("yeoh", 0.2), ("fung-demiray", 0.15), ("gent", 0.05)])
    def test_modulus_matches_energy_derivative(self, kind, beta):
        model = lw.HyperelasticModel(kind, 3.3e6, beta)
        for I1 in (3.001, 3.7, 5.2):
            assert generalized_shear_modulus(model, I1) == pytest.approx(
                finite_difference_modulus(model, I1), rel=1e-6
            )

    def test_gent_locking_raises(self):
        gent = lw.HyperelasticModel("gent", 1e6, 0.1)
        with pytest.raises(GentLocking):
            generalized_shear_modulus(gent, 3.0 + 10.0)

    def test_invariant_domain(self):
        with pytest.raises(DomainError):
            generalized_shear_modulus(lw.HyperelasticModel("yeoh", 1e6, 0.1), 2.5)


class TestShearCoefficients:
    def test_neo_hookean_limit(self):
        sc = m.shear_coefficients(lw.HyperelasticModel("yeoh", 2.5e6, 0.0), 1.0)
        assert sc.g == 2.5e6 and sc.h == 0.0

    def test_gent_undeformed(self):
        sc = m.shear_coefficients(lw.HyperelasticModel("gent", 4.7e6, 0.0132), 1.0)
        assert sc.g == pytest.approx(4.7e6, rel=1e-14)
        assert sc.h == pytest.approx(3.0 * 4.7e6 * 0.0132, rel=1e-12)  # 0.18612 MPa

    def test_gent_stretched(self):
        model = lw.HyperelasticModel("gent", 1e6, 0.05)
        lam = 1.2
        sc = m.shear_coefficients(model, lam)
        I1 = lam**2 + 2.0 / lam
        denom = 1.0 - 0.05 * (I1 - 3.0)
        assert sc.g == pytest.approx(lam**2 * 1e6 / denom, rel=1e-13)
        assert sc.h == pytest.approx(3.0 * lam**4 * 1e6 * 0.05 / denom**2, rel=1e-13)
        # derivative route as an independent check on h
        step = 1e-7
        gp = generalized_shear_modulus(model, I1 + step)
        gm = generalized_shear_modulus(model, I1 - step)
        assert sc.h == pytest.approx(3.0 * lam**4 * (gp - gm) / (2 * step), rel=1e-6)

    @pytest.mark.parametrize("kind, beta", [("neo-hookean", 0.0), ("yeoh", 0.0), ("gent", 0.0)])
    def test_h_is_zero_where_the_fourth_power_overflows(self, kind, beta):
        """G' = 0 gives h = 0 exactly, also where x^4 overflows (inf * 0 would be NaN),
        with the shape of the stretch."""
        model = lw.HyperelasticModel(kind, 4.7e6, beta)
        stretch = np.array([1.0, 7e149, 1e150])
        sc = m.shear_coefficients(model, stretch)
        assert sc.h.shape == (3,) and np.all(sc.h == 0.0)
        one = m.shear_coefficients(model, 1e150)
        assert type(one.h) is float and one.h == 0.0

    def test_positive_g_nonnegative_h(self):
        for kind in KINDS_NL:
            for stretch in (0.6, 1.0, 1.7):
                sc = m.shear_coefficients(lw.HyperelasticModel(kind, 2e6, 0.02), stretch)
                assert sc.g > 0.0 and sc.h >= 0.0


class TestCalibration:
    def test_zero_h_gives_neo_hookean_parameters(self):
        for kind in ("neo-hookean",) + KINDS_NL:
            model = calibrate_from_gh(kind, 3e6, 0.0, 1.3)
            assert model.beta == 0.0
            assert model.shear_modulus == pytest.approx(3e6 / 1.3**2, rel=1e-14)

    def test_fung_demiray_undeformed(self):
        model = calibrate_from_gh("fung-demiray", 4.7e6, 0.18612e6, 1.0)
        assert model.beta == pytest.approx(0.0132, rel=1e-12)
        assert model.shear_modulus == pytest.approx(4.7e6, rel=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(KINDS_NL),
        modulus=st.floats(1e4, 1e8),
        beta=st.floats(0.0, 0.4),
        stretch=st.floats(0.6, 1.8),
    )
    def test_round_trip(self, kind, modulus, beta, stretch):
        model = lw.HyperelasticModel(kind, modulus, beta)
        I1 = uniaxial_first_invariant(stretch)
        if kind == "gent" and beta * (I1 - 3.0) > 0.9:
            return  # too close to locking for a meaningful round trip
        sc = m.shear_coefficients(model, stretch)
        back = calibrate_from_gh(kind, sc.g, sc.h, stretch)
        assert back.shear_modulus == pytest.approx(modulus, rel=1e-12)
        assert back.beta == pytest.approx(beta, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "stretch", [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.0 + 1e-9, 0.99994, 1.00006, 0.3, 1.5, 7.0]
    )
    def test_invariant_excess_is_accurate(self, stretch):
        """I1 - 3 to a few eps relative, also where x^2 + 2/x - 3 cancels."""
        from fractions import Fraction

        x = Fraction(stretch)
        exact = x * x + 2 / x - 3
        got = m.uniaxial_invariant_excess(stretch)
        assert abs(Fraction(got) - exact) <= 4 * sys.float_info.epsilon * exact

    def test_yeoh_singular_inverse(self):
        # beta_u * (I1 - 3) = 1 makes the Yeoh inverse blow up
        stretch = 1.5
        I1 = uniaxial_first_invariant(stretch)
        g = 2e6
        h = 3.0 * stretch**2 * g / (I1 - 3.0)
        with pytest.raises(InversionFailure):
            calibrate_from_gh("yeoh", g, h, stretch)

    def test_neo_hookean_cannot_fit_h(self):
        with pytest.raises(InversionFailure):
            calibrate_from_gh("neo-hookean", 1e6, 1e4, 1.0)


class TestStiffnessRatio:
    def test_unit_at_zero(self):
        for kind in ("neo-hookean",) + KINDS_NL:
            assert stiffness_ratio_curve(kind, 0.0) == 1.0

    def test_yeoh_value(self):
        assert stiffness_ratio_curve("yeoh", 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_small_strain_agreement_is_quartic(self):
        for r in (1e-1, 1e-2, 1e-3):
            yeoh = stiffness_ratio_curve("yeoh", r)
            fd = stiffness_ratio_curve("fung-demiray", r)
            gent = stiffness_ratio_curve("gent", r)
            assert abs(yeoh - fd) <= 0.2 * r**4 + 1e-14
            assert abs(yeoh - gent) <= 0.2 * r**4 + 1e-14

    def test_gent_locking(self):
        with pytest.raises(GentLocking):
            stiffness_ratio_curve("gent", math.sqrt(3.0))


class TestMagnetoCoefficients:
    def test_homogeneous_magnetics(self):
        lam = gent_bilaminate()
        assert m.effective_permeability(lam) == pytest.approx(m.MU0, rel=1e-14)
        assert m.effective_remnant_induction(lam) == 0.0

    def test_harmonic_mean_permeability(self):
        import dataclasses

        base = gent_bilaminate()
        lam = lw.Laminate(
            dataclasses.replace(base.phase1, permeability=2 * m.MU0),
            dataclasses.replace(base.phase2, permeability=m.MU0),
            base.period,
        )
        assert m.effective_permeability(lam) == pytest.approx(4.0 / 3.0 * m.MU0, rel=1e-14)

    def test_average_modulus_undeformed(self):
        lam = gent_bilaminate()
        # 0.5 * 4.7 + 0.5 * 0.94 MPa
        assert m.average_shear_modulus(lam, 1.0) == pytest.approx(2.82e6, rel=1e-12)

    def test_remnant_induction_mixture(self):
        import dataclasses

        base = gent_bilaminate()
        lam = lw.Laminate(
            dataclasses.replace(base.phase1, remnant_induction=0.1),
            dataclasses.replace(base.phase2, remnant_induction=0.1),
            base.period,
        )
        assert m.effective_remnant_induction(lam) == pytest.approx(0.1, rel=1e-14)


class TestStretchFromField:
    def test_unloaded_is_identity(self):
        lam = gent_bilaminate()
        assert m.stretch_from_field(lam, lw.MagneticLoad(b=0.0)) == 1.0

    def test_load_product_endpoints(self):
        lam = gent_bilaminate()
        lo = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=-150.0))
        hi = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=150.0))
        assert lo == pytest.approx(0.032, rel=0.05)
        assert hi == pytest.approx(7.2, rel=0.05)

    def test_yeoh_small_load_linearisation(self):
        yeoh = lw.HyperelasticModel("yeoh", 2e6, 0.05)
        lam = lw.Laminate(
            lw.Phase(yeoh, 1000.0, 0.5),
            lw.Phase(lw.HyperelasticModel("yeoh", 1e6, 0.05), 1000.0, 0.5),
            0.01,
        )
        eps = 1e-6
        stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=eps))
        assert stretch - 1.0 == pytest.approx(eps / 3.0, rel=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        g1=st.floats(5e5, 2e7),
        ratio=st.floats(0.05, 0.9),
        beta=st.floats(0.0, 0.05),
        nu=st.floats(0.15, 0.85),
        rhs=st.floats(-30.0, 30.0),
        kind=st.sampled_from(("yeoh", "gent", "fung-demiray")),
    )
    def test_residual_of_returned_root(self, g1, ratio, beta, nu, rhs, kind):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel(kind, g1, beta), 1000.0, nu),
            lw.Phase(lw.HyperelasticModel(kind, ratio * g1, beta), 1200.0, 1.0 - nu),
            0.01,
        )
        try:
            stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        except NoRoot:
            return
        gbar = m.average_shear_modulus(lam, stretch)
        lhs = m.MU0 * gbar * (stretch**2 - 1.0 / stretch)
        target = rhs * m.MU0 * m.arithmetic_modulus(lam)
        scale = max(abs(lhs), abs(target), m.MU0 * gbar)
        assert abs(lhs - target) <= 1e-10 * scale

    def test_closed_form_matches_continuation(self):
        lam = gent_bilaminate()
        for rhs in (-150.0, -12.5, -0.3, 0.4, 17.0, 150.0):
            cont = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
            roots = gent_equal_beta_stretch_roots(lam, rhs)
            assert min(abs(r - cont) / cont for r in roots) < 1e-10

    def test_extreme_load_reports_locking_stretch(self):
        lam = gent_bilaminate()
        with pytest.raises(NoRoot) as err:
            m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=1e14))
        lock = err.value.locking_stretch
        assert lock is not None
        I1 = uniaxial_first_invariant(lock)
        assert 1.0 - 0.0132 * (I1 - 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_extreme_compression_reports_locking_stretch(self):
        lam = gent_bilaminate()
        with pytest.raises(NoRoot) as err:
            m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=-1e14))
        lock = err.value.locking_stretch
        assert lock is not None and lock < 1.0
        I1 = uniaxial_first_invariant(lock)
        assert 1.0 - 0.0132 * (I1 - 3.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("margin", [0.0, 2.0 * m.GENT_MARGIN])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.0132, 1e3])
    def test_locking_stretch_is_the_last_unlocked_float(self, beta, side, margin):
        """The locking stretch is the float, counted from 1, after which I1 - 3 first
        exceeds (1 - margin)/beta: the unlocked end of the flip."""
        x = m._locking_stretch(beta, side, margin)
        assert (x > 1.0) if side > 0 else (x < 1.0)
        d_lock = (1.0 - margin) / beta
        beyond = np.nextafter(x, math.inf if side > 0 else 0.0)
        assert m.uniaxial_invariant_excess(x) <= d_lock < m.uniaxial_invariant_excess(beyond)

    @pytest.mark.parametrize("rhs", [1e30, -1e30])
    def test_tiny_beta_locks_with_finite_stretch(self, rhs):
        """The lock stretch is bracketed and found where I1_lock is 1e16."""
        gent = lw.HyperelasticModel("gent", 1e6, 1e-16)
        lam = lw.Laminate(lw.Phase(gent, 1000.0, 0.5), lw.Phase(gent, 1000.0, 0.5), 0.01)
        with pytest.raises(NoRoot) as err:
            m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        lock = err.value.locking_stretch
        assert lock is not None and math.isfinite(lock) and lock > 0.0
        assert (lock > 1.0) == (rhs > 0.0)

    def test_infinite_load_locks(self):
        """bn^2 overflows to an infinite load; the solve reports the lock instead of looping."""
        base = gent_bilaminate()
        lam = lw.Laminate(
            lw.Phase(base.phase1.model, 930.0, 0.5, permeability=2.0 * m.MU0), base.phase2, base.period
        )
        assert m.dimensionless_load_rhs(lam, lw.MagneticLoad(b=1e300)) == math.inf
        with pytest.raises(NoRoot) as err:
            m.stretch_from_field(lam, lw.MagneticLoad(b=1e300))
        assert err.value.locking_stretch > 1.0

    def test_overflowing_tension_locks(self):
        """At r >= 9e307 the bracket end sqrt(1 + 2r) overflows; the row locks instead of failing."""
        model = lw.HyperelasticModel("neo-hookean", 1e6)
        lam = lw.Laminate(lw.Phase(model, 1000.0, 0.5), lw.Phase(model, 1000.0, 0.5), 0.01)
        with pytest.raises(NoRoot) as err:
            m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=9.5e307))
        assert err.value.locking_stretch is None

    @pytest.mark.parametrize("rhs", [-1.5e308, -1.79e308])
    def test_subnormal_root_solves(self, rhs):
        """Near r = -1.8e308 the root is a subnormal float, about -1/r."""
        model = lw.HyperelasticModel("neo-hookean", 1e6)
        lam = lw.Laminate(lw.Phase(model, 1000.0, 0.5), lw.Phase(model, 1000.0, 0.5), 0.01)
        stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        assert 0.0 < stretch < sys.float_info.min
        assert stretch == pytest.approx(-1.0 / rhs, rel=1e-12)

    def test_infinite_load_locks_without_gent(self):
        """bn^2 overflows on a Yeoh stack, where the residual at the bracket end is NaN."""
        yeoh = lw.HyperelasticModel("yeoh", 1e6, 0.05)
        lam = lw.Laminate(
            lw.Phase(yeoh, 1000.0, 0.5, permeability=2.0 * m.MU0), lw.Phase(yeoh, 1000.0, 0.5), 0.01
        )
        assert m.dimensionless_load_rhs(lam, lw.MagneticLoad(b=1e300)) == math.inf
        with pytest.raises(NoRoot):
            m.stretch_from_field(lam, lw.MagneticLoad(b=1e300))

    @pytest.mark.parametrize("rhs", [1e-130, -1e-130])
    def test_load_below_resolution_is_identity(self, rhs):
        assert m.stretch_from_field(gent_bilaminate(), lw.MagneticLoad(bn_br_product=rhs)) == 1.0

    @pytest.mark.parametrize("rhs", [1e14, -1e14])
    def test_root_next_to_gent_lock(self, rhs):
        """A root whose Gent denominator is about 1e-8 is found, not reported as locked."""
        gent = lw.HyperelasticModel("gent", 4.7e6, 1e-6)
        lam = lw.Laminate(
            lw.Phase(gent, 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("gent", 0.94e6, 1e-6), 930.0, 0.5),
            0.01,
        )
        stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        assert 0.0 < 1.0 - 1e-6 * (uniaxial_first_invariant(stretch) - 3.0) < 1e-6
        # the residual is too steep here to vanish in floats; it changes sign within 8 eps
        eps8 = 8.0 * 2.0**-52
        assert residual(lam, stretch * (1.0 - eps8), rhs) < 0.0
        assert residual(lam, stretch * (1.0 + eps8), rhs) > 0.0

    @pytest.mark.parametrize("rhs", [-150.0, 150.0])
    def test_stiff_gent_root_next_to_unit_stretch(self, rhs):
        """Gent beta 1e8 puts the root within 6e-5 of stretch 1, where x^2 + 2/x - 3 cancels.

        Computed that way, I1 - 3 kept about 7 significant digits there, and
        at r = -150 the solve returned a stretch with residual +0.78.
        """
        gent = lw.HyperelasticModel("gent", 4.7e6, 1e8)
        lam = lw.Laminate(
            lw.Phase(gent, 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("gent", 0.94e6, 1e8), 930.0, 0.5),
            0.01,
        )
        try:
            stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        except NoRoot:
            return
        eps8 = 8.0 * 2.0**-52
        assert residual(lam, stretch * (1.0 - eps8), rhs) <= 0.0
        assert residual(lam, stretch * (1.0 + eps8), rhs) >= 0.0

    @pytest.mark.parametrize(
        "kind, beta, rhs",
        [
            # exp(beta*(I1 - 3)) overflows at the bracket end, not at the root
            ("fung-demiray", 8.0, 95.0),
            ("fung-demiray", 8.0, -95.0),
            # the root lies hundreds of binary orders from one bracket end
            ("neo-hookean", 0.0, -1e300),
            ("yeoh", 0.05, 1e300),
        ],
    )
    def test_extreme_loads_solve(self, kind, beta, rhs):
        model = lw.HyperelasticModel(kind, 1e6, beta)
        lam = lw.Laminate(lw.Phase(model, 1000.0, 0.5), lw.Phase(model, 1000.0, 0.5), 0.01)
        stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
        eps8 = 8.0 * 2.0**-52
        assert residual(lam, stretch * (1.0 - eps8), rhs) < 0.0
        assert residual(lam, stretch * (1.0 + eps8), rhs) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(m.KINDS),
        g1=st.floats(1e5, 1e7),
        g2=st.floats(1e5, 1e7),
        beta=st.floats(0.0, 0.05),
        nu=st.floats(0.05, 0.95),
        x=st.floats(0.05, 20.0),
        ratio=st.floats(1.0 + 1e-6, 2.0),
    )
    def test_residual_strictly_increasing(self, kind, g1, g2, beta, nu, x, ratio):
        """The balance residual rises wherever it is defined, so its root is unique."""
        beta = 0.0 if kind == "neo-hookean" else beta
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel(kind, g1, beta), 1000.0, nu),
            lw.Phase(lw.HyperelasticModel(kind, g2, beta), 1000.0, 1.0 - nu),
            0.01,
        )
        try:
            lo, hi = residual(lam, x, 0.0), residual(lam, x * ratio, 0.0)
        except GentLocking:  # outside the Gent validity domain
            return
        assert lo < hi

    def test_equal_beta_cubic_has_one_root(self):
        lam = gent_bilaminate()
        magnitudes = [10.0**e for e in range(-9, 3)] + [150.0 * k / 100 for k in range(1, 101)]
        for rhs in [s * v for v in magnitudes for s in (1.0, -1.0)]:
            roots = gent_equal_beta_stretch_roots(lam, rhs)
            assert len(roots) == 1
            stretch = m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=rhs))
            assert abs(roots[0] - stretch) <= 1e-12 * stretch

    def test_normalization_scales(self):
        """At b = 0.5 b_scale the load is the closed form (1 - mu0/mu_breve) bn^2 + bn br_n
        at bn = 0.5; a phase of twice the vacuum permeability gives mu_breve = 4/3 mu0."""
        base = gent_bilaminate()
        lam = lw.Laminate(
            lw.Phase(base.phase1.model, 930.0, 0.5, permeability=2.0 * m.MU0),
            lw.Phase(base.phase2.model, 930.0, 0.5, remnant_induction=0.1),
            base.period,
        )
        norm = m.load_normalization(lam)
        assert norm.b_scale == pytest.approx(math.sqrt(m.MU0 * 2.82e6), rel=1e-12)
        assert norm.br_n != 0.0
        rhs = m.dimensionless_load_rhs(lam, lw.MagneticLoad(b=0.5 * norm.b_scale))
        assert rhs == pytest.approx((1.0 - 0.75) * 0.5**2 + 0.5 * norm.br_n, rel=1e-12)


def uniform_stack(kind: str, beta: float = 0.0) -> lw.Laminate:
    """Two phases of one model kind, 4.7 and 0.94 MPa, as in the paper stack."""
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel(kind, 4.7e6, beta), 930.0, 0.5),
        lw.Phase(lw.HyperelasticModel(kind, 0.94e6, beta), 930.0, 0.5),
        0.01,
    )


#: one stack of each model kind, with the paper's Gent beta and moderate Yeoh/Fung-Demiray beta
STACKS = {kind: uniform_stack(kind, beta) for kind, beta in
          (("neo-hookean", 0.0), ("yeoh", 0.05), ("fung-demiray", 0.3), ("gent", 0.0132))}


def random_loads(seed: int, n: int = 30) -> np.ndarray:
    """Loads of both signs over twelve decades, plus zero."""
    rng = np.random.default_rng(seed)
    return np.append(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 4.0, n), 0.0)


def one_row_outcome(lam, r: float):
    """The stretch of the one-row call, or its NoRoot's message and locking stretch."""
    try:
        return m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=r))
    except NoRoot as exc:
        return str(exc), exc.locking_stretch


def batched_outcome(stretch: np.ndarray, errors: dict, i: int):
    if i in errors:
        assert math.isnan(stretch[i])
        return str(errors[i]), errors[i].locking_stretch
    return float(stretch[i])


class TestStretchRoots:
    """The batched stretch solve: every row gets the outcome of its one-row call."""

    def test_bench_sweep_rows_match_one_row_calls(self):
        lam = gent_bilaminate()
        loads = np.linspace(-3.0, 3.0, 201)  # the seed-0 bench magnetic sweep
        stretch, errors = m.stretch_roots(lam, loads)
        assert not errors
        for x, r in zip(stretch.tolist(), loads.tolist()):
            assert x == m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=r))

    @pytest.mark.parametrize("kind", sorted(STACKS))
    def test_random_loads_match_one_row_calls(self, kind):
        lam, loads = STACKS[kind], random_loads(7)
        stretch, errors = m.stretch_roots(lam, loads)
        for i, r in enumerate(loads.tolist()):
            assert batched_outcome(stretch, errors, i) == one_row_outcome(lam, r)

    @pytest.mark.parametrize("kind", sorted(STACKS))
    def test_residual_changes_sign_at_the_next_float(self, kind):
        """The returned stretch is the last float where the residual is <= 0."""
        lam, loads = STACKS[kind], random_loads(8, 1000)
        stretch, errors = m.stretch_roots(lam, loads)
        assert not errors
        up = np.nextafter(stretch, np.inf)
        assert (residual(lam, stretch, loads) <= 0.0).all()
        assert (residual(lam, up, loads) > 0.0).all()

    @pytest.mark.parametrize("kind", ["neo-hookean", "gent"])
    def test_mixed_rows_keep_their_own_outcome(self, kind):
        """Ordinary, Gent-locked, overflowing, infinite and subnormal-root loads in one call."""
        lam = STACKS[kind]
        loads = [0.4, -2.0, 1e14, -1e14, 9.5e307, math.inf, -math.inf, -1.5e308, 0.0, math.nan]
        stretch, errors = m.stretch_roots(lam, loads)
        for i, r in enumerate(loads):
            alone = m.stretch_roots(lam, [r])
            assert batched_outcome(stretch, errors, i) == batched_outcome(*alone, 0)
            if math.isfinite(r):
                assert batched_outcome(stretch, errors, i) == one_row_outcome(lam, r)
        locked = {i for i, e in errors.items() if e.locking_stretch is not None}
        if kind == "gent":
            assert locked == {2, 3, 4, 5, 6, 7} and set(errors) == locked | {9}
        else:
            assert not locked and set(errors) == {4, 5, 6, 9}
            assert 0.0 < stretch[7] < sys.float_info.min  # the subnormal root solves
        assert stretch[8] == 1.0

    @pytest.mark.parametrize("r", [-1.7e308, -1e308, -5e307, -1e307, 5e307])
    def test_overflowing_residual_is_no_root(self, r):
        """On a Fung-Demiray stack near |r| = 1e308 the residual's sign flips to or from
        an infinite value: an overflow, which both calls report as a NoRoot."""
        lam = STACKS["fung-demiray"]
        stretch, errors = m.stretch_roots(lam, [r, 1e300, -1e300])
        assert math.isnan(stretch[0]) and set(errors) == {0}
        assert "overflows" in str(errors[0]) and errors[0].locking_stretch is None
        assert np.isfinite(stretch[1:]).all()
        with pytest.raises(NoRoot, match="overflows"):
            m.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=r))


class TestValidation:
    def test_volume_fractions_must_sum(self):
        nh = lw.HyperelasticModel("neo-hookean", 1e6)
        with pytest.raises(DomainError):
            lw.Laminate(lw.Phase(nh, 1000.0, 0.5), lw.Phase(nh, 1000.0, 0.6), 0.01)

    def test_load_needs_exactly_one_field(self):
        with pytest.raises(DomainError):
            lw.MagneticLoad(b=1.0, bn_br_product=1.0)
        with pytest.raises(DomainError):
            lw.MagneticLoad()

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            lw.HyperelasticModel("ogden", 1e6)

    @pytest.mark.parametrize(
        "field, value",
        [
            (f, v)
            for f in ("shear_modulus", "beta", "density", "volume_fraction",
                      "permeability", "remnant_induction")
            for v in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_non_finite_material_data_rejected(self, field, value):
        """A NaN or infinite entry would otherwise hang the stretch solve."""
        model = {"kind": "gent", "shear_modulus": 1e6, "beta": 0.01}
        phase = {"density": 1000.0, "volume_fraction": 0.5}
        (model if field in model else phase)[field] = value
        with pytest.raises(DomainError, match="finite"):
            lw.Phase(lw.HyperelasticModel(**model), **phase)
