"""Tunability sweeps: magnetic load, volume fraction, modulus contrast."""

import math

import numpy as np
import pytest

from lamwave import sweeps
from lamwave.errors import DomainError


class TestSpec:
    def test_variable_validation(self):
        with pytest.raises(DomainError):
            sweeps.SweepSpec("temperature", 0.0, 1.0)
        with pytest.raises(DomainError):
            sweeps.SweepSpec("volume_fraction_2", 0.0, 0.9)
        with pytest.raises(DomainError):
            sweeps.SweepSpec("magnetic_load_product", 2.0, 1.0)

    def test_contrast_grid_has_exact_reciprocals(self):
        spec = sweeps.SweepSpec("modulus_contrast", 0.1, 10.0, 21)
        grid = spec.grid()
        assert grid[0] == pytest.approx(0.1, rel=1e-12)
        assert grid[-1] == pytest.approx(10.0, rel=1e-12)


@pytest.fixture(scope="module")
def magnetic_result(bilam):
    spec = sweeps.SweepSpec("magnetic_load_product", -150.0, 150.0, 121)
    return sweeps.sweep_magnetic(bilam, spec)


@pytest.fixture(scope="module")
def volume_result(bilam):
    spec = sweeps.SweepSpec("volume_fraction_2", 0.02, 0.98, 97)
    return sweeps.sweep_volume_fraction(bilam, spec)


@pytest.fixture(scope="module")
def contrast_result(bilam):
    spec = sweeps.SweepSpec("modulus_contrast", 0.05, 20.0, 41)
    return sweeps.sweep_contrast(bilam, spec)


class TestMagneticSweep:
    @pytest.fixture
    def result(self, magnetic_result):
        return magnetic_result

    def test_stretch_endpoints(self, result):
        stretch = result.column("stretch")
        assert stretch[0] == pytest.approx(0.032, rel=0.05)
        assert stretch[-1] == pytest.approx(7.2, rel=0.05)

    def test_zero_load_row_is_undeformed(self, result):
        i = int(np.argmin(np.abs(result.values)))
        assert result.values[i] == 0.0
        assert result.rows[i]["stretch"] == pytest.approx(1.0, abs=1e-12)
        assert result.rows[i]["gap_homog_lo"] == pytest.approx(0.84 * math.pi, abs=0.02)

    def test_eta_constant_for_equal_beta(self, result):
        eta = result.column("eta")
        ok = eta[np.isfinite(eta)]
        assert ok.max() - ok.min() < 1e-12

    def test_gap_center_smooth(self, result):
        lo = result.column("gap_exact_lo")
        hi = result.column("gap_exact_hi")
        center = 0.5 * (lo + hi)
        assert np.all(np.isfinite(center))
        # smooth: second differences stay small relative to the range
        d2 = np.abs(np.diff(center, 2))
        assert d2.max() < 0.05 * (center.max() - center.min())

    def test_speed_bound_monotone_in_stretch(self, result):
        """max speed rises with stretch above the analytic turning point ~0.038."""
        stretch = result.column("stretch")
        bound = result.column("max_speed_ratio")
        sel = stretch > 0.05
        s, b = stretch[sel], bound[sel]
        order = np.argsort(s)
        assert np.all(np.diff(b[order]) > 0)

    def test_speed_and_strain_bounds_trend_inversely(self, result):
        stretch = result.column("stretch")
        speed = result.column("max_speed_ratio")
        strain = result.column("max_strain")
        order = np.argsort(stretch)
        ds = np.diff(speed[order])
        da = np.diff(strain[order])
        both = (np.abs(ds) > 1e-12) & (np.abs(da) > 1e-12)
        assert np.all(np.sign(ds[both]) == -np.sign(da[both]))

    def test_no_locked_rows_in_this_range(self, result):
        assert result.summary["n_locked"] == 0

    def test_locking_rows_flagged_not_fatal(self, bilam):
        """Loads beyond the Gent validity limit flag the row instead of aborting."""
        spec = sweeps.SweepSpec("magnetic_load_product", -1e14, 1e14, 3)
        res = sweeps.sweep_magnetic(bilam, spec)
        assert res.summary["n_locked"] == 2
        assert res.rows[0]["locked"] == 1 and res.rows[-1]["locked"] == 1
        assert math.isnan(res.rows[0]["stretch"])
        assert res.rows[1]["locked"] == 0  # the zero-load midpoint survives


class TestVolumeFractionSweep:
    @pytest.fixture
    def result(self, volume_result):
        return volume_result

    def test_eta_argmax_matches_speed_ratio(self, result):
        assert result.summary["argmax_eta"] == pytest.approx(
            result.summary["speed_ratio_prediction"], abs=1e-4
        )
        assert result.summary["argmax_eta"] == pytest.approx(0.31, abs=0.01)

    def test_strain_argmax(self, result):
        assert result.summary["argmax_max_strain"] == pytest.approx(0.42, abs=0.02)

    def test_homogeneous_limits(self, result, bilam):
        eta = result.column("eta")
        assert eta[0] < 1e-3 and eta[-1] < 1e-3
        # the first gap closes monotonically toward the pure-phase limit
        spec = sweeps.SweepSpec("volume_fraction_2", 0.002, 0.1, 4)
        edge = sweeps.sweep_volume_fraction(bilam, spec)
        widths = edge.column("gap_exact_hi") - edge.column("gap_exact_lo")
        assert np.all(np.diff(widths) > 0)
        assert widths[0] < 0.05


class TestContrastSweep:
    @pytest.fixture
    def result(self, contrast_result):
        return contrast_result

    def test_unit_contrast_degenerates(self, result):
        i = int(np.argmin(np.abs(result.values - 1.0)))
        row = result.rows[i]
        assert row["eta"] < 1e-25
        assert row["max_speed_ratio"] == pytest.approx(1.0, abs=1e-9) or math.isnan(
            row["max_speed_ratio"]
        )

    def test_inversion_symmetry(self, result):
        """Dimensionless outputs coincide for contrast c and 1/c."""
        n = len(result.rows)
        for key in ("eta", "zeta", "gap_exact_lo", "gap_exact_hi", "max_strain"):
            col = result.column(key)
            forward = col
            backward = col[::-1]
            ok = np.isfinite(forward) & np.isfinite(backward)
            assert np.allclose(forward[ok], backward[ok], rtol=0.0, atol=1e-10)

    def test_benchmark_contrast_row(self, bilam, eff):
        spec = sweeps.SweepSpec("modulus_contrast", 0.02, 2.0, 3)  # middle node is 0.2
        result = sweeps.sweep_contrast(bilam, spec)
        assert result.values[1] == pytest.approx(0.2, rel=1e-12)
        assert result.rows[1]["eta"] == pytest.approx(eff.eta, rel=1e-9)
        assert result.rows[1]["zeta"] == pytest.approx(eff.zeta, rel=1e-9)

    def test_gap_widens_away_from_unity(self, result):
        width = result.column("gap_exact_hi") - result.column("gap_exact_lo")
        i_mid = int(np.argmin(np.abs(result.values - 1.0)))
        assert width[0] > width[i_mid] or not np.isfinite(width[i_mid])
        assert width[-1] > np.nan_to_num(width[i_mid])


class TestTableEmission:
    def test_sweep_table_round_trip(self, bilam):
        spec = sweeps.SweepSpec("volume_fraction_2", 0.2, 0.8, 5)
        result = sweeps.sweep_volume_fraction(bilam, spec)
        header, rows = sweeps.sweep_table(result)
        assert "volume_fraction_2" in header and "eta" in header
        assert len(rows) == 5
        assert all(len(r) == len(header) for r in rows)
