"""Tunability sweeps: magnetic load, volume fraction, modulus contrast."""

import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamwave import cli, dispersion, homogenize, materials, soliton, sweeps
from lamwave.errors import DomainError, LamwaveError
from lamwave.homogenize import EffectiveModel, cell_state, effective_model

from conftest import EDGE_TOL, Cell, columns, oracle_gaps, with_contrast, with_volume_fraction


class TestSpec:
    def test_variable_validation(self):
        """sweeps.grid keeps the range rules that the params table cannot state."""
        with pytest.raises(DomainError):
            sweeps.grid("volume_fraction_2", 0.0, 0.9, 201)
        with pytest.raises(DomainError):
            sweeps.grid("magnetic_load_product", 2.0, 1.0, 201)
        with pytest.raises(DomainError):
            sweeps.grid("modulus_contrast", 0.0, 2.0, 201)

    def test_contrast_grid_has_exact_reciprocals(self):
        grid = sweeps.grid("modulus_contrast", 0.1, 10.0, 21)
        assert grid[0] == pytest.approx(0.1, rel=1e-12)
        assert grid[-1] == pytest.approx(10.0, rel=1e-12)


@pytest.fixture(scope="module")
def magnetic_result(bilam):
    return sweeps.sweep_magnetic(bilam, sweeps.grid("magnetic_load_product", -150.0, 150.0, 121))


@pytest.fixture(scope="module")
def volume_result(bilam):
    return sweeps.sweep_volume_fraction(bilam, sweeps.grid("volume_fraction_2", 0.02, 0.98, 97))


@pytest.fixture(scope="module")
def contrast_result(bilam):
    return sweeps.sweep_contrast(bilam, sweeps.grid("modulus_contrast", 0.05, 20.0, 41))


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
        assert result.column("stretch")[i] == pytest.approx(1.0, abs=1e-12)
        assert result.column("gap_homog_lo")[i] == pytest.approx(0.84 * math.pi, abs=0.02)

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
        res = sweeps.sweep_magnetic(bilam, sweeps.grid("magnetic_load_product", -1e14, 1e14, 3))
        assert res.summary["n_locked"] == 2
        assert res.column("locked").tolist() == [1, 0, 1]  # the zero-load midpoint survives
        assert math.isnan(res.column("stretch")[0])

    @pytest.mark.parametrize("kind, beta", [("neo-hookean", None), ("yeoh", 0.0132)])
    def test_underflowing_stretch_flagged_not_fatal(self, tmp_path, kind, beta):
        """On a stack with no lock, a load near -1e300 gives a stretch whose fourth power
        underflows: the run exits 0, that row is flagged locked with a note naming the
        underflow, and every other row is the one its own cell state gives.  Near +1e300
        x^4 overflows, and zeta stays finite (0 on the neo-Hookean stack, where G' = 0).
        The columns come in the order of a sweep with no locked row."""
        phases = [{"model": {"kind": kind, "G_pa": g, **({"beta": beta} if beta else {})},
                   "rho": 930.0, "nu": 0.5} for g in (4.7e6, 0.94e6)]
        payload = {"command": "sweep", "laminate": {"phases": phases, "period_m": 0.01},
                   "params": {"variable": "magnetic_load_product", "lo": -1e300, "hi": 1e300, "n": 5}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(path, tmp_path / "out") == 0
        (table,) = (tmp_path / "out").glob("sweep_*.csv")
        header, row0 = [line for line in table.read_text().splitlines() if line[0] != "#"][:2]
        assert dict(zip(header.split(","), row0.split(",")))["locked"] == "1"

        lam = cli.laminate_from_config(payload["laminate"])
        unlocked = sweeps.sweep_magnetic(lam, sweeps.grid("magnetic_load_product", 0.0, 1.0, 3))
        assert header.split(",") == list(unlocked.columns)
        result = sweeps.sweep_magnetic(lam, sweeps.grid(**payload["params"]))
        assert result.summary["locked_notes"][0]["load_product"] == -1e300
        assert "underflows" in result.summary["locked_notes"][0]["note"]
        zeta = result.column("zeta")[result.column("locked") == 0]
        assert zeta.size and np.isfinite(zeta).all()
        if kind == "neo-hookean":
            assert (zeta == 0.0).all()
        assert result.summary["n_locked"] == result.column("locked").sum() < 5
        for row, want in zip(rows_of(result), _per_row(lam, result)):
            for key, value in (want or {}).items():
                assert row[key] == pytest.approx(value, rel=COLUMN_RTOL, abs=0.0, nan_ok=True), key


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
        edge = sweeps.sweep_volume_fraction(bilam, sweeps.grid("volume_fraction_2", 0.002, 0.1, 4))
        widths = edge.column("gap_exact_hi") - edge.column("gap_exact_lo")
        assert np.all(np.diff(widths) > 0)
        assert widths[0] < 0.05


class TestContrastSweep:
    @pytest.fixture
    def result(self, contrast_result):
        return contrast_result

    def test_unit_contrast_degenerates(self, result):
        i = int(np.argmin(np.abs(result.values - 1.0)))
        row = rows_of(result)[i]
        assert row["eta"] < 1e-25
        assert row["max_speed_ratio"] == pytest.approx(1.0, abs=1e-9) or math.isnan(
            row["max_speed_ratio"]
        )

    def test_inversion_symmetry(self, result):
        """Dimensionless outputs coincide for contrast c and 1/c."""
        for key in ("eta", "zeta", "gap_exact_lo", "gap_exact_hi", "max_strain"):
            col = result.column(key)
            forward = col
            backward = col[::-1]
            ok = np.isfinite(forward) & np.isfinite(backward)
            assert np.allclose(forward[ok], backward[ok], rtol=0.0, atol=1e-10)

    def test_benchmark_contrast_row(self, bilam, eff):
        result = sweeps.sweep_contrast(bilam, sweeps.grid("modulus_contrast", 0.02, 2.0, 3))  # middle node 0.2
        assert result.values[1] == pytest.approx(0.2, rel=1e-12)
        assert result.column("eta")[1] == pytest.approx(eff.eta, rel=1e-9)
        assert result.column("zeta")[1] == pytest.approx(eff.zeta, rel=1e-9)

    def test_gap_widens_away_from_unity(self, result):
        width = result.column("gap_exact_hi") - result.column("gap_exact_lo")
        i_mid = int(np.argmin(np.abs(result.values - 1.0)))
        assert width[0] > width[i_mid] or not np.isfinite(width[i_mid])
        assert width[-1] > np.nan_to_num(width[i_mid])


#: the paper stack with phase 1 a hundred times denser: its own eta, 0.0565, is at least
#: 1/(2 pi^2), so the undeformed cell has no optimised dispersion triple
DENSE_STACK = {"phases": [{"model": {"kind": "Gent", "G_pa": 4.7e6, "beta": 0.0132}, "rho": 93000.0, "nu": 0.5},
                          {"model": {"kind": "Gent", "G_pa": 0.94e6, "beta": 0.0132}, "rho": 930.0, "nu": 0.5}],
               "period_m": 0.01}


class TestTooDispersiveStack:
    @pytest.mark.parametrize("variable, lo, hi", [("magnetic_load_product", -1.0, 1.0),
                                                  ("volume_fraction_2", 0.2, 0.8)])
    def test_sweep_keeps_its_rows(self, tmp_path, variable, lo, hi):
        """A sweep of a stack whose undeformed cell is too dispersive for the optimised triple
        exits 0: it reads c0 and the speed-ratio prediction from its own column state.  Its
        rows with eta >= 1/(2 pi^2) have NaN homogenised gaps and soliton bounds, and finite
        exact gaps; the volume-fraction rows below that eta keep every column."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"command": "sweep", "laminate": DENSE_STACK,
                                    "params": {"variable": variable, "lo": lo, "hi": hi, "n": 13}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(path, tmp_path / "out") == 0
        result = SWEEP_FUNCTIONS[variable](cli.laminate_from_config(DENSE_STACK), sweeps.grid(variable, lo, hi, 13))
        strong = result.column("eta") >= homogenize.ETA_Y_OPT
        assert strong.any() and (variable == "magnetic_load_product") == strong.all()
        for key in ("gap_homog_lo", "gap_homog_hi", "max_speed_ratio", "max_strain"):
            assert np.isnan(result.column(key)[strong]).all() and np.isfinite(result.column(key)[~strong]).all()
        for key in ("gap_exact_lo", "gap_exact_hi", "eta", "zeta"):
            assert np.isfinite(result.column(key)).all()
        if variable == "volume_fraction_2":  # eta peaks on the last row, whose one cell has no triple
            assert result.summary["argmax_eta"] is None and "argmax_eta" in result.summary["note"]


class TestTableEmission:
    def test_sweep_table_round_trip(self, bilam):
        """The sweep's columns are the CSV table: one name and one full column per entry."""
        result = sweeps.sweep_volume_fraction(bilam, sweeps.grid("volume_fraction_2", 0.2, 0.8, 5))
        assert "volume_fraction_2" in result.columns and "eta" in result.columns
        assert all(len(c) == 5 for c in result.columns.values())


def rows_of(result) -> list[dict]:
    """The sweep's rows, one dict of column values each."""
    return [dict(zip(result.columns, row)) for row in zip(*(c.tolist() for c in result.columns.values()))]


#: scan of the oracle below: its ceiling and frequency count (omega*ell/c)
ORACLE_OMEGA_MAX = 3.0 * math.pi
ORACLE_N_SCAN = 4000


def _oracle_first_gap(st, omega_max=ORACLE_OMEGA_MAX, n_scan=ORACLE_N_SCAN) -> tuple[float, float]:
    """Gap 1 by an independent route (the all-gaps scan oracle), NaN where it sees none."""
    return next(((lo, hi) for n, lo, hi in oracle_gaps(st, omega_max, n_scan) if n == 1),
                (math.nan, math.nan))


def _row_states(lam, result) -> list:
    """(cell state, frequency scale) of every sweep row; None for a locked row."""
    if result.variable == "magnetic_load_product":
        c0 = effective_model(lam, 1.0).c
        out = []
        for row in rows_of(result):
            if row["locked"]:
                out.append(None)
                continue
            st = cell_state(lam, row["stretch"])
            out.append((st, st.eff.c / (row["stretch"] * c0)))
        return out
    variant = {"volume_fraction_2": with_volume_fraction,
               "modulus_contrast": with_contrast}[result.variable]
    return [(cell_state(variant(lam, float(x)), 1.0), 1.0) for x in result.values]


SWEEP_FUNCTIONS = {
    "magnetic_load_product": sweeps.sweep_magnetic,
    "volume_fraction_2": sweeps.sweep_volume_fraction,
    "modulus_contrast": sweeps.sweep_contrast,
}


class TestBatchedFirstGaps:
    @pytest.mark.parametrize(
        "variable, lo, hi, n, ceiling, covers",
        [
            ("magnetic_load_product", -1e14, 1e14, 3, ORACLE_OMEGA_MAX, {"locked"}),
            ("magnetic_load_product", -3.0, 3.0, 13, ORACLE_OMEGA_MAX, set()),
            ("volume_fraction_2", 0.02, 0.98, 25, ORACLE_OMEGA_MAX, set()),
            # first gaps that a scan to pi would have cut are reported in full
            ("volume_fraction_2", 0.02, 0.98, 25, math.pi, {"above ceiling"}),
            # row 100 is contrast 1, with no gap
            ("modulus_contrast", 0.1, 10.0, 201, ORACLE_OMEGA_MAX, {"no gap"}),
        ],
        ids=["magnetic-locked", "magnetic", "volume", "volume-ceiling", "contrast"],
    )
    def test_rows_match_brent_oracle(self, bilam, variable, lo, hi, n, ceiling, covers):
        """Every row's first exact gap matches the per-row Brent refinement to EDGE_TOL,
        also where it runs past a ceiling that a fixed scan would have cut it at."""
        result = SWEEP_FUNCTIONS[variable](bilam, sweeps.grid(variable, lo, hi, n))
        seen = set()
        for row, state in zip(rows_of(result), _row_states(bilam, result)):
            got = (row["gap_exact_lo"], row["gap_exact_hi"])
            if state is None:
                assert all(math.isnan(x) for x in got)
                seen.add("locked")
                continue
            st, scale = state
            want = _oracle_first_gap(st)
            if math.isnan(want[0]):
                assert all(math.isnan(x) for x in got)
                seen.add("no gap")
                continue
            assert want[1] < ORACLE_OMEGA_MAX  # the oracle saw the whole gap
            for g, o in zip(got, want):
                assert abs(g - o * scale) <= EDGE_TOL * scale
            if want[1] > ceiling:
                assert got[1] > ceiling * scale
                seen.add("above ceiling")
        assert covers <= seen

    def test_first_gap_above_old_ceiling(self):
        """A high-contrast cell with thin layers: the first gap runs to 3.97 pi, past the
        3 pi ceiling of the former scan, and is reported in full, not cut at the ceiling."""
        cell = Cell(t1=0.05, t2=0.25, z1=30.0, z2=1.0)
        (lo,), (hi,) = dispersion.band_gap_edges(cell, 1)
        want = _oracle_first_gap(cell, omega_max=6.0 * math.pi, n_scan=20_000)
        assert want[1] > 3.9 * math.pi
        assert lo == pytest.approx(want[0], abs=EDGE_TOL)
        assert hi == pytest.approx(want[1], abs=EDGE_TOL)

    def test_search_cost_does_not_grow_with_rows(self, bilam, monkeypatch):
        """One batched search per sweep: few Bloch evaluations, one cell state per row."""
        calls = {"cosine": 0, "shear": 0}
        cosine = dispersion.bloch_cosine
        factors = dispersion._rytov_factors
        shear = materials.shear_coefficients

        def counted_cosine(*args):
            calls["cosine"] += 1
            return cosine(*args)

        def counted_factors(*args):
            calls["cosine"] += 1
            return factors(*args)

        def counted_shear(*args, **kwargs):
            calls["shear"] += 1
            return shear(*args, **kwargs)

        monkeypatch.setattr(dispersion, "bloch_cosine", counted_cosine)
        monkeypatch.setattr(dispersion, "_rytov_factors", counted_factors)
        for name, mod in list(sys.modules.items()):
            if name.startswith("lamwave") and getattr(mod, "shear_coefficients", None) is shear:
                monkeypatch.setattr(mod, "shear_coefficients", counted_shear)
        counts = {}
        for n in (21, 201):
            calls.update(cosine=0, shear=0)
            sweeps.sweep_contrast(bilam, sweeps.grid("modulus_contrast", 0.1, 10.0, n))
            counts[n] = dict(calls)
        assert 0 < counts[201]["cosine"] < 201
        assert counts[201]["cosine"] <= 2 * counts[21]["cosine"]
        assert counts[201]["shear"] <= 2 * 201

    def test_search_memory_stays_in_slabs(self, bilam):
        """The search never holds a rows x frequencies matrix (201 x 4001 floats is 6.4 MB)."""
        values = sweeps.grid("modulus_contrast", 0.1, 10.0, 201)
        sweeps.sweep_contrast(bilam, sweeps.grid("modulus_contrast", 0.1, 10.0, 3))
        tracemalloc.start()
        try:
            sweeps.sweep_contrast(bilam, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


#: largest relative move of a sweep column against the per-row evaluation: the
#: column arithmetic differs from one row's floats only in numpy's rounding of x**4
#: and x**2, about 1 ulp, which the band-gap and soliton formulas amplify a few times
COLUMN_RTOL = 1e-14

#: the seed-0 bench sweeps, at their default 201 rows
BENCH_SWEEPS = [("magnetic_load_product", -3.0, 3.0), ("volume_fraction_2", 0.05, 0.95),
                ("modulus_contrast", 0.1, 10.0)]


def _per_row(lam, result) -> list[dict]:
    """Every row's fields from its own laminate and scalar cell state, as a row-by-row sweep
    would compute them (the first gaps of all rows in one search: it treats rows apart)."""
    c0 = effective_model(lam, 1.0).c if result.variable == "magnetic_load_product" else None
    states = _row_states(lam, result)
    gaps = iter(zip(*dispersion.band_gap_edges(columns([s[0] for s in states if s]), 1)))
    out = []
    for row, state in zip(rows_of(result), states):
        if state is None:
            out.append(None)
            continue
        st, scale = state
        speed = st.eff.c / c0 if c0 else 1.0
        lo, hi = next(gaps)
        want = {"eta": st.eff.eta, "zeta": st.eff.zeta, "gap_exact_lo": lo * scale,
                "gap_exact_hi": hi * scale}
        try:
            hg = dispersion.homogenized_band_gap(st.eff)
            want.update(gap_homog_lo=hg.lo * scale, gap_homog_hi=hg.hi * scale)
        except LamwaveError:
            want.update(gap_homog_lo=math.nan, gap_homog_hi=math.nan)
        try:
            bound = soliton.existence_bound(st.eff)
            want["max_speed_ratio"] = bound * speed if math.isfinite(bound) else math.inf
            want["max_strain"] = (
                soliton.max_strain_amplitude(st.eff) if math.isfinite(bound) else math.nan
            )
        except LamwaveError:
            want.update(max_speed_ratio=math.nan, max_strain=math.nan)
        out.append(want)
    return out


class TestColumns:
    @pytest.mark.parametrize("variable, lo, hi", BENCH_SWEEPS)
    def test_columns_match_per_row_cell_states(self, bilam, variable, lo, hi):
        result = SWEEP_FUNCTIONS[variable](bilam, sweeps.grid(variable, lo, hi, 201))
        for row, want in zip(rows_of(result), _per_row(bilam, result)):
            if want is None:
                assert row["locked"]
                continue
            assert set(want) < set(row)
            for key, value in want.items():
                assert row[key] == pytest.approx(value, rel=COLUMN_RTOL, abs=0.0, nan_ok=True), key

    @pytest.mark.parametrize("variable, lo, hi", BENCH_SWEEPS)
    def test_one_solve_and_no_laminate_per_row(self, bilam, monkeypatch, variable, lo, hi):
        """A sweep of 11 rows and one of 201 make the same calls: one stretch solve (magnetic),
        one cell-state evaluation on columns, and no Laminate or Phase built per row."""
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        cell_columns = sys.modules["lamwave.homogenize"].cell_columns

        def counted_columns(*args, **kwargs):
            st = cell_columns(*args, **kwargs)
            if np.ndim(st.eff.eta):  # one call for many cells, not one cell of a summary search
                calls["column states"] = calls.get("column states", 0) + 1
            return st

        for name, mod in list(sys.modules.items()):
            if name.startswith("lamwave") and getattr(mod, "cell_columns", None) is cell_columns:
                monkeypatch.setattr(mod, "cell_columns", counted_columns)
        for name in ("stretch_roots", "stretch_from_field"):
            monkeypatch.setattr(materials, name, counted(name, getattr(materials, name)))
        for cls in (materials.Laminate, materials.Phase, materials.HyperelasticModel):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        counts = {}
        for n in (11, 201):
            calls.clear()
            result = SWEEP_FUNCTIONS[variable](bilam, sweeps.grid(variable, lo, hi, n))
            assert len(result.values) == n
            counts[n] = dict(calls)
        expected = {"column states": 1}
        if variable == "magnetic_load_product":
            expected["stretch_roots"] = 1
        if variable == "modulus_contrast":  # the one model holding the column of moduli
            expected["HyperelasticModel"] = 1
        assert counts[11] == counts[201] == expected



def _coefficient(scale: float):
    """A coefficient of either sign over many decades, exactly 0, or any finite float."""
    magnitude = st.floats(-12.0, 2.0).map(lambda e: scale * 10.0**e)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x),
                     st.floats(allow_nan=False, allow_infinity=False))


def _or_none(form, eff):
    """``form(eff)`` of one cell's floats, None where it raises."""
    try:
        return form(eff)
    except (LamwaveError, ValueError):
        return None


class TestColumnForms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*map(_coefficient, (1e-2, 1e-2, 1e-2, 1.0))), min_size=1, max_size=12))
    def test_columns_equal_float_forms(self, models):
        """On random effective models, the column forms of the homogenised gap, the existence
        bound and the max strain equal the float forms bit for bit, and are NaN exactly where
        the float form raises: eta <= 0; eta_t <= 0 or pi sqrt(2 eta) > 1 for the gap; an
        unbounded speed (eta_t = 0 with b <= 0, a negative discriminant, no positive root)
        or zeta <= 0 for the strain.  No column division by zero escapes."""
        eta, eta_m, eta_t, zeta = (np.array(v) for v in zip(*models))
        columns = EffectiveModel(1.0, 1.0, 1.0, zeta, eta, homogenize.ETA_Y_OPT, eta_m, eta_t, 0.01, 1.0)
        with np.errstate(**homogenize.FLOAT_ERRORS):
            gap = dispersion.homogenized_band_gap(columns)
            got = [gap.lo, gap.hi, soliton.existence_bound(columns), soliton.max_strain_amplitude(columns)]
        for i, cell in enumerate(models):
            eff = dataclasses.replace(columns, eta=cell[0], eta_m=cell[1], eta_t=cell[2], zeta=cell[3])
            one = _or_none(dispersion.homogenized_band_gap, eff)
            want = [one and one.lo, one and one.hi, _or_none(soliton.existence_bound, eff),
                    _or_none(soliton.max_strain_amplitude, eff)]
            for column, value in zip(got, want):
                if value is None:
                    assert math.isnan(column[i])
                else:
                    assert type(value) is float and np.float64(column[i]).tobytes() == np.float64(value).tobytes()


def _decades(lo: float, hi: float):
    """A positive float whose magnitude spans the decades lo to hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


#: ends of each sweep variable's range, mostly inside the range it can take; the load
#: products reach 1.7e308, so a range's width may overflow the float range
LOAD_DECADES = _decades(-3.0, math.log10(1.7e308))
SWEEP_ENDS = {
    "magnetic_load_product": st.one_of(st.just(0.0), LOAD_DECADES, LOAD_DECADES.map(lambda x: -x)),
    "volume_fraction_2": st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _decades(-6.0, 1.0)),
    "modulus_contrast": _decades(-6.0, 6.0),
}


@st.composite
def cli_sweeps(draw):
    """A sweep config on a stack of any model kind, moduli over 10^+-3 of 1 MPa, densities
    930, 1860 or 9300, remnant induction and permeability varied, a range across magnitudes
    and 2, 3 or 11 rows."""
    phases = []
    for _ in range(2):
        kind = draw(st.sampled_from(materials.KINDS))
        beta = 0.0 if kind == "neo-hookean" else draw(st.sampled_from([0.0132, 0.3, 1e-6, 5.0]))
        phases.append({"model": {"kind": kind, "G_pa": 1e6 * 10.0 ** draw(st.floats(-3.0, 3.0)), "beta": beta},
                       "rho": 930.0 * draw(st.sampled_from([1, 2, 10])), "nu": 0.5,
                       "mu_rel": draw(st.sampled_from([1.0, 1.0, 1.0, 1.5, 10.0])),
                       "br_t": draw(st.sampled_from([0.0, 0.0, 0.1, -1.2]))})
    variable = draw(st.sampled_from(sorted(SWEEP_ENDS)))
    lo, hi = sorted(draw(st.lists(SWEEP_ENDS[variable], min_size=2, max_size=2, unique=True)))
    return {"command": "sweep", "laminate": {"phases": phases, "period_m": 0.01},
            "params": {"variable": variable, "lo": lo, "hi": hi, "n": draw(st.sampled_from([2, 3, 11]))}}


@settings(max_examples=60, deadline=None)
@given(cli_sweeps())
def test_cli_sweeps_keep_the_exit_contract(config):
    """Random sweeps through the CLI exit 0, 1 or 2 with at most one stderr line and no
    traceback; a failed run writes nothing; a run that exits 0 gives every locked row
    its note, and finite variable, stretch, eta and zeta on every other row.  A numpy
    warning, which a CLI run would print as two more stderr lines, raises here."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "sweep.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli.run(path, out)
        assert status in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
        if status:
            assert not out.exists() or not any(out.iterdir())
            return
        (table,) = out.glob("sweep_*.csv")
        (summary,) = out.glob("sweep_*.json")
        header, *rows = [line.split(",") for line in table.read_text().splitlines() if line[0] != "#"]
        rows = [dict(zip(header, map(float, row))) for row in rows]
        locked = [row for row in rows if row.get("locked")]
        notes = json.loads(summary.read_text()).get("locked_notes", [])
        assert [note["load_product"] for note in notes] == [row["load_product"] for row in locked]
        variable = config["params"]["variable"]
        for row in rows:
            if not row.get("locked"):
                assert all(math.isfinite(row[key]) for key in (variable, "stretch", "eta", "zeta") if key in row)
