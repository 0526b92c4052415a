"""Finite-volume solver: grid geometry, conservation, convergence, impact physics."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import lamwave as lw
from lamwave import dispersion as dsp
from lamwave import fv_sim as fv
from lamwave import output
from lamwave import soliton
from lamwave.errors import GeometryError, Instability
from lamwave.homogenize import cell_state, effective_model

from conftest import cell_centers, joined


def homogeneous_laminate(modulus=1e6, rho=1000.0):
    p = lw.Phase(lw.HyperelasticModel("neo-hookean", modulus), rho, 0.5)
    return lw.Laminate(p, dataclasses.replace(p), 0.01)


class TestGrid:
    def test_cell_size(self, bilam):
        grid = fv.build_grid(cell_state(bilam, 1.0), 32, 4)
        assert grid.dy == pytest.approx(0.005 / 32, rel=1e-14)
        assert grid.domain_length == pytest.approx(4 * 0.01, rel=1e-12)

    def test_material_map_layout(self, bilam):
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 3)
        # half layer of phase 2 at the origin, then alternation
        assert list(grid.phase_index[:4]) == [2, 2, 2, 2]
        assert list(grid.phase_index[4:12]) == [1] * 8
        assert list(grid.phase_index[12:20]) == [2] * 8
        assert list(grid.phase_index[-4:]) == [2, 2, 2, 2]

    @pytest.mark.parametrize(
        "nu1, nu2, cells_per_layer, n1, n_periods",
        [(0.5, 0.5, 8, 8, 1), (0.5, 0.5, 8, 8, 3), (0.3, 0.7, 14, 6, 5)],
    )
    def test_material_map_matches_layer_by_layer_build(self, nu1, nu2, cells_per_layer, n1, n_periods):
        """The tiled map has the bytes of the map built one layer at a time from the origin."""
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 2e6), 1000.0, nu1),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 1e6), 1000.0, nu2),
            0.01,
        )
        grid = fv.build_grid(cell_state(lam, 1.0), cells_per_layer, n_periods)
        half2 = cells_per_layer // 2
        layers = [[2] * half2]
        for k in range(n_periods):
            layers += [[1] * n1, [2] * (half2 if k == n_periods - 1 else cells_per_layer)]
        reference = np.array(sum(layers, []), dtype=np.int8)
        assert grid.phase_index.tobytes() == reference.tobytes()
        assert grid.n_cells == len(reference)

    def test_homogeneous_map_is_constant(self):
        lam = homogeneous_laminate()
        grid = fv.build_grid(cell_state(lam, 1.0), 8, 3)
        assert np.all(grid.g == grid.g[0])

    def test_points_per_wavelength(self, bilam):
        grid = fv.build_grid(cell_state(bilam, 1.0), 32, 2)
        wavelength = 16.0 * 0.01
        assert wavelength / grid.dy == pytest.approx(1024.0, rel=1e-12)

    def test_odd_cells_rejected(self, bilam):
        with pytest.raises(GeometryError):
            fv.build_grid(cell_state(bilam, 1.0), 7, 2)
        with pytest.raises(GeometryError):
            fv.build_grid(cell_state(bilam, 1.0), 2, 2)

    def test_non_integer_layer_rejected(self):
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 2e6), 1000.0, 0.3),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 1e6), 1000.0, 0.7),
            0.01,
        )
        # phase-1 layer spans 0.003/0.0007 = 4.29 cells: not realisable
        with pytest.raises(GeometryError):
            fv.build_grid(cell_state(lam, 1.0), 10, 2)


def flux_and_speed(coeffs: lw.ShearCoefficients, rho: float, gamma):
    """Shear stress and local signal speed at strain gamma, the pointwise law ``step`` applies.

    ``sigma = g gamma + (h/3) gamma^3`` and ``c = sqrt((g + h gamma^2)/rho)``.
    Vectorised over gamma.
    """
    gam = np.asarray(gamma, dtype=float)
    sigma = (coeffs.g + coeffs.h * gam * gam / 3.0) * gam
    speed = np.sqrt((coeffs.g + coeffs.h * gam * gam) / rho)
    if sigma.ndim:
        return sigma, speed
    return float(sigma), float(speed)


class TestFluxAndSpeed:
    def test_unstrained(self):
        sigma, c = flux_and_speed(lw.ShearCoefficients(4.7e6, 0.0), 930.0, 0.0)
        assert sigma == 0.0
        assert c == pytest.approx(math.sqrt(4.7e6 / 930.0), rel=1e-14)

    def test_benchmark_phase_speed(self, bilam):
        from lamwave.materials import shear_coefficients

        sc = shear_coefficients(bilam.phase1.model, 1.0)
        _, c = flux_and_speed(sc, 930.0, 0.0)
        assert c == pytest.approx(71.1, abs=0.05)

    def test_stiffening(self):
        coeffs = lw.ShearCoefficients(1e6, 3e4)
        _, c0 = flux_and_speed(coeffs, 1000.0, 0.0)
        _, c1 = flux_and_speed(coeffs, 1000.0, 0.8)
        assert c1 > c0

    def test_cubic_stress(self):
        coeffs = lw.ShearCoefficients(2e6, 6e4)
        sigma, _ = flux_and_speed(coeffs, 1000.0, 0.5)
        assert sigma == pytest.approx(2e6 * 0.5 + 6e4 / 3.0 * 0.125, rel=1e-14)


class TestStep:
    def test_minmod_matches_clip_bits(self):
        """The minmod limiter gives the bits of np.clip(theta, 0, 1), signed zeros and NaN too."""
        special = [math.nan, -0.0, 0.0, 1.0, -1.0, 2.0, -math.inf, math.inf, 5e-324, -5e-324]
        rng = np.random.default_rng(3)
        for theta in (np.array(special), rng.normal(0.5, 2.0, 1001), np.array([-0.0] * 37)):
            got = fv.LIMITERS["minmod"](theta.copy(), np.empty_like(theta))
            assert got.tobytes() == np.clip(theta, 0.0, 1.0).tobytes()

    def test_quiescent_stays_quiescent(self, bilam):
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 4)
        state = fv.SimState.quiescent(grid)
        for _ in range(20):
            fv.step(state, grid)
        assert np.all(state.gamma == 0.0)
        assert np.all(state.velocity == 0.0)

    def test_conservation_free_edges(self, bilam):
        """A compact pulse mid-grid, stopped before it reaches either free edge: the
        edge cells stay exactly 0, so no flux crosses the edges, and the strain and
        momentum sums hold to round-off."""
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 40)
        mid = grid.n_cells // 2
        bump = np.zeros(grid.n_cells)
        bump[mid - 12 : mid + 12] = np.sin(math.pi * (np.arange(24) + 0.5) / 24) ** 2
        state = fv.SimState(0.2 * bump, 3.0 * bump)
        s_gamma, s_mom = state.gamma.sum(), (grid.rho * state.velocity).sum()
        for _ in range(100):  # the stencil reaches 2 cells a step, 200 < mid - 12
            fv.step(state, grid)
        edges = [0, 1, -2, -1]
        assert np.all(state.gamma[edges] == 0.0) and np.all(state.velocity[edges] == 0.0)
        assert np.count_nonzero(state.gamma) > 2 * 24  # the pulse has spread both ways
        assert state.gamma.sum() == pytest.approx(s_gamma, rel=1e-12)
        assert (grid.rho * state.velocity).sum() == pytest.approx(s_mom, rel=1e-12)

    def test_conservation_walls(self, bilam):
        """A wall (the zero-forced left edge) passes no strain flux: a pulse that
        reflects off it, stopped before it reaches the right edge, keeps its strain sum."""
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 40)
        bump = np.zeros(grid.n_cells)
        bump[4:28] = np.sin(math.pi * (np.arange(24) + 0.5) / 24) ** 2
        state = fv.SimState(0.2 * bump, np.zeros(grid.n_cells))
        s_gamma = state.gamma.sum()
        touched = False
        for _ in range(100):  # the stencil reaches 2 cells a step, 28 + 200 < n_cells - 2
            fv.step(state, grid, forcing=lambda t: 0.0)
            touched |= state.gamma[0] != 0.0
        assert touched  # the pulse reached the wall
        assert np.all(state.gamma[-2:] == 0.0) and np.all(state.velocity[-2:] == 0.0)
        assert state.gamma.sum() == pytest.approx(s_gamma, rel=1e-12)

    @pytest.mark.parametrize("strain", [math.inf, math.nan, 1e160], ids=["inf", "nan", "1e160"])
    def test_speed_check_fires(self, bilam, strain):
        """A strain whose signal speed is not finite stops the step before it writes."""
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 2)
        gamma = np.zeros(grid.n_cells)
        gamma[5] = strain
        state = fv.SimState(gamma.copy(), np.zeros(grid.n_cells))
        with np.errstate(all="ignore"), pytest.raises(Instability, match="signal speed"):
            fv.step(state, grid)
        assert state.time == 0.0 and state.gamma.tobytes() == gamma.tobytes()

    @pytest.mark.parametrize("limiter", ["minmod", "mc"])
    def test_second_order_convergence(self, limiter):
        """L1 error of a translated smooth pulse halves twice per refinement."""
        lam = homogeneous_laminate()
        c = math.sqrt(1e6 / 1000.0)

        def l1_error(cells_per_layer):
            grid = fv.build_grid(cell_state(lam, 1.0), cells_per_layer, 40)
            y = cell_centers(grid)
            pulse = 1e-3 * np.exp(-(((y - 0.1) / 0.02) ** 2))
            state = fv.SimState(pulse.copy(), -c * pulse)
            t_final = 0.15 / c
            while state.time < t_final - 1e-15:
                fv.step(state, grid, dt_max=t_final - state.time, limiter=limiter)
            exact = 1e-3 * np.exp(-(((y - 0.1 - c * t_final) / 0.02) ** 2))
            return float(np.abs(state.gamma - exact).sum() * grid.dy)

        errors = [l1_error(cpl) for cpl in (8, 16, 32)]
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        for rate in rates:
            assert 1.8 <= rate <= 2.1

    def test_forcing_sign_symmetry(self, bilam):
        """Flipping the boundary velocity sign negates the solution exactly."""
        eff = effective_model(bilam, 1.0)
        kappa = 2.0 * math.pi / (8.0 * eff.ell)
        t_final = 10.0 * 2.0 * math.pi / (kappa * eff.c) / 8.0

        def run(sign):
            grid = fv.build_grid(cell_state(bilam, 1.0), 8, 12)
            state = fv.SimState.quiescent(grid)
            forcing = fv.impact_signal(sign * 0.5 * eff.c, kappa, eff.c)
            while state.time < t_final - 1e-15:
                fv.step(state, grid, forcing=forcing, dt_max=t_final - state.time)
            return state

        a, b = run(+1.0), run(-1.0)
        assert np.array_equal(a.velocity, -b.velocity)
        assert np.array_equal(a.gamma, -b.gamma)


class TestActiveWindow:
    @pytest.mark.parametrize("limiter", ["minmod", "mc"])
    @pytest.mark.parametrize("crossings", [0.3, 0.8])
    def test_window_is_bit_exact(self, bilam, limiter, crossings):
        """Stepping only the active prefix matches stepping the whole grid bit for bit.

        At 0.3 domain crossings the window is still open at the end; at 0.8 the
        front has reached the right edge and the whole grid is being stepped.
        """
        self.assert_window_bits(bilam, limiter, crossings)

    def test_c_tail_keeps_the_step_bits(self, bilam):
        """At phase-1 density 931 kg/m^3, sqrt(g/rho) of the fastest phase lies an ulp above
        sqrt(g (1/rho)), the step's speed of a quiescent cell: the window keeps the bits of
        whole-grid stepping only if ``Grid1D.c_tail`` is built from the step's expression."""
        lam = lw.Laminate(dataclasses.replace(bilam.phase1, density=931.0), bilam.phase2, bilam.period)
        st = cell_state(lam, 1.0)
        assert st.c1 > st.c2 and math.sqrt(st.sc1.g / 931.0) > math.sqrt(st.sc1.g * (1.0 / 931.0))
        self.assert_window_bits(lam, "minmod", 0.3)

    @staticmethod
    def assert_window_bits(lam, limiter, crossings):
        """The run of ``simulate`` and whole-grid stepping of one impact on ``lam`` match bit
        for bit in time, probe records and final fields."""
        eff = effective_model(lam, 1.0)
        forcing = fv.impact_signal(eff.c, 2.0 * math.pi / (8.0 * eff.ell), eff.c)
        grid = fv.build_grid(cell_state(lam, 1.0), 8, 12)
        t_final = crossings * grid.domain_length / eff.c
        probes = [0.02, 0.05]
        res = fv.simulate(
            grid, left_velocity=forcing, t_final=t_final, probe_positions=probes,
            limiter=limiter,
        )

        full = fv.SimState(np.zeros(grid.n_cells), np.zeros(grid.n_cells))
        assert full.front == grid.n_cells
        cells = [grid.cell_at(y) for y in probes]
        times, traces = [0.0], [[0.0] for _ in cells]
        while full.time < t_final - 1e-15:
            fv.step(full, grid, limiter=limiter, forcing=forcing, dt_max=t_final - full.time)
            times.append(full.time)
            for trace, cell in zip(traces, cells):
                trace.append(full.velocity[cell] / eff.c)

        assert res.t.tobytes() == np.asarray(times).tobytes()
        for v, trace in zip(res.records, traces):
            assert (v / eff.c).tobytes() == np.asarray(trace).tobytes()
        assert res.state.gamma.tobytes() == full.gamma.tobytes()
        assert res.state.velocity.tobytes() == full.velocity.tobytes()
        front = res.state.front
        assert (front < grid.n_cells) == (crossings < 0.5)
        assert np.all(res.state.gamma[front:] == 0.0)
        assert np.all(res.state.velocity[front:] == 0.0)

    @staticmethod
    def pulse_states(bilam, left):
        """A grid of 192 cells, the forcing of a left edge and two equal states on it:
        one that steps its active window and one that steps the whole grid.  Under the
        impact ``velocity`` both start from rest; at a ``wall`` (velocity held at 0)
        or a free ``outflow`` edge, from a strain pulse on the first cells."""
        eff = effective_model(bilam, 1.0)
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 12)
        forcing = {"velocity": fv.impact_signal(0.5 * eff.c, 2.0 * math.pi / eff.ell, eff.c),
                   "wall": lambda t: 0.0, "outflow": None}[left]
        gamma = np.zeros(grid.n_cells)
        if left != "velocity":
            gamma[:24] = 0.05 * np.sin(math.pi * (np.arange(24) + 0.5) / 24) ** 2
        window = fv.SimState(gamma.copy(), np.zeros(grid.n_cells))
        window.front = int(np.count_nonzero(gamma))
        return grid, forcing, window, fv.SimState(gamma.copy(), np.zeros(grid.n_cells))

    @pytest.mark.parametrize("limiter", ["minmod", "mc"])
    @pytest.mark.parametrize(
        "left", ["velocity", "wall", "outflow"],
        ids=["velocity-outflow", "wall-outflow", "outflow-outflow"],  # left-right edge pairs
    )
    def test_block_window_matches_whole_grid(self, bilam, limiter, left):
        """Step by step, the block-rounded window has the bits of whole-grid stepping:
        while the front crosses a block edge (64 to 128 cells updated), while the
        window is held at n_cells - 2 = 190 cells, and after the switch to all 192."""
        grid, forcing, window, full = self.pulse_states(bilam, left)
        kw = {"limiter": limiter, "forcing": forcing}
        updated = []
        while updated.count(grid.n_cells) < 20:
            assert fv.step(window, grid, **kw) == fv.step(full, grid, **kw)
            assert window.gamma.tobytes() == full.gamma.tobytes()
            assert window.velocity.tobytes() == full.velocity.tobytes()
            assert np.all(window.gamma[window.front :] == 0.0)
            updated.append(window._plan.key[0])
        assert {64, 128, 190, 192} <= set(updated)

    def test_plan_is_built_once_per_block(self, bilam, monkeypatch):
        """Over an impact run the views are built once for each window size, in
        order, and each size is a whole number of blocks or the clamp."""
        built = []
        plan = fv._Plan

        def counted(state, grid, key, k):
            built.append(key[0])
            return plan(state, grid, key, k)

        monkeypatch.setattr(fv, "_Plan", counted)
        eff = effective_model(bilam, 1.0)
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 40)
        res = fv.simulate(
            grid, left_velocity=fv.impact_signal(eff.c, 2.0 * math.pi / (8.0 * eff.ell), eff.c),
            t_final=0.5 * grid.domain_length / eff.c, probe_positions=[0.05],
        )
        assert built == sorted(set(built))
        assert all(m % fv._BLOCK == 0 or m == grid.n_cells - 2 for m in built)
        assert len(built) <= -(-res.state.front // fv._BLOCK) + 1 < res.steps / 10

    @pytest.mark.parametrize("replaced", ["gamma", "velocity", "grid", "state"])
    def test_replaced_arrays_get_new_views(self, bilam, low_disp_bilam, replaced):
        """A state whose field array is swapped for an equal copy between steps, that
        goes on to step on another grid, or a deep copy of it, keeps the bits of a
        fresh state."""
        grid, forcing, window, _ = self.pulse_states(bilam, "velocity")
        other = fv.build_grid(cell_state(low_disp_bilam, 1.0), 8, 12)
        for i in range(150):
            if i == 60 and replaced == "grid":
                grid = other
            elif i == 60 and replaced == "state":
                window = copy.deepcopy(window)
            elif i == 60:
                setattr(window, replaced, getattr(window, replaced).copy())
            fresh = fv.SimState(window.gamma.copy(), window.velocity.copy())
            fresh.front, fresh.time = window.front, window.time
            assert fv.step(window, grid, forcing=forcing) == fv.step(fresh, grid, forcing=forcing)
            assert window.gamma.tobytes() == fresh.gamma.tobytes()
            assert window.velocity.tobytes() == fresh.velocity.tobytes()

    def test_bytes_per_cell_bounds_the_arrays(self, bilam):
        """``fv_sim.BYTES_PER_CELL``, which sizes a run, bounds the bytes per cell of the
        grid's arrays, the state's fields and its work buffer."""
        grid = fv.build_grid(cell_state(bilam, 1.0), 32, 238)
        state = fv.SimState.quiescent(grid)
        arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        held = sum(a.nbytes for a in [*arrays, state.gamma, state.velocity, state.work])
        assert held / grid.n_cells <= fv.BYTES_PER_CELL

    @pytest.mark.parametrize("quiescent", [True, False])
    def test_step_allocates_no_field_copies(self, bilam, quiescent):
        """After a warm-up step, a step on ~15k cells allocates under 64 KiB."""
        eff = effective_model(bilam, 1.0)
        forcing = fv.impact_signal(eff.c, 2.0 * math.pi / (16.0 * eff.ell), eff.c)
        grid = fv.build_grid(cell_state(bilam, 1.0), 32, 238)
        assert grid.n_cells == 15232
        zeros = np.zeros(grid.n_cells)
        state = fv.SimState.quiescent(grid) if quiescent else fv.SimState(zeros, zeros.copy())
        kw = {"limiter": "mc", "forcing": forcing}
        fv.step(state, grid, **kw)
        tracemalloc.start()
        try:
            fv.step(state, grid, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_records_grow_by_their_floats_alone(self, bilam):
        """A run records each step's time and two probe velocities in flat buffers: the
        tracemalloc peak of ``simulate`` grows by at most 64 B a step between a run and
        one twice as long (its three floats a step take 24 B; an array a step takes more)."""
        eff = effective_model(bilam, 1.0)
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 4)
        forcing = fv.impact_signal(0.1 * eff.c, 2.0 * math.pi / (4.0 * eff.ell), eff.c)

        def peak(t_final):
            tracemalloc.start()
            try:
                res = fv.simulate(grid, left_velocity=forcing, t_final=t_final, probe_positions=[0.005, 0.02])
                return tracemalloc.get_traced_memory()[1], res.steps
            finally:
                tracemalloc.stop()

        peak(1e-4)
        (short, n_short), (long, n_long) = peak(0.01), peak(0.02)
        assert n_long - n_short > 1000
        assert long - short <= 64 * (n_long - n_short)


class TestPrecursorFloor:
    def test_floor_moves_probes_by_round_off(self, bilam, monkeypatch):
        """The floored impact run takes the same steps at the same times as the run at
        floor 0, its probes move by round-off, and it steps a shorter window."""
        eff = effective_model(bilam, 1.0)
        args = (cell_state(bilam, 1.0), eff.c, 2.0 * math.pi / (8.0 * eff.ell), [0.02, 0.05], 0.3 / eff.c)
        res = fv.plan_impact(*args, 8).run()
        monkeypatch.setattr(fv, "PRECURSOR_FLOOR", 0.0)
        ref = fv.plan_impact(*args, 8).run()
        assert res.steps == ref.steps > 0
        assert res.t.tobytes() == ref.t.tobytes()
        for v, v_ref in zip(res.records, ref.records):
            assert np.abs(v - v_ref).max() <= 1e-13 * eff.c
        front = res.state.front
        assert front < ref.state.front < len(res.state.gamma)
        assert np.all(res.state.gamma[front:] == 0.0) and np.all(res.state.velocity[front:] == 0.0)
        assert res.cell_steps < ref.cell_steps

    def test_nan_at_leading_edge_is_not_flushed(self, bilam):
        """Floored steps keep the front monotone with every cell past it exactly 0; a NaN
        velocity planted just behind the front spreads past it, keeps its cells, and the
        next step stops on the speed check."""
        eff = effective_model(bilam, 1.0)
        grid = fv.build_grid(cell_state(bilam, 1.0), 8, 12)
        kw = {"forcing": fv.impact_signal(eff.c, 2.0 * math.pi / (8.0 * eff.ell), eff.c),
              "floor": eff.c * fv.PRECURSOR_FLOOR}
        state = fv.SimState.quiescent(grid)
        for _ in range(100):
            lo = state.front
            fv.step(state, grid, **kw)
            assert lo <= state.front < grid.n_cells - 6
            assert np.all(state.gamma[state.front :] == 0.0)
            assert np.all(state.velocity[state.front :] == 0.0)
        lo = state.front
        state.velocity[lo - 1] = math.nan
        with np.errstate(all="ignore"):
            fv.step(state, grid, **kw)
            assert np.isnan(state.gamma[lo : lo + 4]).any() and state.front > lo
            with pytest.raises(Instability, match="signal speed nan"):
                fv.step(state, grid, **kw)

    def test_cell_steps_sums_the_window(self, bilam):
        """At rest the front stays at 0, and each step updates one block of cells."""
        eff = effective_model(bilam, 1.0)
        res = fv.plan_impact(cell_state(bilam, 1.0), 0.0, 2.0 * math.pi / (16.0 * eff.ell), [0.05], 2e-3,
                             8).run()
        assert res.state.front == 0
        assert res.cell_steps == fv._BLOCK * res.steps > 0


class TestImpact:
    def test_impact_signal_scalar_matches_array(self):
        """One forcing serves the FV step (scalar t) and the spectral window (array t)."""
        kappa, c, velocity = 40.0, 50.0, 3.0
        duration = 2.0 * math.pi / (kappa * c)
        t = np.linspace(-0.25 * duration, 1.5 * duration, 71)
        forcing = fv.impact_signal(velocity, kappa, c)
        on_array = forcing(t)
        assert on_array.shape == t.shape
        assert [float(forcing(ti)) for ti in t] == on_array.tolist()
        assert np.all(on_array[(t < 0.0) | (t > duration)] == 0.0)
        assert float(forcing(0.5 * duration)) == velocity

    def test_zero_velocity_gives_zero_probes(self, bilam):
        eff = effective_model(bilam, 1.0)
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = fv.plan_impact(cell_state(bilam, 1.0), 0.0, kappa, [0.05], 2e-3, 8).run()
        assert np.all(res.records[0] / eff.c == 0.0)

    def test_matched_impedance_preserves_amplitude(self):
        """No internal reflections: a compact pulse passes a probe at full height."""
        lam = lw.Laminate(
            lw.Phase(lw.HyperelasticModel("neo-hookean", 4.7e6), 930.0, 0.5),
            lw.Phase(lw.HyperelasticModel("neo-hookean", 0.94e6), 4650.0, 0.5),
            0.01,
        )
        eff = effective_model(lam, 1.0)
        assert eff.eta < 1e-30
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        velocity = 1e-3 * eff.c
        probe = 0.15
        duration = 2.0 * math.pi / (kappa * eff.c)
        res = fv.plan_impact(
            cell_state(lam, 1.0), velocity, kappa, [probe], probe / eff.c + 2.0 * duration, 32
        ).run()
        peak = float(np.max(res.records[0] / eff.c))
        assert peak == pytest.approx(velocity / eff.c, rel=5e-3)

    def test_band_gap_attenuation(self, bilam):
        """A broadband pulse through many layers loses its in-gap spectral content."""
        eff = effective_model(bilam, 1.0)
        gap = dsp.bloch_band_gaps(cell_state(bilam, 1.0), 2.0 * math.pi)[0]
        # short pulse centred near the gap: duration = one period at the gap centre
        w_center = 0.5 * (gap.lo + gap.hi) * eff.c / eff.ell
        kappa = w_center / eff.c
        velocity = 1e-3 * eff.c
        probe = 10.5 * eff.ell
        duration = 2.0 * math.pi / (kappa * eff.c)
        t_final = probe / eff.c + 14.0 * duration
        res = fv.plan_impact(cell_state(bilam, 1.0), velocity, kappa, [probe], t_final, 16).run()
        t = np.linspace(res.t[0], res.t[-1], 4096)
        v = np.interp(t, res.t, res.records[0] / eff.c)
        spec = np.abs(np.fft.rfft(v))
        freq_norm = 2.0 * math.pi * np.fft.rfftfreq(len(t), d=t[1] - t[0]) * eff.ell / eff.c
        # gap edges decay slowly (vanishing evanescent depth); test the core
        width = gap.hi - gap.lo
        in_gap = (freq_norm > gap.lo + 0.25 * width) & (freq_norm < gap.hi - 0.25 * width)
        below = (freq_norm > 0.2 * gap.lo) & (freq_norm < 0.8 * gap.lo)
        assert spec[in_gap].max() < 0.3 * spec[below].max()

    def test_probe_insensitive_to_domain_doubling(self, bilam):
        """The outflow boundary sits far enough out that probes never see it."""
        eff = effective_model(bilam, 1.0)
        kappa = 2.0 * math.pi / (8.0 * eff.ell)
        forcing = fv.impact_signal(0.5 * eff.c, kappa, eff.c)
        t_final = 0.05 / eff.c + 2.0 * 2.0 * math.pi / (kappa * eff.c)
        periods = fv.required_periods(cell_state(bilam, 1.0), t_final, 0.05, 2.0 * math.pi / kappa)
        series = []
        for n in (periods, 2 * periods):
            grid = fv.build_grid(cell_state(bilam, 1.0), 8, n)
            res = fv.simulate(
                grid,
                left_velocity=forcing,
                t_final=t_final,
                probe_positions=[0.05],
            )
            series.append(res.records[0] / eff.c)
        assert np.allclose(series[0], series[1], atol=1e-13)

    def test_probe_table_schema(self, bilam):
        eff = effective_model(bilam, 1.0)
        kappa = 2.0 * math.pi / (16.0 * eff.ell)
        res = fv.plan_impact(cell_state(bilam, 1.0), 0.1 * eff.c, kappa, [0.03], 1e-3, 8).run()
        traces = [(y, res.t, v / eff.c) for y, v in zip([0.03], res.records)]
        header, blocks = output.probe_table(traces, kappa * eff.c / (2.0 * math.pi), "fv")
        t_s, _, _, probe_y, theory = joined(blocks)
        assert header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"]
        assert len(t_s) == len(res.t)
        assert (probe_y == 0.03).all() and set(theory.tolist()) == {"fv"}


def crest_indices(v: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Strict local maxima of ``v`` at least ``height`` tall, kept tallest first so
    that no two lie fewer than ``distance`` samples apart."""
    idx = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    idx = idx[v[idx] >= height]
    keep = np.ones(len(idx), dtype=bool)
    for j in np.argsort(-v[idx], kind="stable"):
        if keep[j]:
            keep[np.abs(idx - idx[j]) < distance] = False
            keep[j] = True
    return idx[keep]


class TestShockAndFission:
    def test_gradient_steepens_past_shock_distance(self, fv_matched_run):
        """The steepest probe gradient localises inside [y*, 2 y*]."""
        res = fv_matched_run["result"]
        y_star = fv_matched_run["y_star"]
        eff = fv_matched_run["eff"]
        grads = []
        for y, v in zip(fv_matched_run["probes"], res.records):
            dv = np.diff(v / eff.c) / np.diff(res.t)
            grads.append((y, float(np.max(np.abs(dv)))))
        steepest = max(grads, key=lambda g: g[1])[0]
        assert y_star - 1e-9 <= steepest <= 2.0 * y_star + 1e-9
        # growth through the ladder: clearly sub-critical before y*
        before = min(grads, key=lambda g: abs(g[0] - 0.6 * y_star))[1]
        assert max(g for _, g in grads) > 5.0 * before

    def test_fission_train(self, fv_nonlinear_run):
        """The impact sheds an amplitude-ordered soliton train.

        Full separation needs distances beyond the recording range, so the
        check is the fission signature itself: crest ordering, a leading crest
        saturating toward the particle-velocity ceiling (growth increments
        shrink), and a crest speed/amplitude pair obeying the travelling-wave
        amplitude-velocity law within 10%.
        """
        res = fv_nonlinear_run["result"]
        eff = fv_nonlinear_run["eff"]

        def crests(v_probe):
            v = np.abs(v_probe / eff.c)
            idx = crest_indices(v, height=0.4 * float(v.max()), distance=200)
            return [(float(res.t[i]), float(v[i])) for i in idx]

        trains = [crests(v) for v in res.records]
        for train in trains[1:]:
            amps = [a for _, a in train]
            assert len(amps) >= 3
            assert all(x >= y for x, y in zip(amps, amps[1:]))  # amplitude-ordered

        lead = [train[0] for train in trains]
        ceiling = soliton.max_particle_velocity(eff)
        for _, a in lead:
            # pointwise micro-structure oscillation rides on the macro field
            assert a <= 1.05 * ceiling
        increments = [b[1] - a[1] for a, b in zip(lead, lead[1:])]
        assert increments[1] < increments[0]

        (t2, _), (t3, a3) = lead[1], lead[2]
        probes = fv_nonlinear_run["probes"]
        speed = (probes[2] - probes[1]) / (t3 - t2)
        assert speed / eff.c > 1.0
        # invert the measured amplitude through the law delta(s) * s = a
        s2 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a3**2 * eff.zeta / 6.0))
        law_speed = math.sqrt(s2)
        assert speed / eff.c == pytest.approx(law_speed, rel=0.10)
