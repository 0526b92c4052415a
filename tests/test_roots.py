"""In-repo scalar solvers: the library's bisection, its Newton narrowing and
golden-section argmax, and the tests' Brent zero finder (conftest), the band-gap
oracle's independent route."""

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lamwave
import lamwave as lw
from lamwave import dispersion, materials, sweeps
from lamwave._roots import bisect, golden_max, newton
from lamwave.homogenize import cell_state, effective_model

from conftest import EDGE_TOL, Cell, brentq, gent_bilaminate, with_volume_fraction

BRACKETS = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-14),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12),
    (lambda x: math.exp(x) - 10.0, -1.0, 5.0, 1e-10),
    (lambda x: abs(math.sin(3.0 * x)) - 1.0 + 1e-3, 0.1, 0.52, 1e-10),
    (lambda x: abs(x - 0.3) - 1.0, -1.0, 0.9, 1e-15),
    (lambda x: abs(2.0 * x + 0.1) - 1.0, -0.2, 3.0, 1e-10),
]


def test_bisect_returns_the_inside_end_of_the_flip():
    """x*x <= 2 flips between sqrt(2) (whose float squares to 2.0000000000000004) and the
    float below it: the inn end is the last float inside, from either side and on 0-d or
    array brackets."""
    root = bisect(lambda x: x * x <= 2.0, 1.0, 2.0)
    assert root.shape == () and root * root <= 2.0 < np.nextafter(root, 2.0) ** 2
    assert np.nextafter(root, 2.0) == math.sqrt(2.0)
    # inn above out: the bracket is bisected downward and keeps the inside end
    high = bisect(lambda x: x * x > 2.0, 2.0, 1.0)
    assert high == np.nextafter(root, 2.0)
    roots = bisect(lambda x: x * x <= np.array([2.0, 3.0, 0.25]), np.zeros(3), np.full(3, 2.0))
    assert roots.shape == (3,)
    assert roots[0] == root and roots[2] == 0.5
    assert np.all(roots * roots <= [2.0, 3.0, 0.25])
    assert np.all(np.nextafter(roots, 2.0) ** 2 > [2.0, 3.0, 0.25])


def test_bisect_on_an_empty_bracket_returns_its_end():
    calls = []

    def inside(x):
        calls.append(x)
        return x < 1.0

    assert bisect(inside, 1.5, 1.5) == 1.5
    assert calls == []  # a bracket holding no float is never evaluated
    adjacent = np.nextafter(1.0, 2.0)
    assert bisect(inside, adjacent, 1.0) == adjacent and calls == []
    ends = bisect(lambda x: x < 1.0, np.array([0.5, 3.0]), np.array([2.0, 3.0]))
    assert ends[1] == 3.0 and ends[0] == np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("f, a, b, xtol", BRACKETS)
def test_brentq_matches_scipy_bit_for_bit(f, a, b, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    for rtol in (4 * np.finfo(float).eps, 8.9e-16, 1e-6):
        ours = brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert ours.hex() == optimize.brentq(f, a, b, xtol=xtol, rtol=rtol).hex()


def test_brentq_matches_scipy_on_every_gap_edge(bilam):
    """The kinked |cos(kappa ell)| - 1 brackets that the test oracle of the band gaps refines."""
    optimize = pytest.importorskip("scipy.optimize")
    st = cell_state(bilam, 1.0)
    w = np.linspace(0.0, 6.0 * math.pi, 4001)
    w[0] = 1e-12 * w[-1]
    inside = np.abs(dispersion.bloch_cosine(st, w)) > 1.0
    edges = np.flatnonzero(inside[1:] != inside[:-1])
    assert len(edges) >= 8

    def f(x):
        return abs(dispersion.bloch_cosine(st, x)) - 1.0

    for i in edges:
        a, b = w[i], w[i + 1]
        ours = brentq(f, a, b, xtol=EDGE_TOL)
        assert ours.hex() == optimize.brentq(f, a, b, xtol=EDGE_TOL).hex()


def test_brentq_returns_an_exact_zero_endpoint():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, xtol=1e-12) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0, xtol=1e-12) == 2.0


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (-3.0, -2.0), (-0.5, 0.5)])
def test_brentq_same_sign_bracket_raises(a, b):
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, a, b, xtol=1e-12)


def test_brentq_non_convergence_and_nan_raise():
    with pytest.raises(ValueError, match="failed to converge"):
        brentq(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, xtol=1e-14, maxiter=2)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 2.5 else x - 2.7, 2.0, 3.0, xtol=1e-14)


def test_golden_max_finds_the_closed_form_eta_argmax(bilam):
    """At equal densities eta peaks at the phase-2 volume fraction c2 / (c1 + c2)."""
    assert bilam.phase1.density == bilam.phase2.density
    st = cell_state(bilam, 1.0)
    exact = st.c2 / (st.c1 + st.c2)

    def eta_of(nu2):
        return effective_model(with_volume_fraction(bilam, nu2), 1.0).eta

    assert golden_max(eta_of, 0.2, 0.5, xatol=1e-10) == pytest.approx(exact, abs=1e-9)
    parabola_top = golden_max(lambda x: -((x - 0.7) ** 2), 0.0, 1.0, xatol=1e-12)
    assert parabola_top == pytest.approx(0.7, abs=1e-12)


def test_cli_runs_without_scipy(tmp_path):
    """Importing the CLI and running a band-gap search, an argmax sweep and the soliton
    analysis (its validity speeds are bisected) loads no scipy module."""
    laminate = {
        "phases": [
            {"model": {"kind": "Gent", "G_pa": g, "beta": 0.0132}, "rho": 930.0, "nu": 0.5,
             "mu_rel": 1.0, "br_t": 0.0}
            for g in (4.7e6, 0.94e6)
        ],
        "period_m": 0.01,
    }
    configs = [
        {"command": "bandgap", "laminate": laminate, "params": {"n_scan": 2000}},
        {"command": "sweep", "laminate": laminate,
         "params": {"variable": "volume_fraction_2", "lo": 0.1, "hi": 0.9, "n": 9}},
        {"command": "soliton", "laminate": laminate},
    ]
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(tmp_path / f"run{i}.json")
        paths[-1].write_text(json.dumps(cfg))
    script = (
        "import json, sys\n"
        "from lamwave import cli\n"
        "assert all(cli.run(path, sys.argv[1]) == 0 for path in sys.argv[2:])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    src = str(Path(lamwave.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), *map(str, paths)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@contextlib.contextmanager
def bisection_only(module):
    """``module`` solves its roots by ``bisect`` alone: ``newton`` hands every bracket back."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "newton", lambda probe, inn, out: (inn, out))
        yield


def test_newton_narrows_to_the_flip_of_the_predicate():
    """On x^3 - 2 from either side, a 0-d bracket and an array of them, the narrowed
    bracket still holds the flip, and bisect from it returns the flip's float; an empty
    or adjacent bracket is returned as it is, without a call."""
    calls = []

    def probe(x):
        calls.append(np.shape(x))
        return x**3 <= 2.0, x**3 - 2.0, 3.0 * x * x

    want = bisect(lambda x: x**3 <= 2.0, 0.0, 2.0)
    inn, out = newton(probe, 0.0, 2.0)
    assert inn**3 <= 2.0 < out**3 and out - inn <= 4 * np.spacing(want)
    assert bisect(lambda x: x**3 <= 2.0, inn, out) == want
    assert len(calls) <= 10 and calls[-1] == (9,)
    # inn above out: the upper float of the flip
    inn, out = newton(lambda x: (x**3 > 2.0, 2.0 - x**3, -3.0 * x * x), 2.0, 0.0)
    assert bisect(lambda x: x**3 > 2.0, inn, out) == np.nextafter(want, 2.0)
    # the midpoint of this adjacent pair rounds to its out end, where the predicate reads
    # inside: answers at an end are never read
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    inn, out = newton(probe, np.array([0.0, 1.0, 1.5, low]), np.array([2.0, 1.5, 1.5, high]))
    assert inn.tolist()[2:] == [1.5, low] and out.tolist()[2:] == [1.5, high]
    assert bisect(lambda x: x**3 <= 2.0, inn[:2], out[:2]).tolist() == [want, want]
    calls.clear()
    assert newton(probe, np.ones(3), np.ones(3))[0].tolist() == [1.0] * 3 and calls == []


def test_newton_falls_back_to_bisection_where_the_slope_misleads():
    """A derivative of the wrong sign, NaN or 0 sends every step out of the bracket or
    nowhere: each round is then a bisection step, and the answer is the same float."""
    for slope in (-1.0, math.nan, 0.0):
        inn, out = newton(lambda x: (x <= 0.3, x - 0.3, np.full(np.shape(x), slope)), 0.0, 1.0)
        assert bisect(lambda x: x <= 0.3, inn, out) == bisect(lambda x: x <= 0.3, 0.0, 1.0)


#: log(z1/z2): contrasts up to 1e3, and impedances within a few ulp of matched
LOG_R = st.one_of(
    st.floats(math.log(1e-3), math.log(1e3)),
    st.floats(-1e-6, 1e-6),
    st.sampled_from([0.0, 2.2e-16, -2.2e-16, 1e-15]),
)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(0.02, 0.98), st.floats(0.8, 1.0), LOG_R,
                                st.integers(1, 6)), min_size=1, max_size=6))
@example(cells=[(0.5, 1.0, 5.960464477539063e-08, 3), (0.45, 1.0, math.log(3.0), 2)])
def test_band_gap_edges_match_plain_bisection(cells):
    """The band edges of every cell and gap (n up to 6) are the bits that bisection
    alone finds on the same predicate."""
    t1, shrink, log_r, n = (np.array(v) for v in zip(*cells))
    cell = Cell(t1=t1, t2=(1.0 - t1) * shrink, z1=np.exp(log_r), z2=np.ones(len(t1)))
    lo, hi = dispersion.band_gap_edges(cell, n)
    with bisection_only(dispersion):
        plain_lo, plain_hi = dispersion.band_gap_edges(cell, n)
    assert lo.tobytes() == plain_lo.tobytes() and hi.tobytes() == plain_hi.tobytes()


def stack(kind: str, beta: float) -> lw.Laminate:
    beta = 0.0 if kind == "neo-hookean" else beta
    return lw.Laminate(
        lw.Phase(lw.HyperelasticModel(kind, 4.7e6, beta), 930.0, 0.5),
        lw.Phase(lw.HyperelasticModel(kind, 0.94e6, beta), 930.0, 0.5),
        0.01,
    )


#: loads over every decade of both signs, down to r = -1e300, and the Fung-Demiray
#: (beta 0.3) rows near |r| = 1e308 whose residual overflows
LOADS = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 300.0)).map(lambda t: t[0] * 10.0 ** t[1]),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -1e300, 1e300, -1e307, -1.7e308, 5e307]),
)


def gent_near_lock(beta: float, fraction: float, side: float) -> float:
    """The load whose root is where the Gent I1 - 3 is ``fraction`` of its lock."""
    x = materials._locking_stretch(beta, side, margin=1.0 - fraction)
    return float(materials._stretch_probe(stack("gent", beta), np.array([x]), 0.0)[1][0])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(materials.KINDS),
    beta=st.one_of(st.sampled_from([0.0132, 0.3]), st.floats(1e-4, 2.0)),
    loads=st.lists(LOADS, min_size=1, max_size=5),
    near_lock=st.lists(st.tuples(st.floats(0.5, 1.0 - 3e-9), st.sampled_from([-1.0, 1.0])), max_size=3),
)
@example(kind="fung-demiray", beta=0.3, loads=[-1e307, -1.7e308, 5e307, 1e300, -1e300], near_lock=[])
@example(kind="gent", beta=0.0132, loads=[2.0, -0.5, -1e300], near_lock=[(1.0 - 3e-9, 1.0), (0.999999, -1.0)])
def test_stretch_roots_match_plain_bisection(kind, beta, loads, near_lock):
    """Every row's stretch, and every NoRoot, are those of bisection alone on the same
    predicate: on all four model kinds, Gent near its lock, deep compression and the
    Fung-Demiray rows whose residual overflows."""
    lam = stack(kind, beta)
    if kind == "gent":
        loads = loads + [gent_near_lock(lam.phase1.model.beta, f, side) for f, side in near_lock]
    with np.errstate(over="ignore"):
        stretch, errors = materials.stretch_roots(lam, loads)
        with bisection_only(materials):
            plain, plain_errors = materials.stretch_roots(lam, loads)
    assert stretch.tobytes() == plain.tobytes()
    assert {i: (str(e), e.locking_stretch) for i, e in errors.items()} == {
        i: (str(e), e.locking_stretch) for i, e in plain_errors.items()
    }


def counted(monkeypatch, module) -> list:
    """Every predicate (or probe) call that ``module``'s root solves make, one entry each."""
    calls: list = []
    for name in ("newton", "bisect"):
        solve = getattr(module, name)

        def wrapped(f, inn, out, solve=solve):
            return solve(lambda x: calls.append(np.shape(x)) or f(x), inn, out)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_root_solves_take_a_handful_of_rounds(monkeypatch):
    """A count-based gate: at most 12 predicate rounds for the paper stack's gap search
    (gap numbers 1-3 below 3 pi), for both solves of a 201-row magnetic sweep, and for a one-row
    stretch solve at r = 2, where bisection alone takes about 54.  The unloaded stack's
    empty bracket takes none."""
    lam = gent_bilaminate()
    gaps = counted(monkeypatch, dispersion)
    stretches = counted(monkeypatch, materials)
    assert len(dispersion.band_gap_records(cell_state(lam, 1.0), 3.0 * math.pi)) == 3
    assert 0 < len(gaps) <= 12
    gaps.clear()
    sweeps.sweep_magnetic(lam, sweeps.grid("magnetic_load_product", -3.0, 3.0, 201))
    assert 0 < len(gaps) <= 12 and 0 < len(stretches) <= 12
    # the gap batch holds the 201 rows and the undeformed cell that scales them
    assert all(shape[-1] == 202 for shape in gaps) and all(shape[-1] == 201 for shape in stretches)
    stretches.clear()
    materials.stretch_from_field(lam, lw.MagneticLoad(bn_br_product=2.0))
    assert 0 < len(stretches) <= 12
    stretches.clear()
    assert materials.stretch_from_field(lam, lw.MagneticLoad(b=0.0)) == 1.0
    assert stretches == []


def test_locking_stretch_solved_only_where_read(monkeypatch):
    """The Gent locking stretch is the last float from 1 on the unlocked side, on both
    sides, for stiff and soft betas and both margins.  The stretch solve needs the margined
    lock wherever a bracket crosses it, and the unmargined one only for the error of a row
    short of its root: at r = 150 on the paper stack no row is short and the solve makes
    one locking solve, where it made two."""
    for beta in (1e-6, 0.0132, 0.3, 1e3):
        for side in (1.0, -1.0):
            for margin in (0.0, 2.0 * materials.GENT_MARGIN):
                x = materials._locking_stretch(beta, side, margin)
                d_lock = (1.0 - margin) / beta
                assert materials.uniaxial_invariant_excess(x) <= d_lock
                assert materials.uniaxial_invariant_excess(np.nextafter(x, side * np.inf)) > d_lock
    solve, margins = materials._locking_stretch, []
    monkeypatch.setattr(materials, "_locking_stretch",
                        lambda beta, side, margin=0.0: margins.append(margin) or solve(beta, side, margin))
    lock = solve(0.0132, 1.0)
    (stretch,), errors = materials.stretch_roots(gent_bilaminate(), [150.0])
    assert not errors and 1.0 < stretch < lock < np.sqrt(301.0)
    assert margins == [2.0 * materials.GENT_MARGIN]
    margins.clear()
    (stretch,), errors = materials.stretch_roots(gent_bilaminate(), [1e14])
    assert np.isnan(stretch) and errors[0].locking_stretch == lock
    assert margins == [2.0 * materials.GENT_MARGIN, 0.0]
