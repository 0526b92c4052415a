"""In-repo scalar solvers: the library's bisection and golden-section argmax, and the
tests' Brent zero finder (conftest), the band-gap oracle's independent route."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lamwave
from lamwave import dispersion
from lamwave._roots import bisect, golden_max
from lamwave.homogenize import cell_state, effective_model

from conftest import EDGE_TOL, brentq, with_volume_fraction

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
