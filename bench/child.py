"""One benchmark pass in a fresh interpreter: ``python3 bench/child.py JOB.json``.

The job file names the mode, the run configs and where to write results:

- ``setup``: import ``lamwave.cli`` and parse the configs, then exit;
- ``run``: also run every config through ``lamwave.cli.run``, recording each
  exit status, message and time, optionally with tracing (``"trace": true``).

Every child times a fixed probe kernel right after set-up, and an untraced
``run`` child also times it every ``PROBE_INTERVAL_S`` while the configs run,
from a ``SIGALRM`` handler.  The kernel is independent of lamwave, so its time
tracks only how fast the machine is running at that moment; the parent uses it
to scale set-up and pass times to a reference speed.

Tracing wraps each layer's public functions at every binding inside the
``lamwave`` package, records spans in memory and writes them to a file when the
pass ends.  Functions that cost a few microseconds are only counted, because a
span would cost as much as the call.  Everything is restored before exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("cli", "output", "materials", "homogenize", "dispersion", "soliton", "sweeps",
          "fv_sim", "spectral_sim")

#: Public functions too cheap to time (a span costs about a microsecond): these
#: are counted, and their time stays in the caller's self time.
COUNT_ONLY = frozenset({
    "materials.shear_coefficients",
    "materials.strain_energy",
    "materials.canonical_kind",
    "materials.effective_permeability",
    "materials.effective_remnant_induction",
    "materials.magneto_coefficients",
    "materials.load_normalization",
    "materials.dimensionless_load_rhs",
    "materials.arithmetic_modulus",
    "materials.average_shear_modulus",
    "materials.is_gent_equal_beta",
    "materials.gent_equal_beta_stretch_roots",
    "dispersion.bloch_cosine",
    "dispersion.homogenized_band_gap",
    "soliton.oscillator_coeffs",
})

#: Scalar helpers called about 270k times per tunability pass (once per float
#: written, for ``output.fmt``).  Even counting them costs a third of a pass,
#: so they are left unwrapped; their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "materials.generalized_shear_modulus",
    "materials.modulus_derivative",
    "materials.uniaxial_first_invariant",
    "homogenize.optimized_dispersion_coeffs",
    "output.fmt",
})

ACTIVE_EVERY = 16    # fv_sim.step calls between active-fraction samples
ALLOC_EVERY = 1024   # fv_sim.step calls between tracemalloc samples
SAMPLED_STEP = "fv_sim.step.sampled"  # span name of a step run under tracemalloc

PROBE_INTERVAL_S = 0.05  # between probe kernels while a pass runs
PROBE_AFTER_SETUP = 9    # probe kernels timed right after set-up


class SpeedProbe:
    """Times a fixed kernel: interpreter arithmetic, small-array numpy calls and
    random reads from an 8 MB array.

    On a shared host the speed of one core changes by up to 2x within seconds,
    from neighbours on the same core and on the memory system.  The kernel mixes
    work that feels both, and over a pass its mean time follows lamwave's own
    slow-downs to within a few percent on all three workloads.
    ``sample`` runs it once; inside ``every`` it also runs from a timer signal,
    between bytecodes of whatever the main thread is doing.  ``samples`` holds
    each kernel's duration; their sum is the time the probe took from a pass.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 32)
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 20)
        self._index = rng.integers(0, self._table.size, 1 << 14)
        self._busy = False
        self.samples: list[float] = []
        self._kernel()  # first call pays for lazy set-up

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(1200):
            acc += (i * 1.000001) ** 0.5 + i % 7
        for i in range(180):
            acc += float(self._np.cos(self._x * i).sum())
        for _ in range(4):
            acc += float(self._table[self._index].sum())
        return acc

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    @contextlib.contextmanager
    def every(self, interval: float):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


class Patches:
    """Replace a function at every binding in the lamwave package; undo on restore."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for name_mod, mod in list(sys.modules.items()):
            if name_mod == "lamwave" or name_mod.startswith("lamwave."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def public_functions():
    """(span name, function) for every public function each layer defines."""
    for layer in LAYERS:
        mod = sys.modules[f"lamwave.{layer}"]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                yield f"{layer}.{attr}", value


def install_size_hooks(patches: Patches, sizes: dict) -> None:
    """Record the grid and march sizes of a pass; one pass-through call each."""
    from lamwave import fv_sim, spectral_sim

    build_grid, mkdv_march = fv_sim.build_grid, spectral_sim.mkdv_march

    @functools.wraps(build_grid)
    def grid_hook(*args, **kwargs):
        grid = build_grid(*args, **kwargs)
        sizes["n_cells"] = grid.n_cells
        return grid

    @functools.wraps(mkdv_march)
    def march_hook(eff, signal, cfg, *args, **kwargs):
        result = mkdv_march(eff, signal, cfg, *args, **kwargs)
        sizes["n_points"] = cfg.n_points
        sizes["march_steps"] = len(result.grad_y)
        return result

    patches.replace(build_grid, grid_hook)
    patches.replace(mkdv_march, march_hook)


class Tracer:
    """Spans (id, parent id, name, start, end) and call counts, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {"active_fraction": [], "alloc_bytes": []}
        self._stack = [0]
        self._next = 1
        self._steps = 0

    def install(self, patches: Patches) -> None:
        for name, fn in list(public_functions()):
            if name in UNWRAPPED:
                continue
            if name in COUNT_ONLY:
                wrapper = self._counted(name, fn)
            elif name == "fv_sim.step":
                wrapper = self._fv_step(fn)
            else:
                wrapper = self._timed(name, fn)
            patches.replace(fn, wrapper)

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _fv_step(self, fn):
        import numpy as np

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            self._steps += 1
            if self._steps % ALLOC_EVERY == 0:
                tracemalloc.start()
                try:
                    dt = self._call(SAMPLED_STEP, fn, (state, *args), kwargs)
                    self.samples["alloc_bytes"].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            else:
                dt = self._call("fv_sim.step", fn, (state, *args), kwargs)
            if self._steps % ACTIVE_EVERY == 0:
                live = np.count_nonzero((state.gamma != 0.0) | (state.velocity != 0.0))
                self.samples["active_fraction"].append(live / state.gamma.size)
            return dt

        return wrapper


def _run_op(run, config: str, out: Path) -> dict:
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = run(config, out, threads=1)
    except Exception as exc:  # the CLI contract forbids tracebacks: record, keep going
        rc = f"exception: {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return {"rc": rc, "s": t1 - t0, "message": err.getvalue().strip()}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    import lamwave.cli as cli
    t_import = time.perf_counter()
    for _, config in job["ops"]:
        cli.parse_config(json.loads(Path(config).read_text()))
    t_ready = time.perf_counter()
    probe = SpeedProbe()
    for _ in range(PROBE_AFTER_SETUP):
        probe.sample()
    result = {
        "import_s": t_import - t0,
        "parse_ms": 1e3 * (t_ready - t_import),
        "t_ready": t_ready,
        "setup_probe_s": statistics.fmean(probe.samples),
        "ops": [],
        "sizes": {},
    }
    if job["mode"] != "setup":
        patches = Patches()
        tracer = Tracer() if job.get("trace") else None
        # a traced pass measures layers, not the machine: no probe inside its spans
        probe.samples = []
        timer = contextlib.nullcontext() if tracer else probe.every(PROBE_INTERVAL_S)
        try:
            install_size_hooks(patches, result["sizes"])
            if tracer:
                tracer.install(patches)
            out = Path(job["out"])
            with timer:
                result["t_run"] = time.perf_counter()
                for name, config in job["ops"]:
                    op = _run_op(cli.run, config, out / name)
                    op["name"] = name
                    result["ops"].append(op)
                result["t_done"] = time.perf_counter()
        finally:
            patches.restore()
        result["run_probe_s"] = probe.samples
        if tracer:
            result["trace"] = {"spans": tracer.spans, "counts": tracer.counts,
                               "samples": tracer.samples}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
