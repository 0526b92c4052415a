"""Write a baseline report: ``python3 bench/baseline.py OUT.json [--seed N]``.

Runs every workload of BENCHMARK.json once untraced and once traced through
``bench/run.py``, with its ``run_seconds``, and merges the full reports (machine,
sizes, raw per-pass samples, defaults probe, per-layer metrics) into OUT.json.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                            "--trace", str(trace)], check=True, stdout=subprocess.DEVNULL)
            report = run.BUILD_DIR / f"{workload}-seed{args.seed}-trace{trace}" / "report.json"
            runs.setdefault(workload, {})[f"trace{trace}"] = json.loads(report.read_text())
    Path(args.out).write_text(json.dumps({"benchmark": spec, "seed": args.seed, "runs": runs},
                                         indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
