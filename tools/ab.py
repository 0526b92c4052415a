"""Paired A/B of two source trees: ``python tools/ab.py --parent TREE [--workload W ...] [--pairs N] [--seconds S]``.

The change is the tree this file is in; the parent is ``--parent``.  First prints
whether the ``tools/parity.py`` digests of the two trees match, and the ops whose
lines differ.  Then runs N pairs of ``bench/run.py --trace 0`` per workload, one run
in each tree, with the parent first in even pairs and the change first in odd ones.
For each workload and end-to-end metric of ``BENCHMARK.json`` it prints the parent
median [q1, q3], the change median [q1, q3], the pairs the change won (ties count
for neither side) and the two-sided sign-test p of that count, then each side's
failed ops over those attempted.  ``--workload`` defaults to every workload and
``--seconds`` to the benchmark's ``run_seconds``.  Nothing is written but what the
bench and parity runs write in their own trees.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", CHANGE / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def schedule(workloads: list[str], pairs: int) -> list[tuple[str, int, tuple[str, str]]]:
    """(workload, pair, (first side, second side)) of every pair, pair by pair."""
    return [(w, i, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for i in range(pairs) for w in workloads]


def sign_test(won: int, decided: int) -> float:
    """Two-sided sign-test p of ``won`` wins in ``decided`` untied pairs."""
    tail = sum(math.comb(decided, k) for k in range(min(won, decided - won) + 1))
    return min(1.0, 2.0 * tail / 2.0**decided)


def wins(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """(pairs the change won, untied pairs) of paired values, ``better`` "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change) if c != p]
    return sum(d > 0 for d in diffs), len(diffs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def parity_lines(tree: Path) -> list[str]:
    """The lines ``tools/parity.py`` prints for ``tree``, run in its own interpreter, since
    one interpreter imports one ``lamwave``."""
    out = subprocess.run([sys.executable, parity.__file__, "--root", str(tree)],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def bench(tree: Path, workload: str, seconds: float) -> dict:
    """The summary object ``bench/run.py`` prints last, run in ``tree``."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
                          "--trace", "0"], cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent source tree")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": CHANGE}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    lines = {side: parity_lines(tree) for side, tree in trees.items()}
    digests = {side: ls[-1].split()[-1] for side, ls in lines.items()}
    differ = sorted({line.split()[0] for line in set(lines["parent"][:-1]) ^ set(lines["change"][:-1])})
    print(f"parity: {'match' if len(set(digests.values())) == 1 else 'differ'} "
          f"(parent {digests['parent'][:16]}, change {digests['change'][:16]})", flush=True)
    for label in differ:
        print(f"  differs: {label}")

    runs = {(w, side): [] for w in workloads for side in trees}
    for workload, i, order in schedule(workloads, args.pairs):
        for side in order:
            runs[workload, side].append(bench(trees[side], workload, args.seconds))
        print(f"pair {i + 1}/{args.pairs} {workload} done ({order[0]} first)", file=sys.stderr, flush=True)

    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[workload, side]] for side in trees}
            won, decided = wins(values["parent"], values["change"], metric["better"])
            cells = "  ".join("{} {:.6g} [{:.6g}, {:.6g}]".format(side, *quartiles(values[side]))
                              for side in trees)
            print(f"{workload:<12} {name:<12} {cells}  won {won}/{args.pairs}  "
                  f"p={sign_test(won, decided):.3g}")
        failed = "  ".join(f"{side} {sum(r['failed'] for r in runs[workload, side])}/"
                           f"{sum(r['attempted'] for r in runs[workload, side])}" for side in trees)
        print(f"{workload:<12} failed ops   {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
