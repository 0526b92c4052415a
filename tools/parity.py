"""Byte-identity digest of every benchmark run: ``python tools/parity.py [--root TREE]``.

Runs each op of ``bench/workloads.py`` through ``lamwave.cli.run``: the ops of the
three workloads at seeds 0-3, then ``default_ops()``, each in its own temporary
directory.  Prints one ``op file sha256`` line per artifact (names relative to the
op's output directory), one ``op exit=<status> stdout=<sha256> stderr=<sha256>``
line per op (printed paths and the source tree's path made relative first), and
last one ``sha256 <digest>`` line over all the lines before it.  Two source trees
whose outputs, exit statuses and messages all match print the same digest.

``--root`` names the source tree whose ``src/lamwave`` and ``bench/workloads.py``
are used (default: the tree this file is in); nothing in it is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = range(4)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_ops(workloads) -> list[tuple[str, dict]]:
    """(label, config) of every op: each workload at each seed, then the defaults."""
    ops = [(f"{w}/seed{s}/{name}", config)
           for w in workloads.WORKLOADS for s in SEEDS for name, config in workloads.ops(w, s)]
    return ops + [(f"defaults/{name}", config) for name, config in workloads.default_ops()]


def op_lines(run, label: str, config: dict, src: Path) -> list[str]:
    """The artifact lines and the status line of one op."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = run(path, out)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        lines = [f"{label} {p.relative_to(out).as_posix()} {_sha(p.read_bytes())}" for p in files]
        printed = stdout.getvalue().replace(f"{out}/", "")
        message = stderr.getvalue().replace(f"{src}/", "")
    lines.append(f"{label} exit={status} stdout={_sha(printed.encode())} stderr={_sha(message.encode())}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree to run (default: this file's tree)")
    root = parser.parse_args(argv).root.resolve()
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path.insert(0, str(root / "src"))
    from lamwave import cli

    lines = []
    for label, config in all_ops(_load_workloads(root)):
        for line in op_lines(cli.run, label, config, root / "src"):
            print(line, flush=True)
            lines.append(line)
    print(f"sha256 {_sha(chr(10).join(lines).encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
