"""Deterministic CSV/JSON emission shared by the CLI.

CSV dialect: comma-separated, '#'-prefixed header comments, LF line endings,
floats printed with 17 significant digits so identical runs produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence


def _row_format(n_columns: int, rows: Sequence[tuple]) -> str:
    """One %-format line for all rows: '%s' for a text column, '%.17g' for one holding
    a float (its integers print exactly up to 2**53), '%d' for integers and bools."""
    specs = []
    for i in range(n_columns):
        kinds = set(map(type, map(itemgetter(i), rows)))
        if all(issubclass(k, str) for k in kinds):
            specs.append("%s")
        elif any(issubclass(k, float) for k in kinds):
            specs.append("%.17g")
        else:
            specs.append("%d")
    return ",".join(specs) + "\n"


def write_csv(path: Path, comments: list[str], header: list[str], rows: Sequence[tuple]) -> None:
    line = _row_format(len(header), rows)
    with open(path, "w", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def probe_table(traces: Iterable[tuple], t_scale: float, theory: str) -> tuple[list[str], list[tuple]]:
    """Rows (t_s, t_norm, v_over_c, probe_y_m, theory) of the simulators' probe CSVs.

    ``traces`` yields ``(y, t, v_over_c)`` per probe, with ``t`` and ``v_over_c``
    arrays; ``t_norm`` is ``t * t_scale``.  Rows come in one block per probe, in
    the order of ``traces``.
    """
    rows: list[tuple] = []
    for y, t, v_over_c in traces:
        y = float(y)
        rows.extend(
            (ti, tn, vi, y, theory)
            for ti, tn, vi in zip(t.tolist(), (t * t_scale).tolist(), v_over_c.tolist())
        )
    return ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"], rows


def write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
