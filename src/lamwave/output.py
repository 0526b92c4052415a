"""Deterministic CSV/JSON emission shared by the CLI.

A table is a header and its columns, one 1-D array per header name, all of one
length; a table made of blocks of rows (one per probe, branch or wave model) is
put together by :func:`join`.  CSV dialect: comma-separated, '#'-prefixed header
comments, LF line endings, floats printed with 17 significant digits so
identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def join(blocks: Sequence[tuple], width: int) -> list[np.ndarray]:
    """The ``width`` columns of a table whose rows come in ``blocks``, each a tuple of
    ``width`` equal-length columns; no block gives empty columns."""
    if not blocks:
        return [np.empty(0)] * width
    return [np.concatenate(column) for column in zip(*blocks)]


def _format(column: np.ndarray) -> str:
    """'%s' for a text column, '%.17g' for a float one (its integers print exactly up
    to 2**53), '%d' for integers and bools."""
    kind = column.dtype.kind
    return "%s" if kind in "US" else "%.17g" if kind == "f" else "%d"


def write_csv(path: Path, comments: list[str], header: list[str], columns: Sequence) -> None:
    """Write a table given as ``columns``, each an array or a list of one kind of value.

    Rows are formatted 4096 at a time, so that only a slice of the table is ever held
    as Python values."""
    columns = [np.asarray(column) for column in columns]
    line = ",".join(map(_format, columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]) if columns else 0, 4096):
            fh.writelines(map(line.__mod__, zip(*(column[i : i + 4096].tolist() for column in columns))))


def probe_table(traces: Iterable[tuple], t_scale: float, theory: str) -> tuple[list[str], list[np.ndarray]]:
    """Columns (t_s, t_norm, v_over_c, probe_y_m, theory) of the simulators' probe CSVs.

    ``traces`` yields ``(y, t, v_over_c)`` per probe, with ``t`` and ``v_over_c``
    arrays; ``t_norm`` is ``t * t_scale``.  Rows come in one block per probe, in
    the order of ``traces``.
    """
    blocks = [(t, t * t_scale, v_over_c, np.full(len(t), float(y)), np.full(len(t), theory))
              for y, t, v_over_c in traces]
    return ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"], join(blocks, 5)


def write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
