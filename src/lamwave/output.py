"""Deterministic CSV/JSON emission shared by the CLI.

A table is a header and its row blocks (one per probe, branch or wave model): each
block a tuple of equal-length columns, one 1-D array per header name, written in
turn and never joined.  CSV dialect: comma-separated, '#'-prefixed header comments,
LF line endings, floats printed with 17 significant digits so identical runs
produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def write_csv(path: Path, comments: list[str], header: list[str], blocks: Sequence[tuple]) -> None:
    """Write a table given as row ``blocks``, each a tuple of equal-length columns (arrays,
    or lists of one kind of value), 4096 rows at a time.

    A column prints as the kind its blocks would join to: '%s' for text, '%.17g' for floats
    (their integers exact up to 2**53), '%d' for integers and bools; so a column of
    integers in one block and floats in another prints floats throughout ('%.17g' rounds
    an integer to a float as numpy's cast does)."""
    blocks = [[np.asarray(column) for column in block] for block in blocks]
    kinds = [np.result_type(*column).kind for column in zip(*blocks)]
    line = ",".join("%s" if kind in "US" else "%.17g" if kind == "f" else "%d" for kind in kinds) + "\n"
    with open(path, "w", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for i in range(0, len(block[0]), 4096):
                fh.writelines(map(line.__mod__, zip(*(column[i : i + 4096].tolist() for column in block))))


def probe_table(traces: Iterable[tuple], t_scale: float, theory: str) -> tuple[list[str], list[tuple]]:
    """Row blocks (t_s, t_norm, v_over_c, probe_y_m, theory) of the simulators' probe CSVs,
    one per probe in the order of ``traces``, which yields ``(y, t, v_over_c)`` with ``t``
    and ``v_over_c`` arrays; ``t_norm`` is ``t * t_scale``, and ``probe_y_m`` and
    ``theory`` are broadcast views."""
    blocks = [(t, t * t_scale, v_over_c, np.broadcast_to(float(y), t.shape), np.broadcast_to(theory, t.shape))
              for y, t, v_over_c in traces]
    return ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"], blocks


def write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
