"""Shared emission: CSV formatting and the probe table both simulators write."""

import math

import numpy as np

from lamwave import output

from conftest import joined


def test_probe_table_schema():
    t = np.array([0.0, 1e-4, 3e-4])
    scale = 2.0 / 3.0
    traces = [
        (0.2, t, np.array([0.0, -0.5, 1.25])),
        (np.float64(0.1), t, np.array([0.0, 0.25, 0.75])),
    ]
    header, blocks = output.probe_table(traces, scale, "mkdv")
    columns = joined(blocks)
    assert header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"]
    assert [len(c) for c in columns] == [6] * 5
    t_s, t_norm, v_over_c, probe_y, theory = (c.tolist() for c in columns)
    # one block per trace, in the order given
    assert probe_y == [0.2] * 3 + [0.1] * 3
    assert all(type(y) is float for y in probe_y)
    assert v_over_c == [0.0, -0.5, 1.25, 0.0, 0.25, 0.75]
    for i in range(6):
        assert t_s[i] == t[i % 3]
        assert t_norm[i] == t[i % 3] * scale  # bit for bit
    assert set(theory) == {"mkdv"}


def reference_field(value) -> str:
    """The per-value formatting the CSV writer must reproduce."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def test_csv_rows_match_per_value_formatting(tmp_path):
    """bool, int, NaN, inf, -0.0, text, numpy floats and a column mixing ints with floats,
    given as columns: lists and arrays."""
    rows = [
        (0.1, 1, True, "exact", 3, np.float64(2.0) / 3.0),
        (math.nan, 2**53 + 1, False, "mkdv", math.nan, 1e-320),
        (-math.inf, -7, True, "homogenized", 1, -0.0),
        (math.inf, 0, False, "", 0.5, 1e300),
    ]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "t.csv"
    columns = [list(c) for c in zip(*rows)]
    columns[1], columns[5] = np.array(columns[1]), np.array(columns[5])
    output.write_csv(path, ["note", "k = 1"], header, [columns])
    want = "# note\n# k = 1\na,b,c,d,e,f\n" + "".join(
        ",".join(reference_field(v) for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == want.encode()
    output.write_csv(path, [], header, [])
    assert path.read_text() == "a,b,c,d,e,f\n"


def test_blocks_write_the_bytes_of_their_join(tmp_path):
    """A table given as row blocks writes exactly the bytes of its joined columns, one
    format a column: an empty block, a 1-row block and a 4097-row block across the
    4096-row chunk edge; float, int, bool and text columns, and a column of integers in
    one block and floats in another, which prints floats throughout."""
    rng = np.random.default_rng(0)
    n = 4097
    blocks = [
        (np.array([0.1]), np.array([2**53 + 1]), np.array([True]), np.array(["one"]), np.array([2**53 + 1])),
        (np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=bool), np.empty(0, dtype=str),
         np.empty(0, dtype=int)),
        (rng.standard_normal(n), rng.integers(-2**62, 2**62, n), rng.random(n) < 0.5,
         np.array([f"row {i}" for i in range(n)]), rng.standard_normal(n) * 1e10),
    ]
    header = ["f", "i", "b", "s", "mixed"]
    path, want = tmp_path / "blocks.csv", tmp_path / "joined.csv"
    output.write_csv(path, ["note"], header, blocks)
    output.write_csv(want, ["note"], header, [tuple(joined(blocks))])
    assert path.read_bytes() == want.read_bytes()
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 1 + n
    assert lines[2] == "0.10000000000000001,9007199254740993,1,one,9007199254740992"
    assert lines[-1].split(",")[3] == f"row {n - 1}"
