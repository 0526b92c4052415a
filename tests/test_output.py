"""Shared emission: the probe table both simulators write."""

import numpy as np

from lamwave import output


def test_probe_table_schema():
    t = np.array([0.0, 1e-4, 3e-4])
    scale = 2.0 / 3.0
    traces = [
        (0.2, t, np.array([0.0, -0.5, 1.25])),
        (np.float64(0.1), t, np.array([0.0, 0.25, 0.75])),
    ]
    header, rows = output.probe_table(traces, scale, "mkdv")
    assert header == ["t_s", "t_norm", "v_over_c", "probe_y_m", "theory"]
    assert len(rows) == 6
    # one block per trace, in the order given
    assert [r[3] for r in rows] == [0.2] * 3 + [0.1] * 3
    assert all(type(r[3]) is float for r in rows)
    assert [r[2] for r in rows] == [0.0, -0.5, 1.25, 0.0, 0.25, 0.75]
    for i, r in enumerate(rows):
        assert r[0] == t[i % 3]
        assert r[1] == t[i % 3] * scale  # bit for bit
    assert {r[4] for r in rows} == {"mkdv"}
