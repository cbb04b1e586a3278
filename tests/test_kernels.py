from __future__ import annotations

import numpy as np

from weylenum import root_system
from weylenum import kernels


def test_first_step_from_identity():
    rs = root_system("D4")
    w = np.ones((1, 4), dtype=np.int64)
    eye = np.eye(4, dtype=np.int64)[None]
    new_w, new_m, src, gen = kernels.step_level(w, eye, rs.cartan, rs.reflections)
    # every generator extends the identity
    assert new_w.tolist() == [[-1, 2, 1, 1], [2, -1, 2, 2], [1, 2, -1, 1], [1, 2, 1, -1]]
    assert src.tolist() == [0, 0, 0, 0]
    assert gen.tolist() == [0, 1, 2, 3]
    for t in range(4):
        assert np.array_equal(new_m[t], rs.reflections[t])


def test_step_orbit_matches_step_level_weights():
    rs = root_system("D4")
    w = np.ones((1, 4), dtype=np.int64)
    m = np.eye(4, dtype=np.int64)[None]
    lw, _, _, _ = kernels.step_level(w, m, rs.cartan, rs.reflections)
    ow, _, _ = kernels.step_orbit(w, rs.cartan)
    assert np.array_equal(lw, ow)
