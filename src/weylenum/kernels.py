"""The level step, in numpy: one kernel for group and orbit enumeration.

Both steps take the current level as int64 arrays and return the accepted
successors in a fixed order: source elements ascending, and for each source
the applied generators ascending.  A candidate successor of weight ``nu``
under generator ``i`` (0-based here) is accepted when ``nu[i] > 0`` and
every coordinate of the image past position ``i`` is nonnegative; that rule
reaches each element of the next level exactly once.
"""

from __future__ import annotations

import numpy as np


def _acceptance_mask(weights: np.ndarray, images: np.ndarray) -> np.ndarray:
    # images[j, i] is the weight of element j moved by generator i; only the
    # coordinates strictly past i matter for acceptance.
    n = weights.shape[1]
    dont_care = np.tril(np.ones((n, n), dtype=bool))
    tail_ok = ((images >= 0) | dont_care[None, :, :]).all(axis=2)
    return (weights > 0) & tail_ok


def step_level(weights, matrices, cartan, reflections):
    """One enumeration step; returns (weights, matrices, src, gen).

    ``gen`` is 0-based.  Inverses are not computed here: the pairing of the
    new level determines them.
    """
    images = weights[:, None, :] - weights[:, :, None] * cartan[None, :, :]
    src, gen = np.nonzero(_acceptance_mask(weights, images))
    return images[src, gen], np.matmul(reflections[gen], matrices[src]), src, gen


def step_orbit(weights, cartan):
    """One orbit step; returns (weights, src, gen) with ``gen`` 0-based."""
    images = weights[:, None, :] - weights[:, :, None] * cartan[None, :, :]
    src, gen = np.nonzero(_acceptance_mask(weights, images))
    return images[src, gen], src, gen
