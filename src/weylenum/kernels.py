"""The level step, in numpy: one kernel for group and orbit enumeration.

Both steps take the current level as arrays of one signed integer dtype,
the Cartan matrix included, and return the accepted successors in that dtype
and in a fixed order: source elements ascending, and for each source
the applied generators ascending.  A candidate successor of weight ``nu``
under generator ``i`` (0-based here) is accepted when ``nu[i] > 0`` and
every coordinate of the image past position ``i`` is nonnegative; that rule
reaches each element of the next level exactly once.

Image coordinate ``k`` is ``nu[k] - cartan[i, k] * nu[i]``, so acceptance is
tested one generator at a time on the columns of the weights, and only the
accepted images are built.  The generator matrix ``R_i`` differs from the
identity in row ``i`` alone, ``delta_ik - cartan[i, k]``, so ``R_i @ M`` is
``M`` with row ``i`` replaced.

The dtype may be as narrow as int8.  numpy's integer array arithmetic wraps
modulo 2**bits, so a result is exact whenever its true value fits the dtype,
even if an intermediate product overflows.  Every value a step keeps or
compares is such a result: acceptance's ``col[k] - cartan[i, k] * col[i]``
is coordinate k of ``s_i nu``, an image is an orbit weight, and the row
update gives an entry of a group matrix.  A walk picks a dtype that holds
all of those (see :func:`.orbit._start_vector`).
"""

from __future__ import annotations

import numpy as np


def _accepted(weights, cartan):
    """The accepted successors of a level of weights: (images, src, gen)."""
    m, n = weights.shape
    col = np.ascontiguousarray(weights.T)
    nonneg = col >= 0
    mask = np.empty((m, n), dtype=bool)
    for i in range(n):
        ok = col[i] > 0
        for k in range(i + 1, n):
            if cartan[i, k] == 0:
                ok &= nonneg[k]
            else:
                ok &= col[k] - cartan[i, k] * col[i] >= 0
        mask[:, i] = ok
    src, gen = np.nonzero(mask)
    images = weights[src]
    rows = np.arange(len(src))
    images -= images[rows, gen, None] * cartan[gen]
    return images, src, gen


def step_level(weights, matrices, cartan):
    """One enumeration step; returns (weights, matrices, src, gen).

    ``gen`` is 0-based.  Inverses are not computed here: the pairing of the
    new level determines them.
    """
    images, src, gen = _accepted(weights, cartan)
    new = matrices[src]
    rows = np.arange(len(src))
    new[rows, gen] -= np.einsum("jk,jkl->jl", cartan[gen], new)
    return images, new, src, gen


def step_orbit(weights, cartan):
    """One orbit step; returns (weights, src, gen) with ``gen`` 0-based."""
    return _accepted(weights, cartan)
