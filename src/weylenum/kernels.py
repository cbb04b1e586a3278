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

A step works a block of `BLOCK` sources at a time, in two passes: the first
fills the level's ``(sources, rank)`` acceptance mask, the second builds each
block's images (and matrices) in place in the output.  So it holds no
temporary that spans the level but the mask and the output.  ``src`` is int32
while the level has fewer than 2**31 elements, else int64, and ``gen`` is
``np.min_scalar_type(rank - 1)``.

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


# Sources per block of a step.  2**14 and 2**15 ran fastest on E8's orbit and
# group levels; the per-block temporaries grow with it.
BLOCK = 1 << 15


def _accepted(weights, cartan, matrices=None):
    """The accepted successors of a level: (images, matrices or None, src, gen).

    Their matrices are built only when `matrices` is given.
    """
    m, n = weights.shape
    mask = np.empty((m, n), dtype=bool)
    for a in range(0, m, BLOCK):
        col = np.ascontiguousarray(weights[a:a + BLOCK].T)
        nonneg = col >= 0
        for i in range(n):
            ok = col[i] > 0
            for k in range(i + 1, n):
                if cartan[i, k] == 0:
                    ok &= nonneg[k]
                else:
                    ok &= col[k] - cartan[i, k] * col[i] >= 0
            mask[a:a + BLOCK, i] = ok
    total = np.count_nonzero(mask)
    images = np.empty((total, n), dtype=weights.dtype)
    new = None if matrices is None else np.empty((total, n, n), dtype=matrices.dtype)
    src = np.empty(total, dtype=np.int32 if m < 1 << 31 else np.int64)
    gen = np.empty(total, dtype=np.min_scalar_type(n - 1))
    at = 0
    for a in range(0, m, BLOCK):
        s, g = np.nonzero(mask[a:a + BLOCK])
        s += a
        out = slice(at, at + len(s))
        src[out], gen[out] = s, g
        rows, c = np.arange(len(s)), cartan[g]
        # mode="clip" writes straight into `out`; "raise" would buffer a copy.
        block = np.take(weights, s, axis=0, out=images[out], mode="clip")
        block -= block[rows, g, None] * c
        if new is not None:
            block = np.take(matrices, s, axis=0, out=new[out], mode="clip")
            block[rows, g] -= np.einsum("jk,jkl->jl", c, block)
        at += len(s)
    return images, new, src, gen


def step_level(weights, matrices, cartan):
    """One enumeration step; returns (weights, matrices, src, gen).

    ``gen`` is 0-based.  Inverses are not computed here: the pairing of the
    new level determines them.
    """
    return _accepted(weights, cartan, matrices)


def step_orbit(weights, cartan):
    """One orbit step; returns (weights, src, gen) with ``gen`` 0-based."""
    images, _, src, gen = _accepted(weights, cartan)
    return images, src, gen
