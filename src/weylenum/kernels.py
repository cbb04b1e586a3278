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

A step works a block of `BLOCK` sources at a time, in two passes.  The first
fills a block's ``(sources, rank)`` acceptance mask in scratch and keeps only
its accepted positions, from one ``np.flatnonzero``, as int32 (they are below
``BLOCK * rank``): 4 B per accepted image.  The second builds each block's
images (and matrices) in place in the output, splitting its positions by the
rank into ``src`` and ``gen`` and reading each image's pivot ``nu[i]`` from
the flattened block.  `step_level` splits them straight into its rows of the
level-wide ``src`` and ``gen``, which the new level's words need;
`step_orbit` splits them into scratch of one block and returns its images
alone.  So a step holds no temporary that spans the level but its accepted
positions and its output.  ``src`` is int32 while the level has fewer than
2**31 elements, else int64, and ``gen`` is ``np.min_scalar_type(rank - 1)``.

A level of more than one block is cut at its middle source.  In each pass the
calling thread does the first half and the package's worker thread the second
(`_in_two`); the second half's build starts at the first half's count, so the
output is the one a single thread makes.  On one CPU both halves run on the
caller.  The worker is the package's only one, shared with the level codec in
`store`: made on first use, made afresh in a forked child, and given only
untraced inner functions, never `step_level` or `step_orbit`.

The dtype may be as narrow as int8.  numpy's integer array arithmetic wraps
modulo 2**bits, so a result is exact whenever its true value fits the dtype,
even if an intermediate product overflows.  Every value a step keeps or
compares is such a result: acceptance's ``col[k] - cartan[i, k] * col[i]``
is coordinate k of ``s_i nu``, an image is an orbit weight, and the row
update gives an entry of a group matrix.  A walk picks a dtype that holds
all of those (see :func:`.orbit._start_vector`).
"""

from __future__ import annotations

import os
import threading

import numpy as np


# Sources per block of a step.  2**14 and 2**15 ran fastest on E8's orbit and
# group levels; the per-block temporaries grow with it.
BLOCK = 1 << 15
# The package's one worker thread, made on first use by `_in_two` under the
# lock, so that importing the package does not import concurrent.futures.
_worker = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child, whose copy of the worker has no thread to run it."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(work, first: tuple, second: tuple) -> tuple:
    """(work(*first), work(*second)), the first half on the calling thread and
    the second on the package's worker thread; on one CPU both on the caller.

    The caller does half of the work itself, so that only one more thread
    (and one more malloc arena) is ever made, and it waits for the worker's
    half even when its own half raises.  `work` is never a traced entry
    point: the benchmark's tracer keeps one call stack for the process.
    """
    global _worker
    if _cpus() < 2:
        return work(*first), work(*second)
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="weylenum")
        future = _worker.submit(work, *second)
    try:
        head = work(*first)
    finally:
        future.exception()  # waits for the worker's half without raising its error
    return head, future.result()


def _mask(weights, cartan, lo, hi):
    """The accepted positions of sources lo..hi-1, one int32 array a block:
    position ``j * rank + i`` of a block is source ``j`` of the block under
    generator ``i``, ascending."""
    n = weights.shape[1]
    mask = np.empty((min(BLOCK, hi - lo), n), dtype=bool)
    kept = []
    for a in range(lo, hi, BLOCK):
        b = min(a + BLOCK, hi)
        col = np.ascontiguousarray(weights[a:b].T)
        nonneg = col >= 0
        for i in range(n):
            ok = col[i] > 0
            for k in range(i + 1, n):
                if cartan[i, k] == 0:
                    ok &= nonneg[k]
                else:
                    ok &= col[k] - cartan[i, k] * col[i] >= 0
            mask[:b - a, i] = ok
        kept.append(np.flatnonzero(mask[:b - a]).astype(np.int32))
    return kept


def _build(weights, cartan, matrices, images, new, src, gen, kept, lo, hi, at):
    """Build the successors of sources lo..hi-1 into the outputs from row `at`
    on, a block at a time, from the blocks' accepted positions `kept`.  With
    no `matrices`, `new` is None and `src` and `gen` are empty: each block's
    sources and generators go to scratch of their dtypes."""
    n = weights.shape[1]
    for a, flat in zip(range(lo, hi, BLOCK), kept):
        out = slice(at, at + len(flat))
        if new is None:
            s, g = np.empty(len(flat), src.dtype), np.empty(len(flat), gen.dtype)
        else:
            s, g = src[out], gen[out]
        np.divmod(flat, n, out=(s, g), casting="unsafe")
        s += a
        c = np.take(cartan, g, axis=0)
        pivot = np.arange(0, len(flat) * n, n)
        pivot += g  # entry (j, g[j]) of the block's rows, flattened
        # mode="clip" writes straight into `out`; "raise" would buffer a copy.
        block = np.take(weights, s, axis=0, out=images[out], mode="clip")
        block -= np.take(block.reshape(-1), pivot)[:, None] * c
        if new is not None:
            block = np.take(matrices, s, axis=0, out=new[out], mode="clip")
            block.reshape(-1, n)[pivot] -= np.einsum("jk,jkl->jl", c, block)
        at += len(flat)


def _accepted(weights, cartan, matrices=None):
    """The accepted successors of a level: (images, matrices, src, gen).

    Their matrices, `src` and `gen` are built only when `matrices` is given;
    otherwise the matrices are None and `src` and `gen` are empty.
    """
    m, n = weights.shape
    cut = m // 2 if m > BLOCK else m
    run = _in_two if cut < m else lambda work, first, second: (work(*first), work(*second))
    head, tail = run(_mask, (weights, cartan, 0, cut), (weights, cartan, cut, m))
    count = sum(map(len, head))
    total = count + sum(map(len, tail))
    images = np.empty((total, n), dtype=weights.dtype)
    new = None if matrices is None else np.empty((total, n, n), dtype=matrices.dtype)
    rows = 0 if matrices is None else total
    src = np.empty(rows, dtype=np.int32 if m < 1 << 31 else np.int64)
    gen = np.empty(rows, dtype=np.min_scalar_type(n - 1))
    both = (weights, cartan, matrices, images, new, src, gen)
    run(_build, (*both, head, 0, cut, 0), (*both, tail, cut, m, count))
    return images, new, src, gen


def step_level(weights, matrices, cartan):
    """One enumeration step; returns (weights, matrices, src, gen).

    ``gen`` is 0-based.  Inverses are not computed here: the pairing of the
    new level determines them.
    """
    return _accepted(weights, cartan, matrices)


def step_orbit(weights, cartan):
    """One orbit step; returns the 1-tuple (weights,).

    An orbit walk reads the images alone: their sources and generators are
    split into scratch a block at a time and never held for the whole level.
    """
    return _accepted(weights, cartan)[:1]
