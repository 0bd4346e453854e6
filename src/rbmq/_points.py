"""The scalar/array convention shared by every point evaluator.

A call is scalar iff every point argument is 0-d; it then returns a
Python scalar (complex, or float for real-valued evaluators).  Array
calls return an ndarray of the broadcast shape.  A public evaluator is
its cut refusal, if any, and one `_evaluate` of an array-level function,
which converts, blocks and unwraps; array-level functions call each
other without converting.

A scalar is computed as a one-element array: numpy's array loops and
its scalar arithmetic may round differently in the last bit, and going
through the same loops makes a scalar call agree bit for bit with the
same point inside an array call.

Some points need a special formula: the removable origin of phi1 and
the origin of phi, where the generic formula is 0/0.  The evaluator
counts such points first: when there is none, the generic formula runs
on the whole array without boolean-mask indexing, and the masked path
runs only for inputs that need it.  Every point sees the same
elementwise operations either way, so a scalar call equals the same
point inside any array.

A product of two complex arrays never writes into one of its own
operands: on a one-element array the in-place product takes a loop
without fused multiply-adds.  Nor may it go to a temporary that numpy
can reuse: from 256 KiB (16,384 complex points, which phi's two-row
stack reaches at 8,192 columns) numpy writes `a * (b + c)` into the
temporary b + c, as the product with its operands swapped, which rounds
differently; such products are written `np.multiply(a, b + c)`.
Every other step takes a fresh output too: a block of points fits in
the cache either way, and on a one-element array an in-place ufunc
costs more than a new one.  Sums and products with a real factor round
each part once, so they keep their bits in place; they still run in
place in `_scale` (through the real view, which keeps a signed zero),
the `uniformization` maps built on it and `kernel.theta2_branches`,
where fresh outputs were up to 5% slower on 200 to 1e5 points.

`_on_threads` is the package's one worker-thread runner, for the
blocks of points of `_blocked` and the batches of `oracle.simulate`.
For n items it starts one thread per CPU the process may use, at most
n, from one pool per call, and hands out one item at a time to
whichever thread is free: fixed strides (items w, w + k, ... to worker
w) took 16% longer on 1e5-point arrays (2 cores; see CHANGES.md).  A
thread starts with numpy's default error state, not the caller's, so
each item runs in its own copy of the caller's context (`contextvars`),
which carries an `np.errstate` into the workers.

`_evaluate` calls the array-level function once on up to _BLOCK (8,192)
points; above, `_blocked` maps it over blocks of _BLOCK points with
`_on_threads`.  numpy's complex arccosh and cosh release the GIL, so the
threads overlap.  Every step is elementwise, so the blocks and the
thread count leave the bits unchanged.  A point on a cut is refused
before any block.  A refusal raised in any block makes the function run
again on the whole array, which raises the refusal a serial call
raises: psi's zero before any pole, a kernel zero off phi's origin
before any pole, and then the first pole in array order, theta2's row
over all points before theta1's; s = 0 or infinity for a sphere map.

A real-typed point on a branch cut is refused (`_raise_if_on_cut`); a
complex one, x + 0j or x - 0j, picks the side of the cut by the sign of
its zero imaginary part.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import numpy as np

from .errors import ComputationRefused, OnCutError

# points per block of `_blocked`, and per slice of the check suite's
# 10k-point identities (`checks._block_max`): 128 KiB of complex, glibc's
# initial mmap threshold, which rises after a large free (page faults:
# see `checks`)
_BLOCK = 8192


def _as_array(x):
    """(x as a complex ndarray with at least one dimension, whether x is 0-d)."""
    arr = np.asarray(x, dtype=complex)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def _scale(z: np.ndarray, c: float) -> np.ndarray:
    """z *= c in place, for a complex array z and a real c."""
    view = z.view(np.float64)
    view *= c
    return z


def _raise_if_on_cut(raw, side, edge: float, message: str, error=OnCutError, **fields):
    """Refuse real-typed input where side(raw, edge) holds for some point
    (side is np.less, np.greater or np.greater_equal); message is
    formatted with edge and fields only then."""
    if type(raw) is complex:
        return
    raw = np.asarray(raw)
    if not np.iscomplexobj(raw) and side(raw, edge).any():
        raise error(message.format(edge=edge, **fields))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(n: int) -> int:
    """Worker threads `_on_threads` starts for n items."""
    return min(_cpu_count(), n)


def _on_threads(task, n: int, state=lambda: None) -> list:
    """[task(s, i) for i in range(n)], in item order, over _threads(n)
    worker threads; s = state() is made once per thread and shared by
    its items, and each item runs in its own copy of the caller's
    context, so an np.errstate holds there."""
    local = threading.local()

    def run(i):
        if not hasattr(local, "s"):
            local.s = state()
        return task(local.s, i)

    with ThreadPoolExecutor(max_workers=_threads(n)) as pool:
        futures = [pool.submit(copy_context().run, run, i) for i in range(n)]
        return [f.result() for f in futures]


def _blocked(fn, *arrays):
    """fn(*arrays) on blocks of _BLOCK points of equal-length 1-d arrays,
    over threads; a refusal in any block is raised by fn on the whole
    arrays."""

    def block(_, i):
        return fn(*[a[i * _BLOCK : (i + 1) * _BLOCK] for a in arrays])

    try:
        parts = _on_threads(block, -(-len(arrays[0]) // _BLOCK))
    except ComputationRefused:
        # which refusal, and at which point, is decided over all points
        return fn(*arrays)
    if type(parts[0]) is tuple:
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def _evaluate(fn, *points):
    """fn, which maps each point alone to an array or a tuple of arrays,
    on the points: broadcast only when their shapes differ, flattened
    only when they are not 1-d."""
    arrays, scalar = [], True
    for x in points:
        arr, is_scalar = _as_array(x)
        if not is_scalar:
            scalar = False
        arrays.append(arr)
    if scalar:
        out = fn(*arrays)
        return tuple([o.item() for o in out]) if type(out) is tuple else out.item()
    shape = arrays[0].shape
    for arr in arrays:
        if arr.shape != shape:
            arrays = np.broadcast_arrays(*arrays)
            shape = arrays[0].shape
            break
    if len(shape) != 1:
        arrays = [arr.reshape(-1) for arr in arrays]
    out = fn(*arrays) if len(arrays[0]) <= _BLOCK else _blocked(fn, *arrays)
    if len(shape) == 1:
        return out
    return tuple([o.reshape(shape) for o in out]) if type(out) is tuple else out.reshape(shape)
