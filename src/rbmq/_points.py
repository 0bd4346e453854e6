"""The scalar/array convention shared by every point evaluator.

A call is scalar iff every point argument is 0-d; it then returns a
Python scalar (complex, or float for real-valued evaluators).  Array
calls return an ndarray of the broadcast shape.  Public evaluators
convert once on entry and unwrap once on exit; the array-level private
functions behind them call each other without converting.

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
place in `kernel.theta2_branches`, `_scale` (through the real view)
and the `uniformization` maps built on it, where a fresh output was
slower on large arrays (21% on 1e5 points for the kernel roots).

Large arrays go through `_blocked`.  Up to _BLOCK (8,192) points it
calls the array-level function once; above, it maps the function over
blocks of _BLOCK points (phi: columns of its (theta2, theta1) stack) on
one worker thread per CPU the process may use, at most one per block,
from one pool per call.  numpy's complex arccosh and cosh release the
GIL, so the threads overlap.  Every step is elementwise, so the blocks
and the thread count leave the bits unchanged.  A point on a cut is
refused before any block.  A refusal raised in any block makes the
function run again on the whole array, which raises the refusal a
serial call raises: psi's zero before any pole, a kernel zero off phi's
origin before any pole, and then the first pole in array order,
theta2's row over all columns before theta1's.  A worker thread starts
with numpy's default error state, not the caller's, so each block runs
in its own copy of the caller's context (`contextvars`), which carries
an `np.errstate` around the call into the workers.

A real-typed point on a branch cut is refused (`_raise_if_on_cut`); a
complex one, x + 0j or x - 0j, picks the side of the cut by the sign of
its zero imaginary part.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import numpy as np

from .errors import ComputationRefused, OnCutError

# points per block of `_blocked`: an 8,192-point complex block is 128 KiB
_BLOCK = 8192


def _as_array(x, dtype=complex):
    """(x as an ndarray of dtype with at least one dimension, whether x is 0-d)."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def _unwrap(out, is_scalar: bool):
    """Python scalar for scalar calls, the array otherwise."""
    return out.item() if is_scalar else out


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


def _blocked(fn, a, b, z: np.ndarray, stacked: bool = False) -> np.ndarray:
    """fn(a, b, z) for an array-level function fn that maps each point alone.

    The points of z are its elements, or with stacked the columns of a
    (rows, n) stack, each of which fn maps to one value.  Up to _BLOCK
    points fn runs on z; above, on blocks of _BLOCK points, one worker
    thread per CPU the process may use (at most one per block).  A
    refusal in any block is raised by fn on all of z.
    """
    n = z.shape[-1] if stacked else z.size
    if n <= _BLOCK:
        return fn(a, b, z)
    cols = z if stacked else z.reshape(-1)
    blocks = [cols[..., i : i + _BLOCK] for i in range(0, n, _BLOCK)]
    threads = min(_cpu_count(), len(blocks))
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # a thread does not inherit the caller's np.errstate: each
            # block runs in its own copy of the caller's context
            futures = [pool.submit(copy_context().run, fn, a, b, block) for block in blocks]
            parts = [f.result() for f in futures]
    except ComputationRefused:
        # which refusal, and at which point, is decided over all of z
        return fn(a, b, z)
    out = np.concatenate(parts, axis=-1)
    return out if stacked else out.reshape(z.shape)
