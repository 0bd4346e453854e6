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
tests for such points first: when there is none, the generic formula
runs on the whole array without boolean-mask indexing, and the masked
path runs only for inputs that need it.  Every point sees the same
elementwise operations either way, so a scalar call equals the same
point inside any array.  The Chebyshev function needs no special
point: one formula covers its whole cut plane.

Some evaluators reuse their temporaries with in-place sums and
differences.  A complex product that writes over one of its own inputs
takes a loop without fused multiply-adds on a one-element array, so a
scalar call would round differently from the same point inside an
array; no evaluator multiplies a complex array in place (numpy's own
reuse of large temporaries never applies to one element).  A complex
array is scaled by a real in place through its real view (`_scale`),
which rounds like the complex product.
"""
from __future__ import annotations

import numpy as np


def _as_array(x, dtype=complex):
    """(x as an ndarray of dtype with at least one dimension, whether x is 0-d)."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def _unwrap(out, is_scalar: bool):
    """Python scalar for scalar calls, the array otherwise."""
    return np.asarray(out).item() if is_scalar else out


def _scale(z: np.ndarray, c: float) -> np.ndarray:
    """z *= c in place, for a complex array z and a real c."""
    view = z.view(np.float64)
    view *= c
    return z
