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

Some points need a special formula: the interval of the Chebyshev
function, the removable origin of phi1, the origin of phi.  Where the
generic formula stays finite on them (the Chebyshev function), it runs
on the whole array and the special points are overwritten after.  Where
it is 0/0 there (phi1 and phi at the origin), the evaluator tests for
such points first: when there is none, the generic formula runs on the
whole array without boolean-mask indexing, and the masked path runs
only for inputs that need it.  Either way every point sees the same
elementwise operations, so a scalar call equals the same point inside
any array.
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
