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
"""
from __future__ import annotations

import numpy as np


def _as_array(x, dtype=complex):
    """(x as an ndarray of dtype with at least one dimension, whether x is 0-d)."""
    arr = np.asarray(x, dtype=dtype)
    return np.atleast_1d(arr), arr.ndim == 0


def _unwrap(out, is_scalar: bool):
    """Python scalar for scalar calls, the array otherwise."""
    return np.asarray(out).item() if is_scalar else out
