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
can reuse: above 256 KiB (16,384 complex points) numpy writes `a * (b +
c)` into the temporary b + c, as the product with its operands swapped,
which rounds differently; such products are written `np.multiply(a, b +
c)`.  Quotients take fresh outputs too, or their own divisor, which
gives the same bits at every size.  Sums, differences, negations and
products with a real factor round each part once and may run in place;
`_scale` multiplies through the real view.

A real-typed point on a branch cut is refused (`_raise_if_on_cut`); a
complex one, x + 0j or x - 0j, picks the side of the cut by the sign of
its zero imaginary part.
"""
from __future__ import annotations

import numpy as np

from .errors import OnCutError


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


def _raise_if_on_cut(raw, side, edge: float, message: str, error=OnCutError, **fields):
    """Refuse real-typed input where side(raw, edge) holds for some point
    (side is np.less, np.greater or np.greater_equal); message is
    formatted with edge and fields only then."""
    if type(raw) is complex:
        return
    raw = np.asarray(raw)
    if not np.iscomplexobj(raw) and side(raw, edge).any():
        raise error(message.format(edge=edge, **fields))
