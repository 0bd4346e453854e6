from functools import partial

import numpy as np
import pytest

from rbmq import validate_parameters
from rbmq._points import _evaluate
from rbmq.chebyshev import _cheb_T_deriv, _order

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None


def float_property(**bounds):
    """A hypothesis property test over floats in the closed ranges
    name=(lo, hi), 200 examples, no deadline.  Without hypothesis the
    test is skipped and the rest of its module still runs."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")
    strategies = {name: st.floats(lo, hi) for name, (lo, hi) in bounds.items()}

    def wrap(fn):
        return settings(max_examples=200, deadline=None)(given(**strategies)(fn))

    return wrap


def cheb_T_deriv(a, x):
    """T_a' at x, scalar or array, on the path the gluing map's
    derivative (`transform._w_deriv`) takes."""
    af, _, integer = _order(a)
    return _evaluate(partial(_cheb_T_deriv, af, integer), x)


@pytest.fixture
def diag():
    return validate_parameters([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0])


@pytest.fixture
def corr():
    return validate_parameters([[1.0, 0.4], [0.4, 1.5]], [-0.7, -1.2])


@pytest.fixture
def corr_neg():
    return validate_parameters([[1.0, -0.5], [-0.5, 1.0]], [-1.0, -1.0])


@pytest.fixture
def regime1():
    return validate_parameters([[1.0, 0.8], [0.8, 1.0]], [-0.1, -2.0])


@pytest.fixture
def regime2():
    # engineered so the kernel root at the branch point vanishes exactly:
    # s22 = 2 mu2 s12 / mu1
    return validate_parameters([[1.0, 0.5], [0.5, 1.0]], [-1.0, -1.0])


@pytest.fixture
def beta_third():
    # beta = arccos(1/2) = pi/3
    return validate_parameters([[1.0, -0.5], [-0.5, 1.0]], [-1.0, -1.0])


def random_ergodic(rng, diagonal=False):
    """A random validated model with moderate scales."""
    s11 = rng.uniform(0.4, 2.5)
    s22 = rng.uniform(0.4, 2.5)
    rho = 0.0 if diagonal else rng.uniform(-0.85, 0.85)
    s12 = rho * np.sqrt(s11 * s22)
    mu = [-rng.uniform(0.3, 2.5), -rng.uniform(0.3, 2.5)]
    return validate_parameters([[s11, s12], [s12, s22]], mu)
