"""Model ingestion: parameter validation and derived scalar quantities.

The model is the pair (sigma, mu): a 2x2 covariance matrix and a drift
vector with negative components.  Reflection on the axes is orthogonal
(reflection matrix the identity); this is part of what a model is, not
a parameter.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NonSymmetricCovarianceError,
    NotErgodicError,
    SingularCovarianceError,
    ValidationError,
)

__all__ = [
    "ModelParams",
    "DerivedScalars",
    "validate_parameters",
    "derived_scalars",
    "params_from_dict",
    "params_to_dict",
    "load_config",
]


@dataclass(frozen=True)
class ModelParams:
    """Validated (sigma, mu) pair.

    Attributes
    ----------
    sigma : ndarray, shape (2, 2)
        Symmetric positive-definite covariance (variance per unit time).
    mu : ndarray, shape (2,)
        Drift (distance per unit time); both components negative.

    Instances are immutable and safe to share across threads.
    """

    sigma: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        for name in ("sigma", "mu"):
            getattr(self, name).setflags(write=False)

    # scalar accessors used throughout the kernel algebra, computed once
    # per instance (the arrays are read-only)
    @cached_property
    def s11(self) -> float:
        return float(self.sigma[0, 0])

    @cached_property
    def s12(self) -> float:
        return float(self.sigma[0, 1])

    @cached_property
    def s22(self) -> float:
        return float(self.sigma[1, 1])

    @cached_property
    def m1(self) -> float:
        return float(self.mu[0])

    @cached_property
    def m2(self) -> float:
        return float(self.mu[1])

    @cached_property
    def det_sigma(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12

    @cached_property
    def scale(self) -> float:
        """Magnitude used to normalise residual tolerances."""
        return max(float(np.abs(self.sigma).max()), float(np.abs(self.mu).max()))

    @cached_property
    def swapped(self) -> "ModelParams":
        """The index-swapped model (coordinates 1 and 2 exchanged)."""
        return ModelParams(
            np.array(self.sigma[::-1, ::-1]),
            np.array(self.mu[::-1]),
        )


@dataclass(frozen=True)
class DerivedScalars:
    """Correlation angle and the four branch points of the kernel.

    beta is arccos(-s12 / sqrt(s11 s22)), strictly inside (0, pi).
    theta1_minus < 0 < theta1_plus are the roots of the discriminant in
    the first variable, theta2_minus < 0 < theta2_plus of the one in the
    second.
    """

    beta: float
    theta1_minus: float
    theta1_plus: float
    theta2_minus: float
    theta2_plus: float

    @property
    def pi_over_beta(self) -> float:
        return np.pi / self.beta


def _real_array(value, name: str) -> np.ndarray:
    """value as a float ndarray; non-numeric or ragged input is refused."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric, got {value!r}") from None


def validate_parameters(sigma, mu) -> ModelParams:
    """Validate raw input and return immutable ModelParams.

    Strict inequalities are tested exactly against zero: the admissible
    set is open, and softening the comparisons would silently change
    the model class.  Callers wanting a margin should pre-scale inputs.

    Raises
    ------
    ValidationError (non-numeric, wrong shape, non-finite),
    NonSymmetricCovarianceError, SingularCovarianceError, NotErgodicError
    """
    sigma = _real_array(sigma, "sigma")
    mu = _real_array(mu, "mu")

    if sigma.shape != (2, 2):
        raise ValidationError(f"sigma must be 2x2, got shape {sigma.shape}")
    if mu.shape != (2,):
        raise ValidationError(f"mu must be a 2-vector, got shape {mu.shape}")
    if not (np.isfinite(sigma).all() and np.isfinite(mu).all()):
        raise ValidationError("parameters must be finite")

    if sigma[0, 1] != sigma[1, 0]:
        raise NonSymmetricCovarianceError(
            f"sigma[0,1]={sigma[0,1]!r} != sigma[1,0]={sigma[1,0]!r}"
        )
    s11, s22 = sigma[0, 0], sigma[1, 1]
    det = s11 * s22 - sigma[0, 1] ** 2
    if s11 <= 0 or s22 <= 0 or det <= 0:
        raise SingularCovarianceError(
            f"need s11 > 0, s22 > 0, det > 0; got s11={s11}, s22={s22}, det={det}"
        )

    # with orthogonal reflection the process is ergodic iff both drifts
    # point into the axes
    failed = [f"mu{i} < 0 fails (mu{i}={m})" for i, m in enumerate(mu, 1) if not m < 0]
    if failed:
        raise NotErgodicError(failed)

    return ModelParams(sigma.copy(), mu.copy())


def _theta2_branch_points(p: ModelParams) -> tuple[float, float]:
    """(theta2_minus, theta2_plus): the roots of the discriminant of the
    kernel as a quadratic in theta1."""
    det = p.det_sigma
    b = p.m1 * p.s12 - p.m2 * p.s11
    root = np.sqrt(b * b + p.m1 * p.m1 * det)
    return float((b - root) / det), float((b + root) / det)


def derived_scalars(p: ModelParams) -> DerivedScalars:
    """Correlation angle beta and branch points from their closed forms;
    the theta1 pair is the theta2 pair of the index-swapped model."""
    beta = float(np.arccos(-p.s12 / np.sqrt(p.s11 * p.s22)))
    theta1_minus, theta1_plus = _theta2_branch_points(p.swapped)
    theta2_minus, theta2_plus = _theta2_branch_points(p)
    return DerivedScalars(
        beta=beta,
        theta1_minus=theta1_minus,
        theta1_plus=theta1_plus,
        theta2_minus=theta2_minus,
        theta2_plus=theta2_plus,
    )


def params_from_dict(d: dict) -> ModelParams:
    """Build ModelParams from the JSON config mapping.

    Schema: {"sigma": [[s11, s12], [s12, s22]], "mu": [m1, m2]}.  An
    optional "r" (reflection matrix) is accepted only as the identity
    [[1, 0], [0, 1]], since reflection is orthogonal.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"config must be a JSON object, got {type(d).__name__}")
    try:
        sigma = d["sigma"]
        mu = d["mu"]
    except KeyError as exc:
        raise ValidationError(f"config missing required field {exc}") from None
    if "r" in d and not np.array_equal(_real_array(d["r"], "r"), np.eye(2)):
        raise ValidationError(
            f"r must be the identity [[1, 0], [0, 1]] (orthogonal reflection), got {d['r']!r}"
        )
    return validate_parameters(sigma, mu)


def params_to_dict(p: ModelParams) -> dict:
    return {
        "sigma": [[p.s11, p.s12], [p.s12, p.s22]],
        "mu": [p.m1, p.m2],
    }


def load_config(path) -> ModelParams:
    """Read a JSON model config file and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    return params_from_dict(d)
