"""Exception and warning types shared across the library."""


class RBMQError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(RBMQError, ValueError):
    """Model parameters violate a structural or ergodicity condition."""


class NonSymmetricCovarianceError(ValidationError):
    pass


class SingularCovarianceError(ValidationError):
    pass


class NotErgodicError(ValidationError):
    """One or more ergodicity inequalities fail; lists every violation."""

    def __init__(self, failed):
        self.failed = tuple(failed)
        super().__init__("ergodicity conditions violated: " + "; ".join(self.failed))


class ComputationRefused(RBMQError, ValueError):
    """An evaluation was refused at this point (cut, pole, wrong regime, ...)."""


class OnCutError(ComputationRefused):
    pass


class AtBranchPointError(ComputationRefused):
    pass


class OnKernelCurveError(ComputationRefused):
    pass


class AtPoleError(ComputationRefused):
    """Evaluation hit a pole; carries the detected location and order."""

    def __init__(self, location, order=1):
        self.location = location
        self.order = order
        super().__init__(f"pole of order {order} at {location}")


class AtZeroError(ComputationRefused):
    pass


class WrongRegimeError(ComputationRefused):
    pass


class IntegerExponentError(ComputationRefused):
    pass


class OnLogCutError(ComputationRefused):
    pass


class AtZeroOrInfinityError(ComputationRefused):
    pass


class NotDiagonalError(ComputationRefused):
    pass


class ContourCollisionError(RBMQError):
    pass


class MethodDisagreementError(RBMQError):
    """The inversion's two Talbot contours disagree beyond tolerance, or
    either gives a non-finite value."""


class StepSizeWarning(UserWarning):
    """Simulation step is large relative to 1/|drift|."""
