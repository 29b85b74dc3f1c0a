"""Exception types raised by the model layers.

Infeasibility discovered while *evaluating a design* is reported as data
(flags on reports and candidates); these exceptions mark calls whose
preconditions are violated or whose result would be meaningless.
"""


class ModelError(Exception):
    """Base class for all camdrive model errors."""


class InvalidSpec(ModelError, ValueError):
    """Transmission parameters violate a hard invariant (signs, e > r)."""


class EtaSingular(ModelError, ValueError):
    """Eccentricity ratio too close to 1/(2*pi); profile equations degenerate."""


class NoRootFound(ModelError, ArithmeticError):
    """Profile closure angle could not be bracketed; geometry is infeasible."""


class RollerBlocksCam(ModelError, ArithmeticError):
    """Cam curvature radius passes through zero: the roller blocks the cam."""


class PressureAngleSingular(ModelError, ValueError):
    """Pressure angle evaluated at mid-stroke where it reaches +/-90 degrees."""


class ForceSingular(ModelError, ArithmeticError):
    """Contact force diverges as the pressure angle approaches 90 degrees."""


class DegenerateContact(ModelError, ValueError):
    """Cam curvature radius at or below the negative roller radius."""


class InfeasibleCamCount(ModelError, ValueError):
    """Fewer than two conjugate cams cannot drive the follower positively."""


class InfeasibleProfile(ModelError, ArithmeticError):
    """Profile curvature radius is non-positive somewhere on the driving arc."""


class ConfigError(ModelError, ValueError):
    """Run configuration file or overrides could not be validated."""
