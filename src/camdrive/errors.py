"""Exception types raised by the model layers.

The model formulas never raise: a singular input gives NaN or inf, and
infeasibility discovered while *evaluating a design* is reported as data
(cause codes, flags on reports and candidates). These exceptions come from
the gates and the constructors. `geometry.require_feasible`, the gate of a
single design, raises NoRootFound, RollerBlocksCam or InfeasibleProfile by
the verdict's cause code, and the Hertz gate `mechanics.hertz_segment` adds
ForceSingular. Fewer than two cams raise InfeasibleCamCount, outside input
that breaks an invariant of a model object InvalidSpec, and a bad run
configuration ConfigError.
"""


class ModelError(Exception):
    """Base class for all camdrive model errors."""


class InvalidSpec(ModelError, ValueError):
    """Transmission parameters violate a hard invariant (signs, e > r)."""


class NoRootFound(ModelError, ArithmeticError):
    """Profile closure angle could not be bracketed; geometry is infeasible."""


class RollerBlocksCam(ModelError, ArithmeticError):
    """Cam curvature radius passes through zero: the roller blocks the cam."""


class ForceSingular(ModelError, ArithmeticError):
    """Contact force diverges as the pressure angle approaches 90 degrees."""


class InfeasibleCamCount(ModelError, ValueError):
    """Fewer than two conjugate cams cannot drive the follower positively."""


class InfeasibleProfile(ModelError, ArithmeticError):
    """Profile curvature radius is non-positive somewhere on the driving arc."""


class ConfigError(ModelError, ValueError):
    """Run configuration file or overrides could not be validated."""
