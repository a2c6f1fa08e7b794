"""Exception types shared across the package."""


class SubgeoError(Exception):
    """Base class for all package errors."""


class ContractViolation(SubgeoError):
    """An argument violated a documented precondition."""


class SingularMatrix(SubgeoError):
    """Linear system singular to working precision."""


class EvalDomain(SubgeoError):
    """A scalar field was evaluated outside its domain (log/sqrt of a
    non-positive value, division by zero).  Carries the offending point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)

    def __str__(self):
        base = super().__str__()
        if self.point is not None:
            return f"{base} at point {self.point}"
        return base


class ExprSyntaxError(SubgeoError):
    """Parse failure; ``offset`` is the byte offset of the bad token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class RankDrop(SubgeoError):
    """The chart map lost rank at a point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)


class BoundaryExit(SubgeoError):
    """Integration left the chart box.  Carries the exit time."""

    def __init__(self, t, point=None):
        super().__init__(f"trajectory left the chart box at t={t:.6g}")
        self.t = float(t)
        self.point = None if point is None else tuple(float(x) for x in point)


class PremiseFailed(SubgeoError):
    """A sample item does not meet a hypothesis of its check (a fiber with
    too few points), so it is not evaluated."""


class ConfigError(SubgeoError):
    """Suite configuration could not be loaded or validated."""
