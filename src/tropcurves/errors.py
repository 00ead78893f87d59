class ScaleRefusal(Exception):
    """Raised when an operation is asked to run beyond its certified scale bound."""


class WalkError(RuntimeError):
    """An invariant of the walk failed; this would falsify the induction."""
