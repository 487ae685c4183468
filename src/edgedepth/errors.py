"""Exception hierarchy shared across the package."""


class EdgeIdealError(Exception):
    """Base class for all package errors."""


class GraphError(EdgeIdealError):
    """Invalid graph input or a graph outside the domain of an operation."""


class LoopEdgeError(GraphError):
    pass


class BadLabelError(GraphError):
    pass


class IsolatedVertexError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class NotUnicyclicNonbipartiteError(GraphError):
    pass


class LevelBelowStartError(GraphError):
    """Requested a cover-walk level below the starting level."""


class ParseError(EdgeIdealError):
    pass


class TooLargeError(EdgeIdealError):
    """Input exceeds a configured size cap."""


class MismatchError(EdgeIdealError):
    """Two computation routes that must agree produced different answers."""


class WitnessCheckFailedError(EdgeIdealError):
    """A constructed witness failed its defining runtime assertion."""


class NoFullStateError(EdgeIdealError):
    """Cover walk reached the target level without covering every vertex."""


class InternalError(EdgeIdealError):
    """An invariant the implementation relies on was violated."""
