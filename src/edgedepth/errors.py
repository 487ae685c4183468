"""Exception hierarchy shared across the package, and the library's size
caps: CAPS holds every cap's value, and check_cap is the one place that
refuses work over one."""


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
    """Input exceeds a size cap: an entry of CAPS (check_cap) or the CLI's
    --max-r."""


class InternalError(EdgeIdealError):
    """An invariant the implementation relies on was violated."""


class WitnessCheckFailedError(InternalError):
    """A constructed witness failed its defining runtime assertion."""


class NoFullStateError(InternalError):
    """Cover walk reached the target level without covering every vertex."""


# Every exact route grows exponentially in r or n, so each checks its cap
# here before the work it bounds.
CAPS = {
    # vertices of a 2^r array that depth.py builds, and of a search in
    # graphs.py: a block's longest cycles, a graph's maximal independent sets
    "vertex": 16,
    "box": 5_000_000,  # cells of every lcm box scanned: depth, degree and colon
    "state": 1 << 26,  # bytes of one depth walk layer's packed state keys
    "face": 1 << 20,  # faces of a complex listed from its facets
    # faces of a complex whose homology takes ranks: every non-cone on at
    # most 16 vertices passes
    "rank": 1 << 16,
    "level": 4,  # cover walk levels above r
}


def check_cap(name: str, amount: int, what: str) -> None:
    """Raise TooLargeError when amount is over CAPS[name], read at call
    time; what says what amount measures and leads the message."""
    if amount > CAPS[name]:
        raise TooLargeError(f"{what}, cap is {CAPS[name]} (the {name} cap)")
