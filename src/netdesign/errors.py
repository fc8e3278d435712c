"""Exception types shared across the package."""


class NetdesignError(Exception):
    """Base class for all package-specific errors; the CLI exits 64 on any
    that is not a SolverError."""


class SolverError(NetdesignError):
    """A solve or evaluation found no certified answer; the CLI exits 2."""


class FormatError(NetdesignError):
    """Malformed or schema-violating JSON input."""


class TemplateConsistencyError(NetdesignError):
    """Two graphs disagree on the cost model or capacity of a shared edge."""


class PathLimitExceeded(SolverError):
    """A trip needs more paths than the configured cap.

    Raised when a solve's path generation (mc, so or ue) would add a path
    beyond the cap, and when simple-path enumeration
    (``enumerate_trip_paths``) lists more paths than it.
    """

    def __init__(self, limit, trip=None):
        self.limit = limit
        self.trip = trip
        where = f" for trip {trip}" if trip is not None else ""
        super().__init__(f"more than {limit} paths{where} (path limit)")


class DomainError(SolverError):
    """Cost model evaluated outside its domain (e.g. at a vertical asymptote)."""


class Infeasible(SolverError):
    """No flow satisfies the demand and capacity constraints."""


class Unbounded(SolverError):
    """Linear program objective unbounded below (never expected here)."""


class NotConverged(SolverError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, iterations, relative_gap):
        self.iterations = iterations
        self.relative_gap = relative_gap
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(relative gap {relative_gap:.3e})"
        )


class UncertifiedValue(SolverError):
    """A subset value whose solve did not satisfy its optimality certificate.

    Design verdicts bound each value's error by its certificate's
    tolerance, so a value without a satisfied certificate cannot enter one.
    """

    def __init__(self, routing, subset, certificate):
        self.routing = routing
        self.subset = tuple(subset)
        self.certificate = certificate
        super().__init__(
            f"{routing} value of subset {list(self.subset)} is not certified "
            f"(max_violation {certificate.max_violation:.3e}, "
            f"tolerance {certificate.tolerance:.3e})"
        )


class CapacitySaturation(SolverError):
    """No strictly interior starting flow exists for a congestion-priced edge."""


class Unreachable(SolverError):
    """A trip's sink cannot be reached from its source."""

    def __init__(self, trip):
        self.trip = trip
        super().__init__(f"no path from {trip.source} to {trip.sink}")


class UnknownScenario(NetdesignError):
    """Requested a built-in scenario that does not exist."""


class BadParams(NetdesignError):
    """Scenario or operation parameters are invalid."""
