"""Exception types shared across the package."""


class MargexError(Exception):
    """Base class for all library errors.

    ``fields`` maps each structured field an error type carries to its JSON
    type. Each is a keyword of the constructor, ``None`` when not given, and
    a failure report copies each one that is set."""

    fields: dict[str, type] = {}

    def __init__(self, message, **values):
        undeclared = sorted(values.keys() - self.fields.keys())
        if undeclared:
            raise TypeError(f"{type(self).__name__} got unexpected keyword arguments {undeclared}")
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, values.get(name))


class DomainError(MargexError, ValueError):
    """An argument lies outside an operation's domain."""


class CapacityError(MargexError):
    """A dense table or search would exceed the configured hard cap."""


class ConsistencyError(MargexError):
    """Measures that must share a projection do not."""


class SingularityError(MargexError):
    """A required overlap cell has zero mass."""


class ZeroMassError(MargexError):
    """Conditioning on an atom of zero mass."""


class PositivityError(MargexError):
    """A measure that must be nonnegative has a negative cell (``residual``: a step's failed fit)."""

    fields = {"margin": float, "cell": int, "residual": float}


class IndependenceError(MargexError):
    """A measured independence defect exceeds its budget."""

    fields = {"defect": float, "budget": float, "index": int}


class AnchorError(MargexError):
    """An anchor pair for a right inverse does not satisfy its projection relation."""


class QuantizationError(MargexError):
    """Atom counts cannot realize a required split exactly."""


class MixingSupplyError(MargexError):
    """No supplied time shows enough measured mixing for the current step."""

    fields = {"step": int}


class SolverError(MargexError, RuntimeError):
    """The external LP solver neither solved nor proved infeasibility."""


class WindowError(MargexError):
    """Coordinates fall outside the configured finite window."""
