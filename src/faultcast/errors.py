"""Exception types shared across the package."""


class SimError(Exception):
    """Base class for all simulator errors."""


class InvalidParameterError(SimError, ValueError):
    """A parameter is outside its legal domain."""


class UnsupportedTopologyError(SimError):
    """The operation does not apply to this topology kind."""


class UnsupportedAlphaError(InvalidParameterError):
    """The loss fraction is outside the range the protocol supports."""


class PreconditionViolation(SimError):
    """An engine operation was called on a state that breaks its precondition."""


class AdversaryViolation(SimError):
    """An adversary returned a kill set that breaks its contract.

    Raised by the engine and never clamped: a violating adversary is a bug
    in the adversary, and the run aborts.
    """


class TooLargeError(InvalidParameterError):
    """Instance exceeds the size cap of the exhaustive search oracle."""


class ConfigError(SimError):
    """An experiment configuration is inconsistent or incomplete."""


class ScheduleOverrun(SimError):
    """A driver ran more steps than its declared schedule length."""
