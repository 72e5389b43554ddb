"""Shared exception types."""


class RejectedInputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


class SubgroupError(RejectedInputError):
    """Raised when an oblivious-transfer party receives a group element
    outside the order-q subgroup."""


class ConfigurationError(ValueError):
    """Raised for bad scenario/config files or parameter values."""


class CorruptedCircuitError(RuntimeError):
    """Raised when a garbled row fails its tag check or a label is unknown."""


class MalformedFlagError(ValueError):
    """Raised when a block flag field violates its encoding rules."""
