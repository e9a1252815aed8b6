"""Exception types shared across the simulator."""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions
    (dimension mismatches, non-finite values, inconsistent state)."""


class DivergenceError(ContractViolation):
    """A message to be sent is non-finite: the run diverged at its step and boundary."""


class ConfigurationError(ValueError):
    """A spec or config object is internally inconsistent or out of range."""


class UnsupportedConfiguration(ConfigurationError):
    """A combination of settings that the simulator deliberately rejects
    (e.g. a per-sample cache over an infinite data stream)."""


class DecodeError(ValueError):
    """A wire message is malformed: bad header, wrong body length, or
    values outside the format's range."""
