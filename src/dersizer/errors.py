"""Exception types shared across the package."""


class DersizerError(Exception):
    """Base class for all package-specific errors."""


class IngestionError(DersizerError):
    """A profile file is malformed (bad header, gap or duplicate timestamp)."""


class ValidationError(DersizerError):
    """Input values violate a domain invariant (negative load, bad fraction)."""


class ConfigError(DersizerError):
    """A study or reduction configuration is unusable."""


class BuildError(DersizerError):
    """Model construction failed (inconsistent dimensions, invalid big-M)."""


class SolverError(DersizerError):
    """A solve ended in a state the caller cannot interpret as a solution."""


class NumericalError(SolverError):
    """The LP core hit a numerical failure it could not recover from."""


class OracleGuardError(SolverError):
    """The enumeration oracle was asked to do more work than its hard guard allows."""
