"""Exception types shared across the package."""


class RmtkdError(Exception):
    """Base class for all package errors."""


class InvalidInput(RmtkdError):
    """An argument violates a documented precondition."""


class DegenerateSpectrum(RmtkdError):
    """The noise-variance fit is undefined: identical or round-off eigenvalues."""


class NumericalFailure(RmtkdError):
    """An underlying numerical routine failed to converge."""


class AlreadyProjected(RmtkdError):
    """The target layer is already followed by a projection layer."""


class GenerationFailure(RmtkdError):
    """A synthetic-data generator could not satisfy its constraints."""


class ParseError(RmtkdError):
    """A data file contains a malformed cell."""


class SchemaError(RmtkdError):
    """A data file does not match the declared schema."""


class CorruptFile(RmtkdError):
    """A checkpoint file is truncated or has bad magic bytes."""


class VersionMismatch(RmtkdError):
    """A checkpoint file was written by an incompatible format version."""


class ConfigError(RmtkdError):
    """A run configuration failed validation."""
