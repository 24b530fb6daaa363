"""Exception hierarchy shared across the toolkit.

Each category declares the CLI's exit code for it as ``exit_code``.
"""


class BitsdfError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigurationError(BitsdfError):
    """Invalid parameters: bad dimensions, missing inputs, out-of-range knobs."""

    exit_code = 2


class ResourceError(BitsdfError):
    """A requested allocation exceeds the configured memory cap."""

    exit_code = 6


class FormatError(BitsdfError):
    """Unrecognized or malformed input file (extension, magic, field layout)."""

    exit_code = 3


class CorruptionError(BitsdfError):
    """Structurally valid container with inconsistent payload (short reads,
    bad magic, non-run distance masks in checked decodes)."""

    exit_code = 4


class EvaluationError(BitsdfError):
    """Metric evaluation on degenerate inputs (empty point sets or meshes)."""

    exit_code = 5
