"""Exception hierarchy shared across the package.

The CLI maps each category to a distinct exit code, so augmentation,
data, resource and transport failures are distinguishable to callers.
"""


class AugbenchError(Exception):
    """Base class for all package errors."""


class ConfigError(AugbenchError):
    """Invalid or unparseable experiment configuration."""


class DataError(AugbenchError):
    """Bad dataset input: missing file, malformed header, zero valid rows."""


class ResourceError(AugbenchError):
    """Bad lexical resource: paraphrase file or embedding file unusable."""


class TransportError(AugbenchError):
    """A remote provider failed after bounded retries."""


class TrainingError(AugbenchError):
    """Classifier training cannot proceed (single class, degenerate kernel)."""


class DegenerateFeaturesError(TrainingError):
    """Feature matrix has zero variance; gamma='scale' is undefined."""


class EmptySentenceError(AugbenchError):
    """A sentence tokenized to nothing and cannot be augmented."""


class InvariantError(AugbenchError):
    """A grid invariant failed: train/test overlap or augmentation purity."""
