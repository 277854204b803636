"""Exception hierarchy shared across the package, and its input opener.

The CLI maps each category to a distinct exit code, so augmentation,
data, resource and transport failures are distinguishable to callers.
"""

from contextlib import contextmanager


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


@contextmanager
def open_input(path: str, what: str, error: type[AugbenchError],
               newline: str | None = None, encoding: str = "utf-8"):
    """Open the input file ``path`` as UTF-8 text (``encoding="utf-8-sig"``
    also drops a leading byte order mark): the one place where an input
    that cannot be opened or decoded becomes ``error``, named as ``what``.
    A decode error counts wherever the body's reads raise it."""
    try:
        fh = open(path, encoding=encoding, newline=newline)
    except OSError as exc:
        raise error(f"cannot open {what}: {path}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{what} is not UTF-8: {path}: {exc}") from exc
