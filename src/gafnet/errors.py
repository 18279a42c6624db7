"""Exception types shared across the package."""


class GafnetError(Exception):
    """Base class for package errors."""


class DataFormatError(GafnetError, ValueError):
    """Malformed or unsupported input data (files, headers, byte streams,
    series). A `ValueError` too, as its checks raised before they had a type
    of their own; the command line exits 2 on it, and 3 on a bare
    `ValueError`."""


class ShapeMismatchError(GafnetError):
    """Array shapes incompatible with an operation's contract."""


class ConfigError(DataFormatError):
    """A run setting out of its range, of the wrong kind, or that does not
    fit the data: a config file's line, or a settings object the config
    sections build."""
