"""The two failure classes, one per exit code of the command line."""


class ConfigError(Exception):
    """An input the run cannot take: a malformed config or value, or parameters
    outside a model's physical domain (exit 2)."""


class NumericError(Exception):
    """Non-finite entries, a float overflow or an unstable integration (exit 3)."""
