"""Exception types shared across the package.

Two failure families matter to callers (and to the CLI exit-code mapping):
bad configuration/arguments versus numerical breakdown at run time.
"""

from __future__ import annotations

import operator


class ConfigError(ValueError):
    """Invalid parameters, configuration files, or CLI arguments."""


class NumericalError(RuntimeError):
    """Numerical failure: singularity beyond rescue, or a residual or
    imaginary part outside its documented tolerance."""


def as_int(name: str, value) -> int:
    """Python or numpy integers only: 6.0 or 3.5 is a ConfigError, not rounded."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
