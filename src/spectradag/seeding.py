"""Deterministic RNG stream derivation.

All randomness in the package flows through numpy's PCG64 generator seeded
via ``numpy.random.SeedSequence``. Independent streams (one per Monte
Carlo trial, per sampling strategy, per trajectory count, ...) are derived
by extending the root seed's entropy with a path of small integers, so
trials are independent and insensitive to execution order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConfigError

# Fixed purpose codes used as the first path component. Keeping them in one
# table makes every derived stream's identity auditable.
STREAM_MODEL = 0
STREAM_DATA = 1
STREAM_TAIL = 2

# Categorical codes for path components that are strings elsewhere.
NOISE_CODES = {"iid": 0, "ar1": 1}
STRATEGY_CODES = {"restart_record": 0, "continuous": 1}


def seed_path(root_seed: int, *path: int) -> tuple[int, ...]:
    """Entropy tuple for a derived stream; accepted by numpy seeding APIs."""
    parts = tuple(int(x) for x in (root_seed, *path))
    if any(x < 0 for x in parts):
        raise ConfigError(f"seed path components must be nonnegative integers, got {parts}")
    return parts


def rng_from(seed) -> np.random.Generator:
    """Build a generator from an int seed, an entropy tuple, or a Generator.

    A negative seed or entropy component is a ConfigError.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Iterable) and not isinstance(seed, (str, bytes)):
        return np.random.default_rng(np.random.SeedSequence(seed_path(*seed)))
    return np.random.default_rng(seed_path(seed)[0])
