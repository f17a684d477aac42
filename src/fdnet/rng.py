"""Seed plumbing.

Every source of randomness in the package flows from a single user-facing
integer seed.  Independent streams (train vs. test data, grid-search cells,
benchmark replicates) are derived through ``SeedSequence.spawn`` in a fixed,
documented order so that results are bit-reproducible and independent of
execution schedule.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize a non-negative int or a SeedSequence to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if int(seed) < 0:
        raise DomainError(f"a seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(int(seed))


def as_generator(seed) -> np.random.Generator:
    """Normalize an int, SeedSequence or Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_seed_sequence(seed))


def seed_to_int(ss: np.random.SeedSequence) -> int:
    """Collapse a SeedSequence to a stable 64-bit integer seed."""
    return int(ss.generate_state(1, np.uint64)[0])
