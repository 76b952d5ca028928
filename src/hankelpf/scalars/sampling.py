"""Seeded random streams for identity testing."""

from __future__ import annotations

import hashlib
import random


def derive_rng(*parts) -> random.Random:
    """A Random seeded stably (across runs and platforms) from parts."""
    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))

