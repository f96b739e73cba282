"""Seeded, stream-addressable random number generation.

Every stochastic routine in the package takes an :class:`RngStream` rather
than a bare seed. A stream is the pair (seed, stream_id): the same pair
always reproduces the same draw sequence within one build, and distinct
stream ids give statistically independent sequences off the same master
seed. Work that can be split assigns consecutive stream ids to its units:
a block of Monte Carlo realizations, an optimizer start, a benchmark seed.
Any partition of the work along those units yields an identical result set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream"]

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    Parameters
    ----------
    seed:
        Master seed, treated as a 64-bit integer.
    stream_id:
        Substream index, treated as a 64-bit integer.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an integer, got {type(self.seed).__name__}")
        if not isinstance(self.stream_id, (int, np.integer)) or isinstance(self.stream_id, bool):
            raise TypeError(f"stream_id must be an integer, got {type(self.stream_id).__name__}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed & _U64, spawn_key=(self.stream_id & _U64,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, offset: int) -> "RngStream":
        """Stream with the same seed and stream_id shifted by ``offset``."""
        return RngStream(self.seed, self.stream_id + int(offset))
