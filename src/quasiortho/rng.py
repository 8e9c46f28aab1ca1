"""Seeded random streams with independent, addressable substreams."""

from __future__ import annotations

import numpy as np

from .validate import integer

__all__ = ["RngStream"]


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_index)``.

    Identical ``(seed, stream_index)`` always reproduce bit-identical draw
    sequences. Distinct stream indices give statistically independent
    streams: a PCG64 generator is keyed through ``SeedSequence`` spawn
    keys. :meth:`substream` extends the spawn key, so trial-parallel
    drivers can hand one independent stream to each trial without
    coordinating draw counts; results are then independent of how trials
    are scheduled.

    The stream is the only stateful object in the library: draws advance
    the underlying generator. Share streams across threads only via
    distinct substreams.
    """

    def __init__(self, seed: int, stream_index: int = 0,
                 _path: tuple[int, ...] = ()):
        self.seed = integer("seed", seed, 0)
        self.stream_index = integer("stream_index", stream_index, 0)
        self._path = tuple(_path)
        key = (self.stream_index, *self._path)
        self._generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed,
                                                   spawn_key=key))
        )

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator (stateful; draws advance it)."""
        return self._generator

    def substream(self, index: int) -> "RngStream":
        """Independent child stream, deterministic in (self, index)."""
        index = integer("substream index", index, 0)
        return RngStream(self.seed, self.stream_index, self._path + (index,))

    def __repr__(self) -> str:
        path = "".join(f"/{p}" for p in self._path)
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index}{path})"
