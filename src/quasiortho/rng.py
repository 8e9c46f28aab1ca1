"""Seeded random streams with independent, addressable substreams.

numpy's ``SeedSequence`` keys every stream and runs every scalar hash;
only the trial loops' block keying (``RngStream._child_states``) runs
that hash here, vectorized over a block of keys, to numpy's bits.
"""

from __future__ import annotations

import functools

import numpy as np
# numpy 2 loads its random subpackage on first use; load it with this
# module, since every seeded run needs it, so a run's first draw does
# not pay for the import
import numpy.random  # noqa: F401

from .validate import integer

__all__ = ["RngStream"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# the two hash-constant sequences and the mix multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(h: int, mult: int, count: int) -> list[int]:
    """``h, h * mult, ..., h * mult**count`` modulo 2**32."""
    out = [h]
    for _ in range(count):
        h = (h * mult) & _MASK32
        out.append(h)
    return out


# generate_state(4, uint64) reads the pool cyclically into 8 words; word
# i is xored with the i-th hash constant and multiplied by the next one.
_STATE_WORDS = 2 * _POOL_SIZE
_STATE_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, _STATE_WORDS),
                            dtype=np.uint32)
_STATE_CYCLE = np.arange(_STATE_WORDS) % _POOL_SIZE


def _mix(x, y):
    """numpy's ``mix`` of two words; elementwise on uint32 arrays."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _pcg64_state(seed: int, initseq: int) -> tuple[int, int]:
    """``(state, inc)`` of PCG64 after ``pcg64_set_seed(seed, initseq)``:
    the increment is ``2 initseq + 1``, and the state is stepped from 0,
    offset by ``seed`` and stepped again."""
    inc = ((initseq << 1) | 1) & _MASK128
    return ((inc + seed) * _PCG64_MULT + inc) & _MASK128, inc


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_index)``.

    Identical ``(seed, stream_index)`` always reproduce bit-identical draw
    sequences. Distinct stream indices give statistically independent
    streams: a PCG64 generator is keyed through ``SeedSequence`` spawn
    keys. :meth:`substream` extends the spawn key, so trial-parallel
    drivers can hand one independent stream to each trial without
    coordinating draw counts; results are then independent of how trials
    are scheduled. The trial loops key a block of descendants at once,
    numpy hashing the shared key (``_key_pool``) and this module the
    tails (``_child_states``), and draw each through one generator per
    worker (``_Rekeyed``), bit-identical to ``substream``.

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

    @functools.cached_property
    def _key_pool(self) -> tuple[np.ndarray, int]:
        """numpy's SeedSequence pool for ``(stream_index, *path)``, the key
        every descendant's starts with, as a ``(1, 4)`` uint32 row, and the
        hash constant the next mixed-in word starts from. numpy keeps that
        constant to itself, but its ``mix_entropy`` takes 4 hash steps per
        word once there are 4, and it pads the seed to 4 words whenever a
        spawn key is given: after W words it is ``_INIT_A * _MULT_A**(4 W)``
        modulo 2**32."""
        key = (self.stream_index, *self._path)
        # numpy's words of an int: one per started 32 bits, one for 0
        words = [(int(n).bit_length() + 31) // 32 or 1
                 for n in (self.seed, *key)]
        count = max(_POOL_SIZE, words[0]) + sum(words[1:])
        h = _INIT_A * pow(_MULT_A, _POOL_SIZE * count, _MASK32 + 1) & _MASK32
        return np.random.SeedSequence(self.seed, spawn_key=key).pool[None], h

    def _child_states(self, tails) -> list[tuple[int, int]]:
        """PCG64 ``(state, inc)`` of a block of descendant streams, one per
        row of the ``(K, L)`` integer block ``tails``: row ``(a, b, ...)``
        gives the state that ``self.substream(a).substream(b)...`` seeds.

        numpy hashes the key the block shares (``_key_pool``). Its
        SeedSequence hash is then run here, vectorized over the block,
        over each tail column as one uint32 word per index, followed by
        ``generate_state(4, uint64)``; PCG64's seeding steps
        (``_pcg64_state``) follow in Python ints. A block with an index
        of 2**32 or more, which numpy hashes as several words, falls back
        to numpy's ``SeedSequence``, child by child. A negative index
        raises ValueError, as in ``substream``.
        """
        tails = np.asarray(tails)
        if tails.size and not tails.min() >= 0:
            raise ValueError(f"substream index must be >= 0, got {tails.min()}")
        if tails.size and tails.max() > _MASK32:
            key = (self.stream_index, *self._path)
            states = []
            for tail in tails.tolist():
                state = np.random.PCG64(np.random.SeedSequence(
                    self.seed, spawn_key=key + tuple(tail))).state["state"]
                states.append((state["state"], state["inc"]))
            return states
        row, h = self._key_pool
        pool = np.repeat(row, len(tails), axis=0)
        width = tails.shape[1]
        constants = np.array(_hash_constants(h, _MULT_A, _POOL_SIZE * width),
                             dtype=np.uint32)
        for j, column in enumerate(tails.T.astype(np.uint32)):
            # hashmix of the word with the next 4 hash constants, one per
            # pool entry, each mixed into its entry
            c = constants[_POOL_SIZE * j:_POOL_SIZE * (j + 1) + 1]
            value = column[:, None] ^ c[:-1]
            value *= c[1:]
            value ^= value >> 16
            pool = _mix(pool, value)
        words = pool[:, _STATE_CYCLE] ^ _STATE_CONSTANTS[:-1]
        words *= _STATE_CONSTANTS[1:]
        words ^= words >> 16
        # the uint64 state words are little-endian pairs of uint32 words
        words = words.astype(np.uint64)
        halves = (words[:, 1::2] << np.uint64(32)) | words[:, ::2]
        return [_pcg64_state((s0 << 64) | s1, (i0 << 64) | i1)
                for s0, s1, i0, i1 in halves.tolist()]

    def __repr__(self) -> str:
        path = "".join(f"/{p}" for p in self._path)
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index}{path})"


class _Rekeyed:
    """One generator that stands in for descendant streams in turn.

    ``at(state)`` sets its PCG64 to a ``(state, inc)`` from
    ``RngStream._child_states`` and returns it; its ``generator`` then
    draws exactly what that descendant's would, since a fresh PCG64
    holds no buffered word and a ``Generator`` keeps no state of its own.
    It is passed wherever a stream is read for its ``generator``. Each
    worker keeps its own.
    """

    __slots__ = ("generator",)

    def __init__(self):
        self.generator = np.random.Generator(np.random.PCG64(0))

    def at(self, state: tuple[int, int]) -> "_Rekeyed":
        s, inc = state
        self.generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": s, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return self
