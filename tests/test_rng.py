import numpy as np
import pytest

from quasiortho import RngStream
from quasiortho.rng import _Rekeyed


def test_identical_streams_are_bit_identical():
    a = RngStream(1234, 5).generator.standard_normal(100)
    b = RngStream(1234, 5).generator.standard_normal(100)
    assert a.tobytes() == b.tobytes()


def test_distinct_stream_indices_differ():
    a = RngStream(1234, 0).generator.standard_normal(100)
    b = RngStream(1234, 1).generator.standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(1, 0).generator.standard_normal(100)
    b = RngStream(2, 0).generator.standard_normal(100)
    assert not np.array_equal(a, b)


def test_substreams_are_independent_and_reproducible():
    root = RngStream(7)
    kids = [root.substream(i).generator.standard_normal(50) for i in range(4)]
    again = [RngStream(7).substream(i).generator.standard_normal(50)
             for i in range(4)]
    for k, g in zip(kids, again):
        assert k.tobytes() == g.tobytes()
    # substreams differ from each other and from the parent
    parent = RngStream(7).generator.standard_normal(50)
    flat = [parent] + kids
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            assert not np.array_equal(flat[i], flat[j])


def test_nested_substreams_distinct():
    r = RngStream(11)
    a = r.substream(0).substream(1).generator.standard_normal(20)
    b = r.substream(1).substream(0).generator.standard_normal(20)
    assert not np.array_equal(a, b)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)


# ------------------------------------------- block keying: _child_states

# seeds of 1, 2, 4 and 5 entropy words
KEY_SEEDS = [0, 7, 2 ** 40 + 3, 2 ** 127 + 99, 2 ** 128 + 1]
# (stream_index, path) prefixes: some with a part of several words, so
# that the key's word count differs from its number of parts, and a long
# path
KEY_PREFIXES = [(0, ()), (3, ()), (0, (5,)), (2, (2 ** 31, 7)),
                (2 ** 32, (1, 0)), (0, (2 ** 64, 1, 2, 3, 4)),
                (2 ** 70, (0, 2 ** 33))]


def numpy_state(seed, key):
    """PCG64 ``(state, inc)`` that numpy seeds from this spawn key."""
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("prefix", KEY_PREFIXES,
                         ids=[f"index{i}-path{len(p)}" for i, p in KEY_PREFIXES])
@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_block_keys_match_numpy_seed_sequence(seed, prefix, width):
    # numpy is the oracle on every run: a numpy whose hash changed fails
    # here instead of silently moving every stream
    index, path = prefix
    tails = np.array([[0] * width, [2 ** 32 - 1] * width,
                      [t % 300 for t in range(7, 7 + width)],
                      [(2 ** 32 - 1) * (j % 2) for j in range(width)]],
                     dtype=np.int64)
    got = RngStream(seed, index, path)._child_states(tails)
    want = [numpy_state(seed, (index, *path, *map(int, tail))) for tail in tails]
    assert got == want


def test_block_keys_match_substream():
    rng = RngStream(2 ** 128 + 1, 3)
    tails = [(a, b) for a in range(0, 300, 37) for b in range(3)]
    for tail, (state, inc) in zip(tails, rng._child_states(tails)):
        child = rng.substream(tail[0]).substream(tail[1])
        assert child.generator.bit_generator.state["state"] == {
            "state": state, "inc": inc}


@pytest.mark.parametrize("tail", [(2 ** 32,), (0, 2 ** 32 + 5), (2 ** 64,)])
def test_block_keys_of_multiword_indices_fall_back_to_numpy(tail):
    # an index of 2**32 or more is several words; the block goes to numpy
    rng = RngStream(11, 1, (4,))
    tails = [tuple(0 for _ in tail), tail]
    want = [numpy_state(11, (1, 4, *t)) for t in tails]
    assert rng._child_states(tails) == want


def test_block_keys_refuse_a_negative_index():
    with pytest.raises(ValueError):
        RngStream(0)._child_states([[1], [-1]])


def test_a_rekeyed_generator_draws_as_its_substream():
    rng = RngStream(2 ** 128 + 1, 2)
    keyed = _Rekeyed()
    for t, state in enumerate(rng._child_states([[t] for t in range(5)])):
        # three int32 draws leave half a 64-bit word buffered, which
        # must not leak into the next child's draws
        got, want = keyed.at(state).generator, rng.substream(t).generator
        for draw in (lambda g: g.integers(0, 2 ** 31, size=3, dtype=np.int32),
                     lambda g: g.standard_normal(300)):
            assert draw(got).tobytes() == draw(want).tobytes()
