import numpy as np
import pytest

from quasiortho import RngStream


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


@pytest.mark.parametrize("tails", [[(2 ** 32,)], [(0, 1), (3, 2 ** 32)],
                                   [(0,), (2 ** 64,)]],
                         ids=["alone", "two-column", "past-uint64"])
def test_block_keys_refuse_a_multiword_index(tails):
    # numpy hashes 2**32 as two words, which the uint32 cast would wrap to 0
    with pytest.raises(ValueError):
        RngStream(11, 1, (4,))._child_states(tails)


def test_block_keys_refuse_a_negative_index():
    with pytest.raises(ValueError):
        RngStream(0)._child_states([[1], [-1]])


# ------------------------------------------ keyed streams: _descendants

def draw_as(got, want):
    """Three int32 draws leave half a 64-bit word buffered, which must not
    leak into the next stream's draws; then normals."""
    for draw in (lambda g: g.integers(0, 2 ** 31, size=3, dtype=np.int32),
                 lambda g: g.standard_normal(300)):
        assert draw(got.generator).tobytes() == draw(want.generator).tobytes()


def test_descendants_draw_as_their_substreams():
    rng = RngStream(2 ** 128 + 1, 2)
    streams = rng._descendants(np.arange(5)[:, None])
    for t, stream in enumerate(streams):
        draw_as(stream, rng.substream(t))
    assert t == 4


def test_descendants_of_two_column_tails_draw_as_nested_substreams():
    rng = RngStream(7, 1, (3,))
    # rows (t, i), trial-major, as the decohere workers key them
    tails = np.column_stack(np.divmod(np.arange(2 * 3, 5 * 3), 3))
    taken = 0
    for (t, i), stream in zip(tails.tolist(), rng._descendants(tails)):
        draw_as(stream, rng.substream(t).substream(i))
        taken += 1
    assert taken == len(tails) == 9


def test_descendants_refuse_a_multiword_index():
    streams = RngStream(11, 1, (4,))._descendants([(0, 1), (0, 2 ** 32)])
    with pytest.raises(ValueError):
        next(streams)


def test_interleaved_descendants_each_draw_as_their_substreams():
    # two workers each hold one iterator; taking from one must not move
    # the other's generator
    rng = RngStream(5, 3)
    first = rng._descendants(np.arange(0, 4)[:, None])
    second = rng._descendants(np.arange(4, 8)[:, None])
    for t, (a, b) in enumerate(zip(first, second)):
        assert a.generator is not b.generator
        draw_as(a, rng.substream(t))
        draw_as(b, rng.substream(t + 4))
    assert t == 3


def test_address_names_the_whole_stream():
    assert RngStream(81).address == (81, 0)
    assert RngStream(81, 2).substream(3).substream(0).address == (81, 2, 3, 0)
    sub = RngStream(81).substream(3)
    assert RngStream(*sub.address[:2], sub.address[2:]).generator.random() \
        == sub.generator.random()
