"""``yblab.rng.Stream`` against numpy's Generator, draw for draw."""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from yblab import rng, sampling
from yblab.rng import Stream

SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1, 1999951809, 582990048)
KEYS = (*range(12), 1000, 2000, 2001)
PAIRS = [(seed, key) for seed in SEEDS for key in KEYS]


def numpy_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def numpy_at(stream):
    """numpy's Generator on a copy of ``stream``'s PCG64 state."""
    bits = np.random.PCG64(0)  # the state set next replaces this seed's
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": stream.state, "inc": stream.inc},
                  "has_uint32": stream.has_uint32, "uinteger": stream.uinteger}
    return np.random.Generator(bits)


def assert_same_state(ours, theirs):
    state = theirs.bit_generator.state
    assert (ours.state, ours.inc) == (state["state"]["state"], state["state"]["inc"])
    assert (ours.has_uint32, ours.uinteger) == (state["has_uint32"], state["uinteger"])


#: The calls yblab makes of a stream: uniforms on the sampler boxes and
#: on ``dia-realization``'s [-1, 1), the integers and normals of
#: ``dia-realization`` and the normals of ``pde-leading``, up to the largest
#: ``dia-realization`` shape and a shape one output longer than a jump-ahead
#: block.
CALLS = [
    *(lambda r, box=box: r.uniform(*box) for box in
      (sampling.RECT_RE, sampling.RECT_IM, sampling.MU_RE, sampling.MU_IM)),
    lambda r: r.uniform(-1, 1),
    *(lambda r, a=a: r.integers(*a) for a in ((2,), (3,), (1, 5), (0, 9), (1,))),
    *(lambda r, s=s: r.standard_normal(s) for s in ((1,), (9,), (3, 3), (2, 2, 2), (4,) * 4,
                                                          (9,) * 4, (4097,))),
]


def assert_same_draw(ours, theirs):
    if isinstance(theirs, np.ndarray):
        assert isinstance(ours, np.ndarray) and np.array_equal(ours, theirs)
    else:
        assert ours == theirs


@pytest.mark.parametrize("seed, key", PAIRS)
def test_random_call_sequences_match_numpy(seed, key):
    ours, theirs = Stream(seed, key), numpy_stream(seed, key)
    assert_same_state(ours, theirs)
    assert (ours.has_uint32, ours.uinteger) == (0, 0)
    picker = random.Random(seed * 4099 + key)
    for _ in range(40):
        call = picker.choice(CALLS)
        assert_same_draw(call(ours), call(theirs))
    assert_same_state(ours, theirs)


@pytest.mark.parametrize("seed, key", PAIRS)
def test_half_word_carries_through_a_normal_draw(seed, key):
    # an integer draw leaves the upper half of a 64-bit output buffered; the
    # normal draw reads whole 64-bit outputs and leaves that half alone, so
    # the next integer draw must use it
    ours, theirs = Stream(seed, key), numpy_stream(seed, key)
    assert ours.integers(3) == theirs.integers(3)
    assert np.array_equal(ours.standard_normal((2, 2)), theirs.standard_normal((2, 2)))
    assert_same_state(ours, theirs)
    assert ours.has_uint32 == 1
    assert ours.integers(0, 9) == theirs.integers(0, 9)
    assert ours.integers(2) == theirs.integers(2)


def test_one_value_range_makes_no_draw():
    stream = Stream(1, 5)
    state = stream.state
    assert stream.integers(1) == 0 and stream.integers(7, 8) == 7
    assert stream.state == state and stream.has_uint32 == 0


def test_entropy_longer_than_the_pool_matches_numpy():
    seed, key = 2**96 + 5, 2**64 + 3  # six 32-bit words against a pool of four
    ours, theirs = Stream(seed, key), numpy_stream(seed, key)
    for call in CALLS:
        assert_same_draw(call(ours), call(theirs))


@pytest.mark.parametrize("call", [lambda r: r.integers(0), lambda r: r.integers(3, 3),
                                  lambda r: r.integers(2**32)])
def test_integers_rejects_empty_and_unsupported_ranges(call):
    with pytest.raises(ValueError):
        call(Stream(0, 0))


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        Stream(-1, 0)


# -- the ziggurat's rare branches ---------------------------------------------

MULT = 0x2360ED051FC65DA44385DF649FCCF645
M64, M128 = 2**64 - 1, 2**128 - 1
KI = np.frombuffer((Path(rng.__file__).parent / "ziggurat.bin").read_bytes()[:2048], "<u8")


def test_ziggurat_table_file_is_numpys():
    data = (Path(rng.__file__).parent / "ziggurat.bin").read_bytes()
    assert len(data) == 6144
    assert hashlib.sha256(data).hexdigest() == \
        "d46841a090f638a74c6bd112345fe681089be798d725b251129f062cad5521a3"


def step(stream, state):
    return (state * MULT + stream.inc) & M128


def aim(stream, word, hi):
    """Set ``stream.state`` so that its next 64-bit output is ``word``.

    The LCG state that outputs ``word`` is picked by its upper half ``hi``:
    XSL-RR rotates ``hi ^ lo`` right by ``hi >> 58``, so ``lo`` is ``word``
    rotated back, xor ``hi``.  One LCG step is then undone.
    """
    rot = hi >> 58
    lo = ((word << rot | word >> (64 - rot)) & M64) ^ hi
    stream.state = ((hi << 64 | lo) - stream.inc) * pow(MULT, -1, 2**128) & M128


def draw_one_off_the_fast_path(stream, picker, layer, sign_of_tail=None):
    """Aim ``stream`` at an output of ``layer`` with ``rabs >= ki[layer]``, draw
    one normal from it and from numpy's Generator at the same state, and
    return the normal and whether the stream read exactly two outputs."""
    rabs = picker.randrange(int(KI[layer]), 2**52)
    if sign_of_tail is not None:
        rabs = rabs & ~0x100 | sign_of_tail << 8
    word = picker.getrandbits(3) << 61 | rabs << 9 | picker.getrandbits(1) << 8 | layer
    aim(stream, word, picker.getrandbits(64))
    start, theirs = stream.state, numpy_at(stream)
    value = stream.standard_normal((1,))
    assert np.array_equal(value, theirs.standard_normal((1,)))
    assert_same_state(stream, theirs)
    return value[0], stream.state == step(stream, step(stream, start))


def test_every_wedge_accepts_and_rejects_as_numpy_does():
    stream, picker = Stream(3, 7), random.Random(29)
    stream.integers(3)  # leave a half word buffered
    assert stream.has_uint32 == 1
    for layer in range(1, 256):
        outcomes = set()
        for _ in range(200):
            outcomes.add(draw_one_off_the_fast_path(stream, picker, layer)[1])
            if len(outcomes) == 2:
                break
        assert outcomes == {True, False}, layer


@pytest.mark.parametrize("sign", [0, 1])
def test_tail_draws_match_numpy_with_either_sign(sign):
    stream, picker = Stream(5, 11), random.Random(sign)
    for _ in range(20):
        value, _ = draw_one_off_the_fast_path(stream, picker, 0, sign_of_tail=sign)
        assert abs(value) > 3.654 and (value < 0) == bool(sign)
