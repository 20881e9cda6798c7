"""``yblab.rng.Stream`` against numpy's Generator, draw for draw."""

import random

import numpy as np
import pytest

from yblab import sampling
from yblab.rng import Stream

SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1, 1999951809, 582990048)
KEYS = (*range(12), 1000, 2000, 2001)
PAIRS = [(seed, key) for seed in SEEDS for key in KEYS]


def numpy_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def assert_same_state(ours, theirs):
    state = theirs.bit_generator.state
    assert (ours.state, ours.inc) == (state["state"]["state"], state["state"]["inc"])
    assert (ours.has_uint32, ours.uinteger) == (state["has_uint32"], state["uinteger"])


#: The calls yblab makes of a stream: uniforms on the sampler boxes and
#: on ``dia-realization``'s [-1, 1), the integers of ``dia-realization``,
#: and the arrays of uniforms on [-1, 1) of ``dia-realization`` and
#: ``pde-leading``, up to the largest ``dia-realization`` shape and a shape
#: one output longer than a jump-ahead block.  Two integer spans near 2**32
#: are added: yblab's own spans reject about once in 2**30 draws, these
#: about one draw in four, so the rejection loop runs.
CALLS = [
    *(lambda r, box=box: r.uniform(*box) for box in
      (sampling.RECT_RE, sampling.RECT_IM, sampling.MU_RE, sampling.MU_IM)),
    lambda r: r.uniform(-1, 1),
    *(lambda r, a=a: r.integers(*a) for a in ((2,), (3,), (1, 5), (0, 9), (1,),
                                              (0, 3 * 2**30), (5, 5 + 2**32 - 2))),
    *(lambda r, s=s: r.uniform(-1, 1, s) for s in ((1,), (9,), (3, 3), (2, 2, 2), (4,) * 4,
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
    # an integer draw leaves the upper half of a 64-bit output buffered; an
    # array of uniforms (the draw that replaced the normals) reads whole
    # 64-bit outputs and leaves that half alone, so the next integer draw
    # must use it
    ours, theirs = Stream(seed, key), numpy_stream(seed, key)
    assert ours.integers(3) == theirs.integers(3)
    assert np.array_equal(ours.uniform(-1, 1, (2, 2)), theirs.uniform(-1, 1, (2, 2)))
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

