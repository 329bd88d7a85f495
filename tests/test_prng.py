"""The numpy-only Philox stream against ``Generator(Philox(seed))`` from
numpy's random module, which, like scipy, only the tests import: the same
uniforms, bit for bit, for chains of calls of every shape the package draws,
from one-word seeds to multi-word ones."""

import numpy as np
import pytest

from bohmpair import prng
from bohmpair.numerics import BLOCK_ROWS
from bohmpair.prng import PhiloxStream

SEEDS = [*range(50), 12345, 20_060_945, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 + 3,
         2 ** 130 + 1]

LOW3, HIGH3 = np.array([0.0, -2.0, 1e-3]), np.array([1.0, 3.5, 1e3])
LOW7, HIGH7 = np.linspace(-3.0, 0.0, 7), np.linspace(0.5, 9.0, 7)

# (low, high, size) of each call in turn.  A block holds 4 words, one per
# draw, so the running totals of words (1, 6, 6, 13, 22, 99, 138, 139, 223,
# 226, 226, 1626) end calls inside a block and start the next call from the
# block's unused words.
CHAIN = [
    (0.0, 1.0, None),
    (0.0, 1.0, 5),
    (0.0, 1.0, 0),
    (-1e-3, 1e-3, (7,)),
    (0.0, 1.0, (3, 3)),
    (0.0, 1.0, (11, 7)),
    (LOW3, HIGH3, (13, 3)),
    (2.5, 7.0, None),
    (LOW7, HIGH7, (12, 7)),
    (LOW3, 4.0, None),
    (0.0, 1.0, (0, 7)),
    (LOW7, HIGH7, (200, 7)),
]


def numpy_stream(seed):
    return np.random.Generator(np.random.Philox(seed))


def assert_same_draws(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                          np.asarray(want, dtype=float).view(np.uint64))


def assert_same_chain(seed, chain):
    ours, theirs = PhiloxStream(seed), numpy_stream(seed)
    for low, high, size in chain:
        assert_same_draws(ours.uniform(low, high, size), theirs.uniform(low, high, size))


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_numpy(seed):
    assert prng._seed_key(seed) == tuple(
        np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist())
    assert_same_chain(seed, CHAIN)


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 130 + 1])
def test_draws_span_blocks(seed):
    # One word, then 3 BLOCK_ROWS blocks and 2 words more, then (n, 7) draws
    # across two blocks: each call starts and ends inside a block of words.
    words = 3 * 4 * BLOCK_ROWS + 2
    assert_same_chain(seed, [(0.0, 1.0, None), (0.0, 1.0, words),
                             (LOW7, HIGH7, (BLOCK_ROWS + 3, 7))])


@pytest.mark.parametrize("seed", [1, 2 ** 64 + 3])
def test_chain_in_small_blocks(monkeypatch, seed):
    # Blocks of 3 counters put block edges inside every call of the chain.
    monkeypatch.setattr(prng, "BLOCK_ROWS", 3)
    assert_same_chain(seed, CHAIN)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        PhiloxStream(-1)
