"""Seeded random chain generation for property sweeps."""

from __future__ import annotations

import random

from . import gf2
from .chains import MAX_CHARACTERS, FanChain
from .errors import ResourceLimitError

#: Most chains one corpus holds.  `suite` takes about 3 ms per chain of
#: the default 4 x 4 bounds, so a corpus at this bound runs for minutes.
MAX_CORPUS_CHAINS = 1 << 16
#: Most levels one corpus can draw, count * max_levels: at 15 coordinates
#: a level takes about 240 bytes, so a corpus within it stays under
#: 300 MB.
MAX_CORPUS_LEVELS = 1 << 20
#: Largest level dimension: one level of dimension k has 2^(k-1)
#: characters, so a level of dimension 16 alone is over MAX_CHARACTERS.
MAX_CORPUS_DIM = 15


def _random_row(rng: random.Random, width: int, pivot: int, want: int) -> int:
    # Uniform over the masks whose dot with pivot has the requested parity:
    # flipping the lowest pivot bit swaps the two halves.
    row = rng.randrange(1 << width)
    if gf2.dot(row, pivot) != want:
        row ^= pivot & -pivot
    return row


def random_transition(rng: random.Random, k_from: int, k_to: int,
                      minus_from: int, minus_to: int) -> tuple[int, ...]:
    """Uniform draw among matrices sending minus_from to minus_to."""
    return tuple(
        _random_row(rng, k_from, minus_from, minus_to >> i & 1)
        for i in range(k_to))


def random_chain(rng: random.Random, max_levels: int = 4, max_dim: int = 4) -> FanChain:
    n = rng.randint(1, max_levels)
    dims = tuple(rng.randint(1, max_dim) for _ in range(n))
    minus = tuple(rng.randrange(1, 1 << k) for k in dims)
    taus = tuple(
        random_transition(rng, dims[d], dims[d + 1], minus[d], minus[d + 1])
        for d in range(n - 1))
    return FanChain(dims, minus, taus)


def generate_corpus(seed: int, count: int = 200, max_levels: int = 4,
                    max_dim: int = 4) -> list[FanChain]:
    """count random chains drawn from seed.  Before anything is drawn, a
    negative count or a bound below 1 raises ValueError, and a count, a
    level count or a level dimension over its bound (MAX_CORPUS_CHAINS,
    MAX_CHARACTERS, MAX_CORPUS_DIM), or more than MAX_CORPUS_LEVELS
    levels in all, raises ResourceLimitError."""
    if count < 0:
        raise ValueError(f"number of chains must be at least 0, got {count}")
    if max_levels < 1:
        raise ValueError(f"maximum level count must be at least 1, got {max_levels}")
    if max_dim < 1:
        raise ValueError(f"maximum level dimension must be at least 1, got {max_dim}")
    if count > MAX_CORPUS_CHAINS:
        raise ResourceLimitError(f"corpus has {count} chains, bound is {MAX_CORPUS_CHAINS}")
    if max_levels > MAX_CHARACTERS:
        raise ResourceLimitError(
            f"maximum level count is {max_levels}, bound is {MAX_CHARACTERS}")
    if max_dim > MAX_CORPUS_DIM:
        raise ResourceLimitError(
            f"maximum level dimension is {max_dim}, bound is {MAX_CORPUS_DIM}")
    if count * max_levels > MAX_CORPUS_LEVELS:
        raise ResourceLimitError(
            f"corpus may draw {count * max_levels} levels, bound is {MAX_CORPUS_LEVELS}")
    rng = random.Random(seed)
    return [random_chain(rng, max_levels, max_dim) for _ in range(count)]
