import random
from pathlib import Path

import pytest

import fanforge.levels
from fanforge import gf2, isomorphism
from fanforge.chains import ChainChar, FanChain
from fanforge.corpus import generate_corpus, random_transition
from fanforge.formats import parse_forest
from fanforge.spectral import FanSpace, Forest

DATA = Path(__file__).parent / "data"

# Shared desk fixtures.  E1 is the 7-element fan with one root and two
# leaves; E1P is the same shape with the other minus class; E2 is a
# single level of dimension 2; EA has a full-rank transition (two
# disjoint chains), EB a rank-1 transition (a vee plus an isolated
# root); TRIV is the one-character fan; CHAIN3 a three-level chain.
E1 = FanChain((1, 2), (1, 1), ((1, 0),))
E1P = FanChain((1, 2), (1, 2), ((0, 1),))
E2 = FanChain((2,), (3,), ())
EA = FanChain((2, 2), (1, 1), ((1, 2),))
EB = FanChain((2, 2), (1, 1), ((1, 0),))
TRIV = FanChain((1,), (1,), ())
CHAIN3 = FanChain((1, 1, 1), (1, 1, 1), ((1,), (1,)))

CORPUS_SEED = 20170301


def ladder(rng: random.Random, levels: int, dim: int) -> FanChain:
    """Equal-dimension chain whose composite transition from depth k to j
    has rank dim - (j - k), so every stratum size is fixed by the shape."""
    minus = tuple(rng.randrange(1, 1 << dim) for _ in range(levels))
    taus = []
    reach = gf2.identity_rows(dim)
    for d in range(levels - 1):
        while True:
            rows = random_transition(rng, dim, dim, minus[d], minus[d + 1])
            step = gf2.compose(rows, reach)
            if gf2.rank(rows) == dim - 1 and gf2.rank(step) == dim - d - 1:
                break
        taus.append(rows)
        reach = step
    return FanChain((dim,) * levels, minus, tuple(taus))


def mixed_chain(rng: random.Random, dims: tuple[int, ...]) -> FanChain:
    """Chain of the given level dimensions, each transition a uniform
    draw among the matrices that send minus to minus."""
    minus = tuple(rng.randrange(1, 1 << k) for k in dims)
    return FanChain(dims, minus, tuple(
        random_transition(rng, dims[d], dims[d + 1], minus[d], minus[d + 1])
        for d in range(len(dims) - 1)))


def oracle_characters(c: FanChain) -> list[ChainChar]:
    """One parity test per functional of every level: how the characters
    were first enumerated, the oracle for chains.level_masks."""
    return [ChainChar(d, lam) for d, (k, minus) in enumerate(zip(c.dims, c.minus), start=1)
            for lam in range(1 << k) if (lam & minus).bit_count() & 1]


def oracle_mask_to_bits(mask: int, width: int) -> str:
    """formats.mask_to_bits as first written, one bit test per
    coordinate: the oracle for its output."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(width))


def forked_paths(n: int) -> Forest:
    """Two n-level paths, the second with another child under its depth
    n - 1 node: refused, and at every depth the two differ at depth n."""
    path = [None] + list(range(n - 1))          # node d - 1 sits at depth d
    parents = path + [None if p is None else p + n for p in path] + [2 * n - 2]
    return Forest(tuple(range(1, n + 1)) * 2 + (n,), tuple(parents))


def fan_types(n: int, k: int):
    """Every fan of n levels of dimension at most k, once up to isomorphism:
    the direct sum of interval chains for each multiset of intervals (i, j),
    1 <= i <= j <= n, that holds (1, n) and covers each level at most k
    times.  The multisets are listed in order, each interval at or after
    the one before it."""
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]

    def grow(rest, start, cover):
        yield isomorphism._interval_chain(n, [(1, n)] + rest)
        for t in range(start, len(intervals)):
            i, j = intervals[t]
            if max(cover[i - 1:j]) < k:
                yield from grow(rest + [(i, j)], t,
                                cover[:i - 1] + [c + 1 for c in cover[i - 1:j]] + cover[j:])

    yield from grow([], 0, [1] * n)


@pytest.fixture(scope="session")
def census_spaces():
    """The spaces of every fan type of at most 4 levels of dimension at most 4."""
    return [FanSpace(c) for n in range(1, 5) for c in fan_types(n, 4)]


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(CORPUS_SEED, count=200, max_levels=4, max_dim=4)


@pytest.fixture(scope="session")
def corpus_spaces(corpus):
    return [FanSpace(c) for c in corpus]


@pytest.fixture(scope="session")
def impossible_forests():
    return {
        i: parse_forest((DATA / f"impossible{i}.forest").read_text())
        for i in (1, 2, 3)
    }


def patch_random_shifts(monkeypatch, rng):
    """Replace levels._shifts by random shifts, each the quotient of two
    same-level characters, drawn once per (space, g1, g2, d) in level
    order.  Real handles always pass, so this is how failures are made."""
    drawn = {}

    def random_shift(space, g1, g2, d):
        key = (id(space), g1, g2, d)
        if key not in drawn:
            a, b = rng.choice(space.level(d)), rng.choice(space.level(d))
            drawn[key] = a.mask ^ b.mask
        return drawn[key]

    def random_shifts(space, g1, g2):
        return tuple(random_shift(space, g1, g2, d)
                     for d in range(1, min(g1.depth, g2.depth) + 1))

    monkeypatch.setattr(fanforge.levels, "_shifts", random_shifts)
