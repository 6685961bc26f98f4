"""Seeded input generators for the decision benchmark.

Every known answer comes from the construction itself, never from the
code under test.  The GF(2) helpers, file writers and forests here are
the benchmark's own; the only library function used is
``corpus.random_transition``, passed in by the caller so that set-up can
time a fresh import.

Conventions match the chain file format: a transition from depth d to
d+1 is a tuple of dims[d] rows, each a mask over dims[d-1] bits, acting
on column vectors; characters of depth d are the functionals (masks)
with odd parity against the depth-d minus vector, ordered by mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


# -- GF(2) helpers -----------------------------------------------------------


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def mat_vec(rows: tuple[int, ...], v: int) -> int:
    return sum(parity(r & v) << i for i, r in enumerate(rows))


def pullback(lam: int, rows: tuple[int, ...]) -> int:
    """The functional lam composed with the matrix: XOR of the rows it selects."""
    out = 0
    for i, r in enumerate(rows):
        if lam >> i & 1:
            out ^= r
    return out


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(pullback(row, inner) for row in outer)


def rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def inverse(rows: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Inverse of an invertible k x k matrix, read off its table of images."""
    preimage = {mat_vec(rows, v): v for v in range(1 << k)}
    cols = [preimage[1 << j] for j in range(k)]
    return tuple(sum((cols[j] >> i & 1) << j for j in range(k)) for i in range(k))


def random_invertible(rng: random.Random, k: int) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.randrange(1 << k) for _ in range(k))
        if rank(rows) == k:
            return rows


# -- chains and their order data ---------------------------------------------


@dataclass(frozen=True)
class Chain:
    dims: tuple[int, ...]
    minus: tuple[int, ...]
    taus: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.dims)

    def level(self, d: int) -> list[int]:
        m = self.minus[d - 1]
        return [lam for lam in range(1 << self.dims[d - 1]) if parity(lam & m)]

    def parent(self, d: int, lam: int) -> int:
        """Mask of the depth-(d-1) character above the depth-d character lam."""
        return pullback(lam, self.taus[d - 2])

    def char_count(self) -> int:
        return sum(1 << (k - 1) for k in self.dims)

    def element_count(self) -> int:
        return 1 + sum(1 << k for k in self.dims)


def to_text(c: Chain) -> str:
    """The chain in the `.fan` file format."""
    lines = [f"fanchain n={c.n}"]
    for d in range(1, c.n + 1):
        k = c.dims[d - 1]
        lines.append(f"level d={d} dim={k} minus={bits(c.minus[d - 1], k)}")
    for d in range(1, c.n):
        body = ";".join(bits(r, c.dims[d - 1]) for r in c.taus[d - 1])
        lines.append(f"tau d={d} rows={c.dims[d]} {body}")
    return "\n".join(lines) + "\n"


def bits(mask: int, width: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(width))


def ladder(rng: random.Random, levels: int, dim: int, random_transition) -> Chain:
    """Equal-dimension chain with seeded minus vectors and transitions.

    Transitions are drawn with `random_transition` until every composite
    transition from depth k to depth j has rank dim - (j - k).  The number
    of depth-k nodes reaching depth j is 2^(rank - 1), so every seed gives
    a forest of the same shape and order queries do the same work; the
    seed varies the coordinates.
    """
    if levels > dim:
        raise ValueError("the rank profile needs levels <= dim")
    minus = tuple(rng.randrange(1, 1 << dim) for _ in range(levels))
    taus = []
    reach = tuple(1 << i for i in range(dim))    # composite from depth 1
    for d in range(levels - 1):
        while True:
            rows = random_transition(rng, dim, dim, minus[d], minus[d + 1])
            step = compose(rows, reach)
            # rank dim-1 with its kernel inside the image of `reach`: every
            # composite ending here loses exactly one rank.
            if rank(rows) == dim - 1 and rank(step) == dim - d - 1:
                break
        taus.append(rows)
        reach = step
    return Chain((dim,) * levels, minus, tuple(taus))


def shaped(rng: random.Random, dims: tuple[int, ...], random_transition) -> Chain:
    """A chain of the given level dimensions with seeded minus vectors and
    transitions, drawn the way `corpus.random_chain` draws them."""
    minus = tuple(rng.randrange(1, 1 << k) for k in dims)
    taus = tuple(random_transition(rng, dims[d], dims[d + 1], minus[d], minus[d + 1])
                 for d in range(len(dims) - 1))
    return Chain(tuple(dims), minus, taus)


def rebased(rng: random.Random, c: Chain) -> Chain:
    """An isomorphic copy: coordinates changed by a random invertible P_d per
    level, so minus_d -> P_d minus_d and tau_d -> P_{d+1} tau_d P_d^-1."""
    return rebase_with(c, [random_invertible(rng, k) for k in c.dims])


def rebase_with(c: Chain, ps: list[tuple[int, ...]]) -> Chain:
    inv = [inverse(p, k) for p, k in zip(ps, c.dims)]
    minus = tuple(mat_vec(p, m) for p, m in zip(ps, c.minus))
    taus = tuple(compose(ps[d + 1], compose(c.taus[d], inv[d])) for d in range(c.n - 1))
    return Chain(c.dims, minus, taus)


def rank_partner(rng: random.Random, c: Chain, random_transition) -> Chain:
    """A non-isomorphic partner: one transition redrawn with another rank.

    A depth-d node has children iff it lies in the image of the dual
    transition, so rank r leaves 2^(k-1) - 2^(r-1) childless nodes at that
    depth; a different rank changes that count and with it the forest.
    """
    d = rng.randrange(c.n - 1)
    old = rank(c.taus[d])
    while True:
        rows = random_transition(rng, c.dims[d], c.dims[d + 1], c.minus[d], c.minus[d + 1])
        if rank(rows) != old:
            break
    taus = c.taus[:d] + (tuple(rows),) + c.taus[d + 1:]
    return Chain(c.dims, c.minus, taus)


def broken(rng: random.Random, c: Chain) -> tuple[Chain, int]:
    """The chain with one transition no longer sending minus to minus.

    Returns the chain and the depth of the broken transition.
    """
    d = rng.randrange(c.n - 1)
    rows = list(c.taus[d])
    i = rng.randrange(len(rows))
    rows[i] ^= c.minus[d] & -c.minus[d]    # flips this row's parity on minus
    taus = c.taus[:d] + (tuple(rows),) + c.taus[d + 1:]
    return Chain(c.dims, c.minus, taus), d + 1


# -- forests -----------------------------------------------------------------


@dataclass(frozen=True)
class ForestData:
    depths: tuple[int, ...]
    parents: tuple[int | None, ...]
    labels: tuple[str, ...] = ()


def chain_forest(c: Chain) -> ForestData:
    """Specialization forest of a real fan, nodes ordered by (depth, mask)."""
    node: dict[tuple[int, int], int] = {}
    depths, parents, labels = [], [], []
    for d in range(1, c.n + 1):
        for lam in c.level(d):
            node[(d, lam)] = len(depths)
            depths.append(d)
            parents.append(None if d == 1 else node[(d - 1, c.parent(d, lam))])
            labels.append(f"d{d}:{bits(lam, c.dims[d - 1])}")
    return ForestData(tuple(depths), tuple(parents), tuple(labels))


def forest_text(f: ForestData) -> str:
    lines = []
    for i, (d, p) in enumerate(zip(f.depths, f.parents)):
        lines.append(f"node id={i} depth={d} parent={'none' if p is None else p}")
    return "\n".join(lines) + "\n"


def deepest(f: ForestData) -> list[int]:
    """Per node, the largest depth reached below it (itself included)."""
    out = list(f.depths)
    for i in sorted(range(len(f.depths)), key=lambda j: -f.depths[j]):
        p = f.parents[i]
        if p is not None and out[i] > out[p]:
            out[p] = out[i]
    return out


def strata_sets(f: ForestData) -> dict[tuple[str, int, int], set[str]]:
    """Labels in every S^k_j (reaching depth >= j) and C^k_j (exactly j)."""
    deep = deepest(f)
    n = max(f.depths)
    out: dict[tuple[str, int, int], set[str]] = {}
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            out[("S", k, j)] = set()
            out[("C", k, j)] = set()
    for i, d in enumerate(f.depths):
        for j in range(d, deep[i] + 1):
            out[("S", d, j)].add(f.labels[i])
        out[("C", d, deep[i])].add(f.labels[i])
    return out


def nested_forest(roots) -> ForestData:
    """Forest from nested child lists, numbered level by level per root."""
    depths: list[int] = []
    parents: list[int | None] = []
    for root in roots:
        frontier = [(root, None)]
        depth = 1
        while frontier:
            nxt = []
            for kids, parent in frontier:
                me = len(depths)
                depths.append(depth)
                parents.append(parent)
                nxt.extend((child, me) for child in kids)
            frontier = nxt
            depth += 1
    return ForestData(tuple(depths), tuple(parents))


LEAF: list = []
FORK = [LEAF, LEAF]                  # a node with two leaf children
TWIG = [FORK]                        # a node whose only child is a fork

# The three order configurations no fan realizes, with the witnesses the
# acceptance gate pins.  (1) two components whose level-2 sizes are 2 and 4;
# (2) a global stratum S^3_4 with three elements; (3) equal-length
# components with stratum sizes 4 vs 2 that are not order-isomorphic.
IMPOSSIBLE = {
    "impossible1": (
        nested_forest([[FORK, FORK], [FORK, FORK, FORK, FORK]]),
        {("RC3", 2, 2, 1, 2, 2, 4)},
    ),
    "impossible2": (
        nested_forest([
            [[[[FORK], [FORK]], LEAF], LEAF],
            [[[[LEAF], [LEAF]], LEAF], LEAF],
            [[[LEAF] * 4, LEAF], LEAF],
            [FORK, LEAF],
        ]),
        {("RC1", 3, 4, 3)},
    ),
    "impossible3": (
        nested_forest([
            [[TWIG, TWIG], [TWIG, TWIG], LEAF, LEAF],
            [[TWIG, TWIG], FORK, LEAF, LEAF],
        ]),
        {("RC3", 3, 4, 1, 2, 4, 2), ("RC4", 1, 2)},
    ),
}
