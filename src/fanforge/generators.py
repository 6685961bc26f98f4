"""Stratum-compatible generating systems.

A generating system picks one basis per level so that, for every k <= j,
the part of the level-k basis reaching depth j is itself a basis of that
stratum, and so that basis members are closed under taking successors.
These two properties are what the constructive isomorphism engine needs.

The construction works top down: a tower-adapted basis of level 1, then
per level a block of generators under one fixed deep basis element plus
a single lift for every other basis element that reaches deeper.  Every
choice is made by position, so two isomorphic spaces get systems that
agree position by position, which is how the isomorphism builder pairs
them.  Construction and verification read the forest by node index and
never build the space's table of characters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, pairwise

from . import gf2
from .chains import ChainChar
from .levels import PropertyReport, extend_basis
from .spectral import FanSpace


@dataclass(frozen=True)
class GeneratingSystem:
    bases: tuple[tuple[ChainChar, ...], ...]
    # per member, the branch that made it: ('tower', reach), ('block', h0)
    # or ('lift', the previous-level member it lifts)
    provenance: tuple[tuple[ChainChar, tuple], ...] = ()

    def level_basis(self, k: int) -> tuple[ChainChar, ...]:
        return self.bases[k - 1]

    def members(self) -> tuple[ChainChar, ...]:
        return tuple(g for basis in self.bases for g in basis)


class _Policy:
    """Choice points: the first candidate in the order given, or uniform
    draws under a seed.

    The construction hands over candidates in an order fixed by the
    structure (a basis in basis order, a fiber in node order), never by a
    fresh sort, and each draw consumes the rng by the candidate count
    alone.  So two isomorphic spaces built with one seed make their
    choices at the same positions.
    """

    def __init__(self, seed: int | None):
        self.rng = None if seed is None else random.Random(seed)

    def pick(self, candidates) -> ChainChar:
        if not candidates:
            raise ValueError("no candidate available")
        return candidates[0] if self.rng is None else self.rng.choice(candidates)

    def order(self, items) -> list[ChainChar]:
        items = list(items)
        if self.rng is not None:
            self.rng.shuffle(items)
        return items


def fiber_tower_basis(space: FanSpace, h0: ChainChar | None, level: int,
                      policy: "_Policy") -> tuple[ChainChar, ...]:
    """Basis of the level-`level` characters under h0, adapted to depth reach.

    h0=None means the whole level.  For every j the members reaching
    depth j form a basis of that part of the fiber.  The fiber is scanned
    once, deepest reach first (a stable sort, so members of equal reach
    keep the policy's order): every prefix of that scan ending at a reach
    boundary is one such part, and a greedy pass keeps a basis of each
    prefix.
    """
    forest = space.forest
    fiber = forest.level(level) if h0 is None else forest.children[space.node(h0)]
    scan = sorted(policy.order(fiber), key=forest.deep.__getitem__, reverse=True)
    masks, first = space.masks[level - 1], forest.level(level)[0]
    new = tuple.__new__     # ChainChar(level, m) without a Python-level call
    return extend_basis(space, (), [new(ChainChar, (level, masks[i - first])) for i in scan])


def standard_generating_system(space: FanSpace, seed: int | None = None) -> GeneratingSystem:
    """Build a generating system; deterministic without a seed.

    Seeded runs draw uniformly at every choice point and are reproducible
    for a fixed seed.  h0 is the first full-reach member of the previous
    basis (or a draw among them) and each lift the first eligible
    character, so on isomorphic spaces the systems built with one seed
    have the same reach, the same role and the same draw at each basis
    position.  Reaches and fibers are read off the forest by node index;
    a ChainChar is made only for a tower's scan and for each lift.
    """
    policy = _Policy(seed)
    n = space.length
    forest = space.forest
    deep, children = forest.deep, forest.children
    provenance: list[tuple[ChainChar, tuple]] = []

    basis = fiber_tower_basis(space, None, 1, policy)
    provenance += [(g, ("tower", deep[space.node(g)])) for g in basis]
    bases = [basis]

    for k in range(1, n):
        reach = [deep[space.node(g)] for g in basis]
        h0 = policy.pick([g for g, r in zip(basis, reach) if r == n])
        # Tower-adapted basis of the whole fiber under h0, so the block
        # meets every stratum of the fiber in a basis.  (A basis of the
        # deepest stratum alone under-spans when part of the fiber stops
        # higher.)
        block = fiber_tower_basis(space, h0, k + 1, policy)
        provenance += [(g, ("block", h0)) for g in block]
        masks, first = space.masks[k], forest.level(k + 1)[0]
        lifts = []
        for h, jh in zip(basis, reach):
            if h == h0 or jh < k + 1:
                continue
            i = policy.pick([c for c in children[space.node(h)] if deep[c] == jh])
            lifts.append((h, ChainChar(k + 1, masks[i - first])))
        provenance += [(g, ("lift", h)) for h, g in lifts]
        basis = block + tuple(g for _, g in lifts)
        bases.append(basis)

    return GeneratingSystem(tuple(bases), tuple(provenance))


def _node_or_none(space: FanSpace, g) -> int | None:
    try:
        return space.node(g)
    except KeyError:
        return None


def _fits(part, nodes, k: int, card: int) -> bool:
    """part is an independent set of depth-k characters, each reaching
    depth j, whose odd products are exactly the card characters of level
    k reaching depth j.

    nodes[i] is the node of part[i], None when it is not a character.
    S^k_j is the image of level j under the composite pullback, an affine
    set, and r independent members of it have 2^(r-1) distinct odd
    products in it, so when that is the card they are the whole set.
    """
    if not part or any(i is None or g.depth != k for g, i in zip(part, nodes)):
        return False
    base = part[0].mask
    diffs = [g.mask ^ base for g in part[1:]]
    return card == 1 << len(diffs) and gf2.rank(diffs) == len(diffs)


def verify_sgs(space: FanSpace, gs: GeneratingSystem) -> PropertyReport:
    """Check level spanning, stratum-compatibility, and successor closure.

    S^k_j changes with j only past a reach value present at level k, and a
    basis closed under parents is closed under every successor.  Each
    level's spanning check and stratum checks are one test (_fits) on the
    members' nodes and masks, with the stratum sizes from the forest's
    profile; a part holds the members that reach depth j.  A basis member
    that is not a character of the level fails the spanning check, the
    stratum checks whose part holds it and the closure check of its
    level."""
    report = PropertyReport()
    n = space.length
    forest = space.forest
    deep = forest.deep
    nodes = [[_node_or_none(space, g) for g in gs.level_basis(k)] for k in range(1, n + 1)]
    for k in range(1, n + 1):
        bk, at = gs.level_basis(k), nodes[k - 1]
        card = len(space.masks[k - 1])
        report.add(f"spans-level({k})", _fits(bk, at, k, card))
        member_reach = [0 if i is None else deep[i] for i in at]
        profile = forest.profile[k]
        for shallower, j in pairwise(profile):
            card -= profile[shallower]
            keep = [r >= j for r in member_reach]
            part = tuple(compress(bk, keep))
            good = _fits(part, tuple(compress(at, keep)), k, card)
            report.add(f"stratum-basis({k},{j})", good, part if not good else ())
    depths = forest.depths
    for k in range(2, n + 1):
        above = set(nodes[k - 2])
        report.add(f"successor-closure({k - 1},{k})",
                   all(i is not None and depths[i] >= k - 1 and forest.ancestor(i, k - 1) in above
                       for i in nodes[k - 1]))
    return report
