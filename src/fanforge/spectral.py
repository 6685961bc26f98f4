"""Specialization order of a fan's character space.

The order is a root-system: a forest whose roots sit at depth 1 and in
which every up-set is a chain.  Forest is the pure order data (used both
for extracted root systems and for externally supplied candidates);
FanSpace wraps a chain with its characters and answers order queries in
chain coordinates.  Its only order data is the forest: each character's
parent is its functional pulled back along the transition into its
depth, read from one pullback table per transition, and every successor
is read off the parent links, so the state is linear in the number of
characters.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import gf2
from .chains import ChainChar, FanChain, characters_of_levels, level_masks
from .errors import StructuralError


def _graded_levels(depths, parents) -> tuple[tuple[int, ...], ...] | None:
    """The nodes of each depth in index order, or None unless the roots
    are exactly the depth-1 nodes and every depth-d node's parent is a
    depth-(d - 1) node.

    No forest is deeper than it has nodes, so the greatest depth is
    checked against the node count before anything is made per depth.
    """
    n = len(depths)
    if not n:
        return ()
    ordered = sorted(depths)
    if ordered[0] != 1 or ordered[-1] > n:
        return None
    # order lists the nodes depth by depth and ps their parents in that
    # order; ordered[a:b] is the block of depth d
    if ordered == list(depths):
        order, ps = range(n), parents
    else:
        order = sorted(range(n), key=depths.__getitem__)
        ps = [parents[i] for i in order]
    b = bisect_right(ordered, 1)
    if ps[:b].count(None) != b:
        return None
    levels = [tuple(order[:b])]
    for d in range(2, ordered[-1] + 1):
        a, b = b, bisect_right(ordered, d, b)
        if not set(levels[-1]).issuperset(ps[a:b]):
            return None
        levels.append(tuple(order[a:b]))
    return tuple(levels)


def _first_fault(depths, parents) -> str:
    """What is wrong with the first node, in index order, that breaks the
    grading by depth."""
    for i, (d, p) in enumerate(zip(depths, parents)):
        if d < 1:
            return f"node {i} has depth {d}"
        if p is None:
            if d != 1:
                return f"node {i} has no parent but depth {d}"
        else:
            if not 0 <= p < len(depths):
                return f"node {i} has parent {p} out of range"
            if depths[p] != d - 1:
                return f"node {i} at depth {d} has parent at depth {depths[p]}"
    return "forest is not graded by depth"


@dataclass(frozen=True)
class Forest:
    depths: tuple[int, ...]
    parents: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.depths) != len(self.parents):
            raise StructuralError("depths and parents must have equal length")
        levels = _graded_levels(self.depths, self.parents)
        if levels is None:
            raise StructuralError(_first_fault(self.depths, self.parents))
        object.__setattr__(self, "_levels", levels)

    def __len__(self) -> int:
        return len(self.depths)

    @cached_property
    def length(self) -> int:
        return len(self._levels)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.depths]
        parents = self.parents
        for level in self._levels[1:]:
            for i in level:
                kids[parents[i]].append(i)
        return tuple(map(tuple, kids))

    @cached_property
    def deep(self) -> tuple[int, ...]:
        """Per node, the largest depth among its descendants (and itself)."""
        out = list(self.depths)
        parents = self.parents
        for level in reversed(self._levels[1:]):
            for i in level:
                p = parents[i]
                if out[i] > out[p]:
                    out[p] = out[i]
        return tuple(out)

    @cached_property
    def profile(self) -> tuple[dict[int, int], ...]:
        """profile[k][j] = card(C^k_j) for the reaches j present at depth k,
        ascending; card(S^k_j) is the sum over reaches >= j."""
        deep = self.deep
        return ({},) + tuple(dict(sorted(Counter([deep[i] for i in level]).items()))
                             for level in self._levels)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return self._levels[0] if self._levels else ()

    @cached_property
    def root_of(self) -> tuple[int, ...]:
        out = list(range(len(self)))
        for d in range(2, self.length + 1):
            for i in self.level(d):
                out[i] = out[self.parents[i]]
        return tuple(out)

    def ancestor(self, i: int, depth: int) -> int:
        """The unique node above i (or i itself) at the given depth."""
        if not 1 <= depth <= self.depths[i]:
            raise ValueError(f"node {i} has depth {self.depths[i]}, no ancestor at {depth}")
        while self.depths[i] > depth:
            i = self.parents[i]  # type: ignore[assignment]
        return i

    def descendants(self, i: int) -> tuple[int, ...]:
        """i together with everything below it, in index order."""
        out = [i]
        for g in out:
            out.extend(self.children[g])
        return tuple(sorted(out))

    def level(self, d: int) -> tuple[int, ...]:
        return self._levels[d - 1] if 1 <= d <= self.length else ()

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(nodes) for nodes in self._levels)

    def stratum(self, kind: str, k: int, j: int) -> tuple[int, ...]:
        """Depth-k nodes whose deepest descendant reaches depth j (S) or
        exactly depth j (C)."""
        if kind not in ("S", "C"):
            raise ValueError(f"stratum kind must be 'S' or 'C', not {kind!r}")
        if not 1 <= k <= j <= self.length:
            raise ValueError(f"need 1 <= k <= j <= {self.length}, got k={k}, j={j}")
        deep = self.deep
        if kind == "S":
            return tuple(i for i in self._levels[k - 1] if deep[i] >= j)
        return tuple(i for i in self._levels[k - 1] if deep[i] == j)

    def shape(self, cut: int) -> tuple[int, ...]:
        """Per node, its AHU class in the forest cut at depth `cut` (-1 below), deepest first."""
        ids: dict[tuple[int, ...], int] = {}
        out = [-1] * len(self)
        for d in range(cut, 0, -1):
            for i in self.level(d):     # a node at the cut counts as a leaf
                kids = self.children[i] if d < cut else ()
                out[i] = ids.setdefault(tuple(sorted(out[c] for c in kids)), len(ids))
        return tuple(out)

    def pred_nodes(self, h: int, j1: int, j2: int, kind: str) -> tuple[int, ...]:
        """Predecessors of h in the (j2, j1) stratum: depth-j2 nodes under h
        reaching depth j1 at least (kind 'B') or exactly (kind 'A')."""
        if kind not in ("B", "A"):
            raise ValueError(f"pred-set kind must be 'B' or 'A', not {kind!r}")
        if not self.depths[h] <= j2 <= j1 <= self.length:
            raise ValueError(
                f"need depth(h) <= j2 <= j1 <= {self.length}, got j2={j2}, j1={j1}")
        depths, deep = self.depths, self.deep
        return tuple(g for g in self.descendants(h) if depths[g] == j2
                     and (deep[g] >= j1 if kind == "B" else deep[g] == j1))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Classes of the common-upper-bound relation, grouped by root."""
        by_root: dict[int, list[int]] = {}
        for i in range(len(self)):
            by_root.setdefault(self.root_of[i], []).append(i)
        return tuple(tuple(by_root[r]) for r in self.roots)

    def truncate(self, max_depth: int) -> Forest:
        """Delete every node deeper than max_depth, keeping node order."""
        keep = [i for i, d in enumerate(self.depths) if d <= max_depth]
        renum = {old: new for new, old in enumerate(keep)}
        return Forest(
            tuple(self.depths[i] for i in keep),
            tuple(None if self.parents[i] is None else renum[self.parents[i]] for i in keep))

    def restrict(self, nodes: tuple[int, ...]) -> Forest:
        """Sub-forest on a downward-closed-from-above node set (e.g. a component)."""
        keep = sorted(nodes)
        renum = {old: new for new, old in enumerate(keep)}
        parents = []
        for i in keep:
            p = self.parents[i]
            parents.append(renum[p] if p in renum else None)
        return Forest(tuple(self.depths[i] for i in keep), tuple(parents))


class FanSpace:
    """Character space of a valid chain, with order machinery.

    Characters are ChainChar pairs ordered by (depth, mask); that order
    is also the node order of the forest.  masks[d - 1] lists the masks
    of depth d in that order.  chars, the character -> node map and the
    successor-mask and level-link tables are built on first read, so a
    command that reads only the masks and the forest builds no ChainChar.
    """

    def __init__(self, chain: FanChain):
        self.chain = chain
        self.masks = masks = level_masks(chain)
        depths: list[int] = []
        end = [0]
        for d, level in enumerate(masks, start=1):
            depths += [d] * len(level)
            end.append(len(depths))
        self._level_end = end
        # A parent is its functional pulled back along the transition into
        # its depth: one pullback table per transition, read through the
        # mask -> node list of the level above.
        parents: list[int | None] = [None] * end[1]
        for d in range(2, chain.n + 1):
            pos: list[int | None] = [None] * (1 << chain.dims[d - 2])
            for i, m in enumerate(masks[d - 2], end[d - 2]):
                pos[m] = i
            pb = gf2.pullback_table(chain.taus[d - 2])
            above = list(map(pos.__getitem__, map(pb.__getitem__, masks[d - 1])))
            if None in above:     # only a transition that moves minus does this
                raise RuntimeError(f"a depth-{d} character pulls back to no character")
            parents += above
        self.forest = Forest(tuple(depths), tuple(parents))

    @cached_property
    def chars(self) -> tuple[ChainChar, ...]:
        return characters_of_levels(self.masks)

    @cached_property
    def _node(self) -> dict[ChainChar, int]:
        return dict(zip(self.chars, range(len(self.chars))))

    @cached_property
    def successor_masks(self) -> dict[ChainChar, tuple[int, ...]]:
        """Per character g, the masks of its successors at depths
        1..depth(g): its parent's row plus its own mask, built on first
        read in node order, so every parent's row comes first."""
        rows: list[tuple[int, ...]] = []
        for g, p in zip(self.chars, self.forest.parents):
            rows.append((g.mask,) if p is None else rows[p] + (g.mask,))
        return dict(zip(self.chars, rows))

    @cached_property
    def level_links(self) -> tuple[tuple[dict[int, int], dict[int, int]], ...]:
        """Per level d (index d - 1), the maps mask -> reach and mask ->
        parent's mask (empty at depth 1), both in node order."""
        flat = [m for level in self.masks for m in level]
        links = [({}, {}) for _ in self.masks]
        for m, d, r, p in zip(flat, self.forest.depths, self.forest.deep, self.forest.parents):
            links[d - 1][0][m] = r
            if p is not None:
                links[d - 1][1][m] = flat[p]
        return tuple(links)

    # -- basic queries -------------------------------------------------

    @property
    def length(self) -> int:
        return self.chain.n

    def __len__(self) -> int:
        return self._level_end[-1]

    def _depth_index(self, d: int) -> int:
        if not 1 <= d <= len(self.chain.dims):
            raise ValueError(f"depth {d} out of range 1..{self.length}")
        return d - 1

    def dim(self, d: int) -> int:
        return self.chain.dims[self._depth_index(d)]

    def minus(self, d: int) -> int:
        return self.chain.minus[self._depth_index(d)]

    def node(self, h: ChainChar) -> int:
        return self._node[h]

    def level(self, d: int) -> tuple[ChainChar, ...]:
        return self.chars[self._level_end[self._depth_index(d)]:self._level_end[d]]

    def levels(self) -> list[tuple[ChainChar, ...]]:
        return [self.level(d) for d in range(1, self.length + 1)]

    # -- order ---------------------------------------------------------

    def successor(self, g: ChainChar, d: int) -> ChainChar:
        """The unique character above g at depth d (d <= depth(g))."""
        if not 1 <= d <= g.depth:
            raise ValueError(f"no successor of a depth-{g.depth} character at depth {d}")
        return self.chars[self.forest.ancestor(self._node[g], d)]

    def specializes(self, g: ChainChar, h: ChainChar) -> bool:
        return h.depth <= g.depth and self.successor(g, h.depth) == h

    def interpolate(self, g: ChainChar, h: ChainChar, d: int) -> ChainChar:
        """The unique f with g -> f -> h at depth d."""
        if not self.specializes(g, h):
            raise ValueError("g does not specialize to h")
        if not h.depth <= d <= g.depth:
            raise ValueError(f"depth {d} outside [{h.depth}, {g.depth}]")
        return self.successor(g, d)

    def triple(self, h1: ChainChar, h2: ChainChar, h3: ChainChar) -> ChainChar:
        """Pointwise product of three characters (always a character)."""
        d = min(h1.depth, h2.depth, h3.depth)
        mask = (self.successor(h1, d).mask ^ self.successor(h2, d).mask
                ^ self.successor(h3, d).mask)
        return ChainChar(d, mask)

    def deep(self, h: ChainChar) -> int:
        """Deepest depth among the predecessors of h."""
        return self.forest.deep[self._node[h]]

    def predecessors(self, h: ChainChar) -> tuple[ChainChar, ...]:
        """Everything that specializes to h (h included)."""
        return tuple(self.chars[i] for i in self.forest.descendants(self._node[h]))

    # -- components and strata ------------------------------------------

    def components(self) -> list[tuple[ChainChar, ...]]:
        return [tuple(self.chars[i] for i in comp) for comp in self.forest.components]

    def component_lowest_level(self, comp: tuple[ChainChar, ...]) -> int:
        return max(h.depth for h in comp)

    def stratum_members(self, kind: str, k: int, j: int) -> tuple[ChainChar, ...]:
        return tuple(self.chars[i] for i in self.forest.stratum(kind, k, j))

    def pred_set(self, h: ChainChar, j1: int, j2: int, kind: str) -> tuple[ChainChar, ...]:
        """Predecessors of h inside the (j2, j1) stratum.

        kind 'B' collects those in S^j2_j1, kind 'A' those in C^j2_j1;
        the A set may legitimately be empty.
        """
        nodes = self.forest.pred_nodes(self._node[h], j1, j2, kind)
        return tuple(self.chars[i] for i in nodes)
