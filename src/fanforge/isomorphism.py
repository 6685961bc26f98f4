"""Representation, morphism tests, forest codes, and constructive isomorphism.

The central fact driving this module: a finite fan is determined up to
isomorphism by its specialization forest.  Accordingly it provides the
canonical forest code, a constructive map builder that pairs the
standard generating systems of two spaces position by position and
extends each level's basis map by doubling tables, a certificate that
checks the map level by level and on the parent edges by node index, an
exhaustive searcher as independent oracle, a necessary-condition checker
for candidate forests, and the exact realization of a forest by its
normal-form chain, read off the ranks of the composite transitions.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from . import gf2
from .chains import (
    ChainChar,
    FanChain,
    SliceElement,
    chain_elements,
    evaluate_element,
)
from .errors import OrderMismatchError, ResourceLimitError
from .formats import char_label
from .generators import standard_generating_system
from .spectral import FanSpace, Forest
from .ternary import SIGNS, Violation


# -- representation ---------------------------------------------------------


@dataclass(frozen=True)
class RepWitness:
    """Which representability condition failed, with the offending characters."""

    kind: str            # zero-monotone | specialization-agreement | four-element-product
    data: tuple


@dataclass(frozen=True)
class RepresentResult:
    element: SliceElement | None
    witness: RepWitness | None

    @property
    def ok(self) -> bool:
        return self.element is not None


def _check_values(space: FanSpace, f: dict[ChainChar, int]) -> None:
    """Refuse a map unless it is defined on exactly the characters of the
    space with values in SIGNS.  A refusal names the first missing
    character in space order, or else the first key that is none."""
    missing = next((h for h in space.chars if h not in f), None)
    if missing is not None:
        raise ValueError(f"map has no value for character {char_label(space.chain, missing)}")
    if len(f) != len(space):
        chars = set(space.chars)
        extra = next(h for h in f if h not in chars)
        raise ValueError(f"map is defined on {extra!r}, which is not a character of the space")
    if any(v not in SIGNS for v in f.values()):
        raise ValueError("map values must be +1, 0 or -1")


def preserves_triple_products(space: FanSpace, f: dict[ChainChar, int]) -> bool:
    _check_values(space, f)
    for a, b, c in itertools.combinations_with_replacement(space.chars, 3):
        if f[space.triple(a, b, c)] != f[a] * f[b] * f[c]:
            return False
    return True


def representation_witness(space: FanSpace, f: dict[ChainChar, int]) -> RepWitness | None:
    """First failed representability condition, or None when all hold.

    The three conditions: zeros propagate up the zero-set order; values
    agree along specialization where nonzero; on each level the product
    of evaluations over a dependent four-element set is 1.
    """
    _check_values(space, f)
    chars = space.chars
    # characters come in depth order, so the first nonzero one is the shallowest
    first = next((y for y in chars if f[y]), None)
    for x in chars:
        if f[x] == 0 and first is not None and first.depth <= x.depth:
            return RepWitness("zero-monotone", (x, first))
    # above[i]: the shallowest character at or above node i where f is
    # nonzero; once y's parent has passed, f has one nonzero value above y
    above: list[ChainChar | None] = []
    for y, p in zip(chars, space.forest.parents):
        x = None if p is None else above[p]
        if x is not None and f[x] != f[y]:
            return RepWitness("specialization-agreement", (x, y))
        above.append(y if x is None and f[y] else x)
    for d in range(1, space.length + 1):
        level = space.level(d)
        if all(f[x] == 0 for x in level):
            continue
        for x1, x2, x3 in itertools.combinations(level, 3):
            x4 = space.triple(x1, x2, x3)
            if x4 in (x1, x2, x3):
                continue
            if f[x1] * f[x2] * f[x3] * f[x4] != 1:
                return RepWitness("four-element-product", (x1, x2, x3, x4))
    return None


def evaluation(space: FanSpace, el: SliceElement) -> dict[ChainChar, int]:
    """The map h -> h(el) over the whole character space."""
    return {h: evaluate_element(space.chain, h, el) for h in space.chars}


def represent(space: FanSpace, f: dict[ChainChar, int]) -> RepresentResult:
    """Find the fan element whose evaluation is f, or say why none exists.

    Elements are scanned in the canonical order, so ties (impossible on
    separating fans) would resolve to the least element.  An element of
    depth e is 0 exactly on the characters shallower than e, so only the
    elements at f's shallowest nonzero depth are scanned (the zero
    element when f is 0), against the characters from that depth on.
    """
    _check_values(space, f)
    e = next((h.depth for h in space.chars if f[h]), 0)
    scan = [h for h in space.chars if h.depth >= e]
    for el in chain_elements(space.chain):
        if el.depth != e:
            continue
        depth, vec = el.depth, el.vec
        for h in scan:      # in depth order, so vec moves one tau at a time
            while 0 < depth < h.depth:      # the zero element stays at depth 0
                vec = gf2.mat_vec(space.chain.taus[depth - 1], vec)
                depth += 1
            value = (-1 if gf2.dot(h.mask, vec) else 1) if depth == h.depth else 0
            if value != f[h]:
                break
        else:
            return RepresentResult(el, None)
    witness = representation_witness(space, f)
    if witness is None:
        raise RuntimeError("unrepresentable map with no failed condition")
    return RepresentResult(None, witness)


# -- morphism predicate ------------------------------------------------------


@dataclass(frozen=True)
class MorphismReport:
    same_level_triples: bool
    monotone: bool
    global_triples: bool
    witness: tuple = ()

    @property
    def ok(self) -> bool:
        return self.same_level_triples and self.monotone


def is_ars_morphism(space1: FanSpace, space2: FanSpace,
                    mapping: dict[ChainChar, ChainChar]) -> MorphismReport:
    """Morphism test for a total map between two fan spaces.

    Checks same-level triple preservation and monotonicity, plus the
    global triple criterion; the report records that the two routes
    agree (they must, which is asserted).  Cubic in the number of
    characters: it is the independent oracle for brute_force_isomorphism
    and the tests, and build_isomorphism does not call it.
    """
    if set(mapping) != set(space1.chars):
        raise ValueError("mapping must be total on the source characters")
    if any(v not in space2.chars for v in mapping.values()):
        raise ValueError("mapping has values outside the target space")

    witness: tuple = ()
    same_level = True
    for d in range(1, space1.length + 1):
        for a, b, c in itertools.combinations_with_replacement(space1.level(d), 3):
            lhs = mapping[space1.triple(a, b, c)]
            rhs = space2.triple(mapping[a], mapping[b], mapping[c])
            if lhs != rhs:
                same_level, witness = False, (a, b, c)
                break
        if not same_level:
            break

    monotone = True
    for g in space1.chars:
        for d in range(1, g.depth):
            h = space1.successor(g, d)
            if not space2.specializes(mapping[g], mapping[h]):
                monotone, witness = False, (g, h)
                break
        if not monotone:
            break

    global_ok = True
    for a, b, c in itertools.combinations_with_replacement(space1.chars, 3):
        lhs = mapping[space1.triple(a, b, c)]
        rhs = space2.triple(mapping[a], mapping[b], mapping[c])
        if lhs != rhs:
            global_ok = False
            break
    if global_ok != (same_level and monotone):
        raise RuntimeError("global triple criterion disagrees with the per-level route")
    return MorphismReport(same_level, monotone, global_ok, witness)


# -- forest canonical form ---------------------------------------------------


def forest_canonical(forest: Forest) -> str:
    """Canonical code: per node the sorted concatenation of child codes."""
    codes: dict[int, str] = {}
    for d in range(forest.length, 0, -1):      # codes of two levels at most are held
        for i in forest.level(d):
            kids = sorted(codes.pop(j) for j in forest.children[i])
            codes[i] = "(" + "".join(kids) + ")"
    return "".join(sorted(codes.values()))


# -- constructive isomorphism -------------------------------------------------


def _affine_extension(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """The affine map through the (source, image) pairs on the hull of the
    sources: one doubling table per side (gf2.pullback_table) lists every
    XOR of the other pairs' differences from the first, indexed alike."""
    (x0, y0), rest = pairs[0], pairs[1:]
    src = gf2.pullback_table(tuple(x ^ x0 for x, _ in rest))
    dst = gf2.pullback_table(tuple(y ^ y0 for _, y in rest))
    return {x ^ x0: y ^ y0 for x, y in zip(src, dst)}


def _certify_isomorphism(space1: FanSpace, space2: FanSpace,
                         mapping: dict[ChainChar, ChainChar]) -> None:
    """Raise RuntimeError unless mapping is an isomorphism of fans.

    By the morphism criterion a map is a morphism exactly when it
    preserves same-level triples and is monotone.  So it suffices that
    every level maps bijectively and affinely onto the target level and
    that the map commutes with parent edges; the inverse then has the
    same properties.  A level is affine when the map is its affine
    extension from the members that one Span scan finds independent;
    parent edges are compared on node indices.  Linear in the number of
    characters times the level dimension.
    """
    if set(mapping) != set(space1.chars):
        raise RuntimeError("map is not total on the source characters")
    if space1.length != space2.length:
        raise RuntimeError("source and target have different level counts")
    for d in range(1, space1.length + 1):
        level = space1.level(d)
        images = [mapping[h] for h in level]
        if len(set(images)) != len(images) or set(images) != set(space2.level(d)):
            raise RuntimeError(f"map is not a bijection on level {d}")
        pairs = [(h.mask, g.mask) for h, g in zip(level, images)]
        h0, span = pairs[0][0], gf2.Span()
        extension = _affine_extension([(h, g) for h, g in pairs if h == h0 or span.add(h ^ h0)])
        if any(extension[h] != g for h, g in pairs):
            raise RuntimeError(f"map is not affine on level {d}")
    chars, up = space1.chars, space2.forest.parents
    image = list(map(space2.node, map(mapping.__getitem__, chars)))
    for i, p in enumerate(space1.forest.parents):
        if p is not None and up[image[i]] != image[p]:
            raise RuntimeError(f"map does not commute with the parent edge at {chars[i]}")


def build_isomorphism(space1: FanSpace, space2: FanSpace,
                      seed: int | None = None) -> dict[ChainChar, ChainChar]:
    """Construct an isomorphism of fans from their order data alone.

    Raises OrderMismatchError at the first (k, j) where card(C^k_j)
    differs.  For forests of fans equal profiles mean isomorphic fans:
    the profile fixes the ranks of the composite transitions, which fix
    the chain up to isomorphism (see normal_form_chain).  Otherwise both
    spaces get their standard generating system under the same seed;
    its choices are made by position, so the i-th basis member of each
    level of the source is sent to the i-th of the target.  A level is
    the odd XORs of its basis, so one doubling table per side lists every
    member with its image (RuntimeError if the basis misses one), and a
    linear per-level certificate checks the map before it is returned; a
    map that fails it raises RuntimeError.
    """
    pairs = itertools.zip_longest(space1.forest.profile, space2.forest.profile, fillvalue={})
    for k, (c1, c2) in enumerate(pairs):
        for j in sorted(c1.keys() | c2.keys()):
            if c1.get(j, 0) != c2.get(j, 0):
                raise OrderMismatchError(k, j, c1.get(j, 0), c2.get(j, 0))

    gs1 = standard_generating_system(space1, seed)
    gs2 = standard_generating_system(space2, seed)
    full: dict[ChainChar, ChainChar] = {}
    for k in range(1, space1.length + 1):
        extension = _affine_extension([(g1.mask, g2.mask) for g1, g2 in
                                       zip(gs1.level_basis(k), gs2.level_basis(k))])
        for h in space1.level(k):
            if h.mask not in extension:
                raise RuntimeError(f"level-{k} basis does not span its level")
            full[h] = ChainChar(k, extension[h.mask])

    _certify_isomorphism(space1, space2, full)
    return full


def brute_force_isomorphism(space1: FanSpace, space2: FanSpace,
                            cap: int = 10) -> dict[ChainChar, ChainChar] | None:
    """Exhaustive search over depth-preserving bijections; independent oracle.

    Returns the first bijection (in per-level permutation order) passing
    the morphism test both ways, or None if none exists.
    """
    if len(space1) > cap or len(space2) > cap:
        raise ResourceLimitError(f"space cardinality exceeds brute-force cap {cap}")
    if len(space1) != len(space2) or space1.length != space2.length:
        return None
    levels1 = space1.levels()
    levels2 = space2.levels()
    if [len(l) for l in levels1] != [len(l) for l in levels2]:
        return None

    per_level = [itertools.permutations(l2) for l2 in levels2]
    for images in itertools.product(*per_level):
        mapping = {}
        for lvl, perm in zip(levels1, images):
            mapping.update(zip(lvl, perm))
        ok = True
        for g in space1.chars:
            if g.depth > 1:
                h = space1.successor(g, g.depth - 1)
                if space2.successor(mapping[g], g.depth - 1) != mapping[h]:
                    ok = False
                    break
        if not ok:
            continue
        for lvl in levels1:
            for a, b, c in itertools.combinations(lvl, 3):
                if mapping[space1.triple(a, b, c)] != space2.triple(
                        mapping[a], mapping[b], mapping[c]):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if is_ars_morphism(space1, space2, mapping).ok:
            inverse = {v: k for k, v in mapping.items()}
            if is_ars_morphism(space2, space1, inverse).ok:
                return mapping
    return None


# -- candidate forests: necessary conditions and exact realization -----------


def _power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def check_forest(forest: Forest) -> list[Violation]:
    """Necessary realizability conditions for a candidate forest.

    RC1 every nonempty stratum has power-of-2 size; RC2 predecessor
    counts agree across a stratum; RC3 components agree level- and
    stratum-wise where both reach; RC4 a component is order-isomorphic
    to every deeper one truncated at its own lowest level.  An empty
    report is necessary, not sufficient, for realizability.  S^k_j is
    one set on each run of j ending at a reach value present at depth k,
    so RC1 and RC2 work once per run and repeat their lines for its j.

    RC2-RC4 compare nodes by class in the forest cut at the depth m each
    reads, `Forest.shape(m)`: m = r for RC2 on S^k_r, the shallower length
    for an RC3/RC4 pair.  Up to the cut, a cut isomorphism keeps depths and
    reaches, so equal classes give equal counts.  RC2 marks the classes
    meeting C^k_r, where A counts run, and cannot fail at r = k: there j1 =
    j2 = k and B^{k,k} = A^{k,k} = {h}.  For r > k, counts at depth j2 sum
    row j2 of a member's histogram of predecessors by (depth, min(reach,
    r)), so only rows where two members differ are walked.
    """
    rc1, rc2 = [], []
    depths, deep, shape = forest.depths, forest.deep, functools.cache(forest.shape)
    for k in range(1, forest.length + 1):
        first, s = k, sum(forest.profile[k].values())
        for r, c in forest.profile[k].items():
            # S^k_j has s members for j in first..r; C^k_j is empty below r
            if not _power_of_two(s):
                rc1 += [Violation("RC1", f"RC1 violated: card(S^{k}_{j})={s} not a power of 2",
                                  (k, j, s)) for j in range(first, r + 1)]
            cls = shape(r) if r > k else ()
            reps = {cls[h]: h for h in forest.level(k) if deep[h] >= r} if r > k else {}
            exact = {cls[h] for h in forest.level(k) if deep[h] == r} if len(reps) > 1 else ()
            hist = {h: Counter((depths[g], min(deep[g], r)) for g in forest.descendants(h)
                               if depths[g] <= r) for h in reps.values()} if len(reps) > 1 else {}
            keys = set().union(*hist.values())
            rows = sorted({j2 for j2, e in keys if len({c[(j2, e)] for c in hist.values()}) > 1})
            if rows:
                bad = []
                for j1 in range(rows[0], r + 1):
                    for j2 in (d for d in rows if d <= j1):
                        b = {sum(c[(j2, e)] for e in range(j1, r + 1)) for c in hist.values()}
                        a = {c[(j2, j1)] for h, c in hist.items() if cls[h] in exact}
                        bad += [(j1, j2, kind, min(n), max(n))
                                for kind, n in (("B", b), ("A", a)) if len(n) > 1]
                for j in range(first, r + 1):
                    rc2 += [Violation(
                        "RC2", f"RC2 violated: card({kind}^{{{j1},{j2}}}) over "
                        f"{'S' if kind == 'B' else 'C'}^{k}_{j} takes values {lo} and {hi}",
                        (kind, k, j, j1, j2, lo, hi))
                        for j1, j2, kind, lo, hi in itertools.takewhile(lambda v: v[0] <= j, bad)
                        if kind == "B" or j == r]
            first, s = r + 1, s - c
    out = rc1 + rc2

    # RC3/RC4: all pairs are walked, in order, only if two root classes disagree
    roots, full = forest.roots, shape(forest.length)
    lengths = [deep[x] for x in roots]
    reps = {full[x]: a for a, x in enumerate(roots)}

    def agree(a: int, b: int) -> bool:
        cls = shape(min(lengths[a], lengths[b]))
        return cls[roots[a]] == cls[roots[b]]

    if all(itertools.starmap(agree, itertools.combinations(reps.values(), 2))):
        return out
    profiles = {s: forest.restrict(forest.descendants(roots[a])).profile for s, a in reps.items()}
    card = {(s, j, jp): sum(c for e, c in profiles[s][jp].items() if e >= j)  # card(S^jp_j)
            for s, a in reps.items() for j in range(1, lengths[a] + 1) for jp in range(1, j + 1)}
    for a, b in itertools.combinations(range(len(roots)), 2):
        m = min(lengths[a], lengths[b])
        if agree(a, b):     # isomorphic truncations pass RC3 too
            continue
        for j in range(1, m + 1):
            for jp in range(1, j + 1):
                ca, cb = card[full[roots[a]], j, jp], card[full[roots[b]], j, jp]
                if ca != cb:
                    name = f"L_{j}" if jp == j else f"S^{jp}_{j}"
                    out.append(Violation(
                        "RC3", f"RC3 violated: card({name}(K{a + 1}))={ca} != "
                        f"card({name}(K{b + 1}))={cb}",
                        (jp, j, a + 1, b + 1, ca, cb)))
        shallow, deep_idx = (a, b) if lengths[a] <= lengths[b] else (b, a)
        out.append(Violation(
            "RC4", f"RC4 violated: K{shallow + 1} is not order-isomorphic to "
            f"K{deep_idx + 1} truncated at depth {m}",
            (shallow + 1, deep_idx + 1)))
    return out


def _interval_chain(n: int, intervals: list[tuple[int, int]]) -> FanChain:
    """The direct sum of interval chains: level d has one basis vector per
    interval (i, j) with i <= d <= j, in list order, and every transition
    is the coordinate projection.  The first interval must be (1, n); it
    carries every minus vector as bit 0."""
    bases: list[list[int]] = [[] for _ in range(n)]
    for t, (i, j) in enumerate(intervals):
        for d in range(i, j + 1):
            bases[d - 1].append(t)
    taus = []
    for d in range(1, n):
        pos = {t: p for p, t in enumerate(bases[d - 1])}
        taus.append(tuple(1 << pos[t] if t in pos else 0 for t in bases[d]))
    return FanChain(tuple(len(b) for b in bases), (1,) * n, tuple(taus))


def normal_form_chain(forest: Forest) -> FanChain | None:
    """A chain realizing the candidate forest, or None when no chain does.

    Up to isomorphism a chain of GF(2) maps is a direct sum of interval
    chains, fixed by the ranks r(d, e) of its composite transitions, and
    the minus vectors split off in one (1, n) summand.  The ranks are read
    off the forest: 2^(r(d, e) - 1) depth-d nodes reach depth e, counted
    from the forest's profile.  Interval multiplicities
    follow by inclusion-exclusion, and the sum of that many copies of each
    interval is returned when its forest code equals the candidate's.  A
    realizable forest has its realizer's profile, so the codes then agree:
    None is a proof, not an exhausted search.
    """
    n = forest.length
    if n == 0:
        return None
    intervals = []
    for i in range(1, n + 1):
        # Walk j down from n (so (1, n) comes first).  A depth-(i - 1) node
        # reaching j >= i has a child reaching j, so where no depth-i node
        # reaches exactly j, S(i, j) = S(i, j + 1) and S(i - 1, j) =
        # S(i - 1, j + 1), and m(i, j) = 0: only the reach values present
        # at depth i are visited.
        s_i = s_p = 0                       # S(i, j + 1), S(i - 1, j + 1)
        for j, count in reversed(forest.profile[i].items()):
            t_i = s_i + count
            t_p = s_p + forest.profile[i - 1].get(j, 0)
            if not _power_of_two(t_i):
                return None
            m = t_i.bit_length() - t_p.bit_length() - s_i.bit_length() + s_p.bit_length()
            if m < 0:
                return None
            intervals += [(i, j)] * m
            s_i, s_p = t_i, t_p
    chain = _interval_chain(n, intervals)
    if forest_canonical(FanSpace(chain).forest) != forest_canonical(forest):
        return None
    return chain
