import itertools
import random

import pytest

import fanforge.chains
from fanforge.chains import MAX_CHARACTERS, ChainChar, FanChain
from fanforge.corpus import random_transition
from fanforge.errors import StructuralError
from fanforge.gf2 import pullback
from fanforge.spectral import FanSpace, Forest

from conftest import CHAIN3, E1, E1P, E2, EA, EB, TRIV, ladder

R = ChainChar(1, 1)
C1 = ChainChar(2, 1)
C2 = ChainChar(2, 3)


def test_levels_examples():
    s = FanSpace(E1)
    assert s.levels() == [(R,), (C1, C2)]
    assert FanSpace(TRIV).levels() == [(ChainChar(1, 1),)]
    sa = FanSpace(EA)
    assert [len(l) for l in sa.levels()] == [2, 2]


def test_depth_and_length():
    s = FanSpace(E1)
    assert R.depth == 1 and C1.depth == 2
    assert s.length == 2
    assert (s.dim(1), s.dim(2), s.minus(2)) == (1, 2, 1)
    for d in (0, -1, 3):
        for query in (s.dim, s.minus, s.level):
            with pytest.raises(ValueError):
                query(d)
    for comp in s.components():
        top = min(comp, key=lambda h: h.depth)
        assert top.depth == 1


def test_successor_examples():
    s = FanSpace(E1)
    assert s.successor(C1, 1) == R
    assert s.successor(C1, 2) == C1
    with pytest.raises(ValueError):
        s.successor(R, 2)
    # uniqueness: the successor is the only shallower character above
    for g in s.chars:
        for d in range(1, g.depth + 1):
            above = [h for h in s.level(d) if s.specializes(g, h)]
            assert above == [s.successor(g, d)]


def pullback_table(space):
    """Oracle: every character pulled back one transition at a time to
    every shallower depth, keyed by (character, depth)."""
    table = {}
    for h in space.chars:
        lam = h.mask
        table[(h, h.depth)] = h
        for d in range(h.depth - 1, 0, -1):
            lam = pullback(lam, space.chain.taus[d - 1])
            table[(h, d)] = ChainChar(d, lam)
    return table


def test_successors_match_pullback_table(corpus):
    rng = random.Random(11)
    ladder = FanChain((6,) * 6, (1,) * 6,
                      tuple(random_transition(rng, 6, 6, 1, 1) for _ in range(5)))
    path = FanChain((1,) * 64, (1,) * 64, ((1,),) * 63)
    for chain in [*corpus, E1, E1P, EA, EB, CHAIN3, ladder, path]:
        space = FanSpace(chain)
        table = pullback_table(space)
        for (g, d), h in table.items():
            assert space.successor(g, d) == h
        for g in space.chars:
            for h in space.chars:
                assert space.specializes(g, h) == (table.get((g, h.depth)) == h)
        assert space.forest.parents == tuple(
            None if g.depth == 1 else space.node(table[(g, g.depth - 1)])
            for g in space.chars)
        for _ in range(200):
            hs = [rng.choice(space.chars) for _ in range(3)]
            d = min(h.depth for h in hs)
            mask = table[(hs[0], d)].mask ^ table[(hs[1], d)].mask ^ table[(hs[2], d)].mask
            assert space.triple(*hs) == ChainChar(d, mask)


def oracle_parents(chain, chars):
    """The parent rule FanSpace used before its pullback tables: per
    character, one pullback along the transition into its depth, looked
    up among the characters."""
    node = {h: i for i, h in enumerate(chars)}
    return tuple(
        None if h.depth == 1
        else node[ChainChar(h.depth - 1, pullback(h.mask, chain.taus[h.depth - 2]))]
        for h in chars)


def test_parents_match_per_character_pullbacks(corpus_spaces):
    rng = random.Random(17)
    ladders = [FanSpace(ladder(random.Random(seed), 6, 10)) for seed in range(3)]
    wide = FanSpace(FanChain((13, 13), (1, 1), (random_transition(rng, 13, 13, 1, 1),)))
    n = MAX_CHARACTERS
    path = FanSpace(FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1)))
    for space in corpus_spaces + ladders + [wide, path]:
        assert space.forest.parents == oracle_parents(space.chain, space.chars)
    assert [len(s) for s in ladders] == [3072] * 3 and len(wide) == 8192 and len(path) == n


def test_pullback_off_the_level_above_raises(monkeypatch):
    # the transition sends minus_1 = 1 to 2, not to minus_2 = 1, so the
    # depth-2 character with mask 1 pulls back to the zero functional;
    # chain_characters refuses such a chain, so its check is switched off
    monkeypatch.setattr(fanforge.chains, "_require_valid", lambda c: None)
    with pytest.raises(RuntimeError, match="pulls back to no character"):
        FanSpace(FanChain((1, 2), (1, 1), ((0, 1),)))


def test_interval_is_a_chain_matching_depths(corpus_spaces):
    # the characters between g and its successor h form one chain with
    # exactly one member per depth in [depth(h), depth(g)]
    for space in corpus_spaces[:15]:
        for g in space.chars:
            for d in range(1, g.depth + 1):
                h = space.successor(g, d)
                interval = [f for f in space.chars
                            if space.specializes(g, f) and space.specializes(f, h)]
                assert sorted(f.depth for f in interval) == list(range(d, g.depth + 1))


def test_root_system_shapes():
    assert FanSpace(E1).forest.parents == (None, 0, 0)
    assert FanSpace(EB).forest.parents == (None, None, 0, 0)
    assert FanSpace(EA).forest.parents == (None, None, 0, 1)
    assert FanSpace(E2).forest.parents == (None, None)


def test_root_system_matches_specialization(corpus_spaces):
    for space in corpus_spaces[:15]:
        forest = space.forest
        for g in space.chars:
            for h in space.chars:
                i, j = space.node(g), space.node(h)
                assert space.specializes(g, h) == (i in forest.descendants(j))


def test_components_examples():
    s1 = FanSpace(E1)
    comps = s1.components()
    assert len(comps) == 1
    sb = FanSpace(EB)
    assert sorted(len(c) for c in sb.components()) == [1, 3]
    se = FanSpace(E2)
    assert [len(c) for c in se.components()] == [1, 1]


def test_components_closed_under_triples(corpus_spaces):
    for space in corpus_spaces[:15]:
        for comp in space.components():
            pool = set(comp)
            for a in comp:
                for b in comp:
                    for c in comp:
                        assert space.triple(a, b, c) in pool


def test_stratum_examples():
    s1 = FanSpace(E1)
    assert s1.stratum_members("S", 1, 2) == (R,)
    sb = FanSpace(EB)
    roots = sb.level(1)
    assert sb.stratum_members("S", 1, 2) == (ChainChar(1, 1),)
    assert sb.stratum_members("C", 1, 1) == (ChainChar(1, 3),)
    assert set(sb.stratum_members("S", 1, 1)) == set(roots)
    with pytest.raises(ValueError):
        s1.stratum_members("S", 2, 1)
    with pytest.raises(ValueError):
        s1.stratum_members("X", 1, 1)


def test_stratum_partition_properties(corpus_spaces):
    # S^k_k is the level; C-strata partition each level by deepest reach.
    for space in corpus_spaces[:20]:
        n = space.length
        for k in range(1, n + 1):
            level = set(space.level(k))
            assert set(space.stratum_members("S", k, k)) == level
            cs = [set(space.stratum_members("C", k, j)) for j in range(k, n + 1)]
            assert set().union(*cs) == level
            for a, b in itertools.combinations(cs, 2):
                assert not (a & b)
            assert set(space.stratum_members("S", k, n)) == set(
                space.stratum_members("C", k, n))


def test_pred_set_example():
    s1 = FanSpace(E1)
    f = s1.forest
    r, c1, c2 = map(s1.node, (R, C1, C2))
    assert f.pred_nodes(r, 2, 2, "B") == (c1, c2)
    assert f.pred_nodes(r, 2, 2, "A") == (c1, c2)
    with pytest.raises(ValueError):
        f.pred_nodes(c1, 2, 1, "B")
    with pytest.raises(ValueError):
        f.pred_nodes(r, 1, 2, "Q")


def test_power_of_two_strata(corpus_spaces):
    for space in corpus_spaces:
        for k in range(1, space.length + 1):
            for j in range(k, space.length + 1):
                card = len(space.stratum_members("S", k, j))
                assert card > 0 and card & (card - 1) == 0


def test_forest_validation():
    with pytest.raises(StructuralError):
        Forest((2,), (None,))  # root must have depth 1
    with pytest.raises(StructuralError):
        Forest((1, 3), (None, 0))  # child depth must be parent depth + 1
    with pytest.raises(StructuralError):
        Forest((1, 2), (None, 5))


@pytest.mark.parametrize("depths, parents, message", [
    ((1, 1), (None,), "depths and parents must have equal length"),
    ((1, 0), (None, 0), "node 1 has depth 0"),
    ((-2,), (None,), "node 0 has depth -2"),
    ((1, 2), (None, None), "node 1 has no parent but depth 2"),
    ((10 ** 9,), (None,), "node 0 has no parent but depth 1000000000"),
    ((1, 2), (None, 5), "node 1 has parent 5 out of range"),
    ((1, 2), (None, -1), "node 1 has parent -1 out of range"),
    ((1, 3), (None, 0), "node 1 at depth 3 has parent at depth 1"),
    ((1, 1), (None, 0), "node 1 at depth 1 has parent at depth 1"),
    ((1, 10 ** 9), (None, 0), "node 1 at depth 1000000000 has parent at depth 1"),
    # several bad nodes: the first in index order is named, whatever its depth
    ((1, 2, 3, 0, 2), (None, 0, 0, None, 7), "node 2 at depth 3 has parent at depth 1"),
    ((3, 1, 2, 1), (2, None, 1, 9), "node 3 has parent 9 out of range"),
    ((2, 1, 1, 5), (1, None, None, 0), "node 3 at depth 5 has parent at depth 2"),
])
def test_forest_validation_messages(depths, parents, message):
    with pytest.raises(StructuralError) as exc:
        Forest(depths, parents)
    assert str(exc.value) == message


def test_characters_are_built_on_first_read(corpus):
    for chain in corpus:
        space = FanSpace(chain)
        assert len(space) == sum(map(len, space.masks))
        assert space.forest.length == space.length
        nodes = [space.node(ChainChar(d, m))
                 for d, masks in enumerate(space.masks, start=1) for m in masks]
        assert nodes == list(range(len(space)))
        assert "chars" not in vars(space)
        assert len(space) == len(space.chars)
        assert space.levels() == [tuple(ChainChar(d, m) for m in masks)
                                  for d, masks in enumerate(space.masks, start=1)]
        assert [space.node(h) for h in space.chars] == list(range(len(space)))


def test_node_refuses_what_is_not_a_character():
    # EB has two levels of dimension 2 with minus vector 1: the masks 1
    # and 3 are characters at each depth, 0 and 2 have even parity
    space = FanSpace(EB)
    assert space.masks == [[1, 3], [1, 3]]
    assert [space.node(h) for h in space.chars] == list(range(len(space)))
    for h in (ChainChar(0, 1), ChainChar(3, 1), ChainChar(-1, 1),
              ChainChar(1, -1), ChainChar(2, -3), ChainChar(1, 4), ChainChar(2, 5),
              ChainChar(2, 1 << 40), ChainChar(1, 0), ChainChar(1, 2), ChainChar(2, 2)):
        with pytest.raises(KeyError):
            space.node(h)


def test_forest_truncate_and_restrict():
    f = FanSpace(EB).forest
    top = f.truncate(1)
    assert len(top) == 2 and top.parents == (None, None)
    comps = f.components
    sub = f.restrict(comps[0])
    assert len(sub) == 3 and sub.level_sizes() == (1, 2)

