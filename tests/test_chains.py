import random

import pytest

import fanforge.chains
from fanforge.chains import (
    MAX_CHARACTERS,
    ChainChar,
    FanChain,
    SliceElement,
    ZERO_ELEMENT,
    cardinalities,
    chain_char_to_table_char,
    chain_characters,
    chain_elements,
    chain_to_table,
    evaluate_element,
    level_masks,
    multiply_elements,
    roundtrip_isomorphism,
    table_to_chain,
    transition,
    validate_chain,
)
from fanforge.corpus import random_transition
from fanforge.errors import NotAFanError, ResourceLimitError, StructuralError
from fanforge.gf2 import identity_rows
from fanforge.spectral import FanSpace
from fanforge.ternary import Character, enumerate_characters, sign3_table, validate_table

from conftest import CHAIN3, E1, E1P, E2, EA, EB, TRIV, ladder, oracle_characters
from test_ternary import product_table


def test_validate_chain_examples():
    assert validate_chain(E1) == []
    assert validate_chain(TRIV) == []
    broken = FanChain((1, 2), (1, 2), ((1, 0),))  # tau sends minus to (1,0) != (0,1)
    report = validate_chain(broken)
    assert [v.code for v in report] == ["minus-transport"]
    assert report[0].witness == (1,)


def test_structural_chain_errors():
    with pytest.raises(StructuralError):
        FanChain((), (), ())
    with pytest.raises(StructuralError):
        FanChain((1, 2), (1, 1), ())
    with pytest.raises(StructuralError):
        FanChain((1,), (2,), ())  # minus out of range


def test_trivial_chain_gives_sign3():
    table = chain_to_table(TRIV)
    assert table.size == 3
    assert validate_table(table) == []
    sign = sign3_table()
    # Same structure up to the element order (0, 1, -1 in both).
    assert table.mul == sign.mul


def test_e1_table_has_seven_elements():
    table = chain_to_table(E1)
    assert table.size == 7
    assert validate_table(table) == []


def test_chain_characters_examples():
    assert len(chain_characters(E1)) == 3
    assert [h.depth for h in chain_characters(E1)] == [1, 2, 2]
    assert len(chain_characters(TRIV)) == 1
    assert chain_characters(E2) == (ChainChar(1, 1), ChainChar(1, 2))


def test_level_masks_match_per_functional_filter():
    # every minus up to width 8, seeded ones up to width 14
    rng = random.Random(14)
    for k in range(1, 15):
        minuses = range(1, 1 << k) if k <= 8 else [rng.randrange(1, 1 << k) for _ in range(6)]
        for minus in minuses:
            c = FanChain((k,), (minus,), ())
            assert level_masks(c) == [[h.mask for h in oracle_characters(c)]]


def test_chain_characters_are_chain_chars(corpus):
    chains = corpus + [ladder(random.Random(seed), 6, 10) for seed in range(2)]
    for c in chains:
        chars = chain_characters(c)
        assert chars == tuple(oracle_characters(c))
        for h in chars:
            d, m = h
            assert type(h) is ChainChar
            assert h == ChainChar(d, m) and hash(h) == hash(ChainChar(d, m))
            assert (h.depth, h.mask) == (d, m)


def test_character_space_refused_before_enumerating(monkeypatch):
    # a minus-moving transition is invalid; (15, 15) has 32768 characters,
    # twice MAX_CHARACTERS, and neither may reach the enumeration
    def no_enumeration(*args):
        raise AssertionError("enumerated a refused chain")

    monkeypatch.setattr(fanforge.chains, "compress", no_enumeration)
    with pytest.raises(StructuralError, match="does not send -1 to -1"):
        FanSpace(FanChain((1, 2), (1, 1), ((0, 1),)))
    big = FanChain((15, 15), (1, 1), (identity_rows(15),))
    with pytest.raises(ResourceLimitError,
                       match=f"chain has 32768 characters, bound is {MAX_CHARACTERS}"):
        FanSpace(big)
    with pytest.raises(ResourceLimitError):
        chain_characters(big)


def test_transition_examples():
    assert transition(E1, 1, 2) == E1.taus[0]
    assert transition(E1, 2, 2) == (1, 2)  # identity on two bits
    from fanforge import gf2
    rank = gf2.rank(transition(EB, 1, 2))
    assert rank == 1
    with pytest.raises(ValueError):
        transition(E1, 2, 1)


def test_cardinalities_examples():
    assert cardinalities(TRIV) == (3, 1)
    assert cardinalities(E1) == (7, 3)
    assert cardinalities(E2) == (5, 2)


def test_cardinality_identity_holds_on_corpus(corpus):
    for chain in corpus:
        card_f, card_x = cardinalities(chain)
        assert card_f == 2 * card_x + 1


def test_element_arithmetic():
    one = SliceElement(1, 0)
    minus = SliceElement(1, 1)
    assert multiply_elements(E1, minus, minus) == one
    assert multiply_elements(E1, ZERO_ELEMENT, minus) == ZERO_ELEMENT
    deep = SliceElement(2, 2)
    assert multiply_elements(E1, one, deep) == deep
    # moving -1 into the deep slice adds the image of the minus class
    assert multiply_elements(E1, minus, deep) == SliceElement(2, 3)


def test_evaluation_constants():
    for h in chain_characters(E1):
        assert evaluate_element(E1, h, SliceElement(1, 0)) == 1
        assert evaluate_element(E1, h, SliceElement(1, 1)) == -1
        assert evaluate_element(E1, h, ZERO_ELEMENT) == 0


def test_table_to_chain_roundtrip_examples():
    got = table_to_chain(chain_to_table(E1))
    assert got.dims == (1, 2)
    assert table_to_chain(sign3_table()) == TRIV
    for chain in (TRIV, E1, E2, EA, EB, CHAIN3):
        roundtrip_isomorphism(chain_to_table(chain))


def test_extraction_ignores_element_order(corpus):
    # relabeling the table elements must not change the extracted shape
    import random
    rng = random.Random(4)
    from fanforge.ternary import TernaryTable
    for chain in corpus[:8]:
        t = chain_to_table(chain)
        perm = list(range(t.size))
        rng.shuffle(perm)
        inv = [0] * t.size
        for new, old in enumerate(perm):
            inv[old] = new
        mul = tuple(tuple(inv[t.mul[perm[x]][perm[y]]] for y in range(t.size))
                    for x in range(t.size))
        shuffled = TernaryTable(t.size, inv[t.one_idx], inv[t.zero_idx],
                                inv[t.minus_one_idx], mul)
        assert table_to_chain(shuffled).dims == chain.dims
        roundtrip_isomorphism(shuffled)


def test_table_to_chain_rejects_non_fans():
    square = product_table(sign3_table(), sign3_table())
    with pytest.raises(NotAFanError):
        table_to_chain(square)


def test_character_agreement_on_corpus_sample(corpus):
    from fanforge.chains import chain_char_to_table_char
    for chain in corpus[:10]:
        table = chain_to_table(chain)
        if table.size > 64:
            continue
        enumerated = {c.values for c in enumerate_characters(table)}
        by_chain = {}
        for h in chain_characters(chain):
            tc = chain_char_to_table_char(chain, table, h)
            by_chain[tc.values] = h
            # the depth of a chain character is the zero-set index of its
            # table twin: the zero set collects all strictly deeper slices
            expected = 1 + sum(1 << k for k in chain.dims[h.depth:])
            assert len(tc.zero_set()) == expected
        assert enumerated == set(by_chain)


def test_chain_triple_product_matches_table(corpus_spaces):
    from fanforge.spectral import FanSpace
    from fanforge.ternary import pointwise_product
    for space in [FanSpace(E1)] + [s for s in corpus_spaces if len(s) <= 8][:5]:
        chain = space.chain
        table = chain_to_table(chain)
        from fanforge.chains import chain_char_to_table_char
        as_table = {h: chain_char_to_table_char(chain, table, h) for h in space.chars}
        for a in space.chars:
            for b in space.chars:
                for c in space.chars:
                    got = as_table[space.triple(a, b, c)].values
                    want = pointwise_product((as_table[a], as_table[b], as_table[c]))
                    assert got == want


def test_canonical_element_order():
    elements = chain_elements(E1)
    assert elements[0] == ZERO_ELEMENT
    assert elements[1] == SliceElement(1, 0)
    assert elements[2] == SliceElement(1, 1)
    assert len(elements) == 7
    assert [el.depth for el in elements[3:]] == [2, 2, 2, 2]


def oracle_elements(c):
    """The canonical order, spelled out: zero, one, minus one, then every
    other slice element by depth and vector."""
    one, minus = SliceElement(1, 0), SliceElement(1, c.minus[0])
    rest = [SliceElement(d, v) for d, k in enumerate(c.dims, start=1) for v in range(1 << k)]
    return (ZERO_ELEMENT, one, minus) + tuple(el for el in rest if el not in (one, minus))


def test_slice_builders_match_per_cell_references(corpus):
    # chain_to_table and chain_char_to_table_char work slice by slice; the
    # references multiply and evaluate one element at a time
    rng = random.Random(129)
    minus = (6, 3, 7, 15)
    ladder = FanChain((5,) * 4, minus, tuple(
        random_transition(rng, 5, 5, minus[d], minus[d + 1]) for d in range(3)))
    assert cardinalities(ladder)[0] == 129
    for chain in list(corpus) + [E2, E1P, ladder]:
        elements = oracle_elements(chain)
        assert chain_elements(chain) == elements
        index = {el: i for i, el in enumerate(elements)}
        table = chain_to_table(chain)
        assert table.mul == tuple(tuple(index[multiply_elements(chain, a, b)] for b in elements)
                                  for a in elements)
        assert (table.zero_idx, table.one_idx, table.minus_one_idx) == (
            0, index[SliceElement(1, 0)], index[SliceElement(1, chain.minus[0])])
        for h in chain_characters(chain):
            want = Character.from_values(
                table, [evaluate_element(chain, h, el) for el in elements])
            got = chain_char_to_table_char(chain, table, h)
            assert (got.support, got.neg) == (want.support, want.neg)
