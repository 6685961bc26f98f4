import random
import tracemalloc

import pytest

import fanforge.chains
from fanforge import gf2
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
    roundtrip_isomorphism,
    table_to_chain,
    table_to_chain_with_map,
    validate_chain,
)
from fanforge.corpus import generate_corpus, random_transition
from fanforge.errors import NotAFanError, ResourceLimitError, StructuralError
from fanforge.gf2 import identity_rows
from fanforge.isomorphism import forest_canonical
from fanforge.spectral import FanSpace
from fanforge.ternary import (
    MAX_TABLE_ELEMENTS,
    Character,
    TernaryTable,
    enumerate_characters,
    require_fan,
    sign3_table,
    validate_table,
)

from conftest import (
    CHAIN3, E1, E1P, E2, EA, EB, TRIV, ladder, mixed_chain, oracle_characters)
from test_ternary import corrupted_copies, product_table


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


def test_cardinalities_examples():
    assert cardinalities(TRIV) == (3, 1)
    assert cardinalities(E1) == (7, 3)
    assert cardinalities(E2) == (5, 2)


def test_cardinality_identity_holds_on_corpus(corpus):
    for chain in corpus:
        card_f, card_x = cardinalities(chain)
        assert card_f == 2 * card_x + 1


def test_element_arithmetic():
    elements = chain_elements(E1)
    index = {el: i for i, el in enumerate(elements)}
    mul = chain_to_table(E1).mul

    def times(a, b):
        return elements[mul[index[a]][index[b]]]

    one = SliceElement(1, 0)
    minus = SliceElement(1, 1)
    assert times(minus, minus) == one
    assert times(ZERO_ELEMENT, minus) == ZERO_ELEMENT
    deep = SliceElement(2, 2)
    assert times(one, deep) == deep
    # moving -1 into the deep slice adds the image of the minus class
    assert times(minus, deep) == SliceElement(2, 3)


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


def shuffled_tables(corpus):
    """The tables of corpus[:8], each with its elements relabeled."""
    rng = random.Random(4)
    out = []
    for chain in corpus[:8]:
        t = chain_to_table(chain)
        perm = list(range(t.size))
        rng.shuffle(perm)
        inv = [0] * t.size
        for new, old in enumerate(perm):
            inv[old] = new
        mul = tuple(tuple(inv[t.mul[perm[x]][perm[y]]] for y in range(t.size))
                    for x in range(t.size))
        out.append((chain, TernaryTable(t.size, inv[t.one_idx], inv[t.zero_idx],
                                        inv[t.minus_one_idx], mul)))
    return out


def test_extraction_ignores_element_order(corpus):
    # relabeling the table elements must not change the extracted shape
    for chain, shuffled in shuffled_tables(corpus):
        assert table_to_chain(shuffled).dims == chain.dims
        roundtrip_isomorphism(shuffled)


def _congruence_classes(t, members, ideal):
    """Classes of a ~ b iff a*z = b*z for some z outside the ideal, as a
    union-find closure merging per shared product column."""
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for z in range(t.size):
        if z in ideal:
            continue
        seen = {}
        for x in members:
            p = t.mul[x][z]
            if p in seen:
                ra, rb = find(seen[p]), find(x)
                if ra != rb:
                    parent[rb] = ra
            else:
                seen[p] = x
    groups = {}
    for x in members:
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def oracle_table_to_chain_with_map(t, chars=None):
    """The chain of a fan table read off its congruences, as it was first
    extracted: per depth, the quotient by the ideal of the depth's zero
    set, its classes multiplied into an exponent-2 group, coordinates
    given to the classes in the order the group is generated."""
    chars = require_fan(t, chars)
    ideals = sorted({h.zero_set() for h in chars}, key=len, reverse=True)
    dims, minus, coords_per_depth, classes_per_depth = [], [], [], []
    for d, ideal in enumerate(ideals, start=1):
        members = [x for x in range(t.size) if x not in ideal]
        classes = _congruence_classes(t, members, ideal)
        count = len(classes)
        if count & (count - 1):
            raise NotAFanError(f"quotient at depth {d} has {count} classes", (d,))
        class_id = {x: i for i, cls in enumerate(classes) for x in cls}
        reps = [cls[0] for cls in classes]
        vec_of = {class_id[t.one_idx]: 0}
        k = 0
        for i in range(count):
            if i in vec_of:
                continue
            bit = 1 << k
            k += 1
            for j, v in list(vec_of.items()):
                vec_of[class_id[t.mul[reps[i]][reps[j]]]] = v | bit
        if len(vec_of) != count:
            raise NotAFanError(f"quotient at depth {d} is not a group", (d,))
        minus_vec = vec_of[class_id[t.minus_one_idx]]
        if minus_vec == 0:
            raise NotAFanError(f"1 = -1 in the quotient at depth {d}", (d,))
        dims.append(k)
        minus.append(minus_vec)
        coords_per_depth.append({x: vec_of[class_id[x]] for x in members})
        classes_per_depth.append(classes)

    taus = []
    for d in range(1, len(ideals)):
        shallow, deep = coords_per_depth[d - 1], coords_per_depth[d]
        elem_of = {}
        for x, v in shallow.items():
            elem_of.setdefault(v, x)
        cols = [deep[elem_of[1 << i]] for i in range(dims[d - 1])]
        taus.append(tuple(sum((cols[j] >> i & 1) << j for j in range(dims[d - 1]))
                          for i in range(dims[d])))
    chain = FanChain(tuple(dims), tuple(minus), tuple(taus))
    bad = validate_chain(chain)
    if bad:
        raise NotAFanError(f"extracted chain is invalid: {bad[0].message}", bad[0].witness)

    mapping = {ZERO_ELEMENT: t.zero_idx}
    for d, classes in enumerate(classes_per_depth, start=1):
        above = ideals[d - 2] if d >= 2 else None
        for cls in classes:
            in_slice = [x for x in cls if above is None or x in above]
            if len(in_slice) != 1:
                raise NotAFanError(f"class at depth {d} meets its slice in {len(in_slice)}", (d,))
            mapping[SliceElement(d, coords_per_depth[d - 1][cls[0]])] = in_slice[0]
    return chain, mapping


def forest_code(chain):
    return forest_canonical(FanSpace(chain).forest)


def test_extraction_matches_congruence_oracle(corpus):
    # the chain read off the characters and the one read off the
    # congruences have equal dims and isomorphic forests, and the first
    # passes the round trip, on the corpus, the 6x6 wide corpus, shuffled
    # tables and 129- and 513-element ladders
    wide = generate_corpus(7, count=60, max_levels=6, max_dim=6)
    tables = [chain_to_table(c) for c in corpus + wide]
    tables += [t for _, t in shuffled_tables(corpus)]
    tables += [chain_to_table(ladder(random.Random(dim), 4, dim)) for dim in (5, 7)]
    assert max(t.size for t in tables) == 513
    for t in tables:
        chars = enumerate_characters(t)
        got, got_map = table_to_chain_with_map(t, chars)
        want, want_map = oracle_table_to_chain_with_map(t, chars)
        assert got.dims == want.dims
        assert forest_code(got) == forest_code(want)
        assert sorted(got_map.values()) == sorted(want_map.values()) == list(range(t.size))
        roundtrip_isomorphism(t, chars)


def test_extraction_verdict_matches_congruence_oracle_on_perturbed_tables(corpus):
    # one symmetric product edit per copy of a three-level fan: the
    # extraction refuses exactly the copies the congruence oracle refuses,
    # and the chains it returns agree with the oracle's and round-trip
    fans = [chain_to_table(c) for c in corpus if c.n == 3][:40]
    refused = returned = 0
    for t in corrupted_copies(random.Random(23), fans, 30, asymmetric=0.0):
        chars = enumerate_characters(t)
        try:
            want = oracle_table_to_chain_with_map(t, chars)[0]
        except NotAFanError:
            with pytest.raises(NotAFanError):
                table_to_chain_with_map(t, chars)
            refused += 1
            continue
        got = table_to_chain(t, chars)
        assert got.dims == want.dims and forest_code(got) == forest_code(want)
        roundtrip_isomorphism(t, chars)
        returned += 1
    assert refused > 1000 and returned > 20


def test_roundtrip_at_the_table_bound():
    roundtrip_isomorphism(chain_to_table(ladder(random.Random(0), 4, 7)))
    source = ladder(random.Random(0), 4, 9)
    table = chain_to_table(source)
    assert table.size == MAX_TABLE_ELEMENTS
    got = table_to_chain(table)
    assert got.dims == source.dims and forest_code(got) == forest_code(source)


def test_roundtrip_names_the_first_product_cell_it_breaks(corpus, monkeypatch):
    # the rebuilt table with seeded product edits: each edit breaks its
    # cell, and the witness is the first edited cell in row-major order
    rng = random.Random(29)
    rebuild = fanforge.chains.chain_to_table
    for chain in [c for c in corpus if chain_to_table(c).size > 8][:20]:
        t = chain_to_table(chain)
        cells = rng.sample([(x, y) for x in range(3, t.size) for y in range(3, t.size)], 2)

        def edited(c, cells=cells):
            mul = [list(row) for row in rebuild(c).mul]
            for x, y in cells:
                mul[x][y] = (mul[x][y] + 1) % len(mul)
            r = rebuild(c)
            return TernaryTable(r.size, r.one_idx, r.zero_idx, r.minus_one_idx,
                                tuple(map(tuple, mul)))

        monkeypatch.setattr(fanforge.chains, "chain_to_table", edited)
        with pytest.raises(NotAFanError) as exc:
            roundtrip_isomorphism(t)
        monkeypatch.undo()
        assert str(exc.value) == "round-trip map does not preserve products"
        assert exc.value.witness == min(cells)


def oracle_certificate(t, rebuilt, iso):
    """roundtrip_isomorphism's product certificate one cell at a time,
    as first written: the first cell (x, y) in row-major order whose
    product iso does not carry onto t's, or None."""
    for x in range(rebuilt.size):
        for y in range(rebuilt.size):
            if iso[rebuilt.mul[x][y]] != t.mul[iso[x]][iso[y]]:
                return (x, y)
    return None


def test_roundtrip_certificate_matches_per_cell_oracle(corpus, monkeypatch):
    # seeded edits of the rebuilt table anywhere, the constant rows x < 3
    # and the last column included; an edit may write the cell's own
    # value, so the witness is the first cell that really breaks, and
    # some edited tables still pass
    rng = random.Random(30)
    rebuild = fanforge.chains.chain_to_table
    chains = [c for c in corpus if chain_to_table(c).size > 8][:12]
    checked = broken = 0
    for chain in chains + [E1, ladder(random.Random(1), 3, 4)]:
        t = chain_to_table(chain)
        iso = roundtrip_isomorphism(t)
        r = rebuild(table_to_chain(t))
        m = t.size
        for _ in range(8):
            cells = [(rng.randrange(3), rng.randrange(m)), (rng.randrange(m), m - 1),
                     (rng.randrange(m), rng.randrange(m))]
            edits = {cell: rng.choice(["same", "next", rng.randrange(m)])
                     for cell in rng.sample(cells, 2)}
            mul = [list(row) for row in r.mul]
            for (x, y), value in edits.items():
                if value != "same":
                    mul[x][y] = (mul[x][y] + 1) % m if value == "next" else value
            edited = TernaryTable(r.size, r.one_idx, r.zero_idx, r.minus_one_idx,
                                  tuple(map(tuple, mul)))
            want = oracle_certificate(t, edited, iso)
            monkeypatch.setattr(fanforge.chains, "chain_to_table", lambda c: edited)
            try:
                assert roundtrip_isomorphism(t) == iso
                got = None
            except NotAFanError as exc:
                assert str(exc) == "round-trip map does not preserve products"
                got = exc.witness
            monkeypatch.undo()
            assert got == want, (chain, edits)
            checked += 1
            broken += want is not None
    assert broken > checked // 2 and checked - broken > 0


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


def oracle_transitions(c):
    """Row matrix of every composite transition (d, e), d <= e, built with
    gf2.compose: the oracle for transport one tau at a time."""
    out = {}
    for d in range(1, c.n + 1):
        rows = gf2.identity_rows(c.dims[d - 1])
        out[(d, d)] = rows
        for e in range(d + 1, c.n + 1):
            rows = gf2.compose(c.taus[e - 2], rows)
            out[(d, e)] = rows
    return out


def rank_deficient_chains(rng, count):
    """Mixed chains of 6 to 8 levels, each tau of rank below the dimension
    of both its ends, so composite transitions lose rank with depth."""
    out = []
    while len(out) < count:
        c = mixed_chain(rng, tuple(rng.randint(2, 4) for _ in range(rng.randint(6, 8))))
        if all(gf2.rank(tau) < min(c.dims[d], c.dims[d + 1]) for d, tau in enumerate(c.taus)):
            out.append(c)
    return out


def oracle_product(moves):
    """The product of two elements, each moved into the deeper slice by one
    composite matrix of oracle_transitions: the per-cell oracle for
    chain_to_table."""

    def product(a, b):
        if ZERO_ELEMENT in (a, b):
            return ZERO_ELEMENT
        deep = max(a.depth, b.depth)
        return SliceElement(deep, gf2.mat_vec(moves[(a.depth, deep)], a.vec)
                            ^ gf2.mat_vec(moves[(b.depth, deep)], b.vec))

    return product


def slowest_table_chain():
    """The slowest table known within both table bounds: 2049 elements on
    dims 10, 9, ..., 5 and then sixteen 1s, 63 generators."""
    return mixed_chain(random.Random(0), (10, 9, 8, 7, 6, 5) + (1,) * 16)


def test_slice_builders_match_per_cell_references(corpus):
    # chain_to_table, chain_char_to_table_char and evaluate_element all
    # step one tau at a time; the reference moves each element by one
    # composite matrix, one cell at a time
    rng = random.Random(129)
    minus = (6, 3, 7, 15)
    ladder = FanChain((5,) * 4, minus, tuple(
        random_transition(rng, 5, 5, minus[d], minus[d + 1]) for d in range(3)))
    assert cardinalities(ladder)[0] == 129
    paths = [FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1)) for n in (62, 64)]
    deficient = rank_deficient_chains(random.Random(68), 4)
    # many shallow levels of small dimension: each slice's rows end in the
    # rows of slice d + 1 that their pushes pick, most of them shared
    mixed = [mixed_chain(random.Random(seed), dims)
             for dims in ((2,) * 31, (3,) * 20) for seed in range(3)]
    one_level = FanChain((8,), (0b10110101,), ())
    # tau of rank 1: slice 1 pushes onto 0 and minus_2 only, so every
    # slice-1 row ends in one of those two rows of slice 2
    rank_one = FanChain((3, 3), (0b001, 0b011), ((0b001, 0b001, 0),))
    assert gf2.rank(rank_one.taus[0]) == 1 and validate_chain(rank_one) == []
    for chain in list(corpus) + [E2, E1P, ladder, one_level, rank_one] + paths + deficient + mixed:
        elements = oracle_elements(chain)
        assert chain_elements(chain) == elements
        index = {el: i for i, el in enumerate(elements)}
        moves = oracle_transitions(chain)

        def push(el, depth):
            return gf2.mat_vec(moves[(el.depth, depth)], el.vec)

        product = oracle_product(moves)
        table = chain_to_table(chain)
        assert table.mul == tuple(tuple(index[product(a, b)] for b in elements)
                                  for a in elements)
        assert (table.zero_idx, table.one_idx, table.minus_one_idx) == (
            0, index[SliceElement(1, 0)], index[SliceElement(1, chain.minus[0])])
        for h in chain_characters(chain):
            values = [0 if el == ZERO_ELEMENT or el.depth > h.depth
                      else -1 if gf2.dot(h.mask, push(el, h.depth)) else 1
                      for el in elements]
            assert [evaluate_element(chain, h, el) for el in elements] == values
            want = Character.from_values(table, values)
            got = chain_char_to_table_char(chain, table, h)
            assert (got.support, got.neg) == (want.support, want.neg)


def test_chain_to_table_at_the_bound_matches_per_cell_product():
    # 2049 elements each: a seeded sample of 20,000 cells per table, the
    # first row and column and the diagonal, against the per-cell oracle
    rng = random.Random(2049)
    for chain in [ladder(random.Random(0), 4, 9), FanChain((11,), (1,), ()),
                  slowest_table_chain()]:
        table = chain_to_table(chain)
        assert table.size == MAX_TABLE_ELEMENTS
        elements = oracle_elements(chain)
        index = {el: i for i, el in enumerate(elements)}
        product = oracle_product(oracle_transitions(chain))
        m = table.size
        cells = [(rng.randrange(m), rng.randrange(m)) for _ in range(20_000)]
        cells += [(x, y) for x in range(m) for y in (0, 1, 2, x)]
        cells += [(y, x) for x in range(m) for y in (0, 1, 2)]
        for x, y in cells:
            assert table.mul[x][y] == index[product(elements[x], elements[y])], (
                chain.dims, x, y)


def test_chain_to_table_working_memory():
    # the pushed vectors of one slice at a time and the head rows of vector
    # 0 and the unit vectors of every slice, each slice's dropped as its
    # rows are built, are all the working memory: the peak stays near the
    # finished table, and the chain keeps no cache of composite transitions
    # (513 elements on the 256-level path, about 2 MB, 1025 on the
    # one-level chain and the 4x8 ladder, about 8 MB, and 2049 on the
    # slowest known table, about 34 MB)
    n = 256
    for chain in [FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1)),
                  FanChain((10,), (0b1001110101,), ()),
                  ladder(random.Random(0), 4, 8),
                  slowest_table_chain()]:
        tracemalloc.start()
        try:
            table = chain_to_table(chain)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size == 1 + sum(1 << k for k in chain.dims)
        assert peak <= 1.5 * held, (chain.dims, peak, held)
        assert set(vars(chain)) == {"dims", "minus", "taus"}
        del table
