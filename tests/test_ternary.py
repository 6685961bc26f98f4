import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter, ne

import pytest

from fanforge import ternary
from fanforge.chains import FanChain, chain_char_to_table_char, chain_to_table
from fanforge.corpus import random_transition
from fanforge.errors import ResourceLimitError, StructuralError
from fanforge.spectral import FanSpace
from fanforge.ternary import (
    MAX_TABLE_ELEMENTS,
    MAX_TABLE_GENERATORS,
    Character,
    TernaryTable,
    enumerate_characters,
    fan_report,
    pointwise_product,
    sign3_table,
    specializes,
    triple_product,
    validate_table,
    zero_set_order,
)

from conftest import E1, E2, ladder


def table_characters(chain):
    table = chain_to_table(chain)
    space = FanSpace(chain)
    by_chain = {h: chain_char_to_table_char(chain, table, h) for h in space.chars}
    return table, space, by_chain


def test_sign3_is_valid():
    assert validate_table(sign3_table()) == []


def test_broken_identity_is_reported_with_witness():
    t = sign3_table()
    mul = [list(row) for row in t.mul]
    mul[t.one_idx][0] = t.one_idx  # 1*0 should be 0
    broken = TernaryTable(3, t.one_idx, t.zero_idx, t.minus_one_idx,
                          tuple(tuple(r) for r in mul))
    codes = {v.code for v in validate_table(broken)}
    assert "identity" in codes or "commutativity" in codes


def test_structurally_malformed_table_raises():
    with pytest.raises(StructuralError):
        TernaryTable(2, 0, 1, 2, ((0, 1), (1, 0)))
    with pytest.raises(StructuralError):
        TernaryTable(2, 0, 1, 1, ((0, 9), (1, 0)))


@pytest.mark.parametrize("bad", [1.5, -1, 3, 1.0, Fraction(1), Decimal(1), 1 + 0j])
def test_table_refuses_first_entry_outside_its_indices(bad):
    # 1.5 used to pass the range check and stop validate_table with a
    # TypeError, and 1.0, Fraction(1), Decimal(1) and 1+0j, equal to the
    # index 1 in value and hash, still did; the message names the first
    # bad entry in row order, ahead of the 9 in a later row and an earlier
    # column, and of a 2.0 later in its own row
    message = rf"^product index {re.escape(repr(bad))} out of range$"
    with pytest.raises(StructuralError, match=message):
        TernaryTable(3, 1, 0, 2, ((0, 0, 0), (0, bad, 2), (0, 2, 1)))
    with pytest.raises(StructuralError, match=message):
        TernaryTable(3, 1, 0, 2, ((0, 0, 0), (0, 1, bad), (9, 2, 1)))
    with pytest.raises(StructuralError, match=message):
        TernaryTable(3, 1, 0, 2, ((0, 0, 0), (0, bad, 2.0), (0, 2, 1)))


@pytest.mark.parametrize("bad", [1.0, Fraction(1), Decimal(1), 1 + 0j])
@pytest.mark.parametrize("name", ["one_idx", "zero_idx", "minus_one_idx"])
def test_table_refuses_constants_that_are_not_ints(name, bad):
    # a constant equal to an index in value passed the range check and
    # stopped validate_table with a TypeError; it is refused as the
    # entries are, and a bool still counts
    constants = {"one_idx": 1, "zero_idx": 0, "minus_one_idx": 2}
    rows = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    message = rf"^{name}={re.escape(repr(bad))} out of range for size 3$"
    with pytest.raises(StructuralError, match=message):
        TernaryTable(3, **{**constants, name: bad}, mul=rows)
    assert validate_table(TernaryTable(3, True, False, 2, rows)) == []


def test_table_refuses_a_size_that_is_not_an_int():
    # range(3.0) raised a bare TypeError
    with pytest.raises(StructuralError, match="^table size must be positive$"):
        TernaryTable(3.0, 1, 0, 2, ((0, 0, 0), (0, 1, 2), (0, 2, 1)))


def test_table_accepts_bool_entries_as_indices():
    # a bool is an int: False and True act as the indices 0 and 1
    table = TernaryTable(3, 1, 0, 2, ((0, False, 0), (0, True, 2), (0, 2, True)))
    assert table.mul == sign3_table().mul
    assert validate_table(table) == []


def test_chain_table_is_valid(corpus):
    assert validate_table(chain_to_table(E1)) == []
    for chain in corpus[:5]:
        assert validate_table(chain_to_table(chain)) == []


def test_sign3_has_exactly_the_identity_character():
    chars = enumerate_characters(sign3_table())
    assert len(chars) == 1
    (h,) = chars
    assert h.values[h.table.one_idx] == 1
    assert h.values[h.table.minus_one_idx] == -1
    assert h.values[h.table.zero_idx] == 0


def test_enumeration_matches_chain_route():
    table, space, by_chain = table_characters(E1)
    enumerated = enumerate_characters(table)
    assert len(enumerated) == 3
    assert {c.values for c in enumerated} == {c.values for c in by_chain.values()}


def test_enumeration_cap():
    # one element over the table bound is refused before any assignment
    m = MAX_TABLE_ELEMENTS + 1
    over = TernaryTable(m, 0, 0, 0, ((0,) * m,) * m)
    with pytest.raises(ResourceLimitError, match=f"table bound is {MAX_TABLE_ELEMENTS}"):
        enumerate_characters(over)


def test_generator_bound():
    # a dimension-1 path of n levels needs n + 2 generators: 62 levels are
    # at the bound and valid, and 63 are refused when closure_steps reaches
    # the generator over it, by every check that reads the generators
    def path(n):
        return chain_to_table(FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1)))

    at = path(MAX_TABLE_GENERATORS - 2)
    assert len(at.generators) == MAX_TABLE_GENERATORS
    assert validate_table(at) == [] and len(enumerate_characters(at)) == at.size // 2
    over = path(MAX_TABLE_GENERATORS - 1)
    message = (f"table needs more than {MAX_TABLE_GENERATORS} generators, "
               f"generator bound is {MAX_TABLE_GENERATORS}")
    for check in (validate_table, enumerate_characters, fan_report):
        with pytest.raises(ResourceLimitError, match=message):
            check(over)


def test_triple_product_examples():
    table, space, by_chain = table_characters(E1)
    from fanforge.chains import ChainChar
    r, c1, c2 = ChainChar(1, 1), ChainChar(2, 1), ChainChar(2, 3)
    tr, tc1, tc2 = by_chain[r], by_chain[c1], by_chain[c2]
    assert triple_product(tc1, tc2, tr).values == tr.values
    assert triple_product(tc1, tc1, tc1).values == tc1.values
    # h*h*g collapses to h when h is a specialization of g
    assert specializes(tc1, tr)
    assert triple_product(tr, tr, tc1).values == tr.values


def test_triple_product_rejects_mixed_tables():
    h1 = enumerate_characters(sign3_table())[0]
    table, _, by_chain = table_characters(E1)
    h2 = next(iter(by_chain.values()))
    with pytest.raises(ValueError):
        triple_product(h1, h1, h2)


@pytest.mark.parametrize("order", [
    specializes, ternary.specializes_by_square_shift, ternary.specializes_by_units,
    ternary.specializes_by_nonnegative_part, ternary.specializes_by_zero_sets, zero_set_order,
], ids=lambda f: f.__name__)
def test_pair_orders_compare_tables_by_value(order):
    _, _, by_chain = table_characters(E1)
    from fanforge.chains import ChainChar
    tr, tc1 = by_chain[ChainChar(1, 1)], by_chain[ChainChar(2, 1)]
    twin = Character(chain_to_table(E1), tc1.support, tc1.neg)
    assert twin.table == tc1.table and twin.table is not tc1.table
    assert order(twin, tr) == order(tc1, tr)
    assert order(tr, twin) == order(tr, tc1)
    other = enumerate_characters(sign3_table())[0]
    with pytest.raises(ValueError, match="different tables"):
        order(other, tr)
    with pytest.raises(ValueError, match="different tables"):
        order(tr, other)


def test_specializes_examples():
    _, _, by_chain = table_characters(E1)
    from fanforge.chains import ChainChar
    tr = by_chain[ChainChar(1, 1)]
    tc1 = by_chain[ChainChar(2, 1)]
    tc2 = by_chain[ChainChar(2, 3)]
    assert specializes(tc1, tr)
    assert specializes(tc1, tc1)
    assert not specializes(tc1, tc2)


def test_zero_set_order_examples():
    _, _, by_chain = table_characters(E1)
    from fanforge.chains import ChainChar
    tr = by_chain[ChainChar(1, 1)]
    tc1 = by_chain[ChainChar(2, 1)]
    assert zero_set_order(tc1, tr) == "subset"
    assert zero_set_order(tr, tc1) == "superset"
    assert zero_set_order(tr, tr) == "equal"


def brute_force_characters(t):
    """Every value vector fixing the constants, filtered for h(xy) = h(x)h(y)."""
    found = []
    for values in itertools.product((-1, 0, 1), repeat=t.size):
        if (values[t.one_idx] != 1 or values[t.minus_one_idx] != -1
                or values[t.zero_idx] != 0):
            continue
        if multiplicative(t, values):
            found.append(values)
    return sorted(found)


def multiplicative(t, values):
    return all(values[t.mul[x][y]] == values[x] * values[y]
               for x in range(t.size) for y in range(t.size))


def is_commutative(t):
    return all(t.mul[x][y] == t.mul[y][x] for x in range(t.size) for y in range(t.size))


def corrupted_copies(rng, tables, copies, asymmetric=0.2):
    """Each table copied `copies` times with one symmetric entry xy = yx
    overwritten; in a share `asymmetric` of the copies one side of it is
    then changed again, so that the copy is not commutative."""
    out = []
    for t in tables:
        for _ in range(copies):
            mul = [list(row) for row in t.mul]
            x, y = rng.sample(range(t.size), 2)
            z = rng.randrange(t.size)
            mul[x][y] = mul[y][x] = z
            if rng.random() < asymmetric:
                mul[x][y] = rng.choice([v for v in range(t.size) if v != z])
            out.append(TernaryTable(t.size, t.one_idx, t.zero_idx, t.minus_one_idx,
                                    tuple(map(tuple, mul))))
    return out


def test_enumeration_matches_exhaustive_assignment(corpus):
    # oracle: filter all 3^m value vectors for multiplicativity directly,
    # on fan tables, on tables with odd constants and on non-commutative ones
    s3 = sign3_table()
    # 1 = -1 and 1 = 0: two constants on one index leave no character
    tables = [s3, TernaryTable(3, s3.one_idx, s3.zero_idx, s3.one_idx, s3.mul),
              TernaryTable(3, s3.zero_idx, s3.zero_idx, s3.minus_one_idx, s3.mul)]
    small = [t for t in map(chain_to_table, corpus) if t.size <= 9]
    tables += small[:4] + [left_zero_product()]
    # a commutative semigroup whose "1" is any element, identity or not
    square = product_table(s3, s3)
    tables += [TernaryTable(9, one, square.zero_idx, square.minus_one_idx, square.mul)
               for one in range(9) if one not in (square.zero_idx, square.minus_one_idx)]
    broken = corrupted_copies(random.Random(9), [chain_to_table(E1)] + small[:8], 3,
                              asymmetric=1.0)
    assert not any(map(is_commutative, broken))
    tables += broken
    for t in tables:
        assert [h.values for h in enumerate_characters(t)] == brute_force_characters(t)


def test_enumeration_on_one_asymmetric_entry():
    # {0, 1, -1, a, -a} with a*a = 1, then a*(-a) = 0 but (-a)*a = -1.
    # No character exists: h(a) = 0 forces h(1) = h(a*a) = 0, and h(a) = +-1
    # gives h(a*(-a)) = 0 != -1.  Propagating only products of a later
    # element by an earlier one never reads a*(-a), and returned both maps
    # with h(a) = +-1.
    t = chain_to_table(E2)
    assert (t.size, t.mul[3][4], t.mul[4][3]) == (5, t.minus_one_idx, t.minus_one_idx)
    mul = [list(row) for row in t.mul]
    mul[3][4] = t.zero_idx
    broken = TernaryTable(5, t.one_idx, t.zero_idx, t.minus_one_idx, tuple(map(tuple, mul)))
    assert len(oracle_enumerate_by_elements(broken)) == 2
    assert brute_force_characters(broken) == []
    assert enumerate_characters(broken) == ()


def test_five_way_equivalence_on_sample(corpus):
    for chain in corpus[:10]:
        _, _, by_chain = table_characters(chain)
        chars = list(by_chain.values())
        for g in chars:
            for h in chars:
                answers = {
                    ternary.specializes(g, h),
                    ternary.specializes_by_units(g, h),
                    ternary.specializes_by_nonnegative_part(g, h),
                    ternary.specializes_by_zero_sets(g, h),
                    ternary.specializes_by_square_shift(g, h),
                }
                assert len(answers) == 1


def product_table(a: TernaryTable, b: TernaryTable) -> TernaryTable:
    pairs = list(itertools.product(range(a.size), range(b.size)))
    index = {p: i for i, p in enumerate(pairs)}
    mul = tuple(
        tuple(index[(a.mul[x1][x2], b.mul[y1][y2])] for (x2, y2) in pairs)
        for (x1, y1) in pairs)
    return TernaryTable(
        size=len(pairs),
        one_idx=index[(a.one_idx, b.one_idx)],
        zero_idx=index[(a.zero_idx, b.zero_idx)],
        minus_one_idx=index[(a.minus_one_idx, b.minus_one_idx)],
        mul=mul)


def left_zero_product() -> TernaryTable:
    """sign3 times the monoid {e, a, b} with xy = x for x, y in {a, b}:
    associative, not commutative, 9 elements."""
    monoid = TernaryTable(3, 0, 0, 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)))
    return product_table(sign3_table(), monoid)


def test_product_of_sign3_is_not_a_fan():
    # A valid ternary semigroup whose character zero-sets are incomparable.
    square = product_table(sign3_table(), sign3_table())
    assert validate_table(square) == []
    report = fan_report(square)
    assert any(v.code == "zero-set-chain" for v in report)
    assert report == oracle_fan_report(square, enumerate_characters(square))


def test_fan_report_clean_on_fan_tables(corpus):
    for chain in corpus[:5]:
        table = chain_to_table(chain)
        assert fan_report(table) == []


def zero_set_order_by_algebra(g, h) -> str:
    """Reference for zero_set_order from the identities h = h*g*g
    (containment) and g^2 = h^2 (equality)."""
    pairs = list(zip(g.values, h.values))
    if all(gv * gv == hv * hv for gv, hv in pairs):
        return "equal"
    if all(hv * gv * gv == hv for gv, hv in pairs):
        return "subset"
    if all(gv * hv * hv == gv for gv, hv in pairs):
        return "superset"
    return "incomparable"


def test_zero_set_transport_property(corpus_spaces):
    for space in corpus_spaces[:15]:
        chain = space.chain
        table = chain_to_table(chain)
        by_chain = {h: chain_char_to_table_char(chain, table, h) for h in space.chars}
        for u in space.chars:
            above = [space.successor(u, d) for d in range(1, u.depth + 1)]
            for g in above:
                for h in above:
                    order = zero_set_order(by_chain[g], by_chain[h])
                    assert order == zero_set_order_by_algebra(by_chain[g], by_chain[h])
                    contained = order in ("subset", "equal")
                    assert contained == specializes(by_chain[g], by_chain[h])


def test_pointwise_product_matches_sign_arithmetic():
    _, _, by_chain = table_characters(E1)
    chars = list(by_chain.values())
    values = pointwise_product(chars[:3])
    for x in range(len(values)):
        assert values[x] == chars[0].values[x] * chars[1].values[x] * chars[2].values[x]


def test_empty_product_is_refused():
    # with masks the empty product would be the all-ones vector
    with pytest.raises(ValueError):
        pointwise_product(())
    with pytest.raises(ValueError):
        pointwise_product([])


# -- value-vector oracles for the mask table model ------------------------------
# The definitions the table model had over value vectors, kept as references
# for the (support, neg) masks.

def oracle_specializes(g, h):
    return all(hv * hv * gv == hv for gv, hv in zip(g, h))


def oracle_square_shift(g, h):
    return all(hv * hv == hv * gv for gv, hv in zip(g, h))


def oracle_units(g, h):
    return all(gv == 1 for gv, hv in zip(g, h) if hv == 1)


def oracle_nonnegative_part(g, h):
    return all(hv != -1 for gv, hv in zip(g, h) if gv != -1)


def oracle_zero_sets(g, h):
    return all(hv == 0 or (gv != 0 and gv == hv) for gv, hv in zip(g, h))


SPECIALIZATION_ORACLES = [
    (ternary.specializes, oracle_specializes),
    (ternary.specializes_by_square_shift, oracle_square_shift),
    (ternary.specializes_by_units, oracle_units),
    (ternary.specializes_by_nonnegative_part, oracle_nonnegative_part),
    (ternary.specializes_by_zero_sets, oracle_zero_sets),
]


def oracle_product(vectors):
    return tuple(math.prod(column) for column in zip(*vectors))


def oracle_zero_set_order(g, h):
    zg = frozenset(x for x, v in enumerate(g) if v == 0)
    zh = frozenset(x for x, v in enumerate(h) if v == 0)
    if zg == zh:
        return "equal"
    if zg < zh:
        return "subset"
    if zg > zh:
        return "superset"
    return "incomparable"


def oracle_fan_report(t, chars):
    """fan_report over value vectors, with the per-triple closure scan."""
    vectors = [h.values for h in chars]
    out = []
    columns = {}
    for x in range(t.size):
        col = tuple(vec[x] for vec in vectors)
        if col in columns:
            out.append(ternary.Violation(
                "separation", f"no character separates {columns[col]} and {x}",
                (columns[col], x)))
        else:
            columns[col] = x
    pool = set(vectors)
    for triple in itertools.combinations_with_replacement(vectors, 3):
        if oracle_product(triple) not in pool:
            out.append(ternary.Violation(
                "triple-closure", "product of three characters is not a character", triple))
    zsets = sorted({h.zero_set() for h in chars}, key=len)
    for small, big in zip(zsets, zsets[1:]):
        if not small < big:
            out.append(ternary.Violation(
                "zero-set-chain", "character zero-sets are not totally ordered",
                (tuple(sorted(small)), tuple(sorted(big)))))
    if chars and zsets and zsets[0] != frozenset({t.zero_idx}):
        out.append(ternary.Violation(
            "zero-set-floor", "smallest character zero-set is not {0}",
            (tuple(sorted(zsets[0])),)))
    if not chars:
        out.append(ternary.Violation("separation", "table has no characters", ()))
    return out


def assert_pairs_agree(chars):
    vectors = [h.values for h in chars]
    for g, gv in zip(chars, vectors):
        for h, hv in zip(chars, vectors):
            for fast, oracle in SPECIALIZATION_ORACLES:
                assert fast(g, h) == oracle(gv, hv), fast.__name__
            assert zero_set_order(g, h) == oracle_zero_set_order(gv, hv)


def assert_triples_agree(chars):
    vectors = [h.values for h in chars]
    for i, j, k in itertools.combinations_with_replacement(range(len(chars)), 3):
        want = oracle_product((vectors[i], vectors[j], vectors[k]))
        assert pointwise_product((chars[i], chars[j], chars[k])) == want
        assert triple_product(chars[i], chars[j], chars[k]).values == want


def test_masks_match_oracles_on_random_sign_vectors():
    rng = random.Random(4)
    tables = [sign3_table(), chain_to_table(E1),
              product_table(sign3_table(), chain_to_table(E1))]
    for t in tables:
        vectors = [tuple(rng.choice((1, 0, -1)) for _ in range(t.size)) for _ in range(12)]
        chars = [Character.from_values(t, vec) for vec in vectors]
        assert [h.values for h in chars] == vectors
        assert all(h(x) == vec[x] for h, vec in zip(chars, vectors) for x in range(t.size))
        with pytest.raises(IndexError):
            chars[0](t.size)
        assert [h.zero_set() for h in chars] == [
            frozenset(x for x, v in enumerate(vec) if v == 0) for vec in vectors]
        assert_pairs_agree(chars)
        assert_triples_agree(chars)
        for r in range(1, 6):
            factors = rng.sample(chars, r)
            assert pointwise_product(factors) == oracle_product([h.values for h in factors])
        report = fan_report(t, tuple(chars))
        assert any(v.code == "triple-closure" for v in report)
        assert report == oracle_fan_report(t, tuple(chars))


def test_masks_match_oracles_on_corpus_characters(corpus):
    tables = [chain_to_table(chain) for chain in corpus[:40]]
    tables.append(product_table(sign3_table(), sign3_table()))
    tables.append(product_table(sign3_table(), chain_to_table(E1)))
    rng = random.Random(5)
    for t in tables:
        chars = enumerate_characters(t)
        assert_pairs_agree(chars)
        assert_triples_agree(chars)
        assert fan_report(t, chars) == oracle_fan_report(t, chars)
        # dropping characters breaks separation, closure and the zero-set chain
        subset = tuple(sorted(rng.sample(chars, (len(chars) + 1) // 2), key=chars.index))
        assert fan_report(t, subset) == oracle_fan_report(t, subset)


def test_masks_match_oracles_on_129_element_ladder():
    # 4 levels of dimension 5: 64 characters on 129 elements, past the corpus
    rng = random.Random(129)
    dims, minus = (5, 5, 5, 5), (1, 3, 7, 15)
    taus = tuple(random_transition(rng, 5, 5, minus[d], minus[d + 1]) for d in range(3))
    chain = FanChain(dims, minus, taus)
    table = chain_to_table(chain)
    assert table.size == 129
    chars = enumerate_characters(table)
    space = FanSpace(chain)
    assert [h.values for h in chars] == sorted(
        chain_char_to_table_char(chain, table, h).values for h in space.chars)
    assert_pairs_agree(chars)
    assert fan_report(table, chars) == oracle_fan_report(table, chars) == []
    subset = chars[::2]
    assert fan_report(table, subset) == oracle_fan_report(table, subset)


# -- oracles for the table model on generators ----------------------------------
# The m^3 axiom scan and the element-by-element character search, kept as
# references for Light's test and the search on generators.

def oracle_validate_table(t):
    """validate_table with the commutativity and m^3 associativity scans
    always run."""
    out = []
    m, mul = t.size, t.mul
    one, zero, minus = t.one_idx, t.zero_idx, t.minus_one_idx
    for x in range(m):
        for y in range(x + 1, m):
            if mul[x][y] != mul[y][x]:
                out.append(ternary.Violation("commutativity", f"{x}*{y} != {y}*{x}", (x, y)))
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    out.append(ternary.Violation(
                        "associativity", f"({x}*{y})*{z} != {x}*({y}*{z})", (x, y, z)))
    for x in range(m):
        if mul[one][x] != x:
            out.append(ternary.Violation("identity", f"1*{x} != {x}", (x,)))
        if mul[zero][x] != zero:
            out.append(ternary.Violation("absorption", f"0*{x} != 0", (x,)))
        if mul[mul[x][x]][x] != x:
            out.append(ternary.Violation("cube", f"{x}^3 != {x}", (x,)))
        if mul[minus][x] == x and x != zero:
            out.append(ternary.Violation("minus-fixes", f"(-1)*{x} = {x} but {x} != 0", (x,)))
    if mul[minus][minus] != one:
        out.append(ternary.Violation("minus-square", "(-1)*(-1) != 1", (minus,)))
    if one == minus:
        out.append(ternary.Violation("one-minus-distinct", "1 = -1", (one,)))
    return out


def oracle_light_test(t):
    """TernaryTable.commutative_semigroup with one itemgetter gather per
    row: for each generator g and element x, the row of x*g = g*x,
    (x*g)*y for all y, against x's row read at g*y, x*(g*y) for all y."""
    mul = t.mul
    if t.size == 1:
        return True     # itemgetter of one index returns no tuple
    if any(map(ne, map(list, zip(*mul)), map(list, mul))):
        return False
    for g in t.generators:
        row_g = mul[g]
        if any(map(ne, map(mul.__getitem__, row_g), map(itemgetter(*row_g), mul))):
            return False
    return True


def oracle_commutative_semigroup(t):
    """Commutativity, then the m^3 associativity scan with one row gather
    per pair x, y: (x*y)*z against x*(y*z) for every z."""
    m, mul = t.size, t.mul
    return (all(mul[x][y] == mul[y][x] for x in range(m) for y in range(x + 1, m))
            and all(mul[mul[x][y]] == itemgetter(*mul[y])(mul[x])
                    for x in range(m) for y in range(m)))


def oracle_enumerate_by_elements(t):
    """Sorted value vectors of a depth-first search in element-index order,
    each value propagated through its products with every known element.
    It reads mul[later][earlier] only, so on a non-commutative table a
    leaf need not be a character."""
    m, mul = t.size, t.mul
    values = [None] * m
    known = []
    found = []

    def assign(x, v, trail):
        queue = [(x, v)]
        while queue:
            y, w = queue.pop()
            if values[y] is not None:
                if values[y] != w:
                    return False
                continue
            values[y] = w
            known.append(y)
            trail.append(y)
            queue += [(mul[y][z], w * values[z]) for z in known]
        return True

    def undo(trail):
        for y in trail:
            values[y] = None
            known.pop()

    def search():
        for x in range(m):
            if values[x] is None:
                for v in (1, 0, -1):
                    trail = []
                    if assign(x, v, trail):
                        search()
                    undo(trail)
                return
        found.append(tuple(values))

    trail0 = []
    if (assign(t.one_idx, 1, trail0) and assign(t.minus_one_idx, -1, trail0)
            and assign(t.zero_idx, 0, trail0)):
        search()
    return sorted(found)


def oracle_generated(t, gens):
    """The elements reached from gens by products in either order."""
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for y in list(reached):
            for p in (t.mul[x][y], t.mul[y][x]):
                if p not in reached:
                    reached.add(p)
                    frontier.append(p)
    return reached


@pytest.fixture(scope="module")
def corrupted(corpus):
    # one symmetric entry overwritten per copy, a fifth of them then made
    # asymmetric; tables of at most 33 elements keep the m^3 scan quick
    tables = [t for t in map(chain_to_table, corpus[:120]) if t.size <= 33]
    copies = corrupted_copies(random.Random(13), tables, 3)
    assert len(copies) >= 200
    assert sum(not is_commutative(t) for t in copies) >= 20
    return copies


def test_validate_table_matches_m3_scan(corpus, corrupted):
    fans = [chain_to_table(c) for c in corpus[:60]]
    # an associative table that is not commutative fails the verdict too
    lz = left_zero_product()
    assert {v.code for v in oracle_validate_table(lz)} & {"commutativity", "associativity"} \
        == {"commutativity"}
    for t in fans + corrupted + [lz]:
        want = oracle_validate_table(t)
        assert validate_table(t) == want
        structural = {"commutativity", "associativity"}
        assert t.commutative_semigroup == (not any(v.code in structural for v in want))
        assert t.commutative_semigroup == oracle_light_test(t)
    assert all(t.commutative_semigroup for t in fans)
    # most corruptions break associativity; those are the scan's witnesses
    assert sum(not t.commutative_semigroup for t in corrupted) > len(corrupted) // 2


@pytest.mark.parametrize("dim", [5, 7])
def test_light_test_on_ladder_edits(dim):
    # one symmetric cell overwritten in 129- and 513-element ladder tables,
    # so each copy stays commutative and its verdict falls to the
    # per-generator symmetry checks
    table = chain_to_table(ladder(random.Random(dim), 4, dim))
    assert table.commutative_semigroup and oracle_light_test(table)
    edits = corrupted_copies(random.Random(dim), [table], 8, asymmetric=0)
    assert all(map(is_commutative, edits))
    verdicts = [t.commutative_semigroup for t in edits]
    assert verdicts == list(map(oracle_light_test, edits))
    assert verdicts == list(map(oracle_commutative_semigroup, edits))
    assert not any(verdicts)


def test_light_test_passes_identity_row_of_another_generator():
    # sign3 x sign3 with constants 1 = (0, 1), 0 = (0, 0), -1 = (1, 0):
    # the identity (1, 1) is reached by no product of earlier generators,
    # so it is a generator other than 1 whose row is the identity; one
    # symmetric edit away from its row breaks associativity
    square = product_table(sign3_table(), sign3_table())
    identity = square.one_idx
    t = TernaryTable(9, 1, 0, 3, square.mul)
    assert identity in t.generators and identity != t.one_idx
    assert t.mul[identity] == tuple(range(9))
    mul = [list(row) for row in t.mul]
    mul[5][7] = mul[7][5] = identity
    edited = TernaryTable(9, 1, 0, 3, tuple(map(tuple, mul)))
    assert edited.mul[identity] == tuple(range(9))
    for table, verdict in ((t, True), (edited, False)):
        assert table.commutative_semigroup == verdict
        assert oracle_light_test(table) == verdict
        assert oracle_commutative_semigroup(table) == verdict


def test_light_test_checks_rows_constant_at_another_element():
    # x*0 = x*1 = 2 for all x but 2*2 = 0, so (0*0)*2 = 0 != 2 = 0*(0*2):
    # only the generators 0 and 1, whose rows are constant at 2, show it
    t = TernaryTable(3, 0, 0, 0, ((2, 2, 2), (2, 2, 2), (2, 2, 0)))
    assert t.generators == (0, 1)
    assert not t.commutative_semigroup
    assert not oracle_light_test(t) and not oracle_commutative_semigroup(t)


def test_enumeration_matches_element_propagation(corpus, corrupted):
    fans = [chain_to_table(c) for c in corpus[:60]]
    for t in fans + corrupted:
        want = [v for v in oracle_enumerate_by_elements(t) if multiplicative(t, v)]
        assert [h.values for h in enumerate_characters(t)] == want
        if is_commutative(t):
            # on a commutative table the element propagation needs no filter
            assert oracle_enumerate_by_elements(t) == want


@pytest.mark.parametrize("levels,dim", [(4, 5), (4, 6), (5, 6), (4, 7)])
def test_generators_reach_every_element_on_ladders(levels, dim):
    table = chain_to_table(ladder(random.Random(levels * dim), levels, dim))
    assert table.size == 1 + levels * 2 ** dim
    gens = table.generators
    assert gens[:3] == (table.one_idx, table.zero_idx, table.minus_one_idx)
    assert len(gens) <= 16
    assert oracle_generated(table, gens) == set(range(table.size))
    # every element is reached once, as a generator or as a word r*g with
    # r reached before it and g a generator of its step or an earlier one
    order = []
    for k, (g, new, words) in enumerate(table.closure_steps):
        assert g == gens[k]
        for y, r, h in words:
            assert table.mul[r][h] == y and h in gens[:k + 1]
            assert r in order or r in new[:new.index(y)]
        assert [y for y, _, _ in words] == [y for y in new if y != g]
        order += new
    assert sorted(order) == list(range(table.size))


# -- oracles for the table model by GF(2) algebra --------------------------------
# The sign search on generators and the cubic triple-closure scan, kept as
# references for the solve per support and the per-class closure test.

def oracle_enumerate_on_generators(t):
    """Sorted value vectors of every character of t.

    Depth-first search that branches on the generators of t only, in the
    order of t.closure_steps, with h(1) = 1, h(0) = 0 and h(-1) = -1
    fixed.  When a step's generator gets its value, each element first
    reached in the step gets its value from its word, h(r*g) = h(r)h(g),
    and each new value h(y) is propagated through its products with the
    assigned generators and constants: h(y*g) = h(y)h(g) must hold for
    every generator g of the step or an earlier one, or the branch is
    pruned.

    Why a leaf is a character on a commutative semigroup.  Let S_k be
    the elements reached by step k, the subsemigroup generated by the
    generators up to step k's generator g.  By induction on k, h is
    multiplicative on S_k.  First, h(x*g') = h(x)h(g') for x in S_k and
    g' a generator up to g: it is checked when x is new in step k, and
    the induction gives it when x and g' lie in S_(k-1).  Otherwise x is
    in S_(k-1) and g' = g; write x = g1*...*gn with earlier generators gi:
        x*g = g*x = (...((g*g1)*g2)...)*gn,
    where each product is of an element p of S_k by some gi, checked
    when p is new and given by the induction when p is in S_(k-1), so
    h(x*g) = h(g)h(g1)...h(gn) = h(g)h(x).  Then h(x*y) = h(x)h(y) for
    x, y in S_k by induction on the word of y: for y = r*g',
        h(x*(r*g')) = h((x*r)*g') = h(x*r)h(g') = h(x)h(r)h(g') = h(x)h(y).
    On a table that fails Light's test a leaf is kept only when it is
    multiplicative.
    """
    m, mul = t.size, t.mul
    # a constant has one choice, none when two constants share an index
    fixed = {}
    for idx, v in ((t.one_idx, 1), (t.zero_idx, 0), (t.minus_one_idx, -1)):
        fixed[idx] = (v,) if fixed.get(idx, (v,)) == (v,) else ()
    plan = []
    gens = []
    for g, new, words in t.closure_steps:
        gens.append(g)
        checks = [(h, [mul[y][h] for y in new]) for h in gens]
        plan.append((g, fixed.get(g, (1, 0, -1)), new[:1] == (g,), words, new, checks))
    values = [0] * m
    found = []

    def search(k):
        if k == len(plan):
            if t.commutative_semigroup or multiplicative(t, values):
                found.append(tuple(values))
            return
        g, choices, fresh, words, new, checks = plan[k]
        for v in choices:
            if fresh:
                values[g] = v
            elif values[g] != v:
                continue
            for y, r, h in words:
                values[y] = values[r] * values[h]
            if all([values[p] for p in products] == [values[y] * values[h] for y in new]
                   for h, products in checks):
                search(k + 1)

    search(0)
    return sorted(found)


def oracle_triple_closure(chars):
    """triple_closure's scan over every multiset, with no per-class test."""
    pool = {(h.support, h.neg) for h in chars}
    out = []
    for a, b, c in itertools.combinations_with_replacement(chars, 3):
        s = a.support & b.support & c.support
        if (s, (a.neg ^ b.neg ^ c.neg) & s) not in pool:
            out.append(ternary.Violation(
                "triple-closure", "product of three characters is not a character",
                (a.values, b.values, c.values)))
    return out


def constant_reached_by_word(t):
    constants = (t.one_idx, t.zero_idx, t.minus_one_idx)
    return any(g in constants and new[:1] != (g,) for g, new, _ in t.closure_steps)


def test_enumeration_matches_search_on_generators(corpus, corrupted):
    # brute force too where 3^m allows it
    tables = [chain_to_table(c) for c in corpus] + corrupted
    for t in tables:
        want = oracle_enumerate_on_generators(t)
        assert [h.values for h in enumerate_characters(t)] == want
        if t.size <= 9:
            assert want == brute_force_characters(t)
    assert sum(t.size <= 9 for t in tables) >= 20
    # a constant reached by a word before it is added as a generator keeps
    # that word's parity in the sign equations
    assert any(map(constant_reached_by_word, corrupted))


@pytest.mark.parametrize("levels,dim", [(4, 5), (4, 6), (4, 7), (4, 8), (4, 9)])
def test_enumeration_on_ladders_up_to_table_bound(levels, dim):
    chain = ladder(random.Random(levels * dim), levels, dim)
    table = chain_to_table(chain)
    assert table.size <= MAX_TABLE_ELEMENTS
    chars = enumerate_characters(table)
    from_chain = sorted(chain_char_to_table_char(chain, table, h).values
                        for h in FanSpace(chain).chars)
    assert [h.values for h in chars] == oracle_enumerate_on_generators(table) == from_chain
    assert fan_report(table, chars) == []


def test_triple_closure_gate_matches_scan(corpus):
    # each corpus table's characters and three random subsets of them, and
    # a table whose supports are not a chain
    rng = random.Random(16)
    tables = [chain_to_table(c) for c in corpus] + [product_table(sign3_table(), sign3_table())]
    outcomes = set()
    for t in tables:
        chars = enumerate_characters(t)
        subsets = [tuple(sorted(rng.sample(chars, rng.randint(1, len(chars))), key=chars.index))
                   for _ in range(3)]
        for sample in [chars] + subsets:
            want = oracle_triple_closure(sample)
            assert ternary.triple_closure(sample) == want
            chain = ternary._support_chain(sample) is not None
            if chain:
                # the per-class test is exact on a chain of supports
                assert ternary._closed_by_classes(sample) == (want == [])
            outcomes.add((chain, want == []))
    assert outcomes == {(chain, closed) for chain in (True, False) for closed in (True, False)}
