"""Acceptance gate: one test per criterion, each printing a PASS line.

The corpus is 200 seeded random chains with at most 4 levels and level
dimensions at most 4 (seed in conftest).  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import time

from fanforge import ternary
from fanforge.chains import (
    cardinalities,
    chain_char_to_table_char,
    chain_elements,
    chain_to_table,
    roundtrip_isomorphism,
)
from fanforge.errors import OrderMismatchError
from fanforge.formats import parse_chain, parse_forest, serialize_chain, serialize_forest
from fanforge.generators import standard_generating_system, verify_sgs
from fanforge.isomorphism import (
    brute_force_isomorphism,
    build_isomorphism,
    check_forest,
    evaluation,
    forest_canonical,
    is_ars_morphism,
    preserves_triple_products,
    represent,
    representation_witness,
)
from fanforge.levels import verify_involution


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_cardinality_identity(corpus):
    start = time.monotonic()
    for chain in corpus:
        card_f, card_x = cardinalities(chain)
        assert card_f == 2 * card_x + 1
    elapsed = time.monotonic() - start
    assert len(corpus) == 200
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"cardinality identity on 200 chains in {elapsed:.2f}s")


def test_criterion_2_specialization_equivalence(corpus, corpus_spaces):
    discrepancies = 0
    pairs = 0
    for chain, space in zip(corpus, corpus_spaces):
        table = chain_to_table(chain)
        chars = [chain_char_to_table_char(chain, table, h) for h in space.chars]
        for g in chars:
            for h in chars:
                pairs += 1
                answers = {
                    ternary.specializes_by_units(g, h),
                    ternary.specializes_by_nonnegative_part(g, h),
                    ternary.specializes_by_zero_sets(g, h),
                    ternary.specializes(g, h),
                    ternary.specializes_by_square_shift(g, h),
                }
                discrepancies += len(answers) != 1
    assert discrepancies == 0
    _report(2, f"specialization criteria agree on {pairs} character pairs")


def test_criterion_3_involution_suite(corpus_spaces):
    start = time.monotonic()
    handles = 0
    failures = []
    for space in corpus_spaces:
        for g1 in space.chars:
            for g2 in space.chars:
                handles += 1
                report = verify_involution(space, g1, g2)
                failures.extend(report.failures())
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(3, f"involution suite over {handles} handles in {elapsed:.2f}s")


def test_criterion_4_regularity_suite(corpus_spaces):
    checks = 0
    for space in corpus_spaces:
        forest = space.forest
        n = forest.length
        # predecessor-count regularity across strata
        for k in range(1, n + 1):
            for j in range(k, n + 1):
                for j1 in range(k, j + 1):
                    for j2 in range(k, j1 + 1):
                        b_counts = {len(forest.pred_nodes(h, j1, j2, "B"))
                                    for h in forest.stratum("S", k, j)}
                        a_counts = {len(forest.pred_nodes(h, j1, j2, "A"))
                                    for h in forest.stratum("C", k, j)}
                        assert len(b_counts) <= 1 and len(a_counts) <= 1
                        checks += 1
        # component level/stratum regularity and truncation isomorphism
        comps = [forest.restrict(c) for c in forest.components]
        for ka, kb in itertools.combinations(comps, 2):
            for j in range(1, min(ka.length, kb.length) + 1):
                for jp in range(1, j + 1):
                    assert len(ka.stratum("S", jp, j)) == len(kb.stratum("S", jp, j))
                    checks += 1
            shallow, deep = (ka, kb) if ka.length <= kb.length else (kb, ka)
            trunc = deep.truncate(shallow.length)
            assert forest_canonical(shallow) == forest_canonical(trunc)
            checks += 1
    _report(4, f"regularity suite: {checks} checks, zero failures")


def test_criterion_5_impossible_configurations(corpus_spaces, impossible_forests):
    witnesses = {
        i: {(v.code,) + v.witness for v in check_forest(f)}
        for i, f in impossible_forests.items()
    }
    # configuration (1): component level-2 cardinalities 2 vs 4
    assert ("RC3", 2, 2, 1, 2, 2, 4) in witnesses[1]
    # configuration (2): global stratum S^3_4 has three elements
    assert ("RC1", 3, 4, 3) in witnesses[2]
    # configuration (3): stratum counts 4 vs 2, and equal-length components
    # that are not order-isomorphic
    assert ("RC3", 3, 4, 1, 2, 4, 2) in witnesses[3]
    assert ("RC4", 1, 2) in witnesses[3]
    for space in corpus_spaces:
        assert check_forest(space.forest) == []
    _report(5, "impossible configurations rejected; corpus forests all pass")


def test_criterion_6_generating_systems(corpus_spaces):
    policies = [None] + list(range(10))
    for space in corpus_spaces:
        for seed in policies:
            gs = standard_generating_system(space, seed)
            report = verify_sgs(space, gs)
            assert report.ok, report.failures()
    _report(6, f"generating systems verified under {len(policies)} policies")


def test_criterion_7_isomorphism_end_to_end(corpus_spaces):
    start = time.monotonic()
    small = [s for s in corpus_spaces if len(s) <= 10]
    codes = [forest_canonical(s.forest) for s in small]
    pairs = iso_count = 0
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            pairs += 1
            s1, s2 = small[i], small[j]
            order_iso = codes[i] == codes[j]
            try:
                built = build_isomorphism(s1, s2)
            except OrderMismatchError:
                built = None
            searched = brute_force_isomorphism(s1, s2)
            assert order_iso == (built is not None) == (searched is not None)
            if built is not None:
                iso_count += 1
                assert is_ars_morphism(s1, s2, built).ok
                inverse = {v: k for k, v in built.items()}
                assert is_ars_morphism(s2, s1, inverse).ok
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(7, f"{pairs} pairs ({iso_count} isomorphic) agree three ways "
               f"in {elapsed:.2f}s")


def test_criterion_8_representation_theorem(corpus_spaces):
    fans = 0
    for space in corpus_spaces:
        if len(space) > 4:
            continue
        fans += 1
        elements = chain_elements(space.chain)
        evals = [evaluation(space, el) for el in elements]
        assert len({tuple(sorted(e.items())) for e in evals}) == len(elements)
        representable = 0
        for values in itertools.product((1, 0, -1), repeat=len(space.chars)):
            f = dict(zip(space.chars, values))
            result = represent(space, f)
            preserves = preserves_triple_products(space, f)
            witness_free = representation_witness(space, f) is None
            assert result.ok == preserves == witness_free
            representable += result.ok
        assert representable == len(elements)
        card_f, _ = cardinalities(space.chain)
        assert representable == card_f
    assert fans > 0
    _report(8, f"representation theorem exhaustive on {fans} small fans")


def test_criterion_9_round_trips(corpus, corpus_spaces):
    for chain, space in zip(corpus, corpus_spaces):
        roundtrip_isomorphism(chain_to_table(chain))
        text = serialize_chain(chain)
        assert serialize_chain(parse_chain(text)) == text
        ftext = serialize_forest(space.forest)
        assert serialize_forest(parse_forest(ftext)) == ftext
    _report(9, "chain/table round-trips and byte-identical files on 200 chains")
