import itertools
import random
from operator import xor

import pytest

import fanforge.levels
from fanforge import suite
from fanforge.chains import ChainChar
from fanforge.corpus import generate_corpus
from fanforge.levels import (
    PropertyReport,
    basis_of,
    closure,
    dimension,
    extend_basis,
    involution_failures,
    involutions_hold,
    is_dependent,
    verify_involution,
)
from fanforge.spectral import FanSpace

from conftest import E1, EB, TRIV, ladder, patch_random_shifts

R = ChainChar(1, 1)
C1 = ChainChar(2, 1)
C2 = ChainChar(2, 3)


def dependent_by_search(space, chars):
    """Oracle: some member equals the product of odd many distinct others,
    i.e. some even subset of size >= 4 multiplies out to the trivial map."""
    chars = list(chars)
    for size in range(4, len(chars) + 1, 2):
        for sub in itertools.combinations(chars, size):
            acc = 0
            for h in sub:
                acc ^= h.mask
            if acc == 0:
                return True
    return False


def test_singletons_and_pairs_are_independent():
    s = FanSpace(E1)
    assert not is_dependent(s, [C1])
    assert not is_dependent(s, [C1, C2])


def test_e1_level_two_basis():
    s = FanSpace(E1)
    assert not is_dependent(s, [C1, C2])
    assert set(closure(s, [C1, C2])) == set(s.level(2))
    assert dimension(s, s.level(2)) == 2


def test_four_element_fan_is_dependent():
    from fanforge.chains import FanChain
    s = FanSpace(FanChain((3,), (1,), ()))
    level = s.level(1)
    x1, x2, x3 = level[0], level[1], level[2]
    x4 = s.triple(x1, x2, x3)
    assert x4 in level
    assert is_dependent(s, [x1, x2, x3, x4])


def test_dependence_matches_brute_force(corpus_spaces):
    # exhaustive over all subsets of every level of width at most 8
    rng = random.Random(5)
    for space in corpus_spaces[:15]:
        for d in range(1, space.length + 1):
            level = list(space.level(d))
            if len(level) > 8:
                level = rng.sample(level, 8)
            for size in range(1, len(level) + 1):
                for sub in itertools.combinations(level, size):
                    assert is_dependent(space, sub) == dependent_by_search(space, sub)


def test_mixed_depth_rejected():
    s = FanSpace(E1)
    with pytest.raises(ValueError):
        is_dependent(s, [R, C1])
    # with or without a starting set, a basis needs one level
    for call in (lambda: extend_basis(s, (), (R, C1)), lambda: extend_basis(s, (C1,), (R,)),
                 lambda: basis_of(s, (R, C1)), lambda: dimension(s, (R, C1))):
        with pytest.raises(ValueError, match="mixed depths"):
            call()


def test_closure_is_idempotent_and_spans(corpus_spaces):
    rng = random.Random(6)
    for space in corpus_spaces[:20]:
        d = rng.randint(1, space.length)
        level = list(space.level(d))
        sub = rng.sample(level, rng.randint(1, len(level)))
        closed = closure(space, sub)
        assert closure(space, closed) == closed
        assert len(closed) == 1 << (len(basis_of(space, closed)) - 1)


def test_extend_basis_keeps_start():
    s = FanSpace(E1)
    b = extend_basis(s, [C2], s.level(2))
    assert b[0] == C2 and len(b) == 2
    with pytest.raises(ValueError):
        extend_basis(s, [C1, C2, s.triple(C1, C1, C2)], s.level(2))


def test_kappa_image_is_closed(corpus_spaces):
    for space in corpus_spaces[:20]:
        for e in range(1, space.length + 1):
            for d in range(1, e + 1):
                image = sorted({space.successor(g, d) for g in space.level(e)})
                assert image == sorted(space.stratum_members("S", d, e))
                assert list(closure(space, image)) == image


def test_involution_examples():
    # h -> h*g1*g2 on E1: C1 and C2 swap on level 2, R is fixed on level 1,
    # and a pair of equal characters gives the identity
    s = FanSpace(E1)
    assert s.triple(C1, C1, C2) == C2
    assert s.triple(C2, C1, C2) == C1
    assert s.triple(R, C1, C2) == R
    assert all(s.triple(h, C1, C1) == h for h in s.level(2))


def test_involution_independent_of_lift():
    # replacing the handle characters by their successors gives the same map
    s = FanSpace(E1)
    shifts = fanforge.levels._shifts
    assert shifts(s, C1, C2)[:1] == shifts(s, s.successor(C1, 1), s.successor(C2, 1))


def test_verify_involution_examples():
    s = FanSpace(E1)
    assert verify_involution(s, C1, C2).ok
    st = FanSpace(TRIV)
    h = ChainChar(1, 1)
    assert verify_involution(st, h, h).ok


def test_verify_involution_corpus(corpus_spaces):
    for space in corpus_spaces[:30]:
        for g1 in space.chars:
            for g2 in space.chars:
                assert verify_involution(space, g1, g2).ok


def verify_involution_by_strata(space, g1, g2):
    """Oracle for verify_involution: every S and C stratum rebuilt as a mask
    set per (d, j), and the parent-edge check run over all characters."""
    report = PropertyReport()
    dmin = min(g1.depth, g2.depth)
    shifts = dict(enumerate(fanforge.levels._shifts(space, g1, g2), start=1))
    for d in range(1, dmin + 1):
        members = {h.mask for h in space.level(d)}
        shift = shifts[d]
        report.add(f"automorphism(level {d})",
                   {m ^ shift for m in members} == members, (shift,))
        report.add(f"involution(level {d})",
                   all((m ^ shift) ^ shift == m for m in members), (shift,))
        s1, s2 = space.successor(g1, d), space.successor(g2, d)
        report.add(f"successor-transport(level {d})",
                   ChainChar(d, s1.mask ^ shift) == s2, (s1, s2))
        if s1 == s2:
            report.add(f"fixed-common-specialization(level {d})",
                       s1.mask ^ shift == s1.mask, (s1,))
        for j in range(d, dmin + 1):
            stratum = {h.mask for h in space.stratum_members("S", d, j)}
            report.add(f"stratum-permutation(S^{d}_{j})",
                       {m ^ shift for m in stratum} == stratum, (shift,))
            if j < dmin or j == space.length:
                stratum = {h.mask for h in space.stratum_members("C", d, j)}
                report.add(f"stratum-permutation(C^{d}_{j})",
                           {m ^ shift for m in stratum} == stratum, (shift,))
    witness: tuple = ()
    for h1 in space.chars:
        if h1.depth > dmin:
            break
        if h1.depth == 1:
            continue
        d = h1.depth - 1
        h2 = space.successor(h1, d)
        fh1 = ChainChar(h1.depth, h1.mask ^ shifts[h1.depth])
        if space.successor(fh1, d) != ChainChar(d, h2.mask ^ shifts[d]):
            witness = (h1, h2)
            break
    report.add("specialization-compat", not witness, witness)
    return report


def test_verify_involution_matches_strata_oracle(corpus_spaces):
    # every handle of the corpus and of a 5-level corpus: whole reports,
    # so check names, order, outcomes and witnesses all agree
    deeper = [FanSpace(c) for c in generate_corpus(5, count=60, max_levels=5, max_dim=4)]
    handles = 0
    for space in corpus_spaces + deeper:
        failures = []
        for g1 in space.chars:
            for g2 in space.chars:
                report = verify_involution(space, g1, g2)
                assert report == verify_involution_by_strata(space, g1, g2), (space.chain, g1, g2)
                failures += [(g1, g2, bad) for bad in report.failures()]
                handles += 1
        assert list(involution_failures(space)) == failures, space.chain
    assert handles >= 30000, handles


def test_verify_involution_matches_strata_oracle_on_random_shifts(corpus_spaces, monkeypatch):
    rng = random.Random(11)
    patch_random_shifts(monkeypatch, rng)
    outcomes = {True: 0, False: 0}
    for space in corpus_spaces:
        for _ in range(60):
            g1, g2 = rng.choice(space.chars), rng.choice(space.chars)
            report = verify_involution(space, g1, g2)
            assert report == verify_involution_by_strata(space, g1, g2), (space.chain, g1, g2)
            outcomes[report.ok] += 1
        # every pair, so failing shift tuples are met again by other pairs
        failures = [(g1, g2, bad) for g1 in space.chars for g2 in space.chars
                    for bad in verify_involution(space, g1, g2).failures()]
        assert list(involution_failures(space)) == failures, space.chain
    assert outcomes[True] >= 1000 and outcomes[False] >= 1000, outcomes


def test_involution_failures_checks_each_shift_tuple_once(monkeypatch):
    calls = []
    shift_checks = fanforge.levels._shift_checks

    def counted(space, shifts):
        calls[-1].append(shifts)
        return shift_checks(space, shifts)

    monkeypatch.setattr(fanforge.levels, "_shift_checks", counted)
    pairs = 0
    for chain in generate_corpus(0, count=60):   # the corpus of `suite --seed 0`
        space = FanSpace(chain)
        calls.append([])
        assert list(involution_failures(space)) == []
        assert len(set(calls[-1])) == len(calls[-1])
        pairs += len(space.chars) ** 2
    assert (sum(map(len, calls)), pairs) == (587, 8829)


def test_involution_failures_reports_a_failing_tuple_of_real_handles(monkeypatch):
    # real handles always pass, so one tuple's verdict is made to fail:
    # every pair with that tuple is reported, although each level's shift
    # is the quotient of the pair's two successors there
    space = FanSpace(EB)
    g1, g2 = space.chars[-1], space.chars[-2]
    target = fanforge.levels._shifts(space, g1, g2)
    shift_checks = fanforge.levels._shift_checks

    def failing(space, shifts):
        levels, witness, passed = shift_checks(space, shifts)
        if shifts != target:
            return levels, witness, passed
        (_, involution, strata), *deeper = levels
        return [(False, involution, strata)] + deeper, witness, False

    monkeypatch.setattr(fanforge.levels, "_shift_checks", failing)
    failures = list(involution_failures(space))
    assert failures == [(h1, h2, bad) for h1 in space.chars for h2 in space.chars
                        for bad in verify_involution(space, h1, h2).failures()]
    pairs = [(h1, h2) for h1, h2, _ in failures]
    assert (g1, g2) in pairs and len(pairs) >= 2
    assert {bad.name for _, _, bad in failures} == {"automorphism(level 1)"}


def suite_corpora():
    """The corpora of `suite --seed 0`, `suite --seed 5 --count 60
    --levels 5` and `suite --seed 11 --count 12 --levels 6 --maxdim 6`."""
    return (generate_corpus(0, count=60) + generate_corpus(5, count=60, max_levels=5)
            + generate_corpus(11, count=12, max_levels=6, max_dim=6))


def test_involutions_hold_matches_involution_failures(census_spaces):
    ladders = [FanSpace(ladder(random.Random(seed), 6, 8)) for seed in (1, 2)]
    spaces = census_spaces + [FanSpace(c) for c in suite_corpora()] + ladders
    for space in spaces:
        assert involutions_hold(space), space.chain
        assert next(involution_failures(space), None) is None, space.chain
    assert len(census_spaces) == 3135


def test_shift_checks_passing_tuples_are_closed_under_xor(corpus_spaces):
    # the lemma involutions_hold rests on, on tuples of real pairs (which
    # pass) and random tuples of level differences (which often fail):
    # when t1 passes, t2 passes exactly when t1 ^ t2 does
    rng = random.Random(34)
    seen = {(True, True): 0, (True, False): 0}

    def draw(space, dmin):
        if rng.random() < 0.5:
            g1, g2 = (rng.choice([g for g in space.chars if g.depth >= dmin]) for _ in "12")
            return fanforge.levels._shifts(space, g1, g2)[:dmin]
        return tuple(rng.choice(space.level(d)).mask ^ rng.choice(space.level(d)).mask
                     for d in range(1, dmin + 1))

    def passes(space, shifts):
        return fanforge.levels._shift_checks(space, shifts)[2]

    for space in corpus_spaces:
        for _ in range(40):
            dmin = rng.randint(1, space.length)
            t1, t2 = draw(space, dmin), draw(space, dmin)
            if passes(space, t1):
                both = passes(space, t2)
                assert passes(space, tuple(map(xor, t1, t2))) == both, (space.chain, t1, t2)
                seen[True, both] += 1
    assert min(seen.values()) >= 500, seen


def test_involutions_hold_refuses_a_subgroup_of_failing_tuples(corpus_spaces, monkeypatch):
    # every tuple whose level-1 shift is nonzero fails, a subgroup-consistent
    # verdict: the basis decision agrees with the per-pair report, and the
    # section returns exactly that report's lines
    shift_checks = fanforge.levels._shift_checks

    def failing(space, shifts):
        levels, witness, passed = shift_checks(space, shifts)
        if not shifts[0]:
            return levels, witness, passed
        (_, involution, strata), *deeper = levels
        return [(False, involution, strata)] + deeper, witness, False

    monkeypatch.setattr(fanforge.levels, "_shift_checks", failing)
    outcomes = {True: 0, False: 0}
    for space in corpus_spaces:
        failures = list(involution_failures(space))
        held = involutions_hold(space)
        assert held == (not failures) == (space.dim(1) == 1), space.chain
        assert suite.check_involutions(suite.FanModel(None, space, {}, ())) == [
            f"handle ({g1}, {g2}): {bad.name} fails" for g1, g2, bad in failures]
        outcomes[held] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_involutions_hold_checks_a_basis_of_each_shift_group(monkeypatch):
    calls = []
    shift_checks = fanforge.levels._shift_checks

    def counted(space, shifts):
        calls.append(shifts)
        return shift_checks(space, shifts)

    monkeypatch.setattr(fanforge.levels, "_shift_checks", counted)
    dims = 0
    for chain in generate_corpus(0, count=60):   # the corpus of `suite --seed 0`
        assert involutions_hold(FanSpace(chain))
        dims += sum(chain.dims) - chain.n
    # dim(d) - 1 tuples per level d, against 587 distinct tuples of 8,829 pairs
    assert (len(calls), dims) == (232, 232)


def test_successor_mask_rows_match_successors(corpus_spaces):
    deeper = [FanSpace(c) for c in generate_corpus(5, count=60, max_levels=5, max_dim=4)]
    ladders = [FanSpace(ladder(random.Random(seed), 6, 8)) for seed in (1, 2)]
    for space in corpus_spaces + deeper + ladders:
        rows = space.successor_masks
        assert list(rows) == list(space.chars)
        for g, row in rows.items():
            assert row == tuple(space.successor(g, d).mask for d in range(1, g.depth + 1))


def test_translation_mask_reads_rows_within_min_depth():
    s = FanSpace(E1)
    shifts = fanforge.levels._shifts
    assert shifts(s, C1, C2) == (0, C1.mask ^ C2.mask)
    assert shifts(s, R, C1) == shifts(s, C1, R) == (0,)


def test_patched_shifts_reach_both_entry_points(monkeypatch):
    space = FanSpace(EB)
    seen = []

    def off_level(space, g1, g2):
        seen.append((g1, g2))
        return (1 << space.dim(1),) * min(g1.depth, g2.depth)

    monkeypatch.setattr(fanforge.levels, "_shifts", off_level)
    g = space.chars[-1]
    assert not verify_involution(space, g, g).ok
    assert seen == [(g, g)]
    seen.clear()
    failures = list(involution_failures(space))
    assert seen == [(g1, g2) for g1 in space.chars for g2 in space.chars]
    assert {(g1, g2) for g1, g2, _ in failures} == set(seen)


def compat_all_depths(space, g1, g2):
    """Oracle for specialization-compat: the first depth-ordered h1 whose
    image disagrees with the image of some successor, or None."""
    dmin = min(g1.depth, g2.depth)
    shifts = dict(enumerate(fanforge.levels._shifts(space, g1, g2), start=1))
    for h1 in space.chars:
        if h1.depth > dmin:
            continue
        fh1 = ChainChar(h1.depth, h1.mask ^ shifts[h1.depth])
        for d in range(1, h1.depth):
            h2 = space.successor(h1, d)
            if space.successor(fh1, d) != ChainChar(d, h2.mask ^ shifts[d]):
                return h1
    return None


def test_specialization_compat_matches_all_depth_oracle(corpus_spaces, monkeypatch):
    rng = random.Random(3)
    patch_random_shifts(monkeypatch, rng)
    outcomes = {True: 0, False: 0}
    for space in corpus_spaces:
        if space.length < 2:
            continue
        for _ in range(30):
            g1, g2 = rng.choice(space.chars), rng.choice(space.chars)
            check = next(c for c in verify_involution(space, g1, g2).checks
                         if c.name == "specialization-compat")
            first = compat_all_depths(space, g1, g2)
            assert check.passed == (first is None)
            if first is not None:
                assert check.witness == (first, space.successor(first, first.depth - 1))
            outcomes[check.passed] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def test_involution_matches_table_pointwise_product(corpus_spaces):
    # the coordinate translation really is the pointwise sign product
    # h*g1*g2 of the corresponding table characters
    from fanforge.chains import chain_char_to_table_char, chain_to_table
    from fanforge.ternary import pointwise_product
    for space in corpus_spaces[:8]:
        chain = space.chain
        table = chain_to_table(chain)
        as_table = {h: chain_char_to_table_char(chain, table, h) for h in space.chars}
        for g1 in space.chars:
            for g2 in space.chars:
                for h in space.level(min(g1.depth, g2.depth)):
                    out = space.triple(h, g1, g2)
                    product = pointwise_product(
                        (as_table[h], as_table[g1], as_table[g2]))
                    assert as_table[out].values == product


def test_dependence_transport(corpus_spaces):
    # When a set maps bijectively onto its successors one level up,
    # dependence travels along with it.
    rng = random.Random(7)
    checked = 0
    for space in corpus_spaces:
        if space.length < 2:
            continue
        for e in range(2, space.length + 1):
            for d in range(1, e):
                level = list(space.level(e))
                sub = rng.sample(level, min(len(level), rng.randint(2, 6)))
                succ = {g: space.successor(g, d) for g in sub}
                if len(set(succ.values())) != len(sub):
                    continue  # predecessors not unique in the sample
                if is_dependent(space, sub):
                    assert is_dependent(space, sorted(succ.values()))
                    checked += 1
    assert checked >= 5


def predecessor_fan(space, h):
    """Everything that specializes to h, h included."""
    return [space.chars[i] for i in space.forest.descendants(space.node(h))]


def test_predecessor_fan_examples(corpus_spaces):
    s = FanSpace(E1)
    assert set(predecessor_fan(s, R)) == set(s.chars)
    for h in s.chars:
        assert h in predecessor_fan(s, h)
    # closed under triple products
    for space in corpus_spaces[:10]:
        for h in space.level(1):
            preds = predecessor_fan(space, h)
            pool = set(preds)
            assert all(space.triple(a, b, c) in pool
                       for a, b, c in itertools.combinations_with_replacement(preds, 3))


def test_embed_predecessors_bijective_between_c_members(corpus_spaces):
    # multiplying by a depth-j predecessor of each, the least or the
    # greatest, maps the predecessor fan of one C^k_j member onto the other's
    for space in corpus_spaces[:25]:
        n = space.length
        for k in range(1, n + 1):
            for j in range(k, n + 1):
                cs = space.stratum_members("C", k, j)
                if len(cs) < 2:
                    continue
                preds1, preds2 = (predecessor_fan(space, h) for h in cs[:2])
                for pick in (min, max):
                    u1 = pick(g for g in preds1 if g.depth == j)
                    u2 = pick(g for g in preds2 if g.depth == j)
                    image = [space.triple(g, u1, u2) for g in preds1]
                    assert sorted(image) == sorted(preds2)
