import collections
import random

import pytest

import fanforge.generators as generators
from fanforge import gf2
from fanforge.chains import ChainChar, FanChain
from fanforge.corpus import generate_corpus
from fanforge.generators import (
    GeneratingSystem,
    _Policy,
    fiber_tower_basis,
    standard_generating_system,
    verify_sgs,
)
from fanforge.levels import PropertyReport, basis_of, closure, extend_basis, is_dependent
from fanforge.spectral import FanSpace

from conftest import CHAIN3, E1, EA, EB, TRIV, ladder

R = ChainChar(1, 1)
C1 = ChainChar(2, 1)
C2 = ChainChar(2, 3)


def test_choose_basis_with_lifts():
    # three-level fan, two components visible at levels 2/3: a basis of the
    # part of level 3 under the first level-2 basis member, plus one lift
    # under each other member, is a basis of level 3
    chain = FanChain((1, 2, 2), (1, 1, 1), ((1, 0), (1, 2)))
    s = FanSpace(chain)
    G = s.level(3)
    F_basis = basis_of(s, s.level(2))
    C = [g for g in G if s.successor(g, 2) == F_basis[0]]
    lifts = tuple(min(g for g in G if s.successor(g, 2) == h) for h in F_basis[1:])
    got = basis_of(s, C) + lifts
    assert len(got) == 2
    assert not is_dependent(s, got)
    assert set(closure(s, got)) == set(G)


def test_sgs_examples():
    st = FanSpace(TRIV)
    gs = standard_generating_system(st)
    assert gs.bases == ((ChainChar(1, 1),),)

    s1 = FanSpace(E1)
    gs1 = standard_generating_system(s1)
    assert gs1.level_basis(1) == (R,)
    assert set(gs1.level_basis(2)) == {C1, C2}
    assert len(gs1.members()) == 3

    sa = FanSpace(EA)
    gsa = standard_generating_system(sa)
    assert set(gsa.level_basis(1)) == set(sa.level(1))
    assert set(gsa.level_basis(2)) == set(sa.level(2))


def test_sgs_provenance_covers_all_members():
    for chain in (E1, EA, EB):
        space = FanSpace(chain)
        gs = standard_generating_system(space)
        provenance = dict(gs.provenance)
        for g in gs.members():
            assert provenance[g][0] in ("tower", "block", "lift")
        # every level-1 member comes from the tower, labeled by its reach
        for g in gs.level_basis(1):
            assert provenance[g] == ("tower", space.deep(g))


def _staged_tower(space):
    """The per-stage tower, kept as the oracle for the one greedy pass:
    extend the basis one S-stratum of the fiber at a time, deepest first,
    each stratum in character order.  The strata are grouped by parent
    once, so the oracle can be asked for every fiber of a large space."""
    n = space.length
    groups = {}
    for level in range(1, n + 1):
        for j in range(level, n + 1):
            for g in space.stratum_members("S", level, j):
                h0 = None if level == 1 else space.successor(g, level - 1)
                groups.setdefault((level, j, h0), []).append(g)

    def basis(h0, level):
        out = ()
        for j in range(n, level - 1, -1):
            out = extend_basis(space, out, groups.get((level, j, h0), ()))
        return out
    return basis


def test_fiber_tower_matches_staged_oracle(corpus_spaces):
    wide = [FanSpace(c) for c in generate_corpus(7, count=200, max_levels=6, max_dim=6)]
    big = FanSpace(ladder(random.Random(6), 6, 10))
    fibers = 0
    for space in corpus_spaces + wide + [big]:
        oracle, policy = _staged_tower(space), _Policy(None)
        assert fiber_tower_basis(space, None, 1, policy) == oracle(None, 1)
        for h0 in space.chars:
            if h0.depth < space.length:
                got = fiber_tower_basis(space, h0, h0.depth + 1, policy)
                assert got == oracle(h0, h0.depth + 1)
                fibers += 1
    assert len(big) == 3072 and fibers > 5000


def full_scan_extend_basis(space, indep, target):
    """extend_basis as first written, scanning every candidate: the oracle
    for its early stop at the level's dimension."""
    indep, target = tuple(indep), tuple(target)
    if not indep + target:
        return ()
    top = 1 << space.dim((indep + target)[0].depth)
    span = gf2.Span()
    for h in indep:
        assert span.add(h.mask | top)
    return indep + tuple(h for h in target if span.add(h.mask | top))


def oracle_fiber_tower_basis(space, h0, level, policy):
    """fiber_tower_basis as first written: the fiber's characters handed to
    the policy, then sorted by their reach, then scanned in full."""
    if h0 is None:
        fiber = space.level(level)
    else:
        fiber = [space.chars[i] for i in space.forest.children[space.node(h0)]]
    scan = sorted(policy.order(fiber), key=space.deep, reverse=True)
    return full_scan_extend_basis(space, (), scan)


def oracle_standard_generating_system(space, seed=None):
    """standard_generating_system as it was on characters: every reach and
    fiber read through the character, the oracle for the construction
    on node indices."""
    policy = _Policy(seed)
    n = space.length
    provenance = []

    basis = oracle_fiber_tower_basis(space, None, 1, policy)
    provenance += [(g, ("tower", space.deep(g))) for g in basis]
    bases = [basis]

    for k in range(1, n):
        prev = bases[k - 1]
        deep_part = [g for g in prev if space.deep(g) == n]
        h0 = policy.pick(deep_part)
        block = oracle_fiber_tower_basis(space, h0, k + 1, policy)
        provenance += [(g, ("block", h0)) for g in block]
        lifts = []
        for h in prev:
            if h == h0 or space.deep(h) < k + 1:
                continue
            jh = space.deep(h)
            fiber = [space.chars[i] for i in space.forest.children[space.node(h)]]
            eligible = [g for g in fiber if space.deep(g) == jh]
            lifts.append((h, policy.pick(eligible)))
        provenance += [(g, ("lift", h)) for h, g in lifts]
        bases.append(block + tuple(g for _, g in lifts))

    return GeneratingSystem(tuple(bases), tuple(provenance))


def _oracle_spans_exactly(basis, k, masks):
    return (bool(basis) and all(g.depth == k for g in basis)
            and len(masks) == 1 << (len(basis) - 1)
            and gf2.affine_span(g.mask for g in basis) == masks)


def oracle_verify_sgs(space, gs):
    """verify_sgs as it was on characters, each span compared with a mask
    set: the oracle for the report (names, outcomes and witnesses) on
    systems of characters of the space."""
    report = PropertyReport()
    n = space.length
    forest = space.forest
    for k in range(1, n + 1):
        bk = gs.level_basis(k)
        masks = space.masks[k - 1]
        first = forest.level(k)[0]
        report.add(f"spans-level({k})", _oracle_spans_exactly(bk, k, set(masks)))
        for j in list(forest.profile[k])[1:]:
            part = tuple(g for g in bk if space.deep(g) >= j)
            good = _oracle_spans_exactly(
                part, k, {masks[i - first] for i in forest.stratum("S", k, j)})
            report.add(f"stratum-basis({k},{j})", good, tuple(part) if not good else ())
    for k in range(2, n + 1):
        above = set(gs.level_basis(k - 1))
        report.add(f"successor-closure({k - 1},{k})",
                   all(space.successor(g, k - 1) in above for g in gs.level_basis(k)))
    return report


def _checks(report):
    return [(c.name, c.passed, c.witness) for c in report.checks]


@pytest.fixture(scope="module")
def oracle_spaces(corpus_spaces):
    """The corpus, the 6x6 wide corpus and 6x10 ladders of seeds 0-2."""
    wide = [FanSpace(c) for c in generate_corpus(7, count=60, max_levels=6, max_dim=6)]
    big = [FanSpace(ladder(random.Random(s), 6, 10)) for s in range(3)]
    return corpus_spaces + wide + big


def test_sgs_and_report_match_character_oracles(oracle_spaces):
    rng = random.Random(23)
    verdicts = collections.Counter()
    for space in oracle_spaces:
        for seed in (None, 0, 7, 2017):
            gs = standard_generating_system(space, seed)
            want = oracle_standard_generating_system(space, seed)
            assert (gs.bases, gs.provenance) == (want.bases, want.provenance)
            for system in (gs, _random_bases(rng, space, gs), _random_bases(rng, space, gs)):
                report = verify_sgs(space, system)
                assert _checks(report) == _checks(oracle_verify_sgs(space, system))
                verdicts[report.ok] += 1
    assert len(oracle_spaces[-1]) == 3072 and min(verdicts.values()) > 500


def test_extend_basis_stops_where_a_full_scan_ends(oracle_spaces):
    # every level and every fiber, in node order and in the tower's order,
    # from nothing and from a basis of the last two candidates; count the
    # scans whose basis is complete before the last candidate
    scans = early = 0
    for space in oracle_spaces:
        groups = [space.level(d) for d in range(1, space.length + 1)]
        groups += [[space.chars[i] for i in kids] for kids in space.forest.children if kids]
        for chars in groups:
            for scan in (chars, sorted(chars, key=space.deep, reverse=True)):
                for indep in ((), basis_of(space, scan[-2:])):
                    got = extend_basis(space, indep, scan)
                    assert got == full_scan_extend_basis(space, indep, scan)
                    scans += 1
                    early += len(got) == space.dim(scan[0].depth) and got[-1] != scan[-1]
    assert scans > 20000 and early > 1000


def test_seeded_sgs_draws_as_on_characters(corpus_spaces, monkeypatch):
    # shuffling node indices consumes the rng as shuffling the characters
    # did, so every seed builds the same system
    spaces = corpus_spaces[:60] + [FanSpace(ladder(random.Random(s), 4, 5)) for s in range(3)]
    seeds = (None, 0, 1, 7, 2017, 65535)
    got = [standard_generating_system(space, seed) for space in spaces for seed in seeds]
    monkeypatch.setattr(generators, "fiber_tower_basis", oracle_fiber_tower_basis)
    want = [standard_generating_system(space, seed) for space in spaces for seed in seeds]
    assert got == want
    assert len({gs.bases for gs in got[-len(seeds):]}) == len(seeds)


def test_sgs_verifies_on_fixtures():
    for chain in (TRIV, E1, EA, EB):
        space = FanSpace(chain)
        assert verify_sgs(space, standard_generating_system(space)).ok


def test_sgs_on_corpus_with_seeds(corpus_spaces):
    for space in corpus_spaces[:30]:
        for seed in (None, 1, 2):
            gs = standard_generating_system(space, seed)
            assert verify_sgs(space, gs).ok


def test_sgs_deterministic_and_seeded_reproducible(corpus_spaces):
    for space in corpus_spaces[:10]:
        assert (standard_generating_system(space).bases
                == standard_generating_system(space).bases)
        assert (standard_generating_system(space, 42).bases
                == standard_generating_system(space, 42).bases)


def test_verify_sgs_flags_missing_element():
    s1 = FanSpace(E1)
    gs = standard_generating_system(s1)
    broken = GeneratingSystem((gs.bases[0], gs.bases[1][:1]))
    report = verify_sgs(s1, broken)
    assert not report.ok
    assert any(c.name == "spans-level(2)" for c in report.failures())


def test_verify_sgs_flags_non_adapted_basis():
    # Level 1 has four characters but only one reaches depth 2; a level
    # basis avoiding that one spans the level yet misses the stratum.
    chain = FanChain((3, 1), (1, 1), ((1,),))
    space = FanSpace(chain)
    deep_root = ChainChar(1, 1)
    assert space.stratum_members("S", 1, 2) == (deep_root,)
    bad_level1 = (ChainChar(1, 3), ChainChar(1, 5), ChainChar(1, 7))
    gs = standard_generating_system(space)
    bad = GeneratingSystem((bad_level1, gs.bases[1]))
    report = verify_sgs(space, bad)
    assert any(c.name == "spans-level(1)" and c.passed for c in report.checks)
    assert any(c.name == "stratum-basis(1,2)" and not c.passed for c in report.checks)


def test_verify_sgs_refuses_a_basis_from_another_level():
    # EB's two levels both have the masks 1 and 3, so a level-2 basis has
    # exactly the masks of level 1 and only its depth gives it away
    space = FanSpace(EB)
    gs = standard_generating_system(space)
    assert {h.mask for h in space.level(1)} == {h.mask for h in space.level(2)}
    moved = GeneratingSystem((gs.bases[1], gs.bases[1]))
    report = verify_sgs(space, moved)
    assert [c.name for c in report.checks] == [c.name for c in verify_sgs(space, gs).checks]
    assert any(c.name == "spans-level(1)" and not c.passed for c in report.checks)
    assert not report.ok and not _oracle_verify_sgs(space, moved)


@pytest.mark.parametrize("chain", [E1, EB, CHAIN3, FanChain((3, 1), (1, 1), ((1,),))],
                         ids=["E1", "EB", "CHAIN3", "vee"])
def test_verify_sgs_reports_members_that_are_not_characters(chain):
    # mask 0 has even parity, 64 and -1 lie off every level and depth 9 is
    # no level; the levels have one reach value each (E1, CHAIN3) or some
    # have several (EB, vee).  A stranger added to a basis, or put in
    # place of its first member, fails its level's spanning check and the
    # closure check of its level; an added one sits in no stratum part.
    space = FanSpace(chain)
    gs = standard_generating_system(space)
    n = space.length
    names = [c.name for c in verify_sgs(space, gs).checks]
    for k in sorted({1, n}):
        basis = gs.level_basis(k)
        for stranger in (ChainChar(k, 0), ChainChar(k, 64), ChainChar(k, -1), ChainChar(9, 1)):
            for changed in (basis + (stranger,), (stranger,) + basis[1:]):
                bases = gs.bases[:k - 1] + (changed,) + gs.bases[k:]
                report = verify_sgs(space, GeneratingSystem(bases))
                assert [c.name for c in report.checks] == names
                failed = {c.name for c in report.failures()}
                assert f"spans-level({k})" in failed
                assert k == 1 or f"successor-closure({k - 1},{k})" in failed
                if len(changed) > len(basis):
                    assert not any(name.startswith("stratum-basis") for name in failed)
                    assert (f"successor-closure({k - 1},{k})" in failed) == (k > 1)


def test_verify_sgs_reports_a_basis_shallower_than_its_level():
    # CHAIN3 with the level-1 basis reused at level 3: its member has no
    # successor at depth 2
    space = FanSpace(CHAIN3)
    gs = standard_generating_system(space)
    moved = GeneratingSystem((gs.bases[0], gs.bases[1], gs.bases[0]))
    report = verify_sgs(space, moved)
    assert [c.name for c in report.checks] == [c.name for c in verify_sgs(space, gs).checks]
    assert {c.name for c in report.failures()} == {"spans-level(3)", "successor-closure(2,3)"}


def _random_bases(rng, space, gs):
    """Per level the given basis or, half the time, a random subset of the
    level: as many members as the level dimension, or any number."""
    out = []
    for k, level in enumerate(space.levels(), start=1):
        size = rng.choice((space.dim(k), rng.randint(1, len(level))))
        out.append(gs.level_basis(k) if rng.random() < 0.5
                   else tuple(rng.sample(level, min(size, len(level)))))
    return GeneratingSystem(tuple(out))


def test_successor_closure_matches_direct_successors(corpus_spaces):
    # random level subsets as bases, so that closure fails as well as holds;
    # the oracle checks every basis member's successor at every depth
    rng = random.Random(5)
    seen = set()
    for space in corpus_spaces[:60]:
        for _ in range(5):
            bases = tuple(tuple(rng.sample(level, rng.randint(1, len(level))))
                          for level in space.levels())
            got = [(c.name, c.passed) for c in verify_sgs(space, GeneratingSystem(bases)).checks
                   if c.name.startswith("successor-closure")]
            assert [name for name, _ in got] == [f"successor-closure({m - 1},{m})"
                                                 for m in range(2, space.length + 1)]
            failing = [m for m in range(1, space.length + 1) for k in range(1, m + 1)
                       if not all(space.successor(g, k) in bases[k - 1] for g in bases[m - 1])]
            assert all(passed for _, passed in got) == (not failing)
            if failing:     # the first failing pair's parent edge fails first
                first = next(name for name, passed in got if not passed)
                assert first == f"successor-closure({failing[0] - 1},{failing[0]})"
            seen.add(not failing)
    assert seen == {True, False}


def _oracle_verify_sgs(space, gs) -> bool:
    """verify_sgs with one stratum check per (k, j) and one closure check
    per pair of levels, as first written: the oracle for its verdict."""
    n = space.length
    ok = True
    for k in range(1, n + 1):
        bk = gs.level_basis(k)
        ok &= set(closure(space, bk)) == set(space.level(k)) and not is_dependent(space, bk)
        for j in range(k, n + 1):
            part = tuple(g for g in bk if space.deep(g) >= j)
            ok &= (set(closure(space, part)) == set(space.stratum_members("S", k, j))
                   and (not part or not is_dependent(space, part)))
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            ok &= all(space.successor(g, k) in gs.level_basis(k) for g in gs.level_basis(m))
    return ok


def test_verify_sgs_matches_oracle(corpus_spaces):
    rng = random.Random(11)
    wide = [FanSpace(c) for c in generate_corpus(7, count=60, max_levels=6, max_dim=6)]
    verdicts = collections.Counter()
    for space in corpus_spaces + wide:
        for seed in (None, 1):
            gs = standard_generating_system(space, seed)
            for system in (gs, _random_bases(rng, space, gs), _random_bases(rng, space, gs)):
                report = verify_sgs(space, system)
                assert report.ok == _oracle_verify_sgs(space, system)
                spans = all(c.passed for c in report.checks if c.name.startswith("spans"))
                verdicts["ok" if report.ok else "spans, fails" if spans else "no span"] += 1
    # every verdict is common, bases that span each level yet fail a
    # stratum or a parent edge too: 1044, 408 and 108 of 1560 systems
    assert min(verdicts.values()) > 50


def test_nonempty_c_strata_meet_basis(corpus_spaces):
    for space in corpus_spaces[:40]:
        gs = standard_generating_system(space)
        for k in range(1, space.length + 1):
            for j in range(k, space.length + 1):
                cs = set(space.stratum_members("C", k, j))
                if cs:
                    assert cs & set(gs.level_basis(k))


def test_basis_sizes_match_dimensions(corpus_spaces):
    for space in corpus_spaces[:40]:
        gs = standard_generating_system(space)
        for k in range(1, space.length + 1):
            assert len(gs.level_basis(k)) == space.dim(k)
