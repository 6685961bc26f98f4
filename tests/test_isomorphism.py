import collections
import itertools
import random
import tracemalloc

import pytest

from fanforge import generators, gf2, isomorphism
from fanforge.chains import MAX_CHARACTERS, ChainChar, FanChain, SliceElement, chain_elements
from fanforge.corpus import generate_corpus, random_chain
from fanforge.errors import OrderMismatchError, ResourceLimitError
from fanforge.isomorphism import (
    RepWitness,
    _certify_isomorphism,
    _interval_chain,
    _power_of_two,
    brute_force_isomorphism,
    build_isomorphism,
    check_forest,
    evaluation,
    forest_canonical,
    is_ars_morphism,
    normal_form_chain,
    preserves_triple_products,
    represent,
    representation_witness,
)
from fanforge.generators import standard_generating_system
from fanforge.spectral import FanSpace, Forest

from conftest import CHAIN3, E1, E1P, E2, EA, EB, TRIV, fan_types

R = ChainChar(1, 1)
C1 = ChainChar(2, 1)
C2 = ChainChar(2, 3)


# -- representation -----------------------------------------------------------

def test_represent_roundtrip_every_element(corpus_spaces):
    for s in [FanSpace(E1)] + corpus_spaces[:20]:
        for el in chain_elements(s.chain):
            result = represent(s, evaluation(s, el))
            assert result.ok and result.element == el


def test_represent_nonrepresentable_witness():
    s = FanSpace(E1)
    f = {R: 1, C1: 0, C2: 1}
    # brute-force cross-check: no element evaluates to f
    assert all(evaluation(s, el) != f for el in chain_elements(E1))
    result = represent(s, f)
    assert not result.ok
    assert result.witness.kind == "zero-monotone"
    assert result.witness.data == (C1, R)


def test_represent_constant_one_is_identity():
    s = FanSpace(E1)
    result = represent(s, {h: 1 for h in s.chars})
    assert result.element == SliceElement(1, 0)


@pytest.mark.parametrize("check", [represent, representation_witness, preserves_triple_products])
def test_value_map_refusals_name_the_character(check):
    # E1's characters in space order are d1:1 (R), d2:10 (C1), d2:11 (C2)
    s = FanSpace(E1)
    for f, message in (({R: 1, C2: 1}, "map has no value for character d2:10"),
                       ({C1: 1}, "map has no value for character d1:1"),
                       ({}, "map has no value for character d1:1"),
                       ({R: 1, C1: 1, C2: 1, ChainChar(1, 0): 1},
                        "map is defined on ChainChar(depth=1, mask=0), "
                        "which is not a character of the space"),
                       ({R: 1, C1: 2, C2: 1}, "map values must be +1, 0 or -1")):
        with pytest.raises(ValueError) as info:
            check(s, f)
        assert str(info.value) == message


def test_representability_three_way_equivalence():
    # exhaustive over all maps X -> {1,0,-1} on two small fans
    for chain in (TRIV, E1, E2):
        s = FanSpace(chain)
        evals = [evaluation(s, el) for el in chain_elements(chain)]
        rep_count = 0
        for values in itertools.product((1, 0, -1), repeat=len(s.chars)):
            f = dict(zip(s.chars, values))
            representable = f in evals
            rep_count += representable
            assert representable == preserves_triple_products(s, f)
            assert representable == (representation_witness(s, f) is None)
            assert represent(s, f).ok == representable
        distinct_evaluations = {tuple(sorted(e.items())) for e in evals}
        assert rep_count == len(distinct_evaluations) == len(chain_elements(chain))


def _all_depth_witness(space, f):
    """The scans representation_witness replaced, kept as its oracle: every
    zero x against every character, and every character against its
    successor at every depth."""
    for x in space.chars:
        if f[x] != 0:
            continue
        for y in space.chars:
            if y.depth <= x.depth and f[y] != 0:
                return RepWitness("zero-monotone", (x, y))
    for y in space.chars:
        for d in range(1, y.depth + 1):
            x = space.successor(y, d)
            if f[x] != 0 and f[x] != f[y]:
                return RepWitness("specialization-agreement", (x, y))
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


def test_representation_matches_all_depth_oracle(corpus_spaces):
    # evaluations of random elements with one to three values redrawn: the
    # witness matches the all-depth scans, and represent finds the first
    # element in canonical order whose evaluation is the map
    rng = random.Random(10)
    kinds = collections.Counter()
    for s in corpus_spaces:
        first_element = {}
        for el in chain_elements(s.chain):
            first_element.setdefault(tuple(evaluation(s, el).values()), el)
        evaluations = list(first_element)
        for _ in range(15):
            f = dict(zip(s.chars, rng.choice(evaluations)))
            for h in rng.sample(s.chars, min(len(s.chars), rng.randint(1, 3))):
                f[h] = rng.choice((1, 0, -1))
            witness = representation_witness(s, f)
            assert witness == _all_depth_witness(s, f)
            assert represent(s, f).element == first_element.get(tuple(f.values()))
            kinds[witness and witness.kind] += 1
    # every outcome is common: 1685, 318, 257 and 740 of 3000 maps
    assert set(kinds) == {"zero-monotone", "specialization-agreement",
                          "four-element-product", None}
    assert min(kinds.values()) > 200


# -- morphism predicate -------------------------------------------------------

def test_identity_is_morphism():
    s = FanSpace(E1)
    report = is_ars_morphism(s, s, {h: h for h in s.chars})
    assert report.ok and report.global_triples


def test_swap_involution_is_morphism():
    s = FanSpace(E1)
    swap = {R: R, C1: C2, C2: C1}
    assert is_ars_morphism(s, s, swap).ok


def test_no_bijection_between_ea_and_eb():
    sa, sb = FanSpace(EA), FanSpace(EB)
    chars_b = list(sb.chars)
    for perm in itertools.permutations(chars_b):
        mapping = dict(zip(sa.chars, perm))
        assert not is_ars_morphism(sa, sb, mapping).ok


def test_morphism_requires_total_map():
    s = FanSpace(E1)
    with pytest.raises(ValueError):
        is_ars_morphism(s, s, {R: R})


# -- forest canonical form ----------------------------------------------------

def test_forest_canonical_examples():
    assert forest_canonical(FanSpace(E1).forest) == forest_canonical(FanSpace(E1P).forest)
    assert forest_canonical(FanSpace(EA).forest) != forest_canonical(FanSpace(EB).forest)
    single = Forest((1,), (None,))
    assert forest_canonical(single) == "()"


def brute_force_order_isomorphic(f1: Forest, f2: Forest) -> bool:
    if len(f1) != len(f2):
        return False
    nodes = range(len(f1))
    below1 = {(i, j) for j in nodes for i in f1.descendants(j)}
    below2 = {(i, j) for j in nodes for i in f2.descendants(j)}
    for perm in itertools.permutations(nodes):
        if all(((perm[i], perm[j]) in below2) == ((i, j) in below1)
               for i in nodes for j in nodes):
            return True
    return False


def test_forest_canonical_matches_brute_force_small(corpus_spaces):
    small = [s.forest for s in corpus_spaces if len(s.forest) <= 6][:12]
    for f1 in small:
        for f2 in small:
            same = forest_canonical(f1) == forest_canonical(f2)
            assert same == brute_force_order_isomorphic(f1, f2)


def test_forest_canonical_memory_on_deep_path():
    # A node's code holds its whole subtree's, so keeping every node's code
    # costs memory quadratic in the depth: about 259 MiB traced on this path.
    n = MAX_CHARACTERS
    path = Forest(tuple(range(1, n + 1)), (None,) + tuple(range(n - 1)))
    tracemalloc.start()
    try:
        code = forest_canonical(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == "(" * n + ")" * n
    assert peak < 32 << 20, f"traced peak {peak / (1 << 20):.1f} MiB"


# -- constructive isomorphism -------------------------------------------------

def test_build_isomorphism_example():
    s1, s2 = FanSpace(E1), FanSpace(E1P)
    mapping = build_isomorphism(s1, s2)
    assert is_ars_morphism(s1, s2, mapping).ok
    assert all(h.depth == mapping[h].depth for h in s1.chars)


def test_build_isomorphism_self():
    for chain in (TRIV, E1, EA, EB, E2, CHAIN3):
        s = FanSpace(chain)
        mapping = build_isomorphism(s, s)
        assert sorted(mapping.values()) == sorted(s.chars)


def test_build_isomorphism_mismatch():
    with pytest.raises(OrderMismatchError) as err:
        build_isomorphism(FanSpace(EA), FanSpace(EB))
    # EA's roots both reach depth 2; one of EB's stops at depth 1
    assert err.value.first_difference == (1, 1, 0, 1)


def test_brute_force_examples():
    s1, s2 = FanSpace(E1), FanSpace(E1P)
    found = brute_force_isomorphism(s1, s2)
    assert found is not None and is_ars_morphism(s1, s2, found).ok
    assert brute_force_isomorphism(FanSpace(EA), FanSpace(EB)) is None
    st = FanSpace(TRIV)
    assert brute_force_isomorphism(st, st) == {ChainChar(1, 1): ChainChar(1, 1)}
    with pytest.raises(ResourceLimitError):
        brute_force_isomorphism(s1, s2, cap=2)


def test_seeded_build_is_reproducible():
    s1, s2 = FanSpace(E1), FanSpace(E1P)
    assert build_isomorphism(s1, s2, seed=9) == build_isomorphism(s1, s2, seed=9)


def test_seeded_builds_all_verify(corpus_spaces):
    # group a slice of the corpus by canonical code and cross-build
    from fanforge.isomorphism import forest_canonical
    groups = {}
    for s in corpus_spaces[:60]:
        groups.setdefault(forest_canonical(s.forest), []).append(s)
    built = 0
    for cls in groups.values():
        if len(cls) < 2:
            continue
        s1, s2 = cls[0], cls[1]
        for seed in (None, 0, 1):
            mapping = build_isomorphism(s1, s2, seed)
            assert is_ars_morphism(s1, s2, mapping).ok
            built += 1
    assert built > 0


def _random_invertible(rng, k):
    while True:
        rows = tuple(rng.randrange(1 << k) for _ in range(k))
        from fanforge import gf2
        if gf2.rank(rows) == k:
            return rows


def _invert(rows):
    # Gauss-Jordan on the augmented system
    k = len(rows)
    mat = [rows[i] | (1 << (k + i)) for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if mat[r] >> col & 1)
        mat[col], mat[piv] = mat[piv], mat[col]
        for r in range(k):
            if r != col and mat[r] >> col & 1:
                mat[r] ^= mat[col]
    return tuple(mat[i] >> k for i in range(k))


def _rebase(rng, chain):
    """The same fan presented in random new coordinates per level."""
    from fanforge import gf2
    from fanforge.chains import FanChain
    ps = [_random_invertible(rng, k) for k in chain.dims]
    minus = tuple(gf2.mat_vec(ps[d], chain.minus[d]) for d in range(chain.n))
    taus = tuple(
        gf2.compose(gf2.compose(ps[d + 1], chain.taus[d]), _invert(ps[d]))
        for d in range(chain.n - 1))
    return FanChain(chain.dims, minus, taus)


def test_build_isomorphism_on_rebased_fans():
    # Change-of-basis presentations are order-isomorphic by construction,
    # so the builder must always succeed, including beyond corpus bounds.
    import random
    from fanforge.corpus import random_chain
    rng = random.Random(123)
    for trial in range(25):
        chain = random_chain(rng, max_levels=5, max_dim=5)
        other = _rebase(rng, chain)
        s1, s2 = FanSpace(chain), FanSpace(other)
        mapping = build_isomorphism(s1, s2, seed=None if trial % 2 else trial)
        assert is_ars_morphism(s1, s2, mapping).ok


def test_rebased_systems_agree_by_position(corpus):
    # build_isomorphism pairs the two systems by position, which needs
    # every position to hold a member of the same reach and role.
    rng = random.Random(20170305)
    chains = corpus + [random_chain(rng, max_levels=6, max_dim=6) for _ in range(100)]
    for chain in chains:
        s1, s2 = FanSpace(chain), FanSpace(_rebase(rng, chain))
        for seed in (None, 1, 2):
            gs1 = standard_generating_system(s1, seed)
            gs2 = standard_generating_system(s2, seed)
            assert ([[s1.deep(g) for g in b] for b in gs1.bases]
                    == [[s2.deep(g) for g in b] for b in gs2.bases])
            assert [r[0] for _, r in gs1.provenance] == [r[0] for _, r in gs2.provenance]


def test_self_isomorphism_is_identity(corpus_spaces):
    # one seed on one space gives one system twice, so the map is the identity
    for s in corpus_spaces:
        for seed in (1, 2, 3):
            assert build_isomorphism(s, s, seed) == {h: h for h in s.chars}


def test_path_chain_builds_with_linear_tower_calls(monkeypatch):
    # one greedy pass per fiber: a path has one fiber per level and space,
    # and each pass offers the span its one candidate
    n = 512
    s = FanSpace(FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1)))
    towers, adds = [], []
    tower, add = generators.fiber_tower_basis, gf2.Span.add
    monkeypatch.setattr(generators, "fiber_tower_basis",
                        lambda *args, **kw: towers.append(1) or tower(*args, **kw))
    monkeypatch.setattr(gf2.Span, "add", lambda *args: adds.append(1) or add(*args))
    assert build_isomorphism(s, s) == {h: h for h in s.chars}
    assert len(s) == n and 0 < len(towers) <= 2 * n and 0 < len(adds) <= 2 * n


def _certificate_accepts(s1, s2, mapping) -> bool:
    try:
        _certify_isomorphism(s1, s2, mapping)
    except RuntimeError:
        return False
    return True


def _oracle_accepts(s1, s2, mapping) -> bool:
    inverse = {v: k for k, v in mapping.items()}
    if len(inverse) != len(mapping) or set(inverse) != set(s2.chars):
        return False
    return is_ars_morphism(s1, s2, mapping).ok and is_ars_morphism(s2, s1, inverse).ok


def _solver_map(space1, space2, seed=None):
    """The map as first built: each source character solved for as an odd
    combination of its level's basis, one elimination per character, and
    sent to the same combination of the target basis.  The oracle for
    build_isomorphism's doubling tables."""
    from fanforge import gf2
    gs1 = standard_generating_system(space1, seed)
    gs2 = standard_generating_system(space2, seed)
    out = {}
    for k in range(1, space1.length + 1):
        hom_bit = 1 << space1.dim(k)
        solver = gf2.Solver()
        for g in gs1.level_basis(k):
            solver.add(g.mask | hom_bit)
        for h in space1.level(k):
            mask = 0
            for i in gf2.bits(solver.solve(h.mask | hom_bit)):
                mask ^= gs2.level_basis(k)[i].mask
            out[h] = ChainChar(k, mask)
    return out


def _translated(space, mapping):
    """The images of the deepest level with two parents translated by the XOR
    of two images with different parents: bijective and affine on every
    level, but the translation moves every image's parent, so every parent
    edge of that level breaks.  None when no level has two parents."""
    for d in range(space.length, 1, -1):
        level = space.level(d)
        parents = {space.successor(h, d - 1): h for h in level}
        if len(parents) >= 2:
            a, b = list(parents.values())[:2]
            shift = mapping[a].mask ^ mapping[b].mask
            moved = dict(mapping)
            moved.update({h: ChainChar(d, mapping[h].mask ^ shift) for h in level})
            return moved
    return None


def _corrupted(space, mapping):
    """Two images swapped on the deepest level with two characters, a
    3-cycle of images on the deepest level with eight or more (never affine:
    it fixes a number of points that is not a power of 2), and a level
    translated off its parent edges (see _translated)."""
    out = []
    for d in range(space.length, 0, -1):
        level = space.level(d)
        if len(level) >= 2:
            a, b = level[0], level[-1]
            swapped = dict(mapping)
            swapped[a], swapped[b] = mapping[b], mapping[a]
            out.append(swapped)
            break
    for d in range(space.length, 0, -1):
        level = space.level(d)
        if len(level) >= 8:
            a, b, c = level[:3]
            cycled = dict(mapping)
            cycled[a], cycled[b], cycled[c] = mapping[b], mapping[c], mapping[a]
            out.append(cycled)
            break
    moved = _translated(space, mapping)
    return out if moved is None else out + [moved]


def test_certificate_agrees_with_oracle(corpus_spaces):
    # The linear certificate in build_isomorphism accepts exactly the maps
    # the cubic morphism test accepts in both directions.
    import random
    from fanforge.corpus import random_transition
    from fanforge.chains import FanChain
    from fanforge.isomorphism import forest_canonical
    groups = {}
    for s in corpus_spaces[:60]:
        groups.setdefault(forest_canonical(s.forest), []).append(s)
    pairs = [(cls[0], cls[-1]) for cls in groups.values()]
    rng = random.Random(5)
    minus = tuple(rng.randrange(1, 32) for _ in range(5))
    ladder = FanChain((5,) * 5, minus, tuple(
        random_transition(rng, 5, 5, minus[d], minus[d + 1]) for d in range(4)))
    pairs.append((FanSpace(ladder), FanSpace(_rebase(rng, ladder))))
    assert len(pairs[-1][0]) == 80
    verdicts = []
    translations = 0
    for s1, s2 in pairs:
        built = build_isomorphism(s1, s2)
        assert built == _solver_map(s1, s2)
        for mapping in [built] + _corrupted(s1, built):
            oracle = _oracle_accepts(s1, s2, mapping)
            assert _certificate_accepts(s1, s2, mapping) == oracle
            verdicts.append(oracle)
        moved = _translated(s1, built)
        if moved is not None:
            with pytest.raises(RuntimeError, match="does not commute with the parent edge"):
                _certify_isomorphism(s1, s2, moved)
            translations += 1
    assert verdicts[-4:] == [True, False, False, False]
    assert verdicts.count(False) >= 10 and translations >= 5


def test_doubling_tables_match_solver_on_large_ladder():
    # 3072 characters against a rebased copy, with and without a seed
    from conftest import ladder
    rng = random.Random(11)
    chain = ladder(rng, 6, 10)
    s1, s2 = FanSpace(chain), FanSpace(_rebase(rng, chain))
    assert len(s1) == 3072
    for seed in (None, 7):
        assert build_isomorphism(s1, s2, seed) == _solver_map(s1, s2, seed)


def test_basis_that_does_not_span_its_level_raises(monkeypatch):
    # drop the last basis member of every level with two or more: the
    # doubling tables then miss half the level
    def short(space, seed=None):
        gs = standard_generating_system(space, seed)
        return generators.GeneratingSystem(
            tuple(b[:-1] if len(b) > 1 else b for b in gs.bases), gs.provenance)

    monkeypatch.setattr(isomorphism, "standard_generating_system", short)
    s = FanSpace(EA)
    with pytest.raises(RuntimeError, match="level-1 basis does not span its level"):
        build_isomorphism(s, s)


_OPTIMIZED_REFUSAL = """
import sys
from fanforge.chains import FanChain
from fanforge.isomorphism import _certify_isomorphism
from fanforge.spectral import FanSpace
if sys.flags.optimize != 1:
    sys.exit("not running under -O")
space = FanSpace(FanChain((2, 2), (1, 1), ((1, 2),)))
mapping = {h: h for h in space.chars}
a, b = space.level(2)
mapping[a], mapping[b] = b, a
try:
    _certify_isomorphism(space, space, mapping)
except RuntimeError as exc:
    print("refused:", exc)
else:
    print("accepted")
"""


def _run_optimized(script: str) -> str:
    import os
    import subprocess
    import sys
    from pathlib import Path
    import fanforge
    env = dict(os.environ, PYTHONPATH=str(Path(fanforge.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_certificate_refuses_under_optimize():
    # python -O strips assert statements; the certificate must still refuse
    # a map that swaps two leaves with different parents.
    out = _run_optimized(_OPTIMIZED_REFUSAL)
    assert out.startswith("refused: map does not commute with the parent edge")


_OPTIMIZED_REPRESENT = """
import sys
from fanforge import generators, isomorphism
from fanforge.chains import ChainChar, FanChain
from fanforge.spectral import FanSpace
if sys.flags.optimize != 1:
    sys.exit("not running under -O")
isomorphism.representation_witness = lambda space, f: None
space = FanSpace(FanChain((1, 2), (1, 1), ((1, 0),)))
f = {ChainChar(1, 1): 1, ChainChar(2, 1): 0, ChainChar(2, 3): 1}
try:
    result = isomorphism.represent(space, f)
except RuntimeError as exc:
    print("refused:", exc)
else:
    print("returned", result)
"""


def test_represent_refuses_under_optimize():
    # An unrepresentable map must come with a witness; without one, represent
    # raises even when python -O strips assert statements.
    out = _run_optimized(_OPTIMIZED_REPRESENT)
    assert out.startswith("refused: unrepresentable map with no failed condition")


# -- candidate forests --------------------------------------------------------

def test_check_forest_impossible_configurations(impossible_forests):
    witnesses = {
        i: {(v.code,) + v.witness for v in check_forest(f)}
        for i, f in impossible_forests.items()
    }
    # component level sizes (1,2,4) vs (1,4,8): level-2 counts 2 vs 4
    assert ("RC3", 2, 2, 1, 2, 2, 4) in witnesses[1]
    # four components leaving a three-element stratum at (3,4)
    assert ("RC1", 3, 4, 3) in witnesses[2]
    # stratum counts 4 vs 2 plus failed truncation between equal lengths
    assert ("RC3", 3, 4, 1, 2, 4, 2) in witnesses[3]
    assert ("RC4", 1, 2) in witnesses[3]


def test_check_forest_clean_on_real_fans(corpus_spaces):
    for space in corpus_spaces[:40]:
        assert check_forest(space.forest) == []


def synthesize_chain(forest: Forest, dim_bound: int = 4, count_bound: int = 4,
                     node_bound: int | None = None) -> FanChain | None:
    """Bounded search for a chain whose specialization forest matches the
    candidate: the oracle for normal_form_chain up to 4 levels x dim 4.

    Level dimensions are forced by the level sizes (non-powers of 2 fail
    immediately); transitions are enumerated depth-first in ascending
    row order with pruning against the truncated forest, so the returned
    witness is the least one.  None means the bounded search is
    exhausted; bound violations, and visiting more than node_bound
    partial chains, raise instead.
    """
    n = forest.length
    if n > count_bound:
        raise ResourceLimitError(f"forest has {n} levels, bound is {count_bound}")
    sizes = forest.level_sizes()
    dims = []
    for s in sizes:
        if not _power_of_two(s):
            return None
        dims.append(s.bit_length())  # 1 + log2(s)
    if any(k > dim_bound for k in dims):
        raise ResourceLimitError(f"forced dimensions {dims} exceed bound {dim_bound}")

    # Parent maps between consecutive levels of a chain are affine, so
    # their nonempty fibers are cosets of one subgroup: unequal nonzero
    # child counts at some depth rule out every candidate at once.
    for d in range(1, n):
        counts = {c for node in forest.level(d)
                  if (c := len(forest.children[node])) > 0}
        if len(counts) > 1:
            return None

    minus = tuple(1 for _ in range(n))
    targets = [forest_canonical(forest.truncate(d)) for d in range(1, n + 1)]

    def candidates(k_from: int, k_to: int):
        odd = [m for m in range(1 << k_from) if m & 1]
        even = [m for m in range(1 << k_from) if not m & 1]
        return itertools.product(odd, *([even] * (k_to - 1)))

    visited = 0

    def search(taus: tuple[tuple[int, ...], ...]) -> FanChain | None:
        nonlocal visited
        visited += 1
        if node_bound is not None and visited > node_bound:
            raise ResourceLimitError(f"search visited more than {node_bound} chains")
        d = len(taus) + 1
        partial = FanChain(tuple(dims[:d]), minus[:d], taus)
        if forest_canonical(FanSpace(partial).forest) != targets[d - 1]:
            return None
        if d == n:
            return partial
        for rows in candidates(dims[d - 1], dims[d]):
            hit = search(taus + (tuple(rows),))
            if hit is not None:
                return hit
        return None

    return search(())


def test_synthesize_chain_examples():
    found = synthesize_chain(FanSpace(E1).forest)
    assert found is not None
    assert forest_canonical(FanSpace(found).forest) == forest_canonical(FanSpace(E1).forest)

    two_roots = Forest((1, 1), (None, None))
    found = synthesize_chain(two_roots)
    assert found is not None and found.dims == (2,)

    # three-element level sizes can never come from a chain
    bad = Forest((1, 1, 1), (None, None, None))
    assert synthesize_chain(bad) is None


def test_synthesize_respects_bounds(impossible_forests):
    with pytest.raises(ResourceLimitError):
        synthesize_chain(impossible_forests[2])  # six levels > default bound
    assert synthesize_chain(impossible_forests[2], count_bound=6) is None


def test_synthesize_recovers_corpus_shapes(corpus_spaces):
    for space in corpus_spaces[:6]:
        if space.length > 4 or max(space.chain.dims) > 3:
            continue
        found = synthesize_chain(space.forest, dim_bound=4, count_bound=4)
        assert found is not None
        assert forest_canonical(FanSpace(found).forest) == forest_canonical(space.forest)


# -- exact realization ----------------------------------------------------------

def _moved(rng, forest: Forest, moves: int) -> Forest:
    """The forest with up to `moves` nodes hung under another node of
    their parent's depth."""
    parents = list(forest.parents)
    for _ in range(moves):
        movable = [i for i, p in enumerate(parents)
                   if p is not None and len(forest.level(forest.depths[p])) > 1]
        if not movable:
            break
        i = rng.choice(movable)
        parents[i] = rng.choice(
            [p for p in forest.level(forest.depths[i] - 1) if p != parents[i]])
    return Forest(forest.depths, tuple(parents))


def _layered(rng, max_levels: int, max_dim: int) -> Forest:
    """Power-of-2 level sizes with every parent drawn at random."""
    depths, parents, above = [], [], []
    for d in range(1, rng.randint(1, max_levels) + 1):
        level = []
        for _ in range(1 << rng.randint(0, max_dim - 1)):
            level.append(len(depths))
            depths.append(d)
            parents.append(rng.choice(above) if above else None)
        above = level
    return Forest(tuple(depths), tuple(parents))


def test_normal_form_realizes_corpus_forests(corpus_spaces):
    wide = [FanSpace(c) for c in generate_corpus(7, count=200, max_levels=6, max_dim=6)]
    for space in corpus_spaces + wide:
        chain = normal_form_chain(space.forest)
        assert chain is not None
        assert chain.dims == space.chain.dims and set(chain.minus) == {1}
        assert forest_canonical(FanSpace(chain).forest) == forest_canonical(space.forest)


def test_census_counts():
    # fan types of n levels (rows) of dimension at most k (columns)
    counts = [[sum(1 for _ in fan_types(n, k)) for k in range(1, 5)] for n in range(1, 5)]
    assert counts == [[1, 2, 3, 4], [1, 5, 14, 30], [1, 13, 74, 280], [1, 34, 405, 2821]]


def test_main_theorem_over_the_census(census_spaces):
    # every fan type of at most 4 levels of dimension at most 4: the
    # forest tells the types apart, passes every necessary condition, and
    # its normal form is a chain with the same forest
    assert len(census_spaces) == 3135
    codes = [forest_canonical(space.forest) for space in census_spaces]
    assert len(set(codes)) == len(codes)
    for space, code in zip(census_spaces, codes):
        assert check_forest(space.forest) == []
        chain = normal_form_chain(space.forest)
        assert chain is not None and chain.dims == space.chain.dims
        assert forest_canonical(FanSpace(chain).forest) == code


def test_normal_form_agrees_with_search_oracle(corpus_spaces, impossible_forests):
    # The search decides every forest of at most 4 levels x dim 4 by
    # exhaustion; the normal form must find a chain exactly when it does.
    # An exhaustion can visit a million partial chains, so past 2000 the
    # forest's answer comes from a failed necessary condition instead.
    rng = random.Random(20170302)
    forests = []
    for space in corpus_spaces:
        forests += [space.forest, _moved(rng, space.forest, 1), _moved(rng, space.forest, 2)]
    forests += [_layered(rng, 4, 3) for _ in range(100)]
    found = over_budget = 0
    for forest in forests:
        chain = normal_form_chain(forest)
        try:
            expected = synthesize_chain(forest, node_bound=2000)
        except ResourceLimitError:
            assert chain is None and check_forest(forest)
            over_budget += 1
            continue
        assert (chain is None) == (expected is None)
        if chain is not None:
            assert forest_canonical(FanSpace(chain).forest) == forest_canonical(forest)
            found += 1
    assert 0 < found < len(forests) and over_budget <= 5
    for forest in impossible_forests.values():
        assert normal_form_chain(forest) is None


def test_normal_form_refuses_negative_multiplicity(monkeypatch):
    # Every stratum has power-of-2 size, but the depth-2 nodes spread as
    # 4 under one root and 12 under seven: m(2, 2) = 5 - 4 - 3 + 1 = -1.
    # The profile alone refuses it, before any chain is built.
    monkeypatch.setattr(isomorphism, "FanSpace", None)
    depths = (1,) * 8 + (2,) * 16 + (3,) * 4
    parents = ((None,) * 8 + (0, 0, 0, 0) + (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7)
               + (8, 9, 10, 11))
    forest = Forest(depths, parents)
    assert all(_power_of_two(len(forest.stratum("S", d, e)))
               for d in range(1, 4) for e in range(d, 4))
    assert normal_form_chain(forest) is None
    assert normal_form_chain(Forest((1, 1, 1), (None,) * 3)) is None
    assert normal_form_chain(Forest((), ())) is None


def _dense_normal_form_chain(forest: Forest) -> FanChain | None:
    """The profile read stratum by stratum into an n^2/2-entry rank table:
    the oracle for normal_form_chain's per-depth reach histograms."""
    n = forest.length
    if n == 0:
        return None
    r = {}
    for d in range(1, n + 1):
        for e in range(d, n + 1):
            s = len(forest.stratum("S", d, e))
            if not _power_of_two(s):
                return None
            r[(d, e)] = s.bit_length()
    intervals = []
    for i in range(1, n + 1):
        for j in range(n, i - 1, -1):       # (1, n) first
            m = (r[(i, j)] - r.get((i - 1, j), 0) - r.get((i, j + 1), 0)
                 + r.get((i - 1, j + 1), 0))
            if m < 0:
                return None
            intervals += [(i, j)] * m
    chain = _interval_chain(n, intervals)
    if forest_canonical(FanSpace(chain).forest) != forest_canonical(forest):
        return None
    return chain


def test_normal_form_matches_dense_profile(corpus_spaces, impossible_forests):
    rng = random.Random(20170304)
    wide = [FanSpace(c) for c in generate_corpus(7, count=100, max_levels=6, max_dim=6)]
    forests = list(impossible_forests.values())
    for space in corpus_spaces + wide:
        forests += [space.forest, _moved(rng, space.forest, 1), _moved(rng, space.forest, 2)]
    forests += [_layered(rng, 6, 3) for _ in range(100)]
    found = 0
    for forest in forests:
        chain = normal_form_chain(forest)
        assert chain == _dense_normal_form_chain(forest)
        found += chain is not None
    assert 300 < found < len(forests)


def _draw_intervals(rng, max_levels: int = 6, max_dim: int = 6):
    """A level count and a list of intervals, (1, n) first, covering each
    level at most max_dim times."""
    n = rng.randint(1, max_levels)
    intervals, cover = [(1, n)], [1] * n
    for _ in range(rng.randint(0, 3 * n)):
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        if max(cover[i - 1:j]) < max_dim:
            intervals.append((i, j))
            for d in range(i - 1, j):
                cover[d] += 1
    return n, intervals


def _known_answer_draws() -> list[tuple]:
    """40 drawn interval profiles, each with its normal form, a rebased
    copy, and, when some interval other than (1, n) can split, a rebased
    fan with that interval split in two (None otherwise)."""
    rng = random.Random(20170303)
    draws = []
    for _ in range(40):
        n, intervals = _draw_intervals(rng)
        space = FanSpace(_interval_chain(n, intervals))
        rebased = FanSpace(_rebase(rng, space.chain))
        split = None
        splittable = [t for t, (i, j) in enumerate(intervals) if t and i < j]
        if splittable:
            t = rng.choice(splittable)
            i, j = intervals[t]
            b = rng.randint(i, j - 1)
            split = FanSpace(_rebase(rng, _interval_chain(
                n, intervals[:t] + [(i, b), (b + 1, j)] + intervals[t + 1:])))
        draws.append(((n, sorted(intervals)), space, rebased, split))
    return draws


def test_known_answer_profiles_beyond_corpus_bounds():
    # A drawn interval profile fixes the fan: rebased copies of one
    # normal form are isomorphic, and different profiles are not, even
    # when the level dimensions agree (splitting an interval keeps them).
    draws = _known_answer_draws()
    for _, space, rebased, split in draws:
        build_isomorphism(space, rebased)           # certified, or it raises
        found = normal_form_chain(rebased.forest)
        assert found is not None
        assert forest_canonical(FanSpace(found).forest) == forest_canonical(rebased.forest)
        if split is not None:
            assert split.chain.dims == space.chain.dims
            with pytest.raises(OrderMismatchError):
                build_isomorphism(space, split)
    assert max(len(space) for _, space, _, _ in draws) > 32
    for (p1, s1, _, _), (p2, _, r2, _) in zip(draws, draws[1:]):
        if p1 == p2:
            build_isomorphism(s1, r2)
        else:
            with pytest.raises(OrderMismatchError):
                build_isomorphism(s1, r2)


def _refused(s1: FanSpace, s2: FanSpace) -> bool:
    try:
        build_isomorphism(s1, s2)
    except OrderMismatchError:
        return True
    return False


def test_profile_refusal_matches_forest_codes(corpus_spaces):
    # build_isomorphism decides on reach profiles; the canonical forest
    # codes are the oracle, and they must split every pair the same way
    pairs = list(itertools.combinations(corpus_spaces[:60], 2))
    draws = _known_answer_draws()
    for (_, space, rebased, split), (_, _, r2, _) in zip(draws, draws[1:] + draws[:1]):
        pairs += [(space, rebased), (space, r2)] + [(space, split)] * (split is not None)
    refused = [_refused(s1, s2) for s1, s2 in pairs]
    assert refused == [forest_canonical(s1.forest) != forest_canonical(s2.forest)
                       for s1, s2 in pairs]
    assert 10 < refused.count(False) < len(pairs) - 10
