import itertools

import pytest

from fanforge.chains import ChainChar, SliceElement, chain_elements
from fanforge.errors import OrderMismatchError, ResourceLimitError
from fanforge.isomorphism import (
    _certify_isomorphism,
    brute_force_isomorphism,
    build_isomorphism,
    check_forest,
    evaluation,
    forests_isomorphic,
    is_ars_morphism,
    preserves_triple_products,
    represent,
    representation_witness,
    synthesize_chain,
)
from fanforge.spectral import FanSpace, Forest

from conftest import CHAIN3, E1, E1P, E2, EA, EB, TRIV

R = ChainChar(1, 1)
C1 = ChainChar(2, 1)
C2 = ChainChar(2, 3)


# -- representation -----------------------------------------------------------

def test_represent_roundtrip_every_element():
    s = FanSpace(E1)
    for el in chain_elements(E1):
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
    assert forests_isomorphic(FanSpace(E1).forest, FanSpace(E1P).forest)
    assert not forests_isomorphic(FanSpace(EA).forest, FanSpace(EB).forest)
    single = Forest((1,), (None,))
    assert forests_isomorphic(single, single)


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
            assert forests_isomorphic(f1, f2) == brute_force_order_isomorphic(f1, f2)


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
    assert err.value.code1 != err.value.code2


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


def _corrupted(space, mapping):
    """Two images swapped on the deepest level with two characters, and a
    3-cycle of images on the deepest level with eight or more (never affine:
    it fixes a number of points that is not a power of 2)."""
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
    return out


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
    for s1, s2 in pairs:
        built = build_isomorphism(s1, s2)
        for mapping in [built] + _corrupted(s1, built):
            oracle = _oracle_accepts(s1, s2, mapping)
            assert _certificate_accepts(s1, s2, mapping) == oracle
            verdicts.append(oracle)
    assert verdicts[-3:] == [True, False, False]
    assert verdicts.count(False) >= 10


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
from fanforge import isomorphism
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


def test_synthesize_chain_examples():
    found = synthesize_chain(FanSpace(E1).forest)
    assert found is not None
    assert forests_isomorphic(FanSpace(found).forest, FanSpace(E1).forest)

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
        assert forests_isomorphic(FanSpace(found).forest, space.forest)
