"""Forest order queries and check_forest against the scan-based definitions.

The oracle functions below are the original definitions: descendants by
sorting every node, levels, children, reaches and profiles by one pass
over the nodes, strata and predecessor sets by scanning, the forest
check node by node, and the component conditions RC3/RC4 recomputed for
every pair.  The library groups the nodes by depth once, reads one node
per subtree shape and one component per root shape instead; every
answer, every refusal message and every ordered violation list must
agree.
"""

import functools
import itertools
import random

import pytest

from fanforge.chains import MAX_CHARACTERS
from fanforge.errors import StructuralError
from fanforge.isomorphism import _power_of_two, check_forest, forest_canonical
from fanforge.spectral import FanSpace, Forest
from fanforge.ternary import Violation

from conftest import forked_paths, ladder


# -- oracle -------------------------------------------------------------------


def oracle_length(f: Forest) -> int:
    return max(f.depths, default=0)


def oracle_descendants(f: Forest, i: int) -> tuple[int, ...]:
    keep = {i}
    for j in sorted(range(len(f)), key=lambda j: f.depths[j]):
        if f.parents[j] in keep:
            keep.add(j)
    return tuple(sorted(keep))


def oracle_level(f: Forest, d: int) -> tuple[int, ...]:
    return tuple(i for i, dep in enumerate(f.depths) if dep == d)


def oracle_levels(f: Forest) -> tuple[tuple[int, ...], ...]:
    """Forest._levels as first written: one append per node."""
    by_depth: list[list[int]] = [[] for _ in range(oracle_length(f))]
    for i, d in enumerate(f.depths):
        by_depth[d - 1].append(i)
    return tuple(tuple(nodes) for nodes in by_depth)


def oracle_children(f: Forest) -> tuple[tuple[int, ...], ...]:
    kids: list[list[int]] = [[] for _ in f.depths]
    for i, p in enumerate(f.parents):
        if p is not None:
            kids[p].append(i)
    return tuple(tuple(k) for k in kids)


@functools.lru_cache(maxsize=16)     # oracle_stratum reads it on every call
def oracle_deep(f: Forest) -> tuple[int, ...]:
    out = list(f.depths)
    levels = oracle_levels(f)
    for d in range(len(levels), 1, -1):
        for i in levels[d - 1]:
            p = f.parents[i]
            out[p] = max(out[p], out[i])
    return tuple(out)


def oracle_profile(f: Forest) -> tuple[dict[int, int], ...]:
    hist: list[dict[int, int]] = [{} for _ in range(oracle_length(f) + 1)]
    for d, e in zip(f.depths, oracle_deep(f)):
        hist[d][e] = hist[d].get(e, 0) + 1
    return tuple({j: h[j] for j in sorted(h)} for h in hist)


def oracle_stratum(f: Forest, kind: str, k: int, j: int) -> tuple[int, ...]:
    deep = oracle_deep(f)
    if kind == "S":
        return tuple(i for i in oracle_level(f, k) if deep[i] >= j)
    return tuple(i for i in oracle_level(f, k) if deep[i] == j)


def oracle_pred_nodes(f: Forest, h: int, j1: int, j2: int, kind: str) -> tuple[int, ...]:
    deep = oracle_deep(f)
    out = []
    for g in oracle_descendants(f, h):
        if f.depths[g] != j2:
            continue
        if (deep[g] >= j1) if kind == "B" else (deep[g] == j1):
            out.append(g)
    return tuple(out)


def oracle_fault(depths, parents) -> str | None:
    """Forest's per-node check as first written: the first bad node's
    message, or None for a forest."""
    for i, (d, p) in enumerate(zip(depths, parents)):
        if d < 1:
            return f"node {i} has depth {d}"
        if p is None:
            if d != 1:
                return f"node {i} has no parent but depth {d}"
        else:
            if not 0 <= p < len(depths):
                return f"node {i} has parent {p} out of range"
            if depths[p] != d - 1:
                return f"node {i} at depth {d} has parent at depth {depths[p]}"
    return None


def oracle_check_forest(forest: Forest) -> list[Violation]:
    out: list[Violation] = []
    n = oracle_length(forest)
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            s = len(oracle_stratum(forest, "S", k, j))
            if s and not _power_of_two(s):
                out.append(Violation(
                    "RC1", f"RC1 violated: card(S^{k}_{j})={s} not a power of 2",
                    (k, j, s)))
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            for j1 in range(k, j + 1):
                for j2 in range(k, j1 + 1):
                    for kind, stratum_kind in (("B", "S"), ("A", "C")):
                        members = oracle_stratum(forest, stratum_kind, k, j)
                        counts = {h: len(oracle_pred_nodes(forest, h, j1, j2, kind))
                                  for h in members}
                        if len(set(counts.values())) > 1:
                            lo = min(counts, key=lambda h: counts[h])
                            hi = max(counts, key=lambda h: counts[h])
                            out.append(Violation(
                                "RC2",
                                f"RC2 violated: card({kind}^{{{j1},{j2}}}) over "
                                f"{stratum_kind}^{k}_{j} takes values "
                                f"{counts[lo]} and {counts[hi]}",
                                (kind, k, j, j1, j2, counts[lo], counts[hi])))
    comps = [forest.restrict(comp) for comp in forest.components]
    for a, b in itertools.combinations(range(len(comps)), 2):
        ka, kb = comps[a], comps[b]
        la, lb = oracle_length(ka), oracle_length(kb)
        for j in range(1, min(la, lb) + 1):
            for jp in range(1, j + 1):
                ca = len(oracle_stratum(ka, "S", jp, j))
                cb = len(oracle_stratum(kb, "S", jp, j))
                if ca != cb:
                    name = f"L_{j}" if jp == j else f"S^{jp}_{j}"
                    out.append(Violation(
                        "RC3",
                        f"RC3 violated: card({name}(K{a + 1}))={ca} != "
                        f"card({name}(K{b + 1}))={cb}",
                        (jp, j, a + 1, b + 1, ca, cb)))
        shallow, deep_idx = (a, b) if la <= lb else (b, a)
        cut = oracle_length(comps[shallow])
        if forest_canonical(comps[shallow]) != forest_canonical(comps[deep_idx].truncate(cut)):
            out.append(Violation(
                "RC4",
                f"RC4 violated: K{shallow + 1} is not order-isomorphic to "
                f"K{deep_idx + 1} truncated at depth {cut}",
                (shallow + 1, deep_idx + 1)))
    return out


# -- generated forests ----------------------------------------------------------


def random_forest(rng: random.Random, max_roots: int = 6, max_depth: int = 5) -> Forest:
    """Up to max_roots roots and max_depth levels; node indices shuffled.

    Every node below the last level gets the same child count with
    probability one half, so some forests pass every condition and
    others fail a few; the rest draw child counts freely.
    """
    depth = rng.randint(1, max_depth)
    regular = rng.random() < 0.5
    nodes = [(1, None) for _ in range(rng.randint(1, max_roots))]
    frontier = list(range(len(nodes)))
    for d in range(2, depth + 1):
        fixed = rng.randint(1, 2)
        nxt = []
        for p in frontier:
            kids = fixed if regular and rng.random() < 0.9 else rng.randint(0, 2)
            for _ in range(kids):
                nxt.append(len(nodes))
                nodes.append((d, p))
        frontier = nxt
    order = list(range(len(nodes)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return Forest(tuple(nodes[old][0] for old in order),
                  tuple(None if nodes[old][1] is None else where[nodes[old][1]]
                        for old in order))


def repeated_forest(rng: random.Random, max_roots: int = 12) -> Forest:
    """Copies of 2-3 random one-root components, up to max_roots roots in
    all, with node indices shuffled: root shapes repeat."""
    shapes = [random_forest(rng, max_roots=1) for _ in range(rng.randint(2, 3))]
    depths: list[int] = []
    parents: list[int | None] = []
    for comp in (rng.choice(shapes) for _ in range(rng.randint(2, max_roots))):
        parents += [None if p is None else p + len(depths) for p in comp.parents]
        depths += comp.depths
    order = list(range(len(depths)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return Forest(tuple(depths[old] for old in order),
                  tuple(None if parents[old] is None else where[parents[old]]
                        for old in order))


def broom(k: int) -> Forest:
    """One root with a path under it ending at each depth 2..k: every
    depth holds many reach values, so RC2 reads many cut depths."""
    depths, parents = [1], [None]
    for length in range(2, k + 1):
        for d in range(2, length + 1):
            parents.append(0 if d == 2 else len(depths) - 1)
            depths.append(d)
    return Forest(tuple(depths), tuple(parents))


def test_check_forest_matches_oracle_in_order(impossible_forests, corpus_spaces):
    rng = random.Random(20170302)
    forests = [random_forest(rng) for _ in range(320)]
    forests += list(impossible_forests.values())
    forests += [broom(k) for k in range(2, 9)]
    forests += [space.forest for space in corpus_spaces[:20]]
    forests += [FanSpace(ladder(random.Random(s), 3, 4)).forest for s in range(3)]
    repeated = [repeated_forest(rng) for _ in range(120)]
    failing = violations = 0
    for f in forests + repeated:
        got = check_forest(f)
        assert got == oracle_check_forest(f)
        failing += bool(got)
        violations += len(got)
    # the corpus must exercise both verdicts and all four conditions
    assert 100 <= failing <= len(forests) + len(repeated) - 100
    codes = {v.code for f in forests[:320] for v in check_forest(f)}
    assert codes == {"RC1", "RC2", "RC3", "RC4"}
    # repeated root shapes: clean forests with two or more shapes, and
    # refused ones whose every pair is walked with equal shapes among them
    shapes = [[f.shape(f.length)[r] for r in f.roots] for f in repeated]
    clean = [len(set(s)) > 1 for f, s in zip(repeated, shapes) if not check_forest(f)]
    walked = [len(set(s)) < len(s) for f, s in zip(repeated, shapes)
              if any(v.code == "RC4" for v in check_forest(f))]
    assert sum(clean) >= 5 and sum(walked) >= 20


def test_check_forest_matches_oracle_on_forked_paths():
    # the refused family tests/test_cli.py runs at 512 levels
    for n in range(2, 11):
        got = check_forest(forked_paths(n))
        assert got == oracle_check_forest(forked_paths(n))
        assert [v.code for v in got].count("RC2") == 2 * (n - 1)


def test_forest_queries_match_scans(impossible_forests):
    rng = random.Random(20170303)
    forests = [random_forest(rng) for _ in range(60)] + list(impossible_forests.values())
    for f in forests:
        n = oracle_length(f)
        assert f.length == n
        for d in range(0, n + 2):
            assert f.level(d) == oracle_level(f, d)
        assert f.level_sizes() == tuple(len(oracle_level(f, d)) for d in range(1, n + 1))
        assert len(f.profile) == n + 1 and f.profile[0] == {}
        for k in range(1, n + 1):
            assert list(f.profile[k].items()) == [
                (j, len(oracle_stratum(f, "C", k, j)))
                for j in range(k, n + 1) if oracle_stratum(f, "C", k, j)]
            for j in range(k, n + 1):
                for kind in ("S", "C"):
                    assert f.stratum(kind, k, j) == oracle_stratum(f, kind, k, j)
                assert (sum(c for r, c in f.profile[k].items() if r >= j)
                        == len(oracle_stratum(f, "S", k, j)))
        for h in range(len(f)):
            assert f.descendants(h) == oracle_descendants(f, h)
            for j1 in range(f.depths[h], n + 1):
                for j2 in range(f.depths[h], j1 + 1):
                    for kind in ("B", "A"):
                        want = oracle_pred_nodes(f, h, j1, j2, kind)
                        assert f.pred_nodes(h, j1, j2, kind) == want


def subtree_codes(f: Forest) -> list[str]:
    """Per node, the string code of its subtree, built as forest_canonical
    builds it: the sorted child codes inside one pair of brackets."""
    codes = [""] * len(f)
    for d in range(f.length, 0, -1):
        for i in f.level(d):
            codes[i] = "(" + "".join(sorted(codes[c] for c in f.children[i])) + ")"
    return codes


def test_shape_ids_match_subtree_codes(corpus_spaces):
    rng = random.Random(20170304)
    forests = [random_forest(rng, max_roots=8, max_depth=7) for _ in range(200)]
    forests += [repeated_forest(rng) for _ in range(100)]
    forests += [space.forest for space in corpus_spaces]
    merged = 0
    for f in forests:
        for m in range(1, f.length + 1):
            ids = f.shape(m)
            kept = [i for i, d in enumerate(f.depths) if d <= m]   # truncate keeps node order
            codes = subtree_codes(f.truncate(m))
            assert all(ids[i] == -1 for i, d in enumerate(f.depths) if d > m)
            # equal ids exactly for equal codes: the pairing is one to one
            pairs = set(zip((ids[i] for i in kept), codes))
            assert len(pairs) == len({ids[i] for i in kept}) == len(set(codes))
        merged += len(f) - len(set(f.shape(f.length)))
    assert merged > 1000        # many nodes share a shape, across depths too


def test_space_levels_are_the_depth_blocks(corpus_spaces):
    for space in corpus_spaces:
        for d in range(1, space.length + 1):
            assert space.level(d) == tuple(h for h in space.chars if h.depth == d)


def test_check_forest_runs_at_3072_nodes():
    forest = FanSpace(ladder(random.Random(7), 6, 10)).forest
    assert len(forest) == 3072
    assert check_forest(forest) == []


# -- the grading by depth ---------------------------------------------------------


def path_forest(n: int) -> Forest:
    """The forest of an n-level chain with one character per level."""
    return Forest(tuple(range(1, n + 1)), (None,) + tuple(range(n - 1)))


def assert_queries_match(f: Forest, pairs=None) -> None:
    """Every per-level query against its oracle; strata at every k <= j,
    or at the given (k, j) pairs."""
    levels = oracle_levels(f)
    assert f.length == len(levels)
    assert tuple(f.level(d) for d in range(f.length + 2)) == ((),) + levels + ((),)
    assert f.level_sizes() == tuple(map(len, levels))
    assert f.roots == tuple(i for i, p in enumerate(f.parents) if p is None)
    assert f.children == oracle_children(f)
    assert f.deep == oracle_deep(f)
    assert [list(h.items()) for h in f.profile] == [list(h.items()) for h in oracle_profile(f)]
    n = f.length
    if pairs is None:
        pairs = [(k, j) for k in range(1, n + 1) for j in range(k, n + 1)]
    for k, j in pairs:
        for kind in ("S", "C"):
            assert f.stratum(kind, k, j) == oracle_stratum(f, kind, k, j)


def test_level_queries_match_node_scans(impossible_forests, corpus_spaces):
    rng = random.Random(20170302)
    forests = [random_forest(rng) for _ in range(320)]      # node order shuffled
    forests += [repeated_forest(rng) for _ in range(120)]
    forests += [broom(k) for k in range(2, 9)]
    forests += list(impossible_forests.values())
    forests += [space.forest for space in corpus_spaces]
    forests += [FanSpace(ladder(random.Random(s), 6, 10)).forest for s in range(3)]
    forests += [Forest((), ())]
    unsorted = 0
    for f in forests:
        assert_queries_match(f)
        unsorted += list(f.depths) != sorted(f.depths)
    assert unsorted > 300
    n = MAX_CHARACTERS
    assert_queries_match(path_forest(n), [(1, 1), (1, 2), (1, n), (2, n - 1), (n // 2, n // 2 + 1),
                                          (n - 1, n), (n, n)])


FAULTS = ("has depth", "has no parent but depth", "out of range", "has parent at depth")


def test_forest_validation_matches_node_scan():
    # one to three random faults in a forest: a depth or a parent redrawn,
    # out of range or absurdly deep among them; the refusal names the
    # first bad node in index order, as the node-by-node check did
    rng = random.Random(20170305)
    refused = 0
    kinds = set()
    for _ in range(3000):
        f = random_forest(rng) if rng.random() < 0.7 else repeated_forest(rng)
        depths, parents = list(f.depths), list(f.parents)
        m = len(depths)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(m)
            if rng.random() < 0.5:
                depths[i] = rng.choice([rng.randint(-1, f.length + 2), 10 ** 9])
            else:
                parents[i] = rng.choice([None, rng.randint(-2, m + 1), rng.randrange(m)])
        want = oracle_fault(depths, parents)
        if want is None:
            assert Forest(tuple(depths), tuple(parents)).depths == tuple(depths)
            continue
        with pytest.raises(StructuralError) as exc:
            Forest(tuple(depths), tuple(parents))
        assert str(exc.value) == want
        refused += 1
        kinds.update(kind for kind in FAULTS if kind in want)
    assert refused > 2000
    assert kinds == set(FAULTS)
