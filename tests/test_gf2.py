import random

from fanforge import gf2


def test_dot_and_bits():
    assert gf2.dot(0b101, 0b100) == 1
    assert gf2.dot(0b101, 0b111) == 0
    assert list(gf2.bits(0b1011)) == [0, 1, 3]


def test_mat_vec_identity():
    rows = gf2.identity_rows(4)
    for v in range(16):
        assert gf2.mat_vec(rows, v) == v


def test_compose_matches_sequential_application():
    rng = random.Random(1)
    for _ in range(50):
        a = tuple(rng.randrange(8) for _ in range(4))   # 3 -> 4
        b = tuple(rng.randrange(16) for _ in range(2))  # 4 -> 2
        ba = gf2.compose(b, a)
        for v in range(8):
            assert gf2.mat_vec(ba, v) == gf2.mat_vec(b, gf2.mat_vec(a, v))


def test_pullback_is_functional_composition():
    rng = random.Random(2)
    for _ in range(50):
        rows = tuple(rng.randrange(8) for _ in range(4))  # 3 -> 4
        lam = rng.randrange(16)
        pulled = gf2.pullback(lam, rows)
        for v in range(8):
            assert gf2.dot(pulled, v) == gf2.dot(lam, gf2.mat_vec(rows, v))


def test_pullback_table_lists_every_pullback():
    rng = random.Random(3)
    for k in range(6):
        rows = tuple(rng.randrange(16) for _ in range(k))  # 4 -> k
        assert gf2.pullback_table(rows) == [gf2.pullback(lam, rows) for lam in range(1 << k)]


def test_span_rank_and_membership():
    span = gf2.Span([0b001, 0b010])
    assert span.rank == 2
    assert 0b011 in span
    assert 0b100 not in span
    assert not span.add(0b011)
    assert span.add(0b100)
    assert span.rank == 3


def test_solver_recovers_combinations():
    rng = random.Random(3)
    for _ in range(30):
        vectors = [rng.randrange(1, 64) for _ in range(5)]
        solver = gf2.Solver()
        for v in vectors:
            solver.add(v)
        subset = [i for i in range(5) if rng.random() < 0.5]
        target = 0
        for i in subset:
            target ^= vectors[i]
        combo = solver.solve(target)
        assert combo is not None
        got = 0
        for i in gf2.bits(combo):
            got ^= vectors[i]
        assert got == target
    assert gf2.Solver().solve(1) is None


def test_affine_span_is_odd_sums():
    masks = [0b001, 0b010, 0b111]
    brute = set()
    for pick in range(1, 8):
        chosen = [m for i, m in enumerate(masks) if pick >> i & 1]
        if len(chosen) % 2 == 1:
            acc = 0
            for m in chosen:
                acc ^= m
            brute.add(acc)
    assert gf2.affine_span(masks) == brute
    assert gf2.affine_span([]) == set()



def test_orthogonal_is_back_substitution():
    # on 6 coordinates: the pivots are the top bits of the span's nonzero
    # vectors, and each v has exactly one orthogonal vector agreeing with
    # it off the pivots, which orthogonal returns
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.randrange(64) for _ in range(rng.randint(0, 5))]
        span = gf2.Span(rows)
        members = [w for w in range(64) if w in span]
        pivots = sum({1 << (w.bit_length() - 1) for w in members if w})
        orthogonal = [w for w in range(64) if all(gf2.dot(w, r) == 0 for r in members)]
        for v in range(64):
            assert [w for w in orthogonal if (w ^ v) & ~pivots == 0] == [span.orthogonal(v)]
        for p in range(6):
            assert (span.orthogonal(1 << p) == 0) == bool(pivots >> p & 1)
