import random

import pytest

from fanforge import gf2, suite
from fanforge.chains import FanChain, validate_chain
from fanforge.corpus import generate_corpus, random_transition
from fanforge.errors import ResourceLimitError
from fanforge.levels import verify_involution
from fanforge.spectral import FanSpace
from fanforge.suite import run_suite

from conftest import patch_random_shifts


def test_corpus_is_deterministic():
    assert generate_corpus(11, count=12) == generate_corpus(11, count=12)
    assert generate_corpus(11, count=12) != generate_corpus(12, count=12)


def test_corpus_chains_are_valid(corpus):
    for chain in corpus:
        assert validate_chain(chain) == []
        assert chain.n <= 4 and max(chain.dims) <= 4


def test_random_transition_preserves_minus():
    rng = random.Random(3)
    for _ in range(100):
        k_from, k_to = rng.randint(1, 4), rng.randint(1, 4)
        m_from = rng.randrange(1, 1 << k_from)
        m_to = rng.randrange(1, 1 << k_to)
        rows = random_transition(rng, k_from, k_to, m_from, m_to)
        assert gf2.mat_vec(rows, m_from) == m_to


def test_run_suite_clean_on_small_corpus():
    report = run_suite(generate_corpus(5, count=8), seed=5)
    assert report.ok
    assert report.fans == 8
    assert set(report.sections) >= {"cardinality", "involutions", "round-trips"}
    assert any("ok" in line for line in report.lines())


def test_run_suite_builds_one_model_per_fan(monkeypatch):
    seen = {"FanSpace": [], "chain_to_table": [], "check_involutions": []}

    def counted(name, fn):
        def wrapper(arg, *rest, **kwargs):
            seen[name].append(arg if name != "check_involutions" else arg.space.chain)
            return fn(arg, *rest, **kwargs)
        return wrapper

    for name in seen:
        monkeypatch.setattr(suite, name, counted(name, getattr(suite, name)))
    chains = generate_corpus(5, count=8)
    assert run_suite(chains, seed=5).ok
    assert seen == {name: chains for name in seen}


def test_run_suite_refuses_over_bound_corpus_before_any_section(monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "check_cardinality", lambda model: ran.append(model) or [])
    big = FanChain((11, 11), (1, 1), (gf2.identity_rows(11),))
    with pytest.raises(ResourceLimitError, match="fan has 4097 elements, table bound is 2049"):
        run_suite(generate_corpus(5, count=2) + [big])
    assert ran == []


def test_check_involutions_matches_per_pair_loop(monkeypatch):
    patch_random_shifts(monkeypatch, random.Random(4))
    total = 0
    for chain in generate_corpus(0, count=6):
        space = FanSpace(chain)
        expected = [f"handle ({g1}, {g2}): {bad.name} fails"
                    for g1 in space.chars for g2 in space.chars
                    for bad in verify_involution(space, g1, g2).failures()]
        # the section reads only the space
        assert suite.check_involutions(suite.FanModel(None, space, {}, ())) == expected
        total += len(expected)
    assert total > 0
