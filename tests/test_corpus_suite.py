import random

import pytest

from fanforge import gf2, suite, ternary
from fanforge.chains import FanChain, validate_chain
from fanforge.corpus import generate_corpus, random_transition
from fanforge.errors import ResourceLimitError
from fanforge.levels import verify_involution
from fanforge.spectral import FanSpace
from fanforge.suite import run_suite

from conftest import EA, EB, patch_random_shifts


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
    # random shifts reach only the per-pair report, which the section
    # builds when the basis decision fails
    patch_random_shifts(monkeypatch, random.Random(4))
    monkeypatch.setattr(suite, "involutions_hold", lambda space: False)
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


def test_criteria_disagreement_names_every_answer_in_order(monkeypatch):
    model = suite.fan_model(generate_corpus(0, count=1)[0])
    pairs = list(model.table_of.items())
    rng = random.Random(7)
    for name in ("specializes_by_units", "specializes_by_nonnegative_part",
                 "specializes_by_zero_sets", "specializes", "specializes_by_square_shift"):
        (hc1, tc1), (hc2, tc2) = rng.choice(pairs), rng.choice(pairs)
        real = getattr(ternary, name)

        def flipped(g, h, real=real):
            return real(g, h) != (g is tc1 and h is tc2)

        with monkeypatch.context() as patch:
            patch.setattr(ternary, name, flipped)
            failures = suite.check_specialization_equivalence(model)
        truth = model.space.specializes(hc1, hc2)
        answers = {key: truth for key in ("units", "nonneg", "zerosets", "identity", "square")}
        answers[{"specializes_by_units": "units", "specializes_by_nonnegative_part": "nonneg",
                 "specializes_by_zero_sets": "zerosets", "specializes": "identity",
                 "specializes_by_square_shift": "square"}[name]] = not truth
        assert failures == [
            f"criteria disagree on {hc1}, {hc2}: {{'units': {answers['units']}, "
            f"'nonneg': {answers['nonneg']}, 'zerosets': {answers['zerosets']}, "
            f"'identity': {answers['identity']}, 'square': {answers['square']}}}"], name


def test_table_order_against_another_chain_order():
    # EA and EB have the same characters and different forests: the
    # table of EA read against the order of EB disagrees exactly where
    # the two orders do
    model, other = suite.fan_model(EA), FanSpace(EB)
    assert list(model.space.chars) == list(other.chars)
    expected = [f"table and chain order disagree on {h1}, {h2}"
                for h1 in other.chars for h2 in other.chars
                if model.space.specializes(h1, h2) != other.specializes(h1, h2)]
    assert len(expected) >= 2
    assert suite.check_specialization_equivalence(model._replace(space=other)) == expected


def test_chain_table_agreement_reports_a_missing_character():
    model = suite.fan_model(generate_corpus(0, count=1)[0])
    assert suite.check_chain_table_agreement(model) == []
    assert suite.check_chain_table_agreement(model._replace(enumerated=model.enumerated[1:])) == [
        "enumerated characters differ from chain characters",
        "character counts differ between the two routes"]


def oracle_product_identities(model, rng):
    """suite.check_product_identities as first written, one pool of
    characters filtered per draw: the oracle for its failures and draws."""
    failures = []
    space, table_of = model.space, model.table_of
    chars = space.chars
    for _ in range(10):
        h = rng.choice(chars)
        r = rng.choice((1, 2, 3))
        gs = [rng.choice([g for g in chars if g.depth >= h.depth]) for _ in range(r)]
        fs = [space.successor(g, rng.randint(h.depth, g.depth)) for g in gs]
        lhs = ternary._product([table_of[h]] + [table_of[g] for g in gs])
        rhs = ternary._product([table_of[h]] + [table_of[f] for f in fs])
        if lhs.values != rhs.values:
            failures.append(f"product not stable under successor replacement at {h}")
    for _ in range(10):
        r = rng.choice((1, 3))
        gs = [rng.choice(chars) for _ in range(r)]
        hs = [space.successor(g, rng.randint(1, g.depth)) for g in gs]
        prod_g = ternary.odd_product([table_of[g] for g in gs])
        prod_h = ternary.odd_product([table_of[h] for h in hs])
        if not ternary.specializes(prod_g, prod_h):
            failures.append("odd product is not monotone")
    return failures


def test_product_identities_match_per_draw_oracle(monkeypatch):
    # the corpus of `suite --seed 0`, with every seventh product call
    # answering a changed vector, so both failure lines are compared too;
    # the suite compares products on masks and the oracle on values
    calls = []
    real = ternary._product

    def failing(chars):
        calls.append(None)
        product = real(chars)
        if len(calls) % 7:
            return product
        return ternary.Character.from_values(product.table, product.values[::-1])

    monkeypatch.setattr(ternary, "_product", failing)
    new, old = random.Random(0), random.Random(0)
    failed = 0
    for chain in generate_corpus(0, count=60):
        model = suite.fan_model(chain)
        start = len(calls)
        expected = oracle_product_identities(model, old)
        del calls[start:]
        assert suite.check_product_identities(model, new) == expected
        assert new.getstate() == old.getstate()
        failed += len(expected)
    assert failed >= 20
