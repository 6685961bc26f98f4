"""Aggregated property sweeps over generated corpora.

Each check function takes one fan's model (plus whatever configuration
it needs) and returns a list of failure strings, empty when the property
holds.  run_suite builds each fan's model once and runs every check on
it; the CLI `suite` subcommand and the test suite both drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from . import ternary
from .chains import (
    ChainChar,
    FanChain,
    chain_char_to_table_char,
    chain_to_table,
    require_generator_bound,
    roundtrip_isomorphism,
    table_size,
)
from .formats import parse_chain, serialize_chain
from .generators import standard_generating_system, verify_sgs
from .isomorphism import build_isomorphism, check_forest
from .levels import involution_failures
from .spectral import FanSpace
from .ternary import Character, TernaryTable


class FanModel(NamedTuple):
    """One fan as every section reads it: its multiplication table, its
    character space, the table character of each chain character, and
    the characters the table model enumerates on its own."""

    table: TernaryTable
    space: FanSpace
    table_of: dict[ChainChar, Character]     # in space.chars order
    enumerated: tuple[Character, ...]        # enumerate_characters(table)


def fan_model(chain: FanChain) -> FanModel:
    """The model every section of run_suite reads, each part built once."""
    table = chain_to_table(chain)
    space = FanSpace(chain)
    return FanModel(table, space, {h: chain_char_to_table_char(chain, table, h)
                                   for h in space.chars},
                    ternary.enumerate_characters(table))


def check_cardinality(model: FanModel) -> list[str]:
    """The table has twice as many elements as the space has characters, plus one."""
    card_f, card_x = model.table.size, len(model.space.chars)
    if card_f != 2 * card_x + 1:
        return [f"cardinality identity fails: {card_f} != 2*{card_x}+1"]
    return []


def check_specialization_equivalence(model: FanModel) -> list[str]:
    """The four specialization tests agree pairwise on the table model,
    and with the chain-coordinate order: h2 specializes h1 when it is
    h1's successor at its own depth, read off h1's successor-mask row."""
    failures = []
    up = model.space.successor_masks
    pairs = model.table_of.items()
    for hc1, tc1 in pairs:
        row = up[hc1]
        for hc2, tc2 in pairs:
            units = ternary.specializes_by_units(tc1, tc2)
            nonneg = ternary.specializes_by_nonnegative_part(tc1, tc2)
            zerosets = ternary.specializes_by_zero_sets(tc1, tc2)
            identity = ternary.specializes(tc1, tc2)
            square = ternary.specializes_by_square_shift(tc1, tc2)
            if not units == nonneg == zerosets == square == identity:
                answers = {"units": units, "nonneg": nonneg, "zerosets": zerosets,
                           "identity": identity, "square": square}
                failures.append(f"criteria disagree on {hc1}, {hc2}: {answers}")
            elif identity != (hc2.depth <= hc1.depth and row[hc2.depth - 1] == hc2.mask):
                failures.append(f"table and chain order disagree on {hc1}, {hc2}")
    return failures


def check_zero_set_transport(model: FanModel) -> list[str]:
    """Among predecessors of a common character, zero-set containment is
    exactly specialization; incomparable zero-sets never occur."""
    failures = []
    space, table_of = model.space, model.table_of
    for u in space.chars:
        above = [space.successor(u, d) for d in range(1, u.depth + 1)]
        for g in above:
            for h in above:
                order = ternary.zero_set_order(table_of[g], table_of[h])
                if order == "incomparable":
                    failures.append(f"incomparable zero-sets below {u}")
                elif (order in ("subset", "equal")) != ternary.specializes(
                        table_of[g], table_of[h]):
                    failures.append(f"zero-set transport fails for {g}, {h}")
    return failures


def check_fan_closure(model: FanModel) -> list[str]:
    """Triple products of characters are characters (table model)."""
    failed = ternary.triple_closure(list(model.table_of.values()))
    return ["triple product left the character space"] if failed else []


def check_product_identities(model: FanModel, rng: random.Random) -> list[str]:
    """Sampled product laws: replacing factors by successors above the
    pivot's zero-set keeps the product; odd products are monotone.

    Products are compared on their (support, neg) masks, which are equal
    exactly when the value vectors are, since ternary._product cuts neg
    to the support."""
    failures = []
    space, table_of = model.space, model.table_of
    chars = space.chars
    for _ in range(10):
        h = rng.choice(chars)
        r = rng.choice((1, 2, 3))
        deeper = [g for g in chars if g.depth >= h.depth]
        gs = [rng.choice(deeper) for _ in range(r)]
        fs = [space.successor(g, rng.randint(h.depth, g.depth)) for g in gs]
        lhs = ternary._product([table_of[h]] + [table_of[g] for g in gs])
        rhs = ternary._product([table_of[h]] + [table_of[f] for f in fs])
        if (lhs.support, lhs.neg) != (rhs.support, rhs.neg):
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


def check_chain_table_agreement(model: FanModel) -> list[str]:
    """Backtracking enumeration and the chain character list agree."""
    failures = []
    enumerated = model.enumerated
    from_chain = {(tc.support, tc.neg) for tc in model.table_of.values()}
    if {(c.support, c.neg) for c in enumerated} != from_chain:
        failures.append("enumerated characters differ from chain characters")
    if len(enumerated) != len(from_chain):
        failures.append("character counts differ between the two routes")
    return failures


def check_forest_regularity(model: FanModel) -> list[str]:
    """Root systems of actual fans pass every necessary condition."""
    report = check_forest(model.space.forest)
    return [str(v) for v in report]


def check_involutions(model: FanModel) -> list[str]:
    """Full involution property suite for every pair of characters."""
    return [f"handle ({g1}, {g2}): {bad.name} fails"
            for g1, g2, bad in involution_failures(model.space)]


def check_sgs(model: FanModel, seeds: tuple[int, ...] = (0,)) -> list[str]:
    failures = []
    space = model.space
    for seed in (None,) + tuple(seeds):
        gs = standard_generating_system(space, seed)
        report = verify_sgs(space, gs)
        for bad in report.failures():
            failures.append(f"seed {seed}: {bad.name} fails")
        if standard_generating_system(space, seed).bases != gs.bases:
            failures.append("deterministic construction is not reproducible" if seed is None
                            else f"seed {seed}: construction is not reproducible")
    return failures


def check_roundtrip(model: FanModel) -> list[str]:
    failures = []
    text = serialize_chain(model.space.chain)
    if serialize_chain(parse_chain(text)) != text:
        failures.append("chain file serialization is not byte-identical")
    try:
        roundtrip_isomorphism(model.table, model.enumerated)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        failures.append(f"table round-trip failed: {exc}")
    return failures


def check_self_isomorphism(model: FanModel) -> list[str]:
    try:
        build_isomorphism(model.space, model.space)
    except Exception as exc:  # noqa: BLE001
        return [f"self-isomorphism construction failed: {exc}"]
    return []


@dataclass
class SuiteReport:
    sections: dict[str, list[str]] = field(default_factory=dict)
    fans: int = 0

    @property
    def ok(self) -> bool:
        return all(not f for f in self.sections.values())

    def lines(self) -> list[str]:
        out = [f"suite over {self.fans} fans"]
        for name, failures in self.sections.items():
            if failures:
                out.append(f"{name}: {len(failures)} failure(s)")
                out.extend(f"  {f}" for f in failures[:10])
            else:
                out.append(f"{name}: ok")
        return out


def run_suite(chains: list[FanChain], seed: int = 0) -> SuiteReport:
    """Every section on each fan in turn; each section's failures stay in
    corpus order, and only product-identities draws from the rng."""
    rng = random.Random(seed)
    sections = {
        "cardinality": check_cardinality,
        "specialization-equivalence": check_specialization_equivalence,
        "zero-set-transport": check_zero_set_transport,
        "fan-closure": check_fan_closure,
        "product-identities": partial(check_product_identities, rng=rng),
        "chain-table-agreement": check_chain_table_agreement,
        "forest-regularity": check_forest_regularity,
        "involutions": check_involutions,
        "generating-systems": partial(check_sgs, seeds=(seed,)),
        "round-trips": check_roundtrip,
        "self-isomorphism": check_self_isomorphism,
    }
    report = SuiteReport({name: [] for name in sections}, fans=len(chains))
    # an over-bound fan is refused before any table is built: every fan
    # against the size bound, then every fan against the generator bound
    for chain in chains:
        table_size(chain)
    for chain in chains:
        require_generator_bound(chain)
    for chain in chains:
        model = fan_model(chain)
        for name, check in sections.items():
            report.sections[name].extend(check(model))
    return report
