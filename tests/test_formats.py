import random

import pytest

import fanforge.formats
from fanforge.formats import (
    FormatError,
    bits_to_mask,
    level_labels,
    mask_to_bits,
    parse_chain,
    parse_forest,
    root_system_dot,
    serialize_chain,
    serialize_forest,
)
from fanforge.chains import FanChain
from fanforge.errors import StructuralError
from fanforge.spectral import FanSpace

from conftest import CHAIN3, E1, E2, EA, EB, TRIV, oracle_mask_to_bits


def test_bits_are_little_endian():
    assert mask_to_bits(0b011, 3) == "110"
    assert bits_to_mask("110", 3) == 0b011
    assert bits_to_mask("01") == 0b10
    with pytest.raises(FormatError):
        bits_to_mask("10", 3)
    with pytest.raises(FormatError):
        bits_to_mask("2x")


def test_mask_to_bits_matches_bitwise_oracle():
    # masks with bits at and above the width, which are dropped
    rng = random.Random(4)
    for width in range(17):
        masks = list(range(1 << min(width + 2, 10))) + [rng.getrandbits(40) for _ in range(200)]
        for mask in masks:
            assert mask_to_bits(mask, width) == oracle_mask_to_bits(mask, width)
    assert mask_to_bits(0b111, 0) == "" and mask_to_bits(0b1101, 2) == "10"


def test_level_labels_match_bitwise_oracle():
    # every mask up to width 12, seeded ones at widths 13 and 14, on the
    # deepest level of a two-level chain so that the depth prefix shows
    rng = random.Random(13)
    for k in range(1, 15):
        chain = FanChain((1, k), (1, 1), ((1,) + (0,) * (k - 1),))
        masks = list(range(1 << k)) if k <= 12 else [rng.randrange(1 << k) for _ in range(500)]
        assert level_labels(chain, 2, masks) == [
            f"d2:{oracle_mask_to_bits(m, k)}" for m in masks]
        assert level_labels(chain, 1, [1]) == ["d1:1"]
    assert level_labels(CHAIN3, 3, []) == []


def test_chain_files_match_bitwise_oracle(corpus, monkeypatch):
    texts = [serialize_chain(c) for c in corpus]
    for chain, text in zip(corpus, texts):
        assert serialize_chain(parse_chain(text)) == text
    monkeypatch.setattr(fanforge.formats, "mask_to_bits", oracle_mask_to_bits)
    assert [serialize_chain(c) for c in corpus] == texts


def test_chain_file_example():
    text = serialize_chain(E1)
    assert text == "fanchain n=2\nlevel d=1 dim=1 minus=1\nlevel d=2 dim=2 minus=10\ntau d=1 rows=2 1;0\n"
    assert parse_chain(text) == E1


def test_chain_roundtrip_byte_identical(corpus):
    for chain in (TRIV, E1, E2, EA, EB, CHAIN3) + tuple(corpus[:20]):
        text = serialize_chain(chain)
        assert serialize_chain(parse_chain(text)) == text


def test_chain_parse_errors():
    with pytest.raises(FormatError):
        parse_chain("")
    with pytest.raises(FormatError):
        parse_chain("fanchain n=2\nlevel d=1 dim=1 minus=1\n")
    with pytest.raises(FormatError):
        parse_chain("fanchain n=1\nlevel d=2 dim=1 minus=1\n")
    with pytest.raises(FormatError):
        parse_chain("fanchain n=2\nlevel d=1 dim=1 minus=1\n"
                    "level d=2 dim=2 minus=10\ntau d=1 rows=1 1\n")


def test_forest_file_roundtrip(corpus_spaces):
    for space in corpus_spaces[:10]:
        text = serialize_forest(space.forest)
        assert serialize_forest(parse_forest(text)) == text


def test_forest_parse_errors():
    with pytest.raises(FormatError):
        parse_forest("")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=1 parent=none\nnode id=2 depth=2 parent=0\n")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=1 parent=none\nnode id=0 depth=1 parent=none\n")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=2 parent=none\n")


def test_forest_parse_wraps_the_structural_message():
    for text, message in (
            ("node id=0 depth=2 parent=none\n", "node 0 has no parent but depth 2"),
            ("node id=0 depth=1 parent=none\nnode id=1 depth=2 parent=4\n",
             "node 1 has parent 4 out of range"),
            ("node id=0 depth=1 parent=none\nnode id=1 depth=3 parent=0\n",
             "node 1 at depth 3 has parent at depth 1"),
            ("node id=0 depth=0 parent=none\n", "node 0 has depth 0")):
        with pytest.raises(FormatError) as exc:
            parse_forest(text)
        assert str(exc.value) == f"inconsistent forest data: {message}"
        assert isinstance(exc.value.__cause__, StructuralError)
        assert str(exc.value.__cause__) == message


def test_dot_output_shape():
    space = FanSpace(E1)
    parents = {h: space.successor(h, h.depth - 1) for h in space.chars if h.depth > 1}
    dot = root_system_dot(E1, space.chars, parents)
    assert dot.startswith("digraph rootsystem {")
    assert '"d2:10" -> "d1:1";' in dot
    assert dot.count("->") == 2
