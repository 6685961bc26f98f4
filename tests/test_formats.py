import random
import re

import pytest

import fanforge.formats
from fanforge.formats import (
    FormatError,
    bits_to_mask,
    chain_labels,
    mask_to_bits,
    parse_chain,
    parse_forest,
    root_system_dot,
    serialize_chain,
    serialize_forest,
)
from fanforge.chains import FanChain
from fanforge.errors import StructuralError
from fanforge.spectral import FanSpace, Forest

from conftest import CHAIN3, E1, E2, EA, EB, TRIV, ladder, mixed_chain, oracle_mask_to_bits


# The text layer as first written, one Python step per bit, per node and
# per label table: the oracles for the bulk versions in fanforge.formats.

def oracle_bits_to_mask(bits, width=None):
    if not bits or any(ch not in "01" for ch in bits):
        raise FormatError(f"bad bit string {bits!r}")
    if width is not None and len(bits) != width:
        raise FormatError(f"bit string {bits!r} should have {width} bits")
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def oracle_serialize_forest(f):
    lines = []
    for i, (d, p) in enumerate(zip(f.depths, f.parents)):
        parent = "none" if p is None else str(p)
        lines.append(f"node id={i} depth={d} parent={parent}")
    return "\n".join(lines) + "\n"


def oracle_level_labels(chain, d, masks):
    table = [f"d{d}:"]
    for _ in range(chain.dims[d - 1]):
        table = [b + "0" for b in table] + [b + "1" for b in table]
    return list(map(table.__getitem__, masks))


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:       # FormatError is a ValueError
        return type(exc), str(exc)


def test_bits_are_little_endian():
    assert mask_to_bits(0b011, 3) == "110"
    assert bits_to_mask("110", 3) == 0b011
    assert bits_to_mask("01") == 0b10
    with pytest.raises(FormatError):
        bits_to_mask("10", 3)
    with pytest.raises(FormatError):
        bits_to_mask("2x")


def test_bits_to_mask_matches_per_bit_oracle():
    # seeded bit strings, and strings int(..., 2) would take but a bit
    # string may not hold
    rng = random.Random(7)
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(1, 70)))
               for _ in range(300)]
    strings += ["", "0", "1", " 1", "1 ", "1_0", "+1", "-1", "0b1", "\uff11", "10\n",
                "1 0", "2", "01x", "\u0661"]
    for bits in strings:
        for width in (None, len(bits), len(bits) + 1, 3):
            assert outcome(bits_to_mask, bits, width) == outcome(oracle_bits_to_mask, bits, width)


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
        assert chain_labels(chain, [[1], masks]) == [
            ["d1:1"], [f"d2:{oracle_mask_to_bits(m, k)}" for m in masks]]
    assert chain_labels(CHAIN3, [[], [], []]) == [[], [], []]


def test_chain_labels_share_a_table_between_levels():
    # dims 3, 5, 3, 5, 1: levels 1 and 3, and 2 and 4, read one table
    dims = (3, 5, 3, 5, 1)
    chain = mixed_chain(random.Random(35), dims)
    space = FanSpace(chain)
    want = [oracle_level_labels(chain, d, masks) for d, masks in enumerate(space.masks, 1)]
    assert chain_labels(chain, space.masks) == want
    everything = [list(range(1 << k)) for k in dims]
    assert chain_labels(chain, everything) == [
        [f"d{d}:{oracle_mask_to_bits(m, k)}" for m in masks]
        for d, (k, masks) in enumerate(zip(dims, everything), start=1)]


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


# Arabic-Indic and full-width digits: Unicode decimal digits that int() reads
FOREIGN_DIGITS = [str.maketrans("0123456789", "".join(map(chr, range(base, base + 10))))
                  for base in (0x0660, 0xFF10)]


def _with_foreign_field(text, field, digits):
    """text with the number after the first `field` written in other digits."""
    i = text.index(field) + len(field)
    j = i + len(re.match("[0-9]+", text[i:]).group())
    return text[:i] + text[i:j].translate(digits) + text[j:]


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
    text = serialize_chain(CHAIN3)
    for digits in FOREIGN_DIGITS:
        for field, kind in (("fanchain n=", "header"), ("level d=", "level"),
                            (" dim=", "level"), ("tau d=", "tau"), (" rows=", "tau")):
            with pytest.raises(FormatError, match=f"bad {kind} line"):
                parse_chain(_with_foreign_field(text, field, digits))


def _with_leading_zero(text, field):
    """text with a 0 put before the number after the first `field`."""
    i = text.index(field) + len(field)
    return text[:i] + "0" + text[i:]


# U+0085 (next line), U+2028 (line separator), form feed, vertical tab and
# U+001E (record separator): str.splitlines ends a line at each,
# Path.read_text at none
FOREIGN_LINE_ENDS = ("\x85", "\u2028", "\x0c", "\x0b", "\x1e")


def test_chain_numbers_and_line_ends_are_canonical():
    text = serialize_chain(CHAIN3)
    for field, kind in (("fanchain n=", "header"), ("level d=", "level"),
                        (" dim=", "level"), ("tau d=", "tau"), (" rows=", "tau")):
        bad = _with_leading_zero(text, field)
        line = next(ln for ln in bad.split("\n") if field + "0" in ln)
        with pytest.raises(FormatError) as exc:
            parse_chain(bad)
        assert str(exc.value).startswith(f"bad {kind} line {line!r}")
    for end in FOREIGN_LINE_ENDS:
        joined = text.replace("\n", end, 1)
        first = joined.split("\n")[0]
        with pytest.raises(FormatError) as exc:
            parse_chain(joined)
        assert str(exc.value) == f"bad header line {first!r}"
    # the latitude kept on purpose: blank and whitespace-only lines, and
    # these characters standing alone on a line
    loose = "\n \t\n" + text.replace("\n", "\n\n", 1) + "".join(
        end + "\n" for end in FOREIGN_LINE_ENDS)
    assert parse_chain(loose) == CHAIN3


def test_forest_numbers_and_line_ends_are_canonical():
    root, child = "node id=0 depth=1 parent=none\n", "node id=1 depth=2 parent=0\n"
    bad = [(_with_leading_zero(root, field), child) for field in ("id=", "depth=")]
    bad += [(root, _with_leading_zero(child, field)) for field in ("id=", "depth=", "parent=")]
    bad += [("node id=00 depth=01 parent=none\n", "")]
    for first, second in bad:
        line = first if first != root else second
        with pytest.raises(FormatError) as exc:
            parse_forest(first + second)
        assert str(exc.value) == f"bad node line {line[:-1]!r}"
    for end in FOREIGN_LINE_ENDS:
        with pytest.raises(FormatError) as exc:
            parse_forest(root.replace("\n", end) + child)
        assert str(exc.value) == f"bad node line {(root[:-1] + end + child[:-1])!r}"
    assert parse_forest("\n" + root + "  \n" + child + "\x85\n") == parse_forest(root + child)


def test_forest_file_roundtrip(corpus_spaces):
    for space in corpus_spaces[:10]:
        text = serialize_forest(space.forest)
        assert serialize_forest(parse_forest(text)) == text


def _unsorted_forest(rng, forest):
    """forest with its nodes renumbered by a random permutation, so that
    the depths are no longer sorted."""
    n = len(forest)
    perm = list(range(n))
    rng.shuffle(perm)
    where = {old: new for new, old in enumerate(perm)}
    return Forest(tuple(forest.depths[old] for old in perm),
                  tuple(None if forest.parents[old] is None else where[forest.parents[old]]
                        for old in perm))


def test_serialize_forest_matches_per_node_oracle(corpus_spaces):
    rng = random.Random(19)
    forests = [space.forest for space in corpus_spaces[:40]]
    forests.append(FanSpace(ladder(random.Random(2), 5, 6)).forest)
    forests += [_unsorted_forest(rng, f) for f in forests]
    forests.append(Forest((), ()))
    assert any(list(f.depths) != sorted(f.depths) for f in forests)
    for f in forests:
        text = serialize_forest(f)
        assert text == oracle_serialize_forest(f)
        if len(f):
            assert parse_forest(text) == f


def _with(lines, i, pattern, repl):
    out = lines[:]
    out[i] = re.sub(pattern, repl, out[i])
    return out


def _mutations(rng, text):
    """Seeded faults in the lines of a forest file, each with the first
    fault that reading the lines in order meets: its message, "inconsistent"
    for a structural fault, or None where the file still reads as before."""
    lines = text.splitlines()
    n = len(lines)
    a, b, c = sorted(rng.sample(range(n), 3))    # line i holds id i
    bad_b = _with(lines, b, "depth=", "depth=x")
    bad_c = _with(lines, c, "parent=", "parent=-")
    shuffled = rng.sample(lines, n)
    padded = lines[:]
    padded.insert(b, "   ")
    far = n + rng.randrange(5)
    return [
        (bad_b, f"bad node line {bad_b[b]!r}"),
        (_with(bad_c, b, r"id=\d+", f"id={a}"), f"duplicate node id {a}"),
        (_with(bad_b, c, r"id=\d+", f"id={a}"), f"bad node line {bad_b[b]!r}"),
        (_with(lines, b, r"id=\d+", f"id={n + rng.randrange(3)}"),
         "node ids are not dense from 0"),
        (shuffled, None),
        (_with(shuffled, a, r"depth=(\d+)", lambda m: f"depth={int(m[1]) + rng.randint(1, 3)}"),
         "inconsistent"),
        (_with(lines, b, r"parent=\w+", f"parent={far}"),
         f"inconsistent forest data: node {b} has parent {far} out of range"),
        (padded, None),
    ]


def test_parse_forest_reports_the_first_fault_in_line_order(corpus_spaces):
    # the same forest, or the first fault in line order, on seeded faults
    # in real forest files
    rng = random.Random(23)
    bad = "node id=0 depth=1 parent=x"
    root = "node id=0 depth=1 parent=none"
    for lines, message in (
            ([" ", ""], "empty forest file"),
            ([root, root, bad], "duplicate node id 0"),
            ([root, bad, root], f"bad node line {bad!r}"),
            ([root, "node id=2 depth=2 parent=0", bad], f"bad node line {bad!r}"),
            (["node id=1 depth=1 parent=none", root, "node id=1 depth=1 parent=none"],
             "duplicate node id 1")):
        assert outcome(parse_forest, "\n".join(lines)) == (FormatError, message)
    assert parse_forest(root) == Forest((1,), (None,))
    for space in [s for s in corpus_spaces if len(s.forest) > 2][:60]:
        text = serialize_forest(space.forest)
        assert parse_forest(text) == space.forest
        for lines, want in _mutations(rng, text):
            got = outcome(parse_forest, "\n".join(lines) + "\n")
            if want is None:
                assert got == space.forest
            elif want == "inconsistent":
                assert got[0] is FormatError
                assert got[1].startswith("inconsistent forest data: ")
            else:
                assert got == (FormatError, want)


def test_forest_parse_errors():
    with pytest.raises(FormatError):
        parse_forest("")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=1 parent=none\nnode id=2 depth=2 parent=0\n")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=1 parent=none\nnode id=0 depth=1 parent=none\n")
    with pytest.raises(FormatError):
        parse_forest("node id=0 depth=2 parent=none\n")
    root, child = "node id=0 depth=1 parent=none\n", "node id=1 depth=2 parent=0\n"
    for digits in FOREIGN_DIGITS:
        bad = [_with_foreign_field(root, field, digits) + child for field in ("id=", "depth=")]
        bad += [root + _with_foreign_field(child, field, digits)
                for field in ("id=", "depth=", "parent=")]
        for text in bad:
            with pytest.raises(FormatError, match="bad node line"):
                parse_forest(text)


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
