"""Flat-file formats and DOT export.

Chain files carry one header line, one line per level, and one line per
transition; forest files carry one line per node with dense ids.  Bit
strings are little-endian 0/1 (first character is coordinate 0).
Serialization is canonical: parsing a canonical file and re-serializing
reproduces it byte for byte.
"""

from __future__ import annotations

import re
from itertools import groupby

from .chains import MAX_CHARACTERS, ChainChar, FanChain
from .errors import ResourceLimitError, StructuralError
from .spectral import Forest


class FormatError(ValueError):
    pass


def mask_to_bits(mask: int, width: int) -> str:
    """The low `width` bits of mask, coordinate 0 first ("" for width <= 0)."""
    return format(mask & ((1 << width) - 1), f"0{width}b")[::-1] if width > 0 else ""


def bits_to_mask(bits: str, width: int | None = None) -> int:
    # strip("01") leaves a character exactly when bits has one outside 0/1,
    # so int() never sees the signs, spaces or underscores it would accept
    if not bits or bits.strip("01"):
        raise FormatError(f"bad bit string {bits!r}")
    if width is not None and len(bits) != width:
        raise FormatError(f"bit string {bits!r} should have {width} bits")
    return int(bits[::-1], 2)


def serialize_chain(c: FanChain) -> str:
    lines = [f"fanchain n={c.n}"]
    for d in range(1, c.n + 1):
        k = c.dims[d - 1]
        lines.append(f"level d={d} dim={k} minus={mask_to_bits(c.minus[d - 1], k)}")
    for d in range(1, c.n):
        rows = c.taus[d - 1]
        body = ";".join(mask_to_bits(row, c.dims[d - 1]) for row in rows)
        lines.append(f"tau d={d} rows={len(rows)} {body}")
    return "\n".join(lines) + "\n"


# A number is written as the serializers write it: ASCII digits ([0-9],
# not \d, which takes any Unicode decimal digit that int() converts) with
# no leading zero, so every accepted file is canonical.
NUMBER = "(0|[1-9][0-9]*)"
_HEADER = re.compile(rf"^fanchain n={NUMBER}$")
_LEVEL = re.compile(rf"^level d={NUMBER} dim={NUMBER} minus=([01]+)$")
_TAU = re.compile(rf"^tau d={NUMBER} rows={NUMBER} ([01;]+)$")


def text_lines(text: str) -> list[str]:
    """The lines of a file that are not blank or whitespace only.  Lines
    end at "\n" alone: str.splitlines also ends them at form feeds and
    Unicode line separators, which no serializer writes.  A CRLF file
    reaches this as LF through Path.read_text."""
    return [ln for ln in text.split("\n") if ln.strip()]


def parse_chain(text: str) -> FanChain:
    lines = text_lines(text)
    if not lines:
        raise FormatError("empty chain file")
    head = _HEADER.match(lines[0])
    if not head:
        raise FormatError(f"bad header line {lines[0]!r}")
    n = int(head.group(1))
    if len(lines) != 1 + n + max(n - 1, 0):
        raise FormatError(f"expected {1 + n + max(n - 1, 0)} lines for n={n}, got {len(lines)}")

    dims, minus = [], []
    for d in range(1, n + 1):
        m = _LEVEL.match(lines[d])
        if not m or int(m.group(1)) != d:
            raise FormatError(f"bad level line {lines[d]!r} (expected depth {d})")
        k = int(m.group(2))
        dims.append(k)
        minus.append(bits_to_mask(m.group(3), k))
    taus = []
    for d in range(1, n):
        line = lines[n + d]
        m = _TAU.match(line)
        if not m or int(m.group(1)) != d:
            raise FormatError(f"bad tau line {line!r} (expected depth {d})")
        rows = m.group(3).split(";")
        if len(rows) != int(m.group(2)) or int(m.group(2)) != dims[d]:
            raise FormatError(f"tau at depth {d} should have {dims[d]} rows")
        taus.append(tuple(bits_to_mask(r, dims[d - 1]) for r in rows))
    return FanChain(tuple(dims), tuple(minus), tuple(taus))


def serialize_forest(f: Forest) -> str:
    """One line per node in index order, formatted a run of equal depth
    at a time; a Forest's roots are exactly its depth-1 nodes."""
    parents, lines, i = f.parents, [], 0
    for d, run in groupby(f.depths):
        j = i + len(list(run))
        if d == 1:
            lines += [f"node id={k} depth=1 parent=none" for k in range(i, j)]
        else:
            head = f" depth={d} parent="
            lines += [f"node id={k}{head}{parents[k]}" for k in range(i, j)]
        i = j
    return "\n".join(lines) + "\n"


_NODE = re.compile(rf"^node id={NUMBER} depth={NUMBER} parent=(none|{NUMBER})$")


def parse_forest(text: str) -> Forest:
    """Parse a forest file; more than MAX_CHARACTERS node lines, more
    than any chain within bounds has characters, raise ResourceLimitError."""
    lines = text_lines(text)
    if len(lines) > MAX_CHARACTERS:
        raise ResourceLimitError(
            f"forest has {len(lines)} nodes, bound is {MAX_CHARACTERS}")
    entries: dict[int, tuple[int, int | None]] = {}
    for ln in lines:
        m = _NODE.match(ln)
        if not m:
            raise FormatError(f"bad node line {ln!r}")
        ident = int(m.group(1))
        if ident in entries:
            raise FormatError(f"duplicate node id {ident}")
        parent = None if m.group(3) == "none" else int(m.group(3))
        entries[ident] = (int(m.group(2)), parent)
    if not entries:
        raise FormatError("empty forest file")
    if sorted(entries) != list(range(len(entries))):
        raise FormatError("node ids are not dense from 0")
    depths = tuple(entries[i][0] for i in range(len(entries)))
    parents = tuple(entries[i][1] for i in range(len(entries)))
    try:
        return Forest(depths, parents)
    except StructuralError as exc:
        raise FormatError(f"inconsistent forest data: {exc}") from exc


def char_label(chain: FanChain, h: ChainChar) -> str:
    return f"d{h.depth}:{mask_to_bits(h.mask, chain.dims[h.depth - 1])}"


def _bit_strings(width: int) -> list[str]:
    """mask_to_bits(mask, width) for every mask, indexed by mask: each
    coordinate doubles the table, the masks with bit i set being those
    without it, with a 1 in place i of the bit string."""
    table = [""]
    for _ in range(width):
        table = [b + "0" for b in table] + [b + "1" for b in table]
    return table


def chain_labels(chain: FanChain, masks) -> list[list[str]]:
    """char_label of each mask of every level, masks[d - 1] listing the
    depth-d masks, read from one bit-string table per distinct dimension."""
    tables = {k: _bit_strings(k) for k in set(chain.dims)}
    labels = []
    for d, (k, level) in enumerate(zip(chain.dims, masks), start=1):
        prefix = f"d{d}:"
        labels.append([prefix + b for b in map(tables[k].__getitem__, level)])
    return labels


def root_system_dot(chain: FanChain, chars, parents) -> str:
    """DOT text for a root system; edges point from child to parent."""
    lines = ["digraph rootsystem {"]
    for h in chars:
        lines.append(f'  "{char_label(chain, h)}";')
    for h, p in parents.items():
        lines.append(f'  "{char_label(chain, h)}" -> "{char_label(chain, p)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
