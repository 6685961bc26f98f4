"""Structured chain model of finite fans.

A fan is stored as a chain of exponent-2 groups: one GF(2) space per
depth, a marked nonzero "minus" vector in each, and a minus-preserving
linear transition from every depth to the next.  Depth 1 is the top of
the specialization order (the quotient by the maximal ideal); the last
depth is the faithful level.

Converters to and from raw multiplication tables live here too.  Table
elements produced by chain_to_table are ordered canonically: 0, then 1,
then -1, then the remaining slice elements grouped by depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple

from . import gf2
from .errors import NotAFanError, ResourceLimitError, StructuralError
from .ternary import (
    MAX_TABLE_ELEMENTS,
    MAX_TABLE_GENERATORS,
    Character,
    TernaryTable,
    Violation,
    _affine_bases,
    generator_bound_error,
    require_fan,
)

#: Largest character space a chain may have; every character-space
#: construction enumerates it, so this bounds time and memory up front.
MAX_CHARACTERS = 1 << 14


@dataclass(frozen=True)
class FanChain:
    dims: tuple[int, ...]                 # GF(2) dimension per depth, depth 1 first
    minus: tuple[int, ...]                # class of -1 per depth, as bitmasks
    taus: tuple[tuple[int, ...], ...]     # transition d -> d+1: rows over dims[d-1] bits

    def __post_init__(self):
        n = len(self.dims)
        if n == 0:
            raise StructuralError("chain needs at least one level")
        if len(self.minus) != n or len(self.taus) != n - 1:
            raise StructuralError("minus/taus lengths do not match level count")
        for d, k in enumerate(self.dims, start=1):
            if k < 1:
                raise StructuralError(f"depth {d} has dimension {k}")
            if self.minus[d - 1] >> k:
                raise StructuralError(f"minus vector at depth {d} out of range")
        for d, rows in enumerate(self.taus, start=1):
            if len(rows) != self.dims[d]:
                raise StructuralError(f"tau at depth {d} has wrong row count")
            for row in rows:
                if row >> self.dims[d - 1]:
                    raise StructuralError(f"tau at depth {d} has a row out of range")

    @property
    def n(self) -> int:
        return len(self.dims)


class ChainChar(NamedTuple):
    """A character in chain coordinates: depth plus a functional mask.

    The functional acts on the depth-d space and sends the minus vector
    to 1; characters of depth d vanish on every deeper slice.
    """

    depth: int
    mask: int


class SliceElement(NamedTuple):
    """A nonzero fan element: its slice depth and GF(2) vector there.

    depth 0 with vec 0 encodes the absorbing zero element.
    """

    depth: int
    vec: int


ZERO_ELEMENT = SliceElement(0, 0)


def validate_chain(c: FanChain) -> list[Violation]:
    """Empty iff every minus vector is nonzero and transitions preserve it."""
    out: list[Violation] = []
    for d in range(1, c.n + 1):
        if c.minus[d - 1] == 0:
            out.append(Violation("minus-nonzero", f"minus vector at depth {d} is zero", (d,)))
    for d in range(1, c.n):
        image = gf2.mat_vec(c.taus[d - 1], c.minus[d - 1])
        if image != c.minus[d]:
            out.append(Violation(
                "minus-transport", f"tau at depth {d} does not send -1 to -1", (d,)))
    return out


def _require_valid(c: FanChain) -> None:
    bad = validate_chain(c)
    if bad:
        raise StructuralError(f"invalid chain: {bad[0].message}")


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")     # swaps the parity bytes 0 and 1


def level_masks(c: FanChain) -> list[list[int]]:
    """Per depth, the functionals sending minus_d to 1, ascending.

    Raises StructuralError on an invalid chain and ResourceLimitError,
    before enumerating, when the chain has more than MAX_CHARACTERS
    characters.
    """
    _require_valid(c)
    count = sum(1 << (k - 1) for k in c.dims)
    if count > MAX_CHARACTERS:
        raise ResourceLimitError(
            f"chain has {count} characters, bound is {MAX_CHARACTERS}")
    out = []
    for k, minus in zip(c.dims, c.minus):
        # parity[lam] = <lam, minus>, one byte per functional: coordinate i
        # doubles the table, the upper half flipped when minus has bit i
        parity = b"\0"
        for i in range(k):
            parity += parity.translate(_FLIP) if minus >> i & 1 else parity
        out.append(list(compress(range(1 << k), parity)))
    return out


def characters_of_levels(levels: list[list[int]]) -> tuple[ChainChar, ...]:
    """The ChainChars of level_masks output, depth by depth."""
    out: list[ChainChar] = []
    for d, masks in enumerate(levels, start=1):
        # tuple.__new__ mapped over (depth, mask) pairs builds the same
        # instances as ChainChar(d, m) without a Python-level call per
        # character, which the NamedTuple constructor is
        out += map(tuple.__new__, repeat(ChainChar), zip(repeat(d), masks))
    return tuple(out)


def chain_characters(c: FanChain) -> tuple[ChainChar, ...]:
    """All characters: per depth d, the functionals sending minus_d to 1.

    Raises ResourceLimitError, before enumerating, when the chain has
    more than MAX_CHARACTERS characters.
    """
    return characters_of_levels(level_masks(c))


def cardinalities(c: FanChain) -> tuple[int, int]:
    """(card of the fan, card of its character space); the fan count is
    always twice the character count plus one."""
    _require_valid(c)
    return 1 + sum(1 << k for k in c.dims), sum(1 << (k - 1) for k in c.dims)


def _slice_vectors(c: FanChain, d: int) -> list[int] | range:
    """Slice d's vectors in table order: ascending, but slice 1 starts
    with 0 and minus_1 (the elements one and minus one)."""
    if d > 1:
        return range(1 << c.dims[d - 1])
    return [0, c.minus[0]] + [v for v in range(1, 1 << c.dims[0]) if v != c.minus[0]]


def chain_elements(c: FanChain) -> tuple[SliceElement, ...]:
    """Canonical element order: zero, one, minus one, then slices by depth."""
    return (ZERO_ELEMENT,) + tuple([SliceElement(d, v) for d in range(1, c.n + 1)
                                    for v in _slice_vectors(c, d)])


def evaluate_element(c: FanChain, h: ChainChar, el: SliceElement) -> int:
    """Value of the character h at a fan element."""
    if el == ZERO_ELEMENT or el.depth > h.depth:
        return 0
    moved = el.vec
    for tau in c.taus[el.depth - 1:h.depth - 1]:
        moved = gf2.mat_vec(tau, moved)
    return -1 if gf2.dot(h.mask, moved) else 1


def table_size(c: FanChain) -> int:
    """Element count of the chain's fan; raises ResourceLimitError when it
    is over MAX_TABLE_ELEMENTS, so a fan is refused before any build."""
    _require_valid(c)
    size = 1 + sum(1 << k for k in c.dims)
    if size > MAX_TABLE_ELEMENTS:
        raise ResourceLimitError(
            f"fan has {size} elements, table bound is {MAX_TABLE_ELEMENTS}")
    return size


def require_generator_bound(c: FanChain) -> None:
    """Refuse, before its table is built, a chain whose table needs more
    than MAX_TABLE_GENERATORS generators, with closure_steps's message.

    A chain of n levels needs at least n + 2: the three constants, and
    one in each slice below the first, since a product lies in the
    deeper slice of its factors.  An over-size fan is refused by
    table_size first, as chain_to_table would refuse it."""
    if c.n + 2 > MAX_TABLE_GENERATORS:
        table_size(c)
        raise generator_bound_error()


def chain_to_table(c: FanChain) -> TernaryTable:
    """Raw multiplication table of the chain's fan (refused over the
    table_size bound before anything is built)."""
    size = table_size(c)
    vecs = [_slice_vectors(c, d) for d in range(1, c.n + 1)]
    at, start = [], 1       # at[d-1][v]: the table index of slice d's vector v
    for vs in vecs:
        at.append([start + j for j in sorted(range(len(vs)), key=vs.__getitem__)])
        start += len(vs)
    # steps[d-1][x]: slice d's vector x pushed one tau into slice d + 1,
    # tabled as the XOR of the images of x's unit vectors
    steps = [gf2.pullback_table(tuple([gf2.mat_vec(tau, 1 << i) for i in range(k)]))
             for tau, k in zip(c.taus, c.dims)]
    # A product lives in the deeper slice of its factors, at the XOR of both
    # factors pushed there, one tau at a time.  Only the rows of vector 0
    # and of the unit vectors of a slice d are built from that, in two parts:
    # - the head, its columns up to the end of slice d: the zero element's 0,
    #   then slice d's vectors XOR-translated, gathered at the pushed vectors
    #   of slices 1..d;
    # - the tail, every deeper column z: that of x*e, x's push into slice
    #   d + 1, since slice d+1's vector 0, e, fixes z: x*z = x*(e*z) = (x*e)*z.
    # Every other row composes, as the product is associative:
    # row(a*b)[z] = a*(b*z) = row(a)[row(b)[z]], where vector v is its
    # lowest bit XOR the rest, and both rows come before v's.
    heads: list[list[tuple[int, ...]]] = []     # per slice, by bit length
    pushed: list[int] = []      # slices 1..d pushed into slice d, in table order
    for d, (k, vs, where) in enumerate(zip(c.dims, vecs, at), start=1):
        if d > 1:
            step = steps[d - 2]
            pushed = [step[x] for x in pushed]
        pushed += vs
        heads.append([(0, *[where[x ^ u] for x in pushed])
                      for u in (0, *[1 << i for i in range(k)])])
    slices: list[list[tuple[int, ...]]] = []    # deepest first
    below: list[tuple[int, ...]] = []           # slice d + 1's rows, by vector
    for d in range(c.n, 0, -1):
        units, rows = heads.pop(), []
        for v in range(1 << c.dims[d - 1]):
            rest = v & (v - 1)
            if rest:
                rows.append(itemgetter(*rows[rest])(rows[v ^ rest]))
            else:       # v is 0 or a unit vector
                head = units[v.bit_length()]
                rows.append(head + below[steps[d - 1][v]][len(head):] if below else head)
        slices.append(rows)
        below = rows
    mul = [(0,) * size]
    for vs, rows in zip(vecs, reversed(slices)):
        mul += map(rows.__getitem__, vs)
    return TernaryTable(size=size, one_idx=1, zero_idx=0, minus_one_idx=2, mul=tuple(mul))


def _parities(lam: int, k: int) -> int:
    """Bit v set when <lam, v> = 1, for every v of the k-bit space: each
    coordinate b doubles the pattern, the upper half flipped when lam has
    bit b, as level_masks does on bytes."""
    p = 0
    for b in range(k):
        w = 1 << b
        p |= (p ^ ((1 << w) - 1) if lam >> b & 1 else p) << w
    return p


def chain_char_to_table_char(c: FanChain, t: TernaryTable, h: ChainChar) -> Character:
    """A chain character as a character of the table built by chain_to_table:
    nonzero on slices 1..depth, a contiguous index range, and -1 where its
    functional, pulled back to the element's slice, is 1.

    Each slice's neg bits are the parity pattern of the pulled-back
    functional over the slice's vectors in ascending order (_parities);
    slice 1's pattern then moves the bit of minus_1 down to follow the
    bit of 0, as _slice_vectors orders that slice.  Raises ValueError
    for a table of another size, and for an h that is not a character
    of the chain: a depth off 1..n, a mask off the level's functionals,
    or a functional that does not send minus to 1.
    """
    if t.size != 1 + sum(1 << k for k in c.dims):
        raise ValueError(f"table has {t.size} elements, not the fan's")
    d, lam = h
    if not (1 <= d <= c.n and 0 <= lam < 1 << c.dims[d - 1]
            and (lam & c.minus[d - 1]).bit_count() & 1):
        raise ValueError(f"{h} is not a character of the chain")
    # slices depth, ..., 1, deepest first, each pattern above the next
    neg, width = _parities(lam, c.dims[d - 1]), 1 << c.dims[d - 1]
    for tau, k in zip(reversed(c.taus[:d - 1]), reversed(c.dims[:d - 1])):
        lam = gf2.pullback(lam, tau)
        neg = neg << (1 << k) | _parities(lam, k)
        width += 1 << k
    # slice 1 in table order: bit m = minus_1 moves to 1, bits 1..m - 1 up by one
    m = c.minus[0]
    neg = neg & ~((2 << m) - 2) | (neg >> m & 1) << 1 | (neg & (1 << m) - 2) << 1
    return Character(t, (2 << width) - 2, neg << 1)


def table_to_chain(t: TernaryTable, chars: tuple[Character, ...] | None = None) -> FanChain:
    chain, _ = table_to_chain_with_map(t, chars)
    return chain


def table_to_chain_with_map(t: TernaryTable, chars: tuple[Character, ...] | None = None,
                            ) -> tuple[FanChain, dict[SliceElement, int]]:
    """Extract the chain model of a fan table, read off its characters.

    Also returns the slice-wise correspondence sending each element of
    the rebuilt chain (as a SliceElement) to the original table element,
    which is the round-trip isomorphism onto t.

    Level d is the characters with the d-th smallest support, slice d
    that support minus the one before it.  An element's depth-d vector
    has bit i set when the i-th member of an affine basis of level d
    (ternary._affine_bases) sends it to -1.  So dims[d] is the basis
    size, every minus vector is all ones (a character sends -1 to -1),
    and column i of the transition from depth d is the depth-(d+1) vector
    of the slice-d element whose depth-d vector is the unit vector i.

    Why this is the fan's chain.  Characters are multiplicative, so the
    vectors of two elements of support d add up to that of their product,
    which lies in the deeper of their slices.  A character shallower than
    level d vanishes on slice d, and one deeper than it, g, pulls back to
    level d: g*h*h, for h of level d, is a character (triple closure)
    with h's support that agrees with g there.  So any character that
    separates two elements of slice d is matched by one of level d, an
    odd product of basis characters, and the depth-d vectors are
    injective on slice d.  The slices and the zero element partition the
    table (the largest support misses only 0), so when each slice fills
    its 2^dims[d] vectors, a count makes the correspondence a bijection.

    Raises NotAFanError when t fails the operative fan criterion, when a
    slice does not fill its vectors, or when the chain is invalid.
    """
    chars = require_fan(t, chars)
    bases = _affine_bases(t.size, chars)
    fmt = f"0{t.size}b"
    mapping: dict[SliceElement, int] = {ZERO_ELEMENT: t.zero_idx}
    dims: list[int] = []
    taus: list[tuple[int, ...]] = []
    units: list[int] = []       # the slice elements of the unit vectors, depth d - 1
    above = 0                   # the support of level d - 1
    for d, s in enumerate(sorted(bases, key=int.bit_count), start=1):
        basis = bases[s]
        k = len(basis)
        # row j: bit i set when basis member j sends the unit element i to -1
        if units:
            taus.append(tuple(sum((b >> x & 1) << i for i, x in enumerate(units))
                              for b in basis))
        # per element of the slice, its neg bits on the basis, member k - 1 first
        piece = s & ~above
        rows = [format(mask, fmt)[::-1] for mask in (piece, *reversed(basis))]
        at = {int("".join(col[1:]), 2): x for x, col in enumerate(zip(*rows)) if col[0] == "1"}
        size = piece.bit_count()
        if size != 1 << k or len(at) != size:
            raise NotAFanError(
                f"slice {d} has {size} elements on {len(at)} of its {1 << k} vectors", (d,))
        mapping.update((SliceElement(d, v), x) for v, x in at.items())
        dims.append(k)
        units = [at[1 << i] for i in range(k)]
        above = s

    chain = FanChain(tuple(dims), tuple((1 << k) - 1 for k in dims), tuple(taus))
    bad = validate_chain(chain)
    if bad:
        raise NotAFanError(f"extracted chain is invalid: {bad[0].message}", bad[0].witness)
    return chain, mapping


def roundtrip_isomorphism(t: TernaryTable,
                          chars: tuple[Character, ...] | None = None) -> dict[int, int]:
    """Explicit isomorphism chain_to_table(table_to_chain(t)) -> t.

    Returns new-index -> old-index and verifies it is a bijection
    preserving products and the three constants.  Characters are
    enumerated when not supplied.
    """
    chain, elem_map = table_to_chain_with_map(t, chars)
    rebuilt = chain_to_table(chain)
    elements = chain_elements(chain)
    iso = {i: elem_map[el] for i, el in enumerate(elements)}
    if sorted(iso.values()) != list(range(t.size)):
        raise NotAFanError("round-trip map is not a bijection", ())
    if (iso[rebuilt.one_idx] != t.one_idx or iso[rebuilt.zero_idx] != t.zero_idx
            or iso[rebuilt.minus_one_idx] != t.minus_one_idx):
        raise NotAFanError("round-trip map moves a constant", ())
    # row by row: iso[rebuilt.mul[x][y]] == t.mul[iso[x]][iso[y]] for all y
    old = [iso[i] for i in range(rebuilt.size)]
    image_of = itemgetter(*old)
    for x, row in enumerate(rebuilt.mul):
        image = t.mul[old[x]]
        if itemgetter(*row)(old) != image_of(image):
            y = next(y for y, v in enumerate(row) if old[v] != image[old[y]])
            raise NotAFanError("round-trip map does not preserve products", (x, y))
    return iso
