"""Finite ternary semigroups given by multiplication tables.

Elements are indices 0..m-1; sign values are the ints +1, 0, -1 (so the
ordinary int product is the sign product).  A character is a
multiplicative map into {+1, 0, -1} fixing the three constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotAFanError, ResourceLimitError, StructuralError

SIGNS = (1, 0, -1)

#: Largest table chain_to_table builds and enumerate_characters accepts.
#: The table is quadratic in it, the axiom check and enumeration cubic:
#: `fanforge validate` at 513 elements takes about 15 s on a 2-vCPU Xeon.
MAX_TABLE_ELEMENTS = 513


@dataclass(frozen=True)
class Violation:
    """One failed check: a stable code, a human line, and a witness tuple."""

    code: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class TernaryTable:
    size: int
    one_idx: int
    zero_idx: int
    minus_one_idx: int
    mul: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.size
        if m <= 0:
            raise StructuralError("table size must be positive")
        for name in ("one_idx", "zero_idx", "minus_one_idx"):
            idx = getattr(self, name)
            if not 0 <= idx < m:
                raise StructuralError(f"{name}={idx} out of range for size {m}")
        if len(self.mul) != m or any(len(row) != m for row in self.mul):
            raise StructuralError("mul table is not size x size")
        for row in self.mul:
            for v in row:
                if not 0 <= v < m:
                    raise StructuralError(f"product index {v} out of range")


def sign3_table() -> TernaryTable:
    """The three-element table on {0, 1, -1} itself (indices 0, 1, 2)."""
    elems = (0, 1, -1)
    index = {0: 0, 1: 1, -1: 2}
    mul = tuple(tuple(index[a * b] for b in elems) for a in elems)
    return TernaryTable(size=3, one_idx=1, zero_idx=0, minus_one_idx=2, mul=mul)


@dataclass(frozen=True)
class Character:
    """A homomorphism into {+1, 0, -1}, stored as two masks over the elements:
    bit x of support is set when h(x) != 0, bit x of neg when h(x) = -1."""

    table: TernaryTable
    support: int
    neg: int

    @classmethod
    def from_values(cls, table: TernaryTable, values: tuple[int, ...] | list[int]) -> Character:
        if len(values) != table.size or any(v not in SIGNS for v in values):
            raise ValueError(f"need {table.size} values in {{1, 0, -1}}")
        return cls(table, sum(1 << x for x, v in enumerate(values) if v),
                   sum(1 << x for x, v in enumerate(values) if v < 0))

    @property
    def values(self) -> tuple[int, ...]:
        s, n = self.support, self.neg
        return tuple([-1 if n >> x & 1 else s >> x & 1 for x in range(self.table.size)])

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.table.size:
            raise IndexError(f"element {x} out of range for size {self.table.size}")
        return -1 if self.neg >> x & 1 else self.support >> x & 1

    def zero_set(self) -> frozenset[int]:
        return frozenset(x for x in range(self.table.size) if not self.support >> x & 1)


def _require_same_table(*chars: Character) -> TernaryTable:
    if not chars:
        raise ValueError("need at least one character")
    t = chars[0].table
    for h in chars[1:]:
        if h.table != t:
            raise ValueError("characters live on different tables")
    return t


def _product(chars: list[Character] | tuple[Character, ...]) -> Character:
    """Coordinate-wise sign product: supports meet, negative signs add mod 2."""
    t = _require_same_table(*chars)
    support, neg = -1, 0
    for h in chars:
        support &= h.support
        neg ^= h.neg
    return Character(t, support, neg & support)


def validate_table(t: TernaryTable) -> list[Violation]:
    """Check the ternary-semigroup axioms; empty report means valid.

    Structural defects (bad indices) raise StructuralError from the
    constructor instead; this only reports axiom violations, each with
    a witness tuple of element indices.
    """
    out: list[Violation] = []
    m, mul = t.size, t.mul
    one, zero, minus = t.one_idx, t.zero_idx, t.minus_one_idx

    for x in range(m):
        for y in range(x + 1, m):
            if mul[x][y] != mul[y][x]:
                out.append(Violation("commutativity", f"{x}*{y} != {y}*{x}", (x, y)))
    rows = mul
    for x in range(m):
        rx = rows[x]
        for y in range(m):
            rxy = rows[rx[y]]
            ry = rows[y]
            for z in range(m):
                if rxy[z] != rx[ry[z]]:
                    out.append(Violation(
                        "associativity", f"({x}*{y})*{z} != {x}*({y}*{z})", (x, y, z)))
    for x in range(m):
        if mul[one][x] != x:
            out.append(Violation("identity", f"1*{x} != {x}", (x,)))
        if mul[zero][x] != zero:
            out.append(Violation("absorption", f"0*{x} != 0", (x,)))
        xx = mul[x][x]
        if mul[xx][x] != x:
            out.append(Violation("cube", f"{x}^3 != {x}", (x,)))
        if mul[minus][x] == x and x != zero:
            out.append(Violation("minus-fixes", f"(-1)*{x} = {x} but {x} != 0", (x,)))
    if mul[minus][minus] != one:
        out.append(Violation("minus-square", "(-1)*(-1) != 1", (minus,)))
    if one == minus:
        out.append(Violation("one-minus-distinct", "1 = -1", (one,)))
    return out


def enumerate_characters(t: TernaryTable) -> tuple[Character, ...]:
    """All characters of t, sorted by value vector.

    Depth-first assignment in element-index order; every assignment is
    propagated through the table immediately, so products of known
    elements are forced and contradictions prune the branch.  Raises
    ResourceLimitError over MAX_TABLE_ELEMENTS.
    """
    m = t.size
    if m > MAX_TABLE_ELEMENTS:
        raise ResourceLimitError(
            f"table has {m} elements, table bound is {MAX_TABLE_ELEMENTS}")
    mul = t.mul
    values: list[int | None] = [None] * m
    known: list[int] = []
    found: list[tuple[int, ...]] = []

    def assign(x: int, v: int, trail: list[int]) -> bool:
        # Returns False on contradiction; trail records indices to undo.
        queue = [(x, v)]
        while queue:
            y, w = queue.pop()
            cur = values[y]
            if cur is not None:
                if cur != w:
                    return False
                continue
            values[y] = w
            known.append(y)
            trail.append(y)
            for z in known:
                p = mul[y][z]
                pv = w * values[z]  # type: ignore[operator]
                queue.append((p, pv))
        return True

    def undo(trail: list[int]) -> None:
        for y in trail:
            values[y] = None
            known.pop()

    def search() -> None:
        for x in range(m):
            if values[x] is None:
                for v in SIGNS:
                    trail: list[int] = []
                    if assign(x, v, trail):
                        search()
                    undo(trail)
                return
        found.append(tuple(values))  # type: ignore[arg-type]

    trail0: list[int] = []
    ok = (assign(t.one_idx, 1, trail0)
          and assign(t.minus_one_idx, -1, trail0)
          and assign(t.zero_idx, 0, trail0))
    if ok:
        search()
    undo(trail0)
    del search  # the recursive closure is a reference cycle holding the table
    return tuple(Character.from_values(t, vals) for vals in sorted(found))


def pointwise_product(chars: list[Character] | tuple[Character, ...]) -> tuple[int, ...]:
    """Coordinate-wise sign product of value vectors (not always a character)."""
    return _product(chars).values


def odd_product(chars: list[Character] | tuple[Character, ...]) -> Character:
    """Product of an odd number of characters (again a character on fans)."""
    if len(chars) % 2 == 0:
        raise ValueError("need an odd number of factors")
    return _product(chars)


def triple_product(h1: Character, h2: Character, h3: Character) -> Character:
    return odd_product((h1, h2, h3))


def specializes(g: Character, h: Character) -> bool:
    """h lies in the closure of g, tested as h = h*h*g pointwise."""
    return _product((h, h, g)) == h


def specializes_by_square_shift(g: Character, h: Character) -> bool:
    """Variant test h^2 = h*g."""
    return _product((h, h)) == _product((h, g))


def specializes_by_units(g: Character, h: Character) -> bool:
    """Inclusion of the +1 fibers: h^-1[1] inside g^-1[1]."""
    _require_same_table(g, h)
    return h.support & ~h.neg & ~(g.support & ~g.neg) == 0


def specializes_by_nonnegative_part(g: Character, h: Character) -> bool:
    """Inclusion g^-1[{0,1}] inside h^-1[{0,1}]."""
    _require_same_table(g, h)
    return ~g.neg & h.neg == 0


def specializes_by_zero_sets(g: Character, h: Character) -> bool:
    """Zero-set containment plus agreement off the bigger zero-set."""
    _require_same_table(g, h)
    return h.support & ~g.support == 0 and (g.neg ^ h.neg) & h.support == 0


def zero_set_order(g: Character, h: Character) -> str:
    """Compare Z(g) and Z(h): 'subset', 'equal', 'superset' or 'incomparable'.

    Computed from the supports, the complements of the zero sets; the
    algebraic reading (h = h*g*g for containment, g^2 = h^2 for equality)
    is cross-checked by the tests, not on every call.
    """
    _require_same_table(g, h)
    if g.support == h.support:
        return "equal"
    if h.support & ~g.support == 0:
        return "subset"
    if g.support & ~h.support == 0:
        return "superset"
    return "incomparable"


def triple_closure(chars: list[Character] | tuple[Character, ...]) -> list[Violation]:
    """One violation per multiset {a, b, c} of chars whose product is not in chars."""
    pool = {(h.support, h.neg) for h in chars}
    out: list[Violation] = []
    for a, b, c in itertools.combinations_with_replacement(chars, 3):
        s = a.support & b.support & c.support
        if (s, (a.neg ^ b.neg ^ c.neg) & s) not in pool:
            out.append(Violation(
                "triple-closure", "product of three characters is not a character",
                (a.values, b.values, c.values)))
    return out


def fan_report(t: TernaryTable, chars: tuple[Character, ...] | None = None) -> list[Violation]:
    """Operative fan criterion: separation, triple closure, chained zero-sets.

    Empty report means t is accepted as a fan.  Characters are
    enumerated when not supplied.
    """
    if chars is None:
        chars = enumerate_characters(t)
    out: list[Violation] = []

    columns: dict[tuple[int, ...], int] = {}
    for x in range(t.size):
        col = tuple([h(x) for h in chars])
        if col in columns:
            out.append(Violation(
                "separation", f"no character separates {columns[col]} and {x}",
                (columns[col], x)))
        else:
            columns[col] = x

    out += triple_closure(chars)

    zsets = sorted({h.zero_set() for h in chars}, key=len)
    for small, big in zip(zsets, zsets[1:]):
        if not small < big:
            out.append(Violation(
                "zero-set-chain", "character zero-sets are not totally ordered",
                (tuple(sorted(small)), tuple(sorted(big)))))
    if chars and zsets and zsets[0] != frozenset({t.zero_idx}):
        out.append(Violation(
            "zero-set-floor", "smallest character zero-set is not {0}",
            (tuple(sorted(zsets[0])),)))
    if not chars:
        out.append(Violation("separation", "table has no characters", ()))
    return out


def require_fan(t: TernaryTable, chars: tuple[Character, ...] | None = None) -> tuple[Character, ...]:
    """Return the characters of t, raising NotAFanError with a witness otherwise."""
    if chars is None:
        chars = enumerate_characters(t)
    report = fan_report(t, chars)
    if report:
        first = report[0]
        raise NotAFanError(f"not a fan: {first.message}", first.witness)
    return chars
