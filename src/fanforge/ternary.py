"""Finite ternary semigroups given by multiplication tables.

Elements are indices 0..m-1; sign values are the ints +1, 0, -1 (so the
ordinary int product is the sign product).  A character is a
multiplicative map into {+1, 0, -1} fixing the three constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import ne
from typing import NamedTuple

from .errors import NotAFanError, ResourceLimitError, StructuralError

SIGNS = (1, 0, -1)

#: Largest table chain_to_table builds and enumerate_characters accepts.
#: The table is quadratic in it.  Light's test costs m^2 per generator
#: (the m^3 scan runs only on a table that fails it) and the triple
#: closure is cubic in the character count: `fanforge validate` at 513
#: elements takes about 2-2.5 s on a 2-vCPU Xeon, most of it in fan_report.
MAX_TABLE_ELEMENTS = 513


@dataclass(frozen=True)
class Violation:
    """One failed check: a stable code, a human line, and a witness tuple."""

    code: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return self.message


class ClosureStep(NamedTuple):
    """One generator's step in TernaryTable.closure_steps."""

    generator: int
    new: tuple[int, ...]    # elements first reached in this step, in order
    words: tuple[tuple[int, int, int], ...]  # (y, r, g): y = r*g for each new y but the generator


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

    @cached_property
    def closure_steps(self) -> tuple[ClosureStep, ...]:
        """How the generators reach every element, one step per generator.

        The generators are the constants 1, 0, -1, then each element not
        yet reached, in index order.  After each one is added, the reached
        set is closed under right multiplication by every generator so
        far, so each element is a generator or r*g with r reached before
        it and g a generator: a left-nested word in the generators.
        Costs m * |generators|.
        """
        mul = self.mul
        reached = bytearray(self.size)
        gens: list[int] = []
        elems: list[int] = []
        steps: list[ClosureStep] = []

        def add(g: int) -> None:
            gens.append(g)
            start = len(elems)
            words: list[tuple[int, int, int]] = []
            queue = [(x, g) for x in elems]
            if not reached[g]:
                reached[g] = 1
                elems.append(g)
                queue += [(g, h) for h in gens]
            while queue:
                r, h = queue.pop()
                y = mul[r][h]
                if not reached[y]:
                    reached[y] = 1
                    elems.append(y)
                    words.append((y, r, h))
                    queue += [(y, k) for k in gens]
            steps.append(ClosureStep(g, tuple(elems[start:]), tuple(words)))

        for g in dict.fromkeys((self.one_idx, self.zero_idx, self.minus_one_idx)):
            add(g)
        for g in range(self.size):
            if not reached[g]:
                add(g)
        return tuple(steps)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The generating set of closure_steps, constants first."""
        return tuple(step.generator for step in self.closure_steps)

    @cached_property
    def commutative_semigroup(self) -> bool:
        """True when the table is commutative and associative.

        Associativity is Light's test (Clifford and Preston, The Algebraic
        Theory of Semigroups I, 1961, section 1.2) on the generators:
        (x*g)*y == x*(g*y) for every generator g and all x, y, which costs
        m^2 * |generators| instead of m^3.

        Light's closure: the set A of elements a with (x*a)*y == x*(a*y)
        for all x, y is closed under products.  For a, b in A and any x, y,
            (x*(a*b))*y = ((x*a)*b)*y     (a in A, with x and b)
                        = (x*a)*(b*y)     (b in A, with x*a and y)
                        = x*(a*(b*y))     (a in A, with x and b*y)
                        = x*((a*b)*y)     (b in A, with a and y).
        Every element is a left-nested word in the generators (see
        closure_steps), so when every generator is in A, so is every element
        by induction on the word, and the table is associative.  The
        converse is immediate.
        """
        mul = self.mul
        # rows are compared as lists: a tuple per row would fill the
        # interpreter's small-tuple free lists on small tables
        if any(map(ne, map(list, zip(*mul)), map(list, mul))):
            return False
        for g in self.generators:
            row_g = mul[g]
            for rx in mul:
                # (x*g)*y for all y against x*(g*y) for all y
                if [*mul[rx[g]]] != [*map(rx.__getitem__, row_g)]:
                    return False
        return True


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
    a witness tuple of element indices.  Commutativity and the m^3
    associativity scan run only when Light's test on the generators
    (TernaryTable.commutative_semigroup) fails, since otherwise they
    find nothing.
    """
    out: list[Violation] = []
    m, mul = t.size, t.mul
    one, zero, minus = t.one_idx, t.zero_idx, t.minus_one_idx

    if not t.commutative_semigroup:
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

    Depth-first search that branches on the generators of t only, in the
    order of t.closure_steps, with h(1) = 1, h(0) = 0 and h(-1) = -1
    fixed.  When a step's generator gets its value, each element first
    reached in the step gets its value from its word, h(r*g) = h(r)h(g),
    and each new value h(y) is propagated through its products with the
    assigned generators and constants: h(y*g) = h(y)h(g) must hold for
    every generator g of the step or an earlier one, or the branch is
    pruned.  Raises ResourceLimitError over MAX_TABLE_ELEMENTS.

    Why a leaf is a character on a commutative semigroup.  Let S_k be
    the elements reached by step k, the subsemigroup generated by the
    generators up to step k's generator g.  By induction on k, h is
    multiplicative on S_k.  First, h(x*g') = h(x)h(g') for x in S_k and
    g' a generator up to g: it is checked when x is new in step k, and
    the induction gives it when x and g' lie in S_(k-1).  Otherwise x is
    in S_(k-1) and g' = g; write x = g1*...*gn with earlier generators gi:
        x*g = g*x = (...((g*g1)*g2)...)*gn,
    where each product is of an element p of S_k by some gi, checked
    when p is new and given by the induction when p is in S_(k-1), so
    h(x*g) = h(g)h(g1)...h(gn) = h(g)h(x).  Then h(x*y) = h(x)h(y) for
    x, y in S_k by induction on the word of y: for y = r*g',
        h(x*(r*g')) = h((x*r)*g') = h(x*r)h(g') = h(x)h(r)h(g') = h(x)h(y).
    On a table that fails Light's test (TernaryTable.commutative_semigroup)
    a leaf is kept only when h(x*y) = h(x)h(y) for every pair x, y.
    """
    m = t.size
    if m > MAX_TABLE_ELEMENTS:
        raise ResourceLimitError(
            f"table has {m} elements, table bound is {MAX_TABLE_ELEMENTS}")
    mul = t.mul
    # a constant has one choice, none when two constants share an index
    fixed: dict[int, tuple[int, ...]] = {}
    for idx, v in ((t.one_idx, 1), (t.zero_idx, 0), (t.minus_one_idx, -1)):
        fixed[idx] = (v,) if fixed.get(idx, (v,)) == (v,) else ()

    # Per step: the generator, its choices, whether the step reaches it
    # first, the words of its new elements, and per generator h so far
    # the products y*h of the new elements y.
    plan = []
    gens: list[int] = []
    for g, new, words in t.closure_steps:
        gens.append(g)
        checks = [(h, [mul[y][h] for y in new]) for h in gens]
        plan.append((g, fixed.get(g, SIGNS), new[:1] == (g,), words, new, checks))
    values = [0] * m
    found: list[tuple[int, ...]] = []
    leaves_are_characters = t.commutative_semigroup

    def multiplicative() -> bool:
        return all([values[p] for p in mul[x]] == [values[x] * v for v in values]
                   for x in range(m))

    def search(k: int) -> None:
        if k == len(plan):
            if leaves_are_characters or multiplicative():
                found.append(tuple(values))
            return
        g, choices, fresh, words, new, checks = plan[k]
        for v in choices:
            if fresh:
                values[g] = v
            elif values[g] != v:
                continue
            for y, r, h in words:
                values[y] = values[r] * values[h]
            if all([values[p] for p in products] == [values[y] * values[h] for y in new]
                   for h, products in checks):
                search(k + 1)

    search(0)
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
