"""Finite ternary semigroups given by multiplication tables.

Elements are indices 0..m-1; sign values are the ints +1, 0, -1 (so the
ordinary int product is the sign product).  A character is a
multiplicative map into {+1, 0, -1} fixing the three constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, ne
from typing import NamedTuple

from . import gf2
from .errors import NotAFanError, ResourceLimitError, StructuralError

SIGNS = (1, 0, -1)

#: Largest table chain_to_table builds and enumerate_characters accepts.
#: The table is quadratic in it, and Light's test, which costs m^2 per
#: generator (the m^3 scan runs only on a table that fails it), is the
#: largest step: `fanforge validate` takes about 0.04 s at 513 elements,
#: 0.17 s at 1025 and 1.0 s at 2049 (4-level ladders of seed 0, fastest
#: of three runs, on a 2-vCPU Xeon VM with Python 3.11.7), within 52 MB;
#: the table itself, built and range-checked, takes 0.18 s of it at 2049,
#: half of that the range check.
MAX_TABLE_ELEMENTS = 2049

#: Most generators TernaryTable.closure_steps adds before it refuses the
#: table.  Light's test costs m^2 per generator, and the support search
#: and its equations grow with the generator count too, which
#: MAX_TABLE_ELEMENTS does not bound: a dimension-1 path of n levels
#: needs n + 2 generators.  The slowest table found within both bounds,
#: 2049 elements on dims 10, 9, ..., 5 and then sixteen 1s with rank-1
#: taus, needs 63 generators, and `fanforge validate` takes 1.7 s on it
#: within 55 MB.  `validate` and `suite` refuse a chain of more than 62
#: levels before building its table (chains.require_generator_bound):
#: a 1024-level path in 6 ms (same machine as above).  Real inputs need
#: far fewer: 17 for a 4x9 ladder, at most 14 in `fanforge suite --seed 0`.
MAX_TABLE_GENERATORS = 64


def generator_bound_error() -> ResourceLimitError:
    """The refusal of a table that needs more than MAX_TABLE_GENERATORS
    generators."""
    return ResourceLimitError(
        f"table needs more than {MAX_TABLE_GENERATORS} generators, "
        f"generator bound is {MAX_TABLE_GENERATORS}")


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
    """A multiplication table on the indices 0..size-1, each entry an int
    (a bool acts as 0 or 1); another number equal to an index, such as
    1.0, is refused."""

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
        indices = set(range(m))
        try:
            # the set check compares by value, so 1.0 passes it; a row of
            # ints sums to an int, and any other number makes the sum not one
            ok = (all(map(indices.issuperset, self.mul))
                  and {*map(type, map(sum, self.mul))} == {int})
        except TypeError:       # two kinds of number that do not add
            ok = False
        if not ok:
            # only now scan for the first bad entry in row order
            bad = next(v for row in self.mul for v in row
                       if v not in indices or not isinstance(v, int))
            raise StructuralError(f"product index {bad!r} out of range")

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
            if len(gens) == MAX_TABLE_GENERATORS:
                raise generator_bound_error()
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

        Each generator's test is one symmetry check.  Commutativity is
        checked first, as the table's own symmetry.  Then, for the matrix
        A_g whose row x is the row of x*g, A_g[x][y] = (x*g)*y and
        A_g[y][x] = (y*g)*x = x*(y*g) = x*(g*y), so g is in A exactly when
        A_g is symmetric.  A generator whose row is the identity (g*y = y)
        or constant at g (g*y = g) is in A without the check: given
        commutativity, both sides are x*y in the first case and g in the
        second.  On a fan table these are the rows of 1 and 0.  Both checks
        compare each row with a column that zip assembles in one reused
        tuple, so no row is allocated.
        """
        mul = self.mul
        if any(map(ne, zip(*mul), mul)):
            return False
        identity = tuple(range(self.size))
        for g in self.generators:
            row_g = mul[g]
            if row_g == identity or row_g.count(g) == self.size:
                continue
            a = list(map(mul.__getitem__, row_g))
            if any(map(ne, zip(*a), a)):
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
        if h.table is not t and h.table != t:
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

    Characters by linear algebra, one solve per support (Schwarz, "The
    theory of characters of finite commutative semigroups", Czechoslovak
    Math. J. 4, 1954; Clifford and Preston 1961).  Every
    element x has a word in the generators (t.closure_steps), which gives
    L(x), its set of letters, and P(x), the parity of each letter, a GF(2)
    vector with the generator of step k at bit k + 1.  A generator reached
    by a word before it is added (a constant, on a corrupted table) keeps
    that word's P, so P lives on the generators that are reached first as
    themselves, the free generators.  Raises ResourceLimitError over
    MAX_TABLE_ELEMENTS.

    Supports.  A depth-first search in the order of t.closure_steps puts
    each free generator in or out of the support (_support_search); the
    constants are fixed: 1 and -1 in, 0 out.  A leaf is a set F of
    elements, those whose letters are all in.

    Signs.  A character with support F is h(x) = (-1)^(s.P(x)) on F and 0
    off it, for a vector s on the free generators in F.  For each support
    one GF(2) elimination (gf2.Span, bit 0 the right-hand side) solves
        s.(P(y*g) ^ P(y) ^ P(g)) = 0  for every y in F and generator g in F,
        s.P(1) = 0 and s.P(-1) = 1,
    and the solutions are an affine space: one point plus one kernel
    vector per free coordinate.  Each solution's neg mask is an XOR of
    per-bit element masks, so a character costs O(1) big-int operations.
    Two constants on one index leave no support (1 = 0 or 0 = -1) or no
    solution (1 = -1, returned at once), so such a table has no character.

    Why a solution is a character on a commutative semigroup.  The 0/1
    map [x in F] is multiplicative (see _support_search), so y*g is in F
    exactly when y and g are, and h(y*g) = h(y)h(g) holds for every
    element y and generator g: both sides are 0 unless y and g are in F,
    and then it is the edge equation.  Then h(x*y) = h(x)h(y) for all x,
    y by induction on the word of y: for y = r*g,
        h(x*(r*g)) = h((x*r)*g) = h(x*r)h(g) = h(x)h(r)h(g) = h(x)h(y),
    and the constant equations give h(1) = 1 and h(-1) = -1.  Conversely,
    a character's support is a leaf, h(x) = (-1)^(s.P(x)) on it with s
    its signs on the free generators (induction on the word of x), and
    it satisfies every equation; distinct solutions differ at a free
    generator, so each character comes out once.  On a table that fails
    Light's test (TernaryTable.commutative_semigroup) the solutions still
    include every character, and one is kept only when h(x*y) = h(x)h(y)
    for every pair x, y.
    """
    m = t.size
    if m > MAX_TABLE_ELEMENTS:
        raise ResourceLimitError(
            f"table has {m} elements, table bound is {MAX_TABLE_ELEMENTS}")
    mul = t.mul
    steps = t.closure_steps
    if t.one_idx == t.minus_one_idx:
        return ()
    parity = [0] * m
    free: list[tuple[int, int]] = []    # (free generator, its bit)
    for k, (g, new, words) in enumerate(steps):
        if new[:1] == (g,):
            parity[g] = 2 << k
            free.append((g, 2 << k))
        for y, r, h in words:
            parity[y] = parity[r] ^ parity[h]
    # row b: the elements x with bit b of P(x) set, so that the neg mask
    # of signs s is the pullback of s through these rows
    columns = [0] * (len(steps) + 1)
    for x, p in enumerate(parity):
        for b in gf2.bits(p):
            columns[b] |= 1 << x

    # per generator g, the edge equation's vector for every element y,
    # from which each support gathers its own elements' entries (two or
    # more: every support holds 1 and -1)
    edges = []
    for g in t.generators:
        pg = parity[g]
        edges.append((g, [parity[row[g]] ^ p ^ pg for row, p in zip(mul, parity)]))

    found: list[Character] = []
    for inside in _support_search(t):
        support = sum(1 << x for x in inside)
        equations = {parity[t.one_idx], parity[t.minus_one_idx] | 1}
        gather = itemgetter(*inside)
        for g, edge in edges:
            if support >> g & 1:
                equations.update(gather(edge))
        span = gf2.Span(equations)
        point = span.orthogonal(1)
        if not point & 1:
            continue                    # 0 = 1 is a combination of the equations
        negs = [gf2.pullback(point, columns) & support]
        for g, bit in free:
            if support >> g & 1:
                kernel = span.orthogonal(bit)
                if kernel:              # bit is not a pivot: a free coordinate
                    step = gf2.pullback(kernel, columns) & support
                    negs += [n ^ step for n in negs]
        found += [Character(t, support, n) for n in negs]
    if not t.commutative_semigroup:
        found = [h for h in found if _multiplicative(mul, h.values)]
    found.sort(key=_value_order(m))
    return tuple(found)


def _support_search(t: TernaryTable) -> list[list[int]]:
    """The supports of t's characters, each as its elements in index order.

    Depth-first search that branches on the generators of t only, in the
    order of t.closure_steps, with each free generator in (1) or out (0)
    and the constants fixed: 1 and -1 in, 0 out.  When a step's generator
    gets its value, each element first reached in the step gets its value
    from its word, v(r*g) = v(r)v(g), and each new value v(y) is
    propagated through its products with the assigned generators and
    constants: v(y*g) = v(y)v(g) must hold for every generator g of the
    step or an earlier one, or the branch is pruned.  A character's
    support passes every check, so it is a leaf on any table.

    Why a leaf is multiplicative on a commutative semigroup.  Let S_k be
    the elements reached by step k, the subsemigroup generated by the
    generators up to step k's generator g.  By induction on k, v is
    multiplicative on S_k.  First, v(x*g') = v(x)v(g') for x in S_k and
    g' a generator up to g: it is checked when x is new in step k, and
    the induction gives it when x and g' lie in S_(k-1).  Otherwise x is
    in S_(k-1) and g' = g; write x = g1*...*gn with earlier generators gi:
        x*g = g*x = (...((g*g1)*g2)...)*gn,
    where each product is of an element p of S_k by some gi, checked
    when p is new and given by the induction when p is in S_(k-1), so
    v(x*g) = v(g)v(g1)...v(gn) = v(g)v(x).  Then v(x*y) = v(x)v(y) for
    x, y in S_k by induction on the word of y: for y = r*g',
        v(x*(r*g')) = v((x*r)*g') = v(x*r)v(g') = v(x)v(r)v(g') = v(x)v(y).
    """
    m, mul = t.size, t.mul
    # a constant has one choice, none when 0 shares an index with 1 or -1
    fixed: dict[int, tuple[int, ...]] = {}
    for idx, v in ((t.one_idx, 1), (t.zero_idx, 0), (t.minus_one_idx, 1)):
        fixed[idx] = (v,) if fixed.get(idx, (v,)) == (v,) else ()

    # Per step: the generator, its choices, whether the step reaches it
    # first, the words of its new elements, and per generator h so far a
    # check that v(y*h) = v(y)v(h) for every new element y: gathers of
    # the values at the products y*h, at the new elements y, and of zeros
    # at the products, compared whole (one index gathers a scalar on
    # every side).  A step with no new elements has nothing to check.
    plan = []
    gens: list[int] = []
    zeros = [0] * m
    for g, new, words in t.closure_steps:
        gens.append(g)
        checks = []
        if new:
            get_new = itemgetter(*new)
            for h in gens:
                get_p = itemgetter(*[mul[y][h] for y in new])
                checks.append((h, get_p, get_new, get_p(zeros)))
        plan.append((g, fixed.get(g, (1, 0)), new[:1] == (g,), words, checks))
    values = [0] * m
    found: list[list[int]] = []

    def search(k: int) -> None:
        if k == len(plan):
            found.append(list(itertools.compress(range(m), values)))
            return
        g, choices, fresh, words, checks = plan[k]
        for v in choices:
            if fresh:
                values[g] = v
            elif values[g] != v:
                continue
            for y, r, h in words:
                values[y] = values[r] & values[h]
            if all(get_p(values) == (get_new(values) if values[h] else zero)
                   for h, get_p, get_new, zero in checks):
                search(k + 1)

    search(0)
    del search  # the recursive closure is a reference cycle holding the table
    return found


def _multiplicative(mul: tuple[tuple[int, ...], ...], values: tuple[int, ...]) -> bool:
    return all([values[p] for p in mul[x]] == [values[x] * v for v in values]
               for x in range(len(mul)))


def _value_order(m: int):
    """Sort key for characters in value-vector order, read off the masks.

    Byte x of the key is 0x90, 0x91 or 0x92 for h(x) = -1, 0 or +1,
    element 0 most significant: the sum of 2 * '0'/'1' and '0'/'1' ASCII
    digit strings of the +1 and 0 masks, which never carries.  On the
    1024 characters of a 2049-element ladder it sorts in 0.02 s, where
    the value tuples take 0.5 s, a fifth of `fanforge validate` there.
    """
    fmt, full = f"0{m}b", (1 << m) - 1

    def key(h: Character) -> int:
        plus = format(h.support & ~h.neg, fmt)[::-1].encode()
        zero = format(full & ~h.support, fmt)[::-1].encode()
        return 2 * int.from_bytes(plus, "big") + int.from_bytes(zero, "big")
    return key


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
    """h lies in the closure of g, tested as h = h*h*g pointwise.

    On masks h*h*g has support h.support & g.support and neg g.neg cut
    to that support, since h.neg appears twice.
    """
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    s = h.support & g.support
    return (s, g.neg & s) == (h.support, h.neg)


def specializes_by_square_shift(g: Character, h: Character) -> bool:
    """Variant test h^2 = h*g.

    On masks h^2 is (h.support, 0) and h*g is (h.support & g.support,
    (h.neg ^ g.neg) cut to that support).
    """
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    s = h.support & g.support
    return (h.support, 0) == (s, (h.neg ^ g.neg) & s)


def specializes_by_units(g: Character, h: Character) -> bool:
    """Inclusion of the +1 fibers: h^-1[1] inside g^-1[1]."""
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    return h.support & ~h.neg & ~(g.support & ~g.neg) == 0


def specializes_by_nonnegative_part(g: Character, h: Character) -> bool:
    """Inclusion g^-1[{0,1}] inside h^-1[{0,1}]."""
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    return ~g.neg & h.neg == 0


def specializes_by_zero_sets(g: Character, h: Character) -> bool:
    """Zero-set containment plus agreement off the bigger zero-set."""
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    return h.support & ~g.support == 0 and (g.neg ^ h.neg) & h.support == 0


def zero_set_order(g: Character, h: Character) -> str:
    """Compare Z(g) and Z(h): 'subset', 'equal', 'superset' or 'incomparable'.

    Computed from the supports, the complements of the zero sets; the
    algebraic reading (h = h*g*g for containment, g^2 = h^2 for equality)
    is cross-checked by the tests, not on every call.
    """
    if g.table is not h.table and g.table != h.table:
        raise ValueError("characters live on different tables")
    if g.support == h.support:
        return "equal"
    if h.support & ~g.support == 0:
        return "subset"
    if g.support & ~h.support == 0:
        return "superset"
    return "incomparable"


def _support_chain(chars: list[Character] | tuple[Character, ...]) -> list[int] | None:
    """The distinct supports of chars, largest first, when they form a
    chain under inclusion; None otherwise."""
    supports = sorted({h.support for h in chars}, key=int.bit_count, reverse=True)
    if any(small & ~big for big, small in zip(supports, supports[1:])):
        return None
    return supports


def _closed_by_classes(chars: list[Character] | tuple[Character, ...]) -> bool:
    """True when every triple product of chars is in chars, by a test per
    support class; False when the supports are not a chain or a class
    fails its test.

    A support class is the set N of neg masks of the characters with one
    support s.  When the supports form a chain, the product of a, b and c
    has the smallest of their supports, s, and neg (a.neg ^ b.neg ^
    c.neg) cut to s, so it is in chars exactly when that XOR of cut negs
    lies in N.  The test, for every class:
      - N is an affine GF(2) space c + D, that is |N| = 2^rank(D) for D
        spanned by the n ^ c, n in N;
      - the neg of every character whose support contains s, cut to s,
        lies in N.
    It is sufficient: in a triple with smallest support s, one factor is
    in the class and the cut negs of the other two lie in N by the second
    part, and an affine space holds the XOR of any three of its points.
    It is necessary: three factors from the class need N closed under
    x ^ y ^ z, which makes it affine, and the triple (a, a, b) with a in
    the class and b above it needs b's cut neg in N.  So triple_closure
    runs its scan only when it lists a violation or the supports are not
    a chain.
    """
    supports = _support_chain(chars)
    if supports is None:
        return False
    classes: dict[int, set[int]] = {s: set() for s in supports}
    for h in chars:
        classes[h.support].add(h.neg)
    above: list[int] = []       # negs of the characters with a larger support
    for s in supports:
        negs = classes[s]
        c = min(negs)
        if len(negs) != 1 << gf2.Span(n ^ c for n in negs).rank:
            return False
        if any(n & s not in negs for n in above):
            return False
        above += negs
    return True


def triple_closure(chars: list[Character] | tuple[Character, ...]) -> list[Violation]:
    """One violation per multiset {a, b, c} of chars whose product is not in chars.

    The scan over the c^3/6 multisets runs only when the per-class test
    (_closed_by_classes) fails or the supports are not a chain, since
    otherwise it finds nothing.
    """
    if _closed_by_classes(chars):
        return []
    pool = {(h.support, h.neg) for h in chars}
    out: list[Violation] = []
    for a, b, c in itertools.combinations_with_replacement(chars, 3):
        s = a.support & b.support & c.support
        if (s, (a.neg ^ b.neg ^ c.neg) & s) not in pool:
            out.append(Violation(
                "triple-closure", "product of three characters is not a character",
                (a.values, b.values, c.values)))
    return out


def _affine_bases(m: int, chars: tuple[Character, ...]) -> dict[int, list[int]]:
    """Per support in first-seen order, the negs of an affine basis of its
    class: each character's neg that is affinely independent of the basis
    negs before it with the same support, that is, linearly independent
    with a coordinate 1 << m appended.  Every neg of the class is in the
    affine hull of its basis, the XOR of an odd number of basis negs, so
    each character of the class is the product of an odd number of basis
    characters (one support, negs added mod 2)."""
    spans: dict[int, gf2.Span] = {}
    bases: dict[int, list[int]] = {}
    lift = 1 << m
    for h in chars:
        if spans.setdefault(h.support, gf2.Span()).add(h.neg | lift):
            bases.setdefault(h.support, []).append(h.neg)
    return bases


def _separating_columns(m: int, chars: tuple[Character, ...]):
    """Per element x in index order, a column equal for x and y exactly
    when every character has h(x) = h(y).

    The column is x's support bit and its neg bits on the affine basis of
    every support class (_affine_bases): a character of the class is an
    odd product of basis characters, so two elements that agree on the
    basis agree on it.
    """
    masks = [mask for s, negs in _affine_bases(m, chars).items() for mask in (s, *negs)]
    if not masks:
        return [()] * m
    fmt = f"0{m}b"
    return zip(*[format(mask, fmt)[::-1] for mask in masks])


def fan_report(t: TernaryTable, chars: tuple[Character, ...] | None = None) -> list[Violation]:
    """Operative fan criterion: separation, triple closure, chained zero-sets.

    Empty report means t is accepted as a fan.  Characters are
    enumerated when not supplied.  Separation compares each element's
    column of character values (_separating_columns).  The zero sets are
    the complements of the supports, built once per distinct support in
    first-seen order.
    """
    if chars is None:
        chars = enumerate_characters(t)
    out: list[Violation] = []

    first: dict[tuple[str, ...], int] = {}
    for x, col in enumerate(_separating_columns(t.size, chars)):
        if col in first:
            out.append(Violation(
                "separation", f"no character separates {first[col]} and {x}",
                (first[col], x)))
        else:
            first[col] = x
    if not chars:
        return out + [Violation("separation", "table has no characters", ())]

    out += triple_closure(chars)

    full = (1 << t.size) - 1
    zsets = sorted({frozenset(gf2.bits(full & ~s))
                    for s in dict.fromkeys(h.support for h in chars)}, key=len)
    for small, big in zip(zsets, zsets[1:]):
        if not small < big:
            out.append(Violation(
                "zero-set-chain", "character zero-sets are not totally ordered",
                (tuple(sorted(small)), tuple(sorted(big)))))
    floor = tuple(sorted(zsets[0]))
    if floor != (t.zero_idx,):
        out.append(Violation(
            "zero-set-floor", "smallest character zero-set is not {0}", (floor,)))
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
