"""Combinatorial geometry of levels and their product involutions.

Each level of a fan is an affine set of GF(2) functionals (those
sending the marked minus vector to 1).  Dependence of same-level
characters is the functional identity g = g1*...*gr with r odd, which
over GF(2) is linear dependence of the homogenized masks; all the basis
machinery reduces to elimination on those vectors.

Multiplying a level by two fixed characters of deeper zero-set is a
translation, hence an involution of the level.  verify_involution
checks the full property suite of that family on a concrete space.
All of it but successor transport and the fixed common specialization
reads only the tuple of shifts over levels 1..dmin, and many pairs
share a tuple, so involution_failures, which sweeps every pair of a
space, checks each distinct tuple once and adds each pair's own two
comparisons.  Both read a pair's shifts off the space's successor-mask
table, one row per character.  involutions_hold decides whether the
whole family holds from the tuples of a basis of each shift group.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import xor

from . import gf2
from .chains import ChainChar
from .spectral import FanSpace


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple = ()


@dataclass
class PropertyReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: tuple = ()) -> None:
        self.checks.append(CheckResult(name, passed, witness))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _level_of(space: FanSpace, chars) -> int:
    chars = tuple(chars)
    if not chars:
        raise ValueError("need at least one character")
    d = chars[0].depth
    if any(h.depth != d for h in chars):
        raise ValueError("characters come from mixed depths")
    return d


def _homogenized(space: FanSpace, chars) -> list[int]:
    d = _level_of(space, chars)
    k = space.dim(d)
    return [h.mask | (1 << k) for h in chars]


def is_dependent(space: FanSpace, chars) -> bool:
    """True when some member is a product of other (odd many) members."""
    chars = tuple(chars)
    if not chars:
        return False
    vectors = _homogenized(space, chars)
    return gf2.rank(vectors) < len(vectors)


def closure(space: FanSpace, chars) -> tuple[ChainChar, ...]:
    """All products of an odd number of members (the closed hull)."""
    chars = tuple(chars)
    if not chars:
        return ()
    d = _level_of(space, chars)
    masks = gf2.affine_span(h.mask for h in chars)
    return tuple(ChainChar(d, m) for m in sorted(masks))


def extend_basis(space: FanSpace, indep, target) -> tuple[ChainChar, ...]:
    """Grow an independent set to a basis of the span of indep plus target.

    Candidates are scanned in the order target gives them.  All of
    indep and target must lie on one level, as characters of the space.
    The scan stops once the set has the level's dimension k: a depth-d
    character m has m.minus_d = 1, the top bit of its homogenized mask
    m | 2^k, so every such mask v has v.(minus_d | 2^k) = 0 and they all
    lie in one k-dimensional subspace, which k independent members span.
    """
    indep = tuple(indep)
    target = tuple(target)
    if not indep + target:
        return ()
    dim = space.dim(_level_of(space, indep + target))
    top = 1 << dim
    span = gf2.Span()
    for h in indep:
        if not span.add(h.mask | top):
            raise ValueError("starting set is dependent")
    out = list(indep)
    if len(out) < dim:
        for h in target:
            if span.add(h.mask | top):
                out.append(h)
                if len(out) == dim:
                    break
    return tuple(out)


def basis_of(space: FanSpace, chars) -> tuple[ChainChar, ...]:
    return extend_basis(space, (), sorted(chars))


def dimension(space: FanSpace, chars) -> int:
    """Matroid dimension; a closed set of size 2^(s-1) has dimension s."""
    return len(basis_of(space, chars))


def _shift_checks(space: FanSpace, shifts: tuple[int, ...]
                  ) -> tuple[list[tuple[bool, bool, list[tuple[bool, bool | None]]]], tuple, bool]:
    """The verdicts of the involution family's checks that read only the shifts.

    shifts[d - 1] is the translation on level d, for d = 1..dmin with
    dmin = len(shifts).  Per level d this gives the automorphism and
    self-inverse verdicts, then per j = d..dmin the S^d_j verdict and
    the C^d_j verdict, None where that check does not apply; after the
    levels come the specialization-compat witness, () when it passes,
    and whether every one of these checks passes.  No check is named
    here: _report_checks turns the verdicts into CheckResults.

    The map is a translation of an affine GF(2) set: it preserves
    same-level triple products when it maps the level onto itself, and
    it maps a finite set onto itself exactly when no image leaves it.
    So the pairs (reach of h, reach of its image), with 0 for an image
    off the level, decide the automorphism and every S^d_j (reach >= j)
    and C^d_j (reach == j) check from one read of each level.

    Compatibility with each character's parent edge implies
    compatibility with specialization between every level pair d' <= d;
    a failure's witness is (h1, parent of h1) for the first failing h1
    in node order, also the first to fail any of its successors.  Reaches
    and parents come from the space's per-level maps, built once per space.
    """
    dmin = len(shifts)
    levels = []
    witness: tuple = ()
    passed = True
    for d, (reach, parent) in enumerate(space.level_links[:dmin], 1):
        shift = shifts[d - 1]
        moves = {(r, reach.get(m ^ shift, 0)) for m, r in reach.items()}
        automorphism = all(r2 for _, r2 in moves)
        involution = all((m ^ shift) ^ shift == m for m in reach)
        passed = passed and automorphism and involution
        strata = []
        for j in range(d, dmin + 1):
            s_ok = not any(r >= j > r2 for r, r2 in moves)
            # C^d_j needs the handle to reach below index j as well (vacuous
            # when j is the full length): a depth-j handle can swap a j-deep
            # member with one reaching deeper.
            c_ok = (not any(r == j != r2 for r, r2 in moves)
                    if j < dmin or j == space.length else None)
            strata.append((s_ok, c_ok))
            passed = passed and s_ok and c_ok is not False
        levels.append((automorphism, involution, strata))
        if d > 1 and not witness:
            for m, up in parent.items():
                if parent.get(m ^ shift) != up ^ shifts[d - 2]:
                    witness = (ChainChar(d, m), ChainChar(d - 1, up))
                    break
    return levels, witness, passed and not witness


def _report_checks(space: FanSpace, g1: ChainChar, g2: ChainChar,
                   shifts: tuple[int, ...], shift_checks) -> list[CheckResult]:
    """One pair's checks in report order: the shift checks of each level
    with the pair's successor transport (and, for a common successor,
    its fixed-point check) after the level's first two."""
    levels, witness, _ = shift_checks
    out = []
    for d, (automorphism, involution, strata) in enumerate(levels, 1):
        s1, s2 = space.successor(g1, d), space.successor(g2, d)
        shift = shifts[d - 1]
        out.append(CheckResult(f"automorphism(level {d})", automorphism, (shift,)))
        out.append(CheckResult(f"involution(level {d})", involution, (shift,)))
        out.append(CheckResult(
            f"successor-transport(level {d})", s1.mask ^ shift == s2.mask, (s1, s2)))
        if s1 == s2:
            out.append(CheckResult(
                f"fixed-common-specialization(level {d})", shift == 0, (s1,)))
        for j, (s_ok, c_ok) in enumerate(strata, d):
            out.append(CheckResult(f"stratum-permutation(S^{d}_{j})", s_ok, (shift,)))
            if c_ok is not None:
                out.append(CheckResult(f"stratum-permutation(C^{d}_{j})", c_ok, (shift,)))
    out.append(CheckResult("specialization-compat", not witness, witness))
    return out


def _shifts(space: FanSpace, g1: ChainChar, g2: ChainChar) -> tuple[int, ...]:
    """The shift by which h -> h*g1*g2 acts on each level d = 1..min
    depth, read off the two successor-mask rows at once."""
    up = space.successor_masks
    return tuple(map(xor, up[g1], up[g2]))


def verify_involution(space: FanSpace, g1: ChainChar, g2: ChainChar) -> PropertyReport:
    """Check the whole involution family of a character pair.

    Per admissible level d (at or above both zero-sets): level
    automorphism, self-inverse, successor transport g1 -> g2, fixed
    common specializations, and permutation of every stratum; then
    compatibility with specialization (see _shift_checks).  All but
    the transport and fixed-point checks depend only on the shifts.
    """
    shifts = _shifts(space, g1, g2)
    return PropertyReport(_report_checks(space, g1, g2, shifts, _shift_checks(space, shifts)))


def involution_failures(space: FanSpace) -> Iterator[tuple[ChainChar, ChainChar, CheckResult]]:
    """(g1, g2, check) for every failing check of verify_involution over
    the ordered pairs of space.chars, in pair order then report order.

    The shift checks run once per distinct shift tuple.  A pair's own
    checks all pass exactly when each level's shift is the quotient of
    its two successors there; a pair whose tuple also passed builds no
    check at all, and only a failing pair's verdicts become CheckResults.
    """
    memo: dict[tuple[int, ...], tuple] = {}
    up = space.successor_masks
    for g1 in space.chars:
        row = up[g1]
        for g2 in space.chars:
            shifts = _shifts(space, g1, g2)
            checks = memo.get(shifts)
            if checks is None:
                checks = memo[shifts] = _shift_checks(space, shifts)
            if checks[2] and shifts == tuple(map(xor, row, up[g2])):
                continue
            for check in _report_checks(space, g1, g2, shifts, checks):
                if not check.passed:
                    yield g1, g2, check


def involutions_hold(space: FanSpace) -> bool:
    """True exactly when involution_failures(space) yields nothing.

    Per level d, _shift_checks runs only on the tuples of a basis: the
    members h whose h.mask ^ h0.mask, h0 the level's first member, one
    Span pass keeps, each tuple read as the XOR of the successor-mask
    rows of h and h0.  The level's masks all send minus_d to 1, so
    their differences lie in a subspace of dimension dim(d) - 1 and the
    pass stops once it keeps that many.

    Why this decides the family.  A pair's own checks always pass:
    each level's shift is the XOR of the pair's successors there, so
    successor transport holds, and a common successor makes the shift
    0.  So the family holds exactly when every pair's shift tuple
    passes _shift_checks.  Fix dmin, the smaller depth of a pair.
    - The tuples of length dmin that pass form a subgroup.  The
      self-inverse check always holds.  The automorphism and every S/C
      stratum check ask that a translation map a set into itself, which
      for a finite set is onto itself: the stabiliser of a set under
      translations is a subgroup.  The parent-edge check asks that
      parent(m ^ s_d) = parent(m) ^ s_(d-1) for every member m of level
      d; if two tuples pass, applying one after the other shows that
      their XOR passes, and the zero tuple passes.
    - A pair's tuple is L(a1.mask ^ a2.mask), where a1 and a2 are the
      pair's successors at dmin and L sends a depth-dmin functional to
      its composite pullbacks to depths 1..dmin, which is linear (a
      parent is the pullback along one transition).  a1.mask ^ a2.mask
      is (a1.mask ^ h0.mask) ^ (a2.mask ^ h0.mask), in the span of the
      kept differences, so every pair's tuple is an XOR of basis
      tuples, and it passes when they all do.  Conversely each basis
      tuple is the tuple of the pair (h, h0).
    """
    up = space.successor_masks
    for d in range(1, space.length + 1):
        h0, *rest = space.level(d)
        base = up[h0]
        need = space.dim(d) - 1
        span = gf2.Span()
        for h in rest:
            if need == 0:
                break
            if span.add(h.mask ^ h0.mask):
                need -= 1
                if not _shift_checks(space, tuple(map(xor, up[h], base)))[2]:
                    return False
    return True
