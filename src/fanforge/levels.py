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
table, one row per character.
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
    indep and target must lie on one level.
    """
    indep = tuple(indep)
    target = tuple(target)
    if not indep + target:
        return ()
    top = 1 << space.dim(_level_of(space, indep + target))
    span = gf2.Span()
    for h in indep:
        if not span.add(h.mask | top):
            raise ValueError("starting set is dependent")
    return indep + tuple(h for h in target if span.add(h.mask | top))


def basis_of(space: FanSpace, chars) -> tuple[ChainChar, ...]:
    return extend_basis(space, (), sorted(chars))


def dimension(space: FanSpace, chars) -> int:
    """Matroid dimension; a closed set of size 2^(s-1) has dimension s."""
    return len(basis_of(space, chars))


def kappa(space: FanSpace, d: int, e: int) -> dict[ChainChar, ChainChar]:
    """The successor map from level e down to level d (d <= e)."""
    if not 1 <= d <= e <= space.length:
        raise ValueError(f"need 1 <= d <= e <= {space.length}")
    return {g: space.successor(g, d) for g in space.level(e)}


@dataclass(frozen=True)
class InvolutionHandle:
    """Two characters and a target level with both zero-sets below it."""

    g1: ChainChar
    g2: ChainChar
    level: int

    def __post_init__(self):
        if self.level > min(self.g1.depth, self.g2.depth):
            raise ValueError(
                f"target level {self.level} above the handle characters "
                f"(depths {self.g1.depth}, {self.g2.depth})")


def translation_mask(space: FanSpace, g1: ChainChar, g2: ChainChar, d: int) -> int:
    """The shift by which h -> h*g1*g2 acts on level d functionals."""
    if not 1 <= d <= min(g1.depth, g2.depth):
        raise ValueError(f"no shift of a depth-{g1.depth}, depth-{g2.depth} pair at depth {d}")
    up = space.successor_masks
    return up[g1][d - 1] ^ up[g2][d - 1]


def involution(space: FanSpace, handle: InvolutionHandle, h: ChainChar) -> ChainChar:
    """Apply h -> h*g1*g2 on the handle's level."""
    if h.depth != handle.level:
        raise ValueError(f"character at depth {h.depth}, handle targets level {handle.level}")
    out = space.triple(h, handle.g1, handle.g2)
    if out.depth != handle.level:
        raise RuntimeError(f"involution left level {handle.level} for depth {out.depth}")
    return out


def _shift_checks(space: FanSpace, shifts: tuple[int, ...]
                  ) -> tuple[list[tuple[list[CheckResult], list[CheckResult]]], CheckResult]:
    """The checks of the involution family that read only the shifts.

    shifts[d - 1] is the translation on level d, for d = 1..dmin with
    dmin = len(shifts).  Per level d this gives the automorphism and
    self-inverse checks, then the S/C stratum-permutation checks for
    j = d..dmin; after the levels comes specialization-compat.

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
    for d, (reach, parent) in enumerate(space.level_links[:dmin], 1):
        shift = shifts[d - 1]
        moves = {(r, reach.get(m ^ shift, 0)) for m, r in reach.items()}
        head = [
            CheckResult(f"automorphism(level {d})", all(r2 for _, r2 in moves), (shift,)),
            CheckResult(f"involution(level {d})",
                        all((m ^ shift) ^ shift == m for m in reach), (shift,)),
        ]
        strata = []
        for j in range(d, dmin + 1):
            strata.append(CheckResult(
                f"stratum-permutation(S^{d}_{j})",
                not any(r >= j > r2 for r, r2 in moves), (shift,)))
            # C^d_j needs the handle to reach below index j as well (vacuous
            # when j is the full length): a depth-j handle can swap a j-deep
            # member with one reaching deeper.
            if j < dmin or j == space.length:
                strata.append(CheckResult(
                    f"stratum-permutation(C^{d}_{j})",
                    not any(r == j != r2 for r, r2 in moves), (shift,)))
        levels.append((head, strata))
        if d > 1 and not witness:
            for m, up in parent.items():
                if parent.get(m ^ shift) != up ^ shifts[d - 2]:
                    witness = (ChainChar(d, m), ChainChar(d - 1, up))
                    break
    return levels, CheckResult("specialization-compat", not witness, witness)


def _report_checks(space: FanSpace, g1: ChainChar, g2: ChainChar,
                   shifts: tuple[int, ...], shift_checks) -> list[CheckResult]:
    """One pair's checks in report order: the shift checks of each level
    with the pair's successor transport (and, for a common successor,
    its fixed-point check) after the level's first two."""
    levels, compat = shift_checks
    out = []
    for d, (head, strata) in enumerate(levels, 1):
        s1, s2 = space.successor(g1, d), space.successor(g2, d)
        shift = shifts[d - 1]
        out += head
        out.append(CheckResult(
            f"successor-transport(level {d})", s1.mask ^ shift == s2.mask, (s1, s2)))
        if s1 == s2:
            out.append(CheckResult(
                f"fixed-common-specialization(level {d})", shift == 0, (s1,)))
        out += strata
    out.append(compat)
    return out


def _shifts(space: FanSpace, g1: ChainChar, g2: ChainChar) -> tuple[int, ...]:
    """The translation_mask of each level d = 1..min depth, read off the
    two successor-mask rows at once."""
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
    check at all.
    """
    memo: dict[tuple[int, ...], tuple] = {}
    up = space.successor_masks
    for g1 in space.chars:
        for g2 in space.chars:
            shifts = _shifts(space, g1, g2)
            if shifts not in memo:
                checks = _shift_checks(space, shifts)
                levels, compat = checks
                memo[shifts] = (checks, compat.passed and all(
                    c.passed for head, strata in levels for c in head + strata))
            checks, ok = memo[shifts]
            if ok and all(m1 ^ m2 == s for m1, m2, s in zip(up[g1], up[g2], shifts)):
                continue
            for check in _report_checks(space, g1, g2, shifts, checks):
                if not check.passed:
                    yield g1, g2, check


def predecessor_fan(space: FanSpace, h: ChainChar) -> tuple[ChainChar, ...]:
    """Everything specializing to h; closed under triple products."""
    return space.predecessors(h)


def embed_predecessors(space: FanSpace, h1: ChainChar, h2: ChainChar, j: int,
                       u1: ChainChar | None = None, u2: ChainChar | None = None,
                       ) -> dict[ChainChar, ChainChar]:
    """Order-embedding of the predecessors of h1 into those of h2.

    Requires depth(h1) = depth(h2) = k with h1 in C^k_j and h2 in S^k_j.
    The map multiplies by a chosen depth-j predecessor of each; when not
    supplied these default to the least ones.  The image is exactly the
    depth <= j part of the predecessors of h2, so the map is onto them
    (an isomorphism) whenever h2 also lies in C^k_j.
    """
    k = h1.depth
    if h2.depth != k:
        raise ValueError("h1 and h2 must share a level")
    if space.deep(h1) != j:
        raise ValueError(f"h1 has predecessors down to depth {space.deep(h1)}, not exactly {j}")
    if space.deep(h2) < j:
        raise ValueError(f"h2 has no predecessor at depth {j}")

    def least_pred_at(h: ChainChar) -> ChainChar:
        cands = [g for g in space.predecessors(h) if g.depth == j]
        return min(cands)

    u1 = least_pred_at(h1) if u1 is None else u1
    u2 = least_pred_at(h2) if u2 is None else u2
    if not (space.specializes(u1, h1) and u1.depth == j):
        raise ValueError("u1 must be a depth-j predecessor of h1")
    if not (space.specializes(u2, h2) and u2.depth == j):
        raise ValueError("u2 must be a depth-j predecessor of h2")

    preds1 = space.predecessors(h1)
    preds2 = set(space.predecessors(h2))
    out = {g: space.triple(g, u1, u2) for g in preds1}
    if len(set(out.values())) != len(preds1):
        raise RuntimeError("predecessor embedding is not injective")
    if set(out.values()) != {u for u in preds2 if u.depth <= j}:
        raise RuntimeError(f"predecessor embedding misses the depth <= {j} predecessors of h2")
    return out
