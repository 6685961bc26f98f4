"""Bit-packed GF(2) linear algebra.

Vectors are plain ints: bit i is coordinate i (little-endian).  A matrix
is a tuple of row masks acting on column vectors, so ``rows[i] & v`` has
odd popcount exactly when coordinate i of the image is 1.  Everything
here is pure and allocation-light; dimensions stay tiny (desk scale).
"""

from __future__ import annotations

from typing import Iterable, Iterator


def dot(a: int, b: int) -> int:
    """Parity of the coordinate-wise product of two vectors."""
    return (a & b).bit_count() & 1


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mat_vec(rows: tuple[int, ...], v: int) -> int:
    """Apply a row-mask matrix to a column vector."""
    out = 0
    for i, row in enumerate(rows):
        if (row & v).bit_count() & 1:
            out |= 1 << i
    return out


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of outer∘inner (apply inner first)."""
    return tuple(pullback(row, inner) for row in outer)


def pullback(lam: int, rows: tuple[int, ...]) -> int:
    """Functional composed with a matrix: mask of lam∘M.

    (lam∘M)(v) = lam(Mv); as masks this is the XOR of the rows of M
    selected by lam.
    """
    out = 0
    while lam:
        low = lam & -lam
        out ^= rows[low.bit_length() - 1]
        lam ^= low
    return out


def pullback_table(rows: tuple[int, ...]) -> list[int]:
    """pullback(lam, rows) for every functional lam on the len(rows)-bit
    space, indexed by lam: each row doubles the table, since the
    functionals with bit i set are those without it, shifted by row i."""
    table = [0]
    for row in rows:
        table += [m ^ row for m in table]
    return table


def identity_rows(k: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(k))


class Span:
    """Incrementally built linear span with echelon reduction by top bit."""

    def __init__(self, vectors: Iterable[int] = ()):
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        pivots = self._pivots
        while v:
            top = v.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v; True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def orthogonal(self, v: int) -> int:
        """The vector orthogonal to the span that agrees with v off the pivots.

        Back substitution: pivots are set by increasing top bit, each to
        the parity of its row on the lower coordinates, which are settled
        by then, so every row has even overlap with the result.  A pivot
        coordinate is fixed by the ones below it: orthogonal(1 << p) is 0
        exactly when p is a pivot.
        """
        for top in sorted(self._pivots):
            v &= ~(1 << top)
            if (self._pivots[top] & v).bit_count() & 1:
                v |= 1 << top
        return v


class Solver:
    """Span that tracks how each pivot was combined from the inserted vectors.

    ``solve(target)`` returns a mask over insertion indices whose XOR
    equals the target, or None when the target is outside the span.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}
        self._count = 0

    def add(self, v: int) -> bool:
        combo = 1 << self._count
        self._count += 1
        v, combo = self._reduce(v, combo)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = (v, combo)
        return True

    def _reduce(self, v: int, combo: int) -> tuple[int, int]:
        while v:
            top = v.bit_length() - 1
            hit = self._pivots.get(top)
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        return v, combo

    def solve(self, target: int) -> int | None:
        v, combo = self._reduce(target, 0)
        return None if v else combo


def rank(vectors: Iterable[int]) -> int:
    return Span(vectors).rank


def affine_span(masks: Iterable[int]) -> set[int]:
    """All XORs of an odd number of the given vectors.

    Equivalently the affine hull: base + linear span of the differences.
    """
    masks = list(masks)
    if not masks:
        return set()
    base = masks[0]
    span = Span(m ^ base for m in masks[1:])
    points = {0}
    for piv in span._pivots.values():
        points |= {p ^ piv for p in points}
    return {base ^ p for p in points}
