"""Verdict checkers for the decision benchmark.

Each checker takes the exit code and captured standard output of one
``fanforge`` command and returns None when the verdict is the known
answer, or a one-line reason otherwise.  The isomorphism certificate is
linear per level and does not call back into the library, so it stays
independent of the verifier under test.
"""

from __future__ import annotations

import re

from inputs import Chain, ForestData, forest_text, rank, strata_sets


def expect_code(rc, want: int) -> str | None:
    if isinstance(rc, BaseException):
        return f"raised {type(rc).__name__}: {rc}"
    if rc != want:
        return f"exit code {rc}, expected {want}"
    return None


def exact(rc, out: str, code: int, want: str) -> str | None:
    return expect_code(rc, code) or (None if out == want else f"output {out[:120]!r}")


def check_valid(rc, out: str, chain: Chain) -> str | None:
    """`validate` on a valid chain: the full table route and both counts."""
    return exact(rc, out, 0, f"valid fan: {chain.char_count()} characters on "
                             f"{chain.element_count()} elements\n")


def check_broken(rc, out: str, depth: int) -> str | None:
    """`validate` on a chain whose depth-`depth` transition drops minus."""
    return exact(rc, out, 1, f"tau at depth {depth} does not send -1 to -1\n")


_SECTION_OK = re.compile(r"^[a-z][a-z-]*: ok$")


def check_suite(rc, out: str, fans: int, sections: int = 11) -> str | None:
    bad = expect_code(rc, 0)
    if bad:
        return bad
    lines = out.splitlines()
    if not lines or lines[0] != f"suite over {fans} fans":
        return f"header {lines[:1]!r}"
    if len(lines) != 1 + sections or not all(_SECTION_OK.match(ln) for ln in lines[1:]):
        return f"sections {lines[1:4]!r}"
    return None


def check_rejected(rc, out: str) -> str | None:
    bad = expect_code(rc, 1)
    if bad:
        return bad
    if not out.startswith("not isomorphic: specialization orders differ\n"):
        return f"output {out[:120]!r}"
    return None


_MAP_LINE = re.compile(r"^depth (\d+): ([01]+) -> ([01]+)$")


def _mask(bitstr: str) -> int:
    return sum(1 << i for i, ch in enumerate(bitstr) if ch == "1")


def _affine(pairs: list[tuple[int, int]]) -> bool:
    """Whether x -> y is the restriction of an affine map, in O(len * dim).

    Differences from the first point are reduced against an echelon basis
    with their images carried along; a difference that reduces to zero must
    carry an image that reduces to zero.
    """
    x0, y0 = pairs[0]
    basis: dict[int, tuple[int, int]] = {}
    for x, y in pairs[1:]:
        v, w = x ^ x0, y ^ y0
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = (v, w)
                break
            bv, bw = basis[top]
            v ^= bv
            w ^= bw
        else:
            if w:
                return False
    return True


def iso_certificate(out: str, a: Chain, b: Chain) -> str | None:
    """Check a printed map A -> B: per level a bijection onto the level of B,
    affine, and commuting with parent edges."""
    image: dict[tuple[int, int], int] = {}
    for ln in out.splitlines():
        m = _MAP_LINE.match(ln)
        if not m:
            return f"bad map line {ln[:80]!r}"
        d = int(m.group(1))
        if not 1 <= d <= a.n or (len(m.group(2)), len(m.group(3))) != (a.dims[d - 1],
                                                                         b.dims[d - 1]):
            return f"map line out of shape {ln[:80]!r}"
        key = (d, _mask(m.group(2)))
        if key in image:
            return f"character mapped twice {ln[:80]!r}"
        image[key] = _mask(m.group(3))
    for d in range(1, a.n + 1):
        src = a.level(d)
        if any((d, lam) not in image for lam in src) or len(image) < len(src):
            return f"map is not total on level {d}"
        imgs = [image[(d, lam)] for lam in src]
        if set(imgs) != set(b.level(d)) or len(set(imgs)) != len(imgs):
            return f"map is not a bijection on level {d}"
        if not _affine(list(zip(src, imgs))):
            return f"map is not affine on level {d}"
        if d > 1:
            for lam in src:
                if b.parent(d, image[(d, lam)]) != image[(d - 1, a.parent(d, lam))]:
                    return f"map does not commute with the parent of d{d}:{lam}"
    if len(image) != a.char_count():
        return "map has characters outside the source"
    return None


def check_iso_map(rc, out: str, a: Chain, b: Chain) -> str | None:
    return expect_code(rc, 0) or iso_certificate(out, a, b)


def check_clean_forest(rc, out: str) -> str | None:
    return exact(rc, out, 0, "no violations found\n")


_RC1 = re.compile(r"^RC1 violated: card\(S\^(\d+)_(\d+)\)=(\d+) not a power of 2$")
_RC3 = re.compile(r"^RC3 violated: card\((?:L_(\d+)|S\^(\d+)_(\d+))\(K(\d+)\)\)=(\d+) != "
                  r"card\((?:L_\d+|S\^\d+_\d+)\(K(\d+)\)\)=(\d+)$")
_RC4 = re.compile(r"^RC4 violated: K(\d+) is not order-isomorphic to K(\d+) "
                  r"truncated at depth \d+$")


def witnesses(out: str) -> set[tuple]:
    """The (code, *witness) tuples readable from `check-forest` output."""
    found: set[tuple] = set()
    for ln in out.splitlines():
        if m := _RC1.match(ln):
            found.add(("RC1",) + tuple(int(g) for g in m.groups()))
        elif m := _RC3.match(ln):
            level, jp, j, a, ca, b, cb = m.groups()
            jp, j = (level, level) if level else (jp, j)
            found.add(("RC3",) + tuple(int(g) for g in (jp, j, a, b, ca, cb)))
        elif m := _RC4.match(ln):
            found.add(("RC4",) + tuple(int(g) for g in m.groups()))
    return found


def check_impossible(rc, out: str, required: set[tuple]) -> str | None:
    bad = expect_code(rc, 1)
    if bad:
        return bad
    missing = required - witnesses(out)
    return f"missing witnesses {sorted(missing)}" if missing else None


def check_rootsys(rc, out: str, forest: ForestData) -> str | None:
    return exact(rc, out, 0, forest_text(forest))


_STRATUM = re.compile(r"^([SC])\^(\d+)_(\d+) card=(\d+): ?(.*)$")


def check_strata(rc, out: str, forest: ForestData) -> str | None:
    bad = expect_code(rc, 0)
    if bad:
        return bad
    want = strata_sets(forest)
    seen = {}
    for ln in out.splitlines():
        m = _STRATUM.match(ln)
        if not m:
            return f"bad stratum line {ln[:80]!r}"
        labels = m.group(5).split()
        if int(m.group(4)) != len(labels):
            return f"stratum card disagrees with members {ln[:80]!r}"
        seen[(m.group(1), int(m.group(2)), int(m.group(3)))] = set(labels)
    return None if seen == want else "strata differ"


_BASIS = re.compile(r"^basis k=(\d+): (.*)$")
_VERIFIED = re.compile(r"^verified: \d+ checks pass$")


def check_sgs(rc, out: str, chain: Chain) -> str | None:
    """Per level a basis: dim(k) distinct affinely independent characters."""
    bad = expect_code(rc, 0)
    if bad:
        return bad
    lines = out.splitlines()
    if len(lines) != chain.n + 1 or not _VERIFIED.match(lines[-1]):
        return f"output shape {lines[-1:]!r}"
    for k, ln in enumerate(lines[:-1], start=1):
        m = _BASIS.match(ln)
        if not m or int(m.group(1)) != k:
            return f"bad basis line {ln[:80]!r}"
        dim = chain.dims[k - 1]
        members = set(chain.level(k))
        masks = []
        for label in m.group(2).split():
            depth, _, bitstr = label.partition(":")
            if depth != f"d{k}" or len(bitstr) != dim or _mask(bitstr) not in members:
                return f"basis member {label!r} is not a level-{k} character"
            masks.append(_mask(bitstr) | 1 << dim)
        if len(masks) != dim or rank(masks) != dim:
            return f"level-{k} basis has {len(masks)} members of affine rank {rank(masks)}"
    return None
