"""Self-test of the decision benchmark's verdict checkers.

Builds known-good results without the library, then corrupts each one
(two images swapped within a level, a wrong exit code, a missing RC
witness, and more) and requires the checker to flag every corruption.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs as gen  # noqa: E402

# Transitions sending e1 to e1: row i has bit 0 equal to bit i of e1.
CHAIN = gen.Chain((3, 3, 3), (1, 1, 1), ((0b011, 0b100, 0b010), (0b001, 0b110, 0b000)))
# Level 2 has eight characters; those agreeing in bits 0 and 1 are siblings.
WIDE = gen.Chain((2, 4), (1, 1), ((0b01, 0b10, 0b00, 0b00),))
BASES = [(0b110, 0b011, 0b001), (0b001, 0b101, 0b010), (0b111, 0b010, 0b100)]

IMPOSSIBLE3_OUT = (
    "RC3 violated: card(S^3_4(K1))=4 != card(S^3_4(K2))=2\n"
    "RC4 violated: K1 is not order-isomorphic to K2 truncated at depth 5\n")


def _map_text(a: gen.Chain, b: gen.Chain, image) -> str:
    lines = []
    for d in range(1, a.n + 1):
        for lam in a.level(d):
            lines.append(f"depth {d}: {gen.bits(lam, a.dims[d - 1])} -> "
                         f"{gen.bits(image(d, lam), b.dims[d - 1])}")
    return "\n".join(lines) + "\n"


def cases():
    """(name, checker result, should pass) for every self-test case."""
    a = CHAIN
    b = gen.rebase_with(a, BASES)
    inv = [gen.inverse(p, k) for p, k in zip(BASES, a.dims)]
    good = _map_text(a, b, lambda d, lam: gen.pullback(lam, inv[d - 1]))
    lines = good.splitlines()
    deep = [i for i, ln in enumerate(lines) if ln.startswith(f"depth {a.n}:")]
    swapped = list(lines)
    i, j = deep[0], deep[1]
    swapped[i] = lines[i].split(" -> ")[0] + " -> " + lines[j].split(" -> ")[1]
    swapped[j] = lines[j].split(" -> ")[0] + " -> " + lines[i].split(" -> ")[1]
    swapped_text = "\n".join(swapped) + "\n"
    required = gen.IMPOSSIBLE["impossible3"][1]
    yield "rebased map accepted", checks.check_iso_map(0, good, a, b), True
    yield "identity map accepted", checks.check_iso_map(
        0, _map_text(a, a, lambda d, lam: lam), a, a), True
    yield "images swapped within a level", checks.check_iso_map(0, swapped_text, a, b), False
    siblings = {1: 5, 5: 1}
    yield "sibling images swapped (not affine)", checks.check_iso_map(
        0, _map_text(WIDE, WIDE, lambda d, lam: siblings.get(lam, lam) if d == 2 else lam),
        WIDE, WIDE), False
    yield "map line missing", checks.check_iso_map(0, "\n".join(lines[1:]) + "\n", a, b), False
    yield "map with wrong exit code", checks.check_iso_map(1, good, a, b), False
    yield "raised decision", checks.check_iso_map(ValueError("boom"), good, a, b), False
    yield "rejection with exit 0", checks.check_rejected(
        0, "not isomorphic: specialization orders differ\n"), False
    yield "witnesses present", checks.check_impossible(1, IMPOSSIBLE3_OUT, required), True
    yield "RC witness missing", checks.check_impossible(
        1, IMPOSSIBLE3_OUT.splitlines()[0] + "\n", required), False
    yield "violations with exit 0", checks.check_impossible(0, IMPOSSIBLE3_OUT, required), False
    yield "clean forest with exit 1", checks.check_clean_forest(1, "no violations found\n"), False
    yield "validate counts right", checks.check_valid(
        0, "valid fan: 12 characters on 25 elements\n", a), True
    yield "validate counts wrong", checks.check_valid(
        0, "valid fan: 12 characters on 24 elements\n", a), False


def selftest_failures() -> list[str]:
    return [f"{name}: {'rejected' if should_pass else 'not flagged'}"
            for name, result, should_pass in cases() if (result is None) != should_pass]


def run_selftest() -> int:
    failures = selftest_failures()
    for name, result, should_pass in cases():
        print(f"{'ok  ' if (result is None) == should_pass else 'FAIL'} {name}: {result}")
    print(f"checker self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_selftest())
