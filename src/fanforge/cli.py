"""Command-line front end.

Exit codes: 0 success or positive decision, 1 negative decision
(invalid, non-isomorphic, non-representable, not realizable), 2 input
error, 3 resource bound exceeded (every bound is fixed, with no override).
"""

from __future__ import annotations

import argparse
import functools
import re
import shutil
import sys
from pathlib import Path

from .chains import (
    ChainChar,
    chain_characters,
    chain_to_table,
    require_generator_bound,
    validate_chain,
)
from .corpus import generate_corpus
from .errors import NotAFanError, OrderMismatchError, ResourceLimitError, StructuralError
from .formats import (
    NUMBER,
    FormatError,
    bits_to_mask,
    chain_labels,
    char_label,
    mask_to_bits,
    parse_chain,
    parse_forest,
    root_system_dot,
    serialize_chain,
    serialize_forest,
    text_lines,
)
from .generators import standard_generating_system, verify_sgs
from .isomorphism import build_isomorphism, check_forest, normal_form_chain, represent
from .spectral import FanSpace
from .suite import run_suite
from .ternary import SIGNS, enumerate_characters, fan_report, validate_table

#: Most lines plus member labels `strata` prints: a path of n levels
#: prints about 1.5 n^2, so the bound refuses paths past 835 levels.
MAX_STRATA_ENTRIES = 1 << 20


def _load_chain(path: str) -> FanSpace:
    return FanSpace(parse_chain(Path(path).read_text()))


def _element_label(space: FanSpace, el) -> str:
    if el.depth == 0:
        return "zero"
    return f"e{el.depth}:{mask_to_bits(el.vec, space.dim(el.depth))}"


def _cmd_validate(args) -> int:
    chain = parse_chain(Path(args.chain).read_text())
    chain_problems = [str(v) for v in validate_chain(chain)]
    if chain_problems:
        for p in chain_problems:
            print(p)
        return 1
    count = len(chain_characters(chain))
    require_generator_bound(chain)
    table = chain_to_table(chain)
    problems = [str(v) for v in validate_table(table)]
    chars = enumerate_characters(table)
    problems += [str(v) for v in fan_report(table, chars)]
    if len(chars) != count:
        problems.append("character counts differ between table and chain routes")
    if problems:
        for p in problems:
            print(p)
        return 1
    print(f"valid fan: {count} characters on {table.size} elements")
    return 0


def _cmd_chars(args) -> int:
    space = _load_chain(args.chain)
    for labels in chain_labels(space.chain, space.masks):
        print("\n".join(labels))
    return 0


def _cmd_levels(args) -> int:
    space = _load_chain(args.chain)
    for d, labels in enumerate(chain_labels(space.chain, space.masks), start=1):
        print(f"level d={d} size={len(labels)}: {' '.join(labels)}")
    return 0


def _cmd_rootsys(args) -> int:
    space = _load_chain(args.chain)
    if args.dot:
        chars = space.chars
        parents = {chars[i]: chars[p] for i, p in enumerate(space.forest.parents)
                   if p is not None}
        print(root_system_dot(space.chain, chars, parents), end="")
    else:
        print(serialize_forest(space.forest), end="")
    return 0


def _cmd_strata(args) -> int:
    space = _load_chain(args.chain)
    forest, n = space.forest, space.length
    # every (k, j) pair prints an S and a C line, and a node of depth k
    # and reach e is a member of S^k_j for j = k..e and of one C line
    entries = n * (n + 1) + sum(forest.deep) - sum(forest.depths) + 2 * len(forest)
    if entries > MAX_STRATA_ENTRIES:
        raise ResourceLimitError(
            f"strata output has {entries} lines and member labels, "
            f"bound is {MAX_STRATA_ENTRIES}")
    # one read of each level's reaches: C^k_j is the bucket of reach j,
    # S^k_j the members reaching j or deeper, both in node order
    for k, labels in enumerate(chain_labels(space.chain, space.masks), start=1):
        reaches = list(map(forest.deep.__getitem__, forest.level(k)))
        exact: dict[int, list[str]] = {}
        for reach, label in zip(reaches, labels):
            exact.setdefault(reach, []).append(label)
        lines = []
        for j in range(k, n + 1):
            deeper = [label for reach, label in zip(reaches, labels) if reach >= j]
            lines.append(f"S^{k}_{j} card={len(deeper)}: {' '.join(deeper)}")
            c = exact.get(j, [])
            lines.append(f"C^{k}_{j} card={len(c)}: {' '.join(c)}")
        print("\n".join(lines))
    return 0


def _cmd_sgs(args) -> int:
    space = _load_chain(args.chain)
    gs = standard_generating_system(space, args.seed)
    for k in range(1, space.length + 1):
        labels = " ".join(char_label(space.chain, h) for h in gs.level_basis(k))
        print(f"basis k={k}: {labels}")
    report = verify_sgs(space, gs)
    if report.ok:
        print(f"verified: {len(report.checks)} checks pass")
        return 0
    for bad in report.failures():
        print(f"check failed: {bad.name}")
    return 1


def _cmd_iso(args) -> int:
    space1 = _load_chain(args.chain_a)
    space2 = _load_chain(args.chain_b)
    try:
        mapping = build_isomorphism(space1, space2, args.seed)
    except OrderMismatchError as exc:
        print("not isomorphic: specialization orders differ")
        k, j, card1, card2 = exc.first_difference
        print(f"first difference: card(C^{k}_{j}) is {card1} in A, {card2} in B")
        return 1
    for h in space1.chars:
        img = mapping[h]
        print(f"depth {h.depth}: {mask_to_bits(h.mask, space1.dim(h.depth))} -> "
              f"{mask_to_bits(img.mask, space2.dim(img.depth))}")
    return 0


# a label d<depth>:<bits>, then a whole number; both numbers in ASCII
# digits with no leading zero or plus sign
_VALUE_LINE = re.compile(rf"(d{NUMBER}:([01]+))\s+(0|-?[1-9][0-9]*)")


def _cmd_represent(args) -> int:
    space = _load_chain(args.chain)
    f = {}
    for ln in text_lines(Path(args.values).read_text()):
        m = _VALUE_LINE.fullmatch(ln.strip())
        if m is None:
            raise FormatError(f"bad value line {ln!r}")
        label, depth, bits, value = m.groups()
        try:
            h_depth = int(depth)
            h_mask = bits_to_mask(bits, space.dim(h_depth))
            sign = int(value)
        except ValueError as exc:     # dim() refuses a depth outside 1..n
            raise FormatError(f"bad value line {ln!r}") from exc
        if sign not in SIGNS:
            raise FormatError(f"value line {ln!r} has value {sign}, not 1, 0 or -1")
        h = ChainChar(h_depth, h_mask)
        if h in f:
            raise FormatError(f"value line {ln!r} repeats character {label}")
        f[h] = sign
    result = represent(space, f)
    if result.ok:
        print(f"represented by {_element_label(space, result.element)}")
        return 0
    labels = " ".join(char_label(space.chain, h) for h in result.witness.data)
    print(f"non-representable: {result.witness.kind} witness {labels}")
    return 1


def _cmd_check_forest(args) -> int:
    forest = parse_forest(Path(args.forest).read_text())
    violations = check_forest(forest)
    if not violations:
        print("no violations found")
        return 0
    for v in violations:
        print(v)
    return 1


def _cmd_realize(args) -> int:
    forest = parse_forest(Path(args.forest).read_text())
    chain = normal_form_chain(forest)
    if chain is None:
        for v in check_forest(forest):
            print(v)
        print("not realizable")
        return 1
    text = serialize_chain(chain)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_gen(args) -> int:
    chains = generate_corpus(args.seed, args.count, args.levels, args.maxdim)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, chain in enumerate(chains):
        path = outdir / f"chain_{i:03d}.fan"
        path.write_text(serialize_chain(chain))
        print(path)
    return 0


def _cmd_suite(args) -> int:
    chains = generate_corpus(args.seed, args.count, args.levels, args.maxdim)
    report = run_suite(chains, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


_CHAIN = _arg("chain")
_FOREST = _arg("forest")
_LEVELS = _arg("--levels", type=int, default=4, help="maximum level count")
_MAXDIM = _arg("--maxdim", type=int, default=4, help="maximum level dimension")

#: Every subcommand in `fanforge --help` order: name -> (help line,
#: (positional names, add_argument keywords) per argument, handler).
_COMMANDS = {
    "validate": ("validate a chain file end to end", [_CHAIN], _cmd_validate),
    "chars": ("list the characters of a chain", [_CHAIN], _cmd_chars),
    "levels": ("list levels by depth", [_CHAIN], _cmd_levels),
    "rootsys": ("print the specialization forest",
                [_CHAIN, _arg("--dot", action="store_true", help="emit Graphviz DOT")],
                _cmd_rootsys),
    "strata": ("list all S/C strata with members", [_CHAIN], _cmd_strata),
    "sgs": ("build and verify a generating system",
            [_CHAIN,
             _arg("--seed", type=int, default=None,
                  help="draw construction choices from this seed instead of taking the first candidate")],
            _cmd_sgs),
    "iso": ("construct an isomorphism between two chains",
            [_arg("chain_a"), _arg("chain_b"),
             _arg("--seed", type=int, default=None,
                  help="build both generating systems with this seed (reproducible per seed)")],
            _cmd_iso),
    "represent": ("find the element inducing a value map",
                  [_CHAIN, _arg("values", help="file of '<char-label> <value>' lines")],
                  _cmd_represent),
    "check-forest": ("run necessary realizability checks", [_FOREST], _cmd_check_forest),
    "realize": ("decide whether a chain has a given forest",
                [_FOREST, _arg("--out", default=None, help="write the normal-form chain here")],
                _cmd_realize),
    "gen": ("generate a seeded corpus of chain files",
            [_arg("--seed", type=int, required=True, help="corpus seed"), _LEVELS, _MAXDIM,
             _arg("--count", type=int, default=10, help="number of chains"),
             _arg("--outdir", default=".", help="directory for the .fan files")],
            _cmd_gen),
    "suite": ("run the property suite on a seeded corpus",
              [_arg("--seed", type=int, default=0, help="corpus seed"), _LEVELS, _MAXDIM,
               _arg("--count", type=int, default=60, help="number of chains")],
              _cmd_suite),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The fanforge parser for argv.

    When argv's first token names a command, only that subparser gets its
    arguments, -h and handler. Every other command keeps its name and help
    line, which is all `fanforge --help` and the invalid-choice error read,
    and gets add_help=False, since each add_argument, -h included, makes a
    help formatter. With no argv, or any other first token, every command
    is built in full.
    """
    # HelpFormatter asks the terminal for its width on every formatter it
    # makes, once per add_argument; this is the width it would compute
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="fanforge", formatter_class=formatter,
        description="Finite fan workbench: chain files in, order data out.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_line, args, fn) in _COMMANDS.items():
        if named is not None and name != named:
            sub.add_parser(name, help=help_line, add_help=False)
            continue
        p = sub.add_parser(name, help=help_line, formatter_class=formatter)
        for names, kwargs in args:
            p.add_argument(*names, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (FormatError, StructuralError, NotAFanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
