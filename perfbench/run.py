"""Decision benchmark for the fanforge command line.

A single-process closed loop: one caller issues ``fanforge`` commands
back to back through ``fanforge.cli.main(argv)`` on generated files, with
standard output captured, the way a desk user runs one command and waits
for its verdict.  Every verdict is checked outside the timed region.

    python3 perfbench/run.py --workload {sweep,iso,forest} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced pass with ``--trace 1``.  End-to-end times are scaled to a
fixed host speed measured alongside each call (speed.py).  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import speed  # noqa: E402
from selftest import selftest_failures  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402

MIN_PASSES, MIN_SETUPS = 3, 5            # per untraced run
SUITE_SEED, SUITE_FANS = 0, 60          # the README's `fanforge suite` command
# Rows of the ROADMAP baseline table, printed per kind and ladder size of
# decision in traced runs (inclusive time per call).
BASELINE_ROWS = ("spectral.FanSpace.init", "isomorphism.forest_canonical",
                 "isomorphism.check_forest", "isomorphism.build_isomorphism",
                 "isomorphism.is_ars_morphism")
# Rows the workbench could not finish when this benchmark was added.
NOT_RUN = (
    "iso accepted pair at 768 characters: about 579 s per pair",
    "check-forest at 3072 nodes: quadratic in the nodes, 30 s or more",
)


@dataclass
class Decision:
    label: str                  # kind and size, e.g. "iso/160/rebased"
    argv: list[str]
    check: object               # (rc, out) -> None or a reason
    cap: str | None = None      # FANFORGE_CAP for this command
    ladder: bool = False        # input is a ladder: a baseline row when traced


class Library:
    """A fresh import of the package under test."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "fanforge" or m.startswith("fanforge.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("fanforge.cli")
        self.corpus = importlib.import_module("fanforge.corpus")
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"fanforge imported from {origin}, not from {SRC}")


# -- workloads ----------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def sweep(seed: int, lib: Library, work: Path) -> list[Decision]:
    """Many small fans: the suite, `validate` on a seeded corpus with every
    table on the full table path, 4x5 ladders with 129-element tables, and
    chains whose transitions drop the minus vector."""
    rng = random.Random(seed)
    out = [Decision(f"suite/{SUITE_FANS}",
                    ["suite", "--seed", str(SUITE_SEED), "--count", str(SUITE_FANS)],
                    partial(checks.check_suite, fans=SUITE_FANS))]
    # The suite corpus's level dimensions, fresh contents from the seed: chain
    # size sets the cost of `validate`, so every seed does the same work.
    corpus = [gen.shaped(rng, c.dims, lib.corpus.random_transition)
              for c in lib.corpus.generate_corpus(SUITE_SEED, SUITE_FANS, 4, 4)]
    for i, c in enumerate(corpus):
        path = _write(work / f"corpus_{i:03d}.fan", gen.to_text(c))
        out.append(Decision(f"validate/{c.char_count()}", ["validate", path],
                            partial(checks.check_valid, chain=c), cap="65"))
    for i in range(2):
        c = gen.ladder(rng, 4, 5, lib.corpus.random_transition)
        path = _write(work / f"ladder_{i}.fan", gen.to_text(c))
        out.append(Decision(f"validate/{c.char_count()}", ["validate", path],
                            partial(checks.check_valid, chain=c), cap="129", ladder=True))
    for i, c in enumerate([c for c in corpus if c.n > 1][:4]):
        bad, depth = gen.broken(rng, c)
        path = _write(work / f"broken_{i}.fan", gen.to_text(bad))
        out.append(Decision("validate/broken", ["validate", path],
                            partial(checks.check_broken, depth=depth), cap="65"))
    return out


# (levels, dim, ladders, then per ladder: self pairs, rebased pairs, rank
# partners).  The cost of a pair depends on its ladder, so the accepted
# 32-character pairs are spread over twelve ladders.  The counts put the
# median decision and the tail rank of a pass inside those pairs, away
# from the boundaries between sizes.
ISO_PLAN = ((4, 4, 12, 1, 1, 0), (4, 4, 2, 0, 0, 1), (5, 5, 1, 1, 2, 2),
            (5, 6, 1, 0, 1, 2), (6, 8, 2, 0, 0, 1))


def iso(seed: int, lib: Library, work: Path) -> list[Decision]:
    """`iso` on ladder pairs: self pairs and rebased copies are isomorphic and
    take the construct-and-verify path; rank partners stop at the code."""
    rng = random.Random(seed)
    out = []
    ladders = 0
    for levels, dim, count, selves, copies, partners in ISO_PLAN:
        for _ in range(count):
            a = gen.ladder(rng, levels, dim, lib.corpus.random_transition)
            size = a.char_count()
            stem = f"iso_{size}_{ladders}"
            ladders += 1
            path_a = _write(work / f"{stem}_a.fan", gen.to_text(a))
            for _ in range(selves):
                out.append(Decision(f"iso/{size}/self", ["iso", path_a, path_a],
                                    partial(checks.check_iso_map, a=a, b=a), ladder=True))
            for i in range(copies):
                b = gen.rebased(rng, a)
                path_b = _write(work / f"{stem}_rebased{i}.fan", gen.to_text(b))
                out.append(Decision(f"iso/{size}/rebased",
                                    ["iso", path_a, path_b, "--seed", str(rng.randrange(1 << 16))],
                                    partial(checks.check_iso_map, a=a, b=b), ladder=True))
            for i in range(partners):
                p = gen.rank_partner(rng, a, lib.corpus.random_transition)
                path_p = _write(work / f"{stem}_partner{i}.fan", gen.to_text(p))
                out.append(Decision(f"iso/{size}/partner", ["iso", path_a, path_p],
                                    checks.check_rejected, ladder=True))
    return out


# (levels, dim, forests of real fans) for `check-forest` and `rootsys`, and the
# 3072-character chains with the number of `sgs` seeds, `rootsys` and
# `strata` runs each.  The counts put the median decision of a pass among
# the `strata` runs and its tail rank among the `sgs` runs.
FOREST_PLAN = ((4, 4, 3), (5, 6, 2), (6, 8, 2))
BIG_PLAN = (4, 4, 1, 2)


def forest(seed: int, lib: Library, work: Path) -> list[Decision]:
    """`check-forest` on forests of real fans (query-bound at 768 nodes) and on
    the three impossible configurations, `rootsys` on the chains of those
    fans against the forest built here, and `sgs`, `rootsys` and `strata` on
    3072-character chains (build-bound)."""
    rng = random.Random(seed)
    out = []
    for levels, dim, copies in FOREST_PLAN:
        for i in range(copies):
            c = gen.ladder(rng, levels, dim, lib.corpus.random_transition)
            f = gen.chain_forest(c)
            size = len(f.depths)
            path_f = _write(work / f"real_{size}_{i}.forest", gen.forest_text(f))
            path_c = _write(work / f"real_{size}_{i}.fan", gen.to_text(c))
            out.append(Decision(f"check-forest/{size}", ["check-forest", path_f],
                                checks.check_clean_forest, ladder=True))
            out.append(Decision(f"rootsys/{size}", ["rootsys", path_c],
                                partial(checks.check_rootsys, forest=f), ladder=True))
    for name, (f, required) in gen.IMPOSSIBLE.items():
        path_f = _write(work / f"{name}.forest", gen.forest_text(f))
        out.append(Decision(f"check-forest/{name}", ["check-forest", path_f],
                            partial(checks.check_impossible, required=required)))
    chains, sgs_runs, rootsys_runs, strata_runs = BIG_PLAN
    for i in range(chains):
        c = gen.ladder(rng, 6, 10, lib.corpus.random_transition)
        f = gen.chain_forest(c)
        size = len(f.depths)
        path_c = _write(work / f"big_{i}.fan", gen.to_text(c))
        for _ in range(sgs_runs):
            out.append(Decision(f"sgs/{size}",
                                ["sgs", path_c, "--seed", str(rng.randrange(1 << 16))],
                                partial(checks.check_sgs, chain=c), ladder=True))
        for _ in range(rootsys_runs):
            out.append(Decision(f"rootsys/{size}", ["rootsys", path_c],
                                partial(checks.check_rootsys, forest=f), ladder=True))
        for _ in range(strata_runs):
            out.append(Decision(f"strata/{size}", ["strata", path_c],
                                partial(checks.check_strata, forest=f), ladder=True))
    return out


WORKLOADS = {"sweep": sweep, "iso": iso, "forest": forest}


# -- measurement ----------------------------------------------------------------


def run_pass(lib: Library, decisions: list[Decision], tracer: Tracer | None = None):
    """Issue every decision once; returns (wall seconds, [(rc, out, err, Timing)]).
    Untraced decisions are timed with the host's speed sampled."""
    results = []
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    for i, dec in enumerate(decisions):
        if dec.cap is not None:
            os.environ["FANFORGE_CAP"] = dec.cap
        if tracer is not None:
            tracer.decision = i
        out, err = io.StringIO(), io.StringIO()
        with speed.timed(sample=tracer is None) as t:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = lib.cli.main(dec.argv)
            except Exception as exc:  # noqa: BLE001 - a raised decision is a failure
                rc = exc
        results.append((rc, out.getvalue(), err.getvalue(), t))
    wall = perf_counter() - start
    os.environ.pop("FANFORGE_CAP", None)
    if tracer is not None:
        tracer.uninstall()
        tracer.decision = -1
    return wall, results


def judge(decisions: list[Decision], results) -> list[str]:
    """Reasons for every decision whose verdict is wrong."""
    bad = []
    for dec, (rc, out, err, _) in zip(decisions, results):
        reason = dec.check(rc, out)
        if reason is not None:
            bad.append(f"{dec.label} {' '.join(dec.argv[1:2])}: {reason}"
                       + (f" (stderr {err.strip()[:120]!r})" if err.strip() else ""))
    return bad


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples above it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(args, work: Path) -> tuple[Library, list[Decision], float]:
    """Fresh import plus generated input files; returns the set-up seconds
    at the reference speed."""
    with speed.timed() as t:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        lib = Library()
        decisions = WORKLOADS[args.workload](args.seed, lib, work)
    return lib, decisions, t.scaled


def measure(args, work: Path) -> int:
    """Alternate set-ups and passes until --seconds are used, so that both
    are sampled across the whole run; a traced run makes one traced pass
    between two untraced ones."""
    failures = [f"checker self-test: {r}" for r in selftest_failures()]
    setups, walls, times = [], [], []
    traced = None
    attempted = 0
    start = perf_counter()
    while True:
        lib, decisions, setup = set_up(args, work)
        setups.append(setup)
        tracer = Tracer() if args.trace and len(walls) == 1 and traced is None else None
        wall, results = run_pass(lib, decisions, tracer)
        failures += judge(decisions, results)
        attempted += len(decisions)
        measured = sum(r[3].raw for r in results)     # probes left out
        if tracer is not None:
            traced = (tracer, measured)
            continue
        walls.append(measured)
        times.append([r[3] for r in results])
        if args.trace:
            if len(walls) == 2:
                break
        elif len(walls) >= MIN_PASSES and perf_counter() - start + wall + setup > args.seconds:
            break
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(set_up(args, work)[2])

    # Per decision, the median over the passes of its time at the reference
    # speed (see speed.py: the host's speed drifts by a third or more).
    per_decision = [statistics.median(t.scaled for t in ts) for ts in zip(*times)]
    probes = [t.probe for ts in times for t in ts]
    pct, tail_value = tail(per_decision)
    print(f"workload {args.workload} seed {args.seed}: {len(decisions)} decisions per pass, "
          f"{len(walls)} untraced pass(es), measured walls {[round(w, 3) for w in walls]}, "
          f"scaled walls {[round(sum(t.scaled for t in ts), 3) for ts in times]}; "
          f"probe median {1e3 * statistics.median(probes):.3f} ms "
          f"(reference {1e3 * speed.REFERENCE_S:.3f} ms)")
    kinds: dict[str, list[float]] = {}
    for dec, t in zip(decisions, per_decision):
        kinds.setdefault(dec.label, []).append(t)
    print("ms per decision kind (scaled, median of the passes, median within the kind): "
          + ", ".join(f"{label} {1000 * statistics.median(ts):.2f} (x{len(ts)})"
                      for label, ts in kinds.items()))
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if args.trace:
        result["metrics"] = traced_metrics(args, *traced, decisions, statistics.mean(walls))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"failed_ratio {len(failures) / attempted:.4f} ({len(failures)} of {attempted}); "
              f"verdict_p50_ms and verdict_tail_ms (p{pct:.1f}) over n={len(per_decision)} decisions, "
              f"each the median of {len(times)} passes; setup_s median of {len(setups)}; "
              f"all times scaled to the reference speed")
        result["metrics"] = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(sum(per_decision), "s"),
            "verdict_p50_ms": metric(1000.0 * statistics.median(per_decision), "ms"),
            "verdict_tail_ms": metric(1000.0 * tail_value, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    print(json.dumps(result))
    return 0


def traced_metrics(args, tracer: Tracer, traced_wall: float, decisions, wall: float) -> dict:
    values = tracer.metrics()
    units = dict(metric_names())
    out = {name: metric(values[name], unit) for name, unit in units.items()}
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - wall, "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")

    print(f"traced pass {traced_wall:.3f} s, untraced {wall:.3f} s, "
          f"overhead {traced_wall - wall:.3f} s, {len(tracer.spans)} spans")
    table = tracer.by_group([d.label if d.ladder else None for d in decisions], BASELINE_ROWS)
    for group, cells in table.items():
        print(f"{group}: " + "  ".join(f"{name.split('.')[-1]} {c}x {1000 * t:.3f} ms"
                                       for name, (c, t) in sorted(cells.items())))
    for line in NOT_RUN:
        print(f"not run: {line}")
    path = WORK / f"trace-{args.workload}.json"
    tracer.dump(path, [d.label for d in decisions])
    print(f"spans written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        sys.exit(2)
