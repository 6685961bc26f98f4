import argparse
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fanforge.chains
import fanforge.cli
from fanforge.chains import MAX_CHARACTERS, FanChain
from fanforge.cli import MAX_STRATA_ENTRIES, main
from fanforge.corpus import MAX_CORPUS_CHAINS, MAX_CORPUS_DIM, MAX_CORPUS_LEVELS, generate_corpus
from fanforge.formats import (
    chain_labels, parse_chain, parse_forest, serialize_chain, serialize_forest,
)
from fanforge.generators import standard_generating_system
from fanforge.gf2 import identity_rows
from fanforge.isomorphism import forest_canonical
from fanforge.spectral import FanSpace, Forest
from fanforge.ternary import MAX_TABLE_GENERATORS

from conftest import (
    DATA, E1, E1P, EA, EB, TRIV, forked_paths, ladder, mixed_chain, oracle_characters,
    oracle_mask_to_bits,
)
from test_spectral import oracle_parents


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, chain in [("e1", E1), ("e1p", E1P), ("ea", EA), ("eb", EB), ("triv", TRIV)]:
        path = tmp_path / f"{name}.fan"
        path.write_text(serialize_chain(chain))
        out[name] = str(path)
    return out


def test_validate(files, capsys):
    assert main(["validate", files["e1"]]) == 0
    assert "valid fan: 3 characters" in capsys.readouterr().out


def test_validate_reports_broken_chain(tmp_path, capsys):
    # parseable file whose transition does not preserve the minus class
    bad = tmp_path / "bad.fan"
    bad.write_text("fanchain n=2\nlevel d=1 dim=1 minus=1\n"
                   "level d=2 dim=2 minus=01\ntau d=1 rows=2 1;0\n")
    assert main(["validate", str(bad)]) == 1
    assert "does not send -1 to -1" in capsys.readouterr().out


def test_chars_prints_one_character_for_trivial_fan(files, capsys):
    assert main(["chars", files["triv"]]) == 0
    assert capsys.readouterr().out.splitlines() == ["d1:1"]


def test_levels(files, capsys):
    assert main(["levels", files["e1"]]) == 0
    out = capsys.readouterr().out
    assert "level d=1 size=1" in out and "level d=2 size=2" in out


def test_rootsys_and_dot(files, tmp_path, capsys):
    assert main(["rootsys", files["e1"]]) == 0
    plain = capsys.readouterr().out
    assert plain.splitlines()[0] == "node id=0 depth=1 parent=none"
    assert main(["rootsys", files["e1"], "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.splitlines()[0] == "digraph rootsystem {"
    assert '"d2:10" -> "d1:1";' in dot
    # three levels, the deepest pulled back by rows (1, 2, 0): a depth-3
    # functional's parent is the XOR of the rows its bits select
    path = tmp_path / "three.fan"
    path.write_text(serialize_chain(FanChain((1, 2, 3), (1, 1, 1), ((1, 0), (1, 2, 0)))))
    assert main(["rootsys", str(path), "--dot"]) == 0
    assert capsys.readouterr().out == """digraph rootsystem {
  "d1:1";
  "d2:10";
  "d2:11";
  "d3:100";
  "d3:110";
  "d3:101";
  "d3:111";
  "d2:10" -> "d1:1";
  "d2:11" -> "d1:1";
  "d3:100" -> "d2:10";
  "d3:110" -> "d2:11";
  "d3:101" -> "d2:10";
  "d3:111" -> "d2:11";
}
"""


def test_strata(files, capsys):
    assert main(["strata", files["eb"]]) == 0
    out = capsys.readouterr().out
    assert "S^1_2 card=1" in out
    assert "C^1_1 card=1" in out


def oracle_strata_text(space):
    """`strata` as it was with one comprehension per (k, j): each level's
    reaches read once, C^k_j its bucket of reach j and S^k_j the members
    reaching j or deeper, both in node order.  The oracle for the output
    built by marking each bucket once."""
    forest, n = space.forest, space.length
    out = []
    for k, labels in enumerate(chain_labels(space.chain, space.masks), start=1):
        reaches = list(map(forest.deep.__getitem__, forest.level(k)))
        exact = {}
        for reach, label in zip(reaches, labels):
            exact.setdefault(reach, []).append(label)
        lines = []
        for j in range(k, n + 1):
            deeper = [label for reach, label in zip(reaches, labels) if reach >= j]
            lines.append(f"S^{k}_{j} card={len(deeper)}: {' '.join(deeper)}")
            c = exact.get(j, [])
            lines.append(f"C^{k}_{j} card={len(c)}: {' '.join(c)}")
        out.append("\n".join(lines) + "\n")
    return "".join(out)


def test_strata_matches_oracle(corpus_spaces, census_spaces, tmp_path, capsys):
    # the corpus, every census type of at most 3 levels, a 6x10 ladder and
    # the 835-level path, which sits at MAX_STRATA_ENTRIES
    spaces = (corpus_spaces + [s for s in census_spaces if s.length <= 3]
              + [FanSpace(ladder(random.Random(0), 6, 10)), FanSpace(_path_chain(835))])
    path = tmp_path / "chain.fan"
    for space in spaces:
        path.write_text(serialize_chain(space.chain))
        assert main(["strata", str(path)]) == 0
        assert capsys.readouterr() == (oracle_strata_text(space), "")
    assert len(spaces) == 200 + 314 + 2


def test_sgs(files, capsys):
    assert main(["sgs", files["e1"]]) == 0
    out = capsys.readouterr().out
    assert "basis k=1: d1:1" in out
    assert "verified" in out


def test_only_commands_that_read_characters_build_them(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ladder.fan"
    path.write_text(serialize_chain(ladder(random.Random(5), 4, 5)))
    loaded = []
    load = fanforge.cli._load_chain

    def load_and_keep(p):
        loaded.append(load(p))
        return loaded[-1]

    monkeypatch.setattr(fanforge.cli, "_load_chain", load_and_keep)
    # (command, builds the characters); the DOT edges are read off the
    # forest's parent links and sgs reads reaches and fibers by node index
    for args, built in ((["chars"], False), (["levels"], False), (["strata"], False),
                        (["rootsys"], False), (["rootsys", "--dot"], True), (["sgs"], False),
                        (["sgs", "--seed", "3"], False)):
        loaded.clear()
        assert main([args[0], str(path), *args[1:]]) == 0
        assert ("chars" in vars(loaded[0])) == built, args
    capsys.readouterr()


def test_commands_build_no_successor_mask_table(tmp_path, monkeypatch, capsys):
    # only the involution checks read the table
    path = tmp_path / "ladder.fan"
    path.write_text(serialize_chain(ladder(random.Random(5), 4, 5)))
    forest = tmp_path / "ladder.forest"
    forest.write_text(serialize_forest(FanSpace(parse_chain(path.read_text())).forest))
    built = []
    init = FanSpace.__init__

    def init_and_keep(self, chain):
        init(self, chain)
        built.append(self)

    monkeypatch.setattr(FanSpace, "__init__", init_and_keep)
    for argv in (["chars", path], ["levels", path], ["strata", path], ["rootsys", path],
                 ["rootsys", path, "--dot"], ["sgs", path], ["sgs", path, "--seed", "3"],
                 ["iso", path, path], ["iso", path, path, "--seed", "3"],
                 ["check-forest", forest]):
        assert main(list(map(str, argv))) == 0, argv
    capsys.readouterr()
    assert len(built) == 11
    assert not any("successor_masks" in vars(space) for space in built)


def test_3072_character_output_matches_rendering(tmp_path, capsys):
    # the characters from one parity test per functional, the order data
    # from per-character pullbacks and labels from one bit test per
    # coordinate, rendered here line by line; on a dim-10 ladder and on a
    # chain whose levels alternate dims 10 and 11
    for chain in (ladder(random.Random(3072), 6, 10),
                  mixed_chain(random.Random(1011), (10, 11, 10, 11))):
        path = tmp_path / "ladder.fan"
        path.write_text(serialize_chain(chain))
        chars = oracle_characters(chain)
        node = {h: i for i, h in enumerate(chars)}
        forest = Forest(tuple(h.depth for h in chars), oracle_parents(chain, chars))
        label = [f"d{h.depth}:{oracle_mask_to_bits(h.mask, chain.dims[h.depth - 1])}"
                 for h in chars]
        n = chain.n
        gs = standard_generating_system(FanSpace(chain), 3)
        checks = n + sum(len(reaches) - 1 for reaches in forest.profile[1:]) + n - 1
        expected = {
            ("chars",): "".join(f"{lab}\n" for lab in label),
            ("levels",): "".join(
                f"level d={d} size={len(forest.level(d))}: "
                f"{' '.join(label[i] for i in forest.level(d))}\n" for d in range(1, n + 1)),
            ("rootsys",): "".join(
                f"node id={i} depth={d} parent={'none' if p is None else p}\n"
                for i, (d, p) in enumerate(zip(forest.depths, forest.parents))),
            ("strata",): "".join(
                f"{kind}^{k}_{j} card={len(forest.stratum(kind, k, j))}: "
                f"{' '.join(label[i] for i in forest.stratum(kind, k, j))}\n"
                for k in range(1, n + 1) for j in range(k, n + 1) for kind in ("S", "C")),
            ("sgs", "--seed", "3"): "".join(
                f"basis k={k}: {' '.join(label[node[h]] for h in gs.level_basis(k))}\n"
                for k in range(1, n + 1)) + f"verified: {checks} checks pass\n",
        }
        assert len(label) == 3072
        for command, text in expected.items():
            assert main([command[0], str(path), *command[1:]]) == 0
            assert capsys.readouterr().out == text, (chain.dims, command)


def test_iso_success_prints_map(files, capsys):
    assert main(["iso", files["e1"], files["e1p"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "depth 1: 1 -> 1"
    assert len(lines) == 3
    assert all(" -> " in ln for ln in lines)


def test_iso_mismatch(files, capsys):
    assert main(["iso", files["ea"], files["eb"]]) == 1
    out = capsys.readouterr().out
    assert "not isomorphic" in out


def test_represent(files, tmp_path, capsys):
    values = tmp_path / "map.txt"
    values.write_text("d1:1 1\nd2:10 1\nd2:11 1\n")
    assert main(["represent", files["e1"], str(values)]) == 0
    assert "represented by e1:0" in capsys.readouterr().out

    values.write_text("d1:1 1\nd2:10 0\nd2:11 1\n")
    assert main(["represent", files["e1"], str(values)]) == 1
    assert "non-representable: zero-monotone" in capsys.readouterr().out


def test_represent_rejects_repeated_character(files, tmp_path, capsys):
    values = tmp_path / "map.txt"
    values.write_text("d1:1 1\nd2:10 1\nd2:11 1\nd2:10 -1\n")
    assert main(["represent", files["e1"], str(values)]) == 2
    assert "value line 'd2:10 -1' repeats character d2:10" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["d1:0", "d2:00", "d2:01"])
def test_represent_names_a_label_that_is_no_character(files, tmp_path, capsys, label):
    # E1's levels have minus 1 and 10: mask 0, and mask 10 at depth 2 has
    # even parity with minus, so these label no character
    values = tmp_path / "map.txt"
    values.write_text(f"d1:1 1\nd2:10 1\n{label} 1\nd2:11 1\n")
    assert main(["represent", files["e1"], str(values)]) == 2
    assert capsys.readouterr() == (
        "", f"error: value line '{label} 1' names {label}, which is not a character of the chain\n")


def test_represent_names_the_first_missing_character(files, tmp_path, capsys):
    values = tmp_path / "map.txt"
    for text, missing in (("d1:1 1\nd2:11 1\n", "d2:10"), ("d2:11 1\n", "d1:1"), ("", "d1:1"),
                          ("d2:11 1\nd2:10 1\n", "d1:1"), ("d1:1 1\nd2:10 1\n", "d2:11")):
        values.write_text(text)
        assert main(["represent", files["e1"], str(values)]) == 2
        assert capsys.readouterr() == ("", f"error: map has no value for character {missing}\n")


@pytest.mark.parametrize("label", ["d0:11", "d-1:1", "d3:11", "dd1:1", "1:1"])
def test_represent_rejects_depth_out_of_range(files, tmp_path, capsys, label):
    values = tmp_path / "map.txt"
    values.write_text(f"d1:1 1\nd2:10 1\nd2:11 1\n{label} 1\n")
    assert main(["represent", files["e1"], str(values)]) == 2
    assert f"bad value line '{label} 1'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "2", "0_1", "+1", "\u0661"])
def test_represent_rejects_bad_value(files, tmp_path, capsys, value):
    values = tmp_path / "map.txt"
    values.write_text(f"d1:1 {value}\nd2:10 1\nd2:11 1\n", encoding="utf-8")
    assert main(["represent", files["e1"], str(values)]) == 2
    err = capsys.readouterr().err
    if value == "2":
        assert "value line 'd1:1 2' has value 2, not 1, 0 or -1" in err
    else:
        assert f"bad value line 'd1:1 {value}'" in err


def test_check_forest_fixture(capsys):
    assert main(["check-forest", str(DATA / "impossible2.forest")]) == 1
    out = capsys.readouterr().out
    assert "RC1 violated: card(S^3_4)=3 not a power of 2" in out


def test_check_forest_clean(files, tmp_path, capsys):
    forest = tmp_path / "ok.forest"
    assert main(["rootsys", files["e1"]]) == 0
    forest.write_text(capsys.readouterr().out)
    assert main(["check-forest", str(forest)]) == 0
    assert "no violations found" in capsys.readouterr().out


def test_realize_roundtrip(files, tmp_path, capsys):
    forest = tmp_path / "e1.forest"
    assert main(["rootsys", files["e1"]]) == 0
    forest.write_text(capsys.readouterr().out)
    out_chain = tmp_path / "found.fan"
    assert main(["realize", str(forest), "--out", str(out_chain)]) == 0
    capsys.readouterr()
    found = parse_chain(out_chain.read_text())
    assert found.dims == (1, 2)


def test_realize_negative(tmp_path, capsys):
    forest = tmp_path / "bad.forest"
    forest.write_text("node id=0 depth=1 parent=none\n"
                      "node id=1 depth=1 parent=none\n"
                      "node id=2 depth=1 parent=none\n")
    assert main(["realize", str(forest)]) == 1
    assert "not realizable" in capsys.readouterr().out


def test_realize_resource_bound(tmp_path, capsys):
    # six levels were over the old search bound; the decision is now exact
    assert main(["realize", str(DATA / "impossible2.forest")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "RC1 violated: card(S^3_4)=3 not a power of 2" in lines
    assert lines[-1] == "not realizable"
    # more nodes than any chain within bounds has characters
    roots = tmp_path / "roots.forest"
    roots.write_text("".join(f"node id={i} depth=1 parent=none\n"
                             for i in range(MAX_CHARACTERS + 1)))
    for command in ("check-forest", "realize"):
        assert main([command, str(roots)]) == 3
        assert f"forest has {MAX_CHARACTERS + 1} nodes, bound is {MAX_CHARACTERS}" \
            in capsys.readouterr().err


def test_realize_decides_ladder_beyond_search_bounds(tmp_path, capsys):
    space = FanSpace(ladder(random.Random(6), 6, 10))
    forest = tmp_path / "ladder.forest"
    forest.write_text(serialize_forest(space.forest))
    out_chain = tmp_path / "found.fan"
    assert main(["realize", str(forest), "--out", str(out_chain)]) == 0
    capsys.readouterr()
    found = FanSpace(parse_chain(out_chain.read_text()))
    assert len(found.forest) == 3072
    assert forest_canonical(found.forest) == forest_canonical(
        parse_forest(forest.read_text()))


def test_character_bound(tmp_path, capsys):
    # dim=40 would mean 2^39 characters; refused before enumeration
    big = tmp_path / "big.fan"
    big.write_text("fanchain n=1\nlevel d=1 dim=40 minus=" + "1" + "0" * 39 + "\n")
    assert main(["chars", str(big)]) == 3
    assert "bound is 16384" in capsys.readouterr().err


_UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fanforge.cli import MAX_STRATA_ENTRIES, main
sys.exit(main(sys.argv[1:]))
"""


def _path_chain(n: int) -> FanChain:
    """One character per level: every bound holds at MAX_CHARACTERS levels."""
    return FanChain((1,) * n, (1,) * n, ((1,),) * (n - 1))


def _path_strata_entries(n: int) -> int:
    """Lines plus member labels of `strata` on an n-level path: an S and a
    C line per pair k <= j, the depth-k node in S^k_j for every j >= k,
    and in C^k_n."""
    return n * (n + 1) + n * (n + 1) // 2 + n


def test_strata_prints_a_path_just_under_its_bound(tmp_path, capsys):
    n = 835
    assert _path_strata_entries(n) <= MAX_STRATA_ENTRIES < _path_strata_entries(n + 1)
    for levels in (n, n + 1):
        (tmp_path / f"path{levels}.fan").write_text(serialize_chain(_path_chain(levels)))
    assert main(["strata", str(tmp_path / "path835.fan")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n * (n + 1)
    assert sum(len(ln.split(": ")[1].split()) for ln in lines) == n * (n + 1) // 2 + n
    assert lines[:2] == ["S^1_1 card=1: d1:1", "C^1_1 card=0: "]
    assert lines[-1] == f"C^{n}_{n} card=1: d{n}:1"
    assert main(["strata", str(tmp_path / "path836.fan")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"strata output has {_path_strata_entries(n + 1)} lines" in out.err


GENERATOR_BOUND_ERROR = (f"resource limit: table needs more than {MAX_TABLE_GENERATORS} "
                         f"generators, generator bound is {MAX_TABLE_GENERATORS}\n")


def _run_under_1gb(*args: str, timeout: int = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(fanforge.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", _UNDER_1GB, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_deep_path_chain_within_1gb(tmp_path):
    # the space must stay linear in the level count, not quadratic
    n = MAX_CHARACTERS
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    for command in ("chars", "levels", "rootsys", "validate", "strata"):
        out = _run_under_1gb(command, str(path))
        if command == "validate":
            assert out.returncode == 3, out.stderr
            assert f"fan has {2 * n + 1} elements, table bound is 2049" in out.stderr
        elif command == "strata":
            assert out.returncode == 3, out.stderr
            assert out.stdout == ""
            assert (f"strata output has {_path_strata_entries(n)} lines and member labels, "
                    f"bound is {MAX_STRATA_ENTRIES}") in out.stderr
        else:
            assert out.returncode == 0, out.stderr
            assert len(out.stdout.splitlines()) == n


def test_deep_path_forest_realizes_within_1gb(tmp_path):
    # the rank profile comes from one reach histogram per depth, not from
    # a table of every (d, e) pair
    n = MAX_CHARACTERS
    forest = tmp_path / "path.forest"
    forest.write_text(serialize_forest(FanSpace(_path_chain(n)).forest))
    out = _run_under_1gb("realize", str(forest))
    assert out.returncode == 0, out.stderr
    assert parse_chain(out.stdout) == _path_chain(n)


def test_hostile_forest_depth_refused_at_once(tmp_path):
    # no forest is deeper than it has nodes, so the depth is refused before
    # anything is made per depth, as a root and as a child alike
    cases = {
        "root": ("node id=0 depth=1000000000 parent=none\n",
                 "node 0 has no parent but depth 1000000000"),
        "child": ("node id=0 depth=1 parent=none\nnode id=1 depth=1000000000 parent=0\n",
                  "node 1 at depth 1000000000 has parent at depth 1"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.forest"
        path.write_text(text)
        for command in ("check-forest", "realize"):
            out = _run_under_1gb(command, str(path), timeout=10)
            assert out.returncode == 2, out.stderr
            assert out.stdout == ""
            assert out.stderr == f"error: inconsistent forest data: {message}\n"


def test_deep_path_iso_within_1gb(tmp_path):
    # one tower pass per fiber and space keeps this linear in the level
    # count: about 0.3 s, where a quadratic build takes about 40 s (both
    # on a 2-vCPU Xeon VM), so the timeout tells them apart
    n = 2048
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    out = _run_under_1gb("iso", str(path), str(path), timeout=20)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == n


def test_deep_path_represent_within_1gb(tmp_path):
    # each candidate element moves one tau per depth its character scan
    # reaches, so the work is linear in the level count
    n = MAX_CHARACTERS
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    values = tmp_path / "ones.txt"
    values.write_text("".join(f"d{d}:1 1\n" for d in range(1, n + 1)))
    out = _run_under_1gb("represent", str(path), str(values))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "represented by e1:0\n"


def test_deep_path_represent_unrepresentable_within_1gb(tmp_path):
    # zero on the top half, 1 below it, -1 at the deepest level: both
    # witness checks are one pass in character order; scanning every
    # character for every zero is quadratic, and checking every successor
    # of every character grows as n³ (about 6 s at 1024 levels on a
    # 2-vCPU Xeon VM)
    n, half = MAX_CHARACTERS, MAX_CHARACTERS // 2
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    values = tmp_path / "flipped.txt"
    values.write_text("".join(f"d{d}:1 {0 if d < half else 1}\n" for d in range(1, n))
                      + f"d{n}:1 -1\n")
    out = _run_under_1gb("represent", str(path), str(values), timeout=30)
    assert out.returncode == 1, out.stderr
    assert out.stdout == (
        f"non-representable: specialization-agreement witness d{half}:1 d{n}:1\n")


def test_deep_path_represent_deepest_element_within_1gb(tmp_path):
    # only the elements at the map's shallowest nonzero depth are scanned;
    # scanning every element against every shallower character is
    # quadratic in the level count
    n = MAX_CHARACTERS
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    values = tmp_path / "deepest.txt"
    values.write_text("".join(f"d{d}:1 0\n" for d in range(1, n)) + f"d{n}:1 -1\n")
    out = _run_under_1gb("represent", str(path), str(values), timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"represented by e{n}:1\n"


def test_deep_path_check_forest_within_1gb(tmp_path):
    # RC1 and RC2 walk the runs of j on which S^k_j is one set, one per
    # level here; reading a stratum per (k, j) is quadratic in the level
    # count, and walking every (k, j, j1, j2) about quartic
    forest = tmp_path / "path.forest"
    forest.write_text(serialize_forest(FanSpace(_path_chain(MAX_CHARACTERS)).forest))
    out = _run_under_1gb("check-forest", str(forest), timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "no violations found\n"


@pytest.mark.parametrize("chain", [
    # a comb: a path with a leaf hung off each level, 8192 levels
    FanChain((1,) + (2,) * 8191, (1,) * 8192, ((1, 0),) * 8191),
    # two disjoint paths of 8192 levels: every stratum has two members
    FanChain((2,) * 8192, (1,) * 8192, (identity_rows(2),) * 8191),
    # one level of 16384 roots
    FanChain((15,), (1,), ()),
    # two disjoint paths of 8192 and 8191 levels: every level but the
    # last has two members, whose uncut subtrees differ
    FanChain((2,) * 8191 + (1,), (1,) * 8192, (identity_rows(2),) * 8190 + ((1,),)),
], ids=["comb", "two-paths", "roots", "unequal-paths"])
def test_deep_check_forest_within_1gb(tmp_path, chain):
    # RC2 counts one member per class of the forest cut at the reach it
    # reads, and RC3/RC4 one component per root class: per-node reach
    # counts are quadratic in the depth, comparing every pair of roots
    # quadratic in their number, and comparing uncut subtrees quadratic
    # on paths of unequal length
    forest = tmp_path / "real.forest"
    forest.write_text(serialize_forest(FanSpace(chain).forest))
    out = _run_under_1gb("check-forest", str(forest), timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "no violations found\n"


def test_deep_refused_check_forest_within_1gb(tmp_path):
    # at every depth the two members differ only at depth 512, so RC2
    # builds both predecessor histograms at each level (quadratic), and
    # RC3 reads each root class's stratum sizes off its component profile;
    # a predecessor walk per (j, j') of a component is cubic in the depth
    forest = tmp_path / "forked.forest"
    forest.write_text(serialize_forest(forked_paths(512)))
    out = _run_under_1gb("check-forest", str(forest), timeout=8)
    assert out.returncode == 1, out.stderr
    codes = Counter(line.split()[0] for line in out.stdout.splitlines())
    assert codes == {"RC1": 1, "RC2": 2 * 511, "RC3": 1, "RC4": 1}


def test_deep_path_sgs_within_1gb(tmp_path):
    # one stratum check per larger reach value of a level (none here) and
    # one closure check per parent edge; a check per (k, j) and per pair
    # of levels is quadratic in the level count
    n = MAX_CHARACTERS
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(n)))
    out = _run_under_1gb("sgs", str(path), "--seed", "3", timeout=30)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == n + 1
    assert lines[-1] == f"verified: {2 * n - 1} checks pass"


def test_validate_table_bound(tmp_path, capsys, monkeypatch):
    # a 5x9 chain has 2561 elements; refused before its table is built
    big = tmp_path / "big.fan"
    big.write_text(serialize_chain(FanChain((9,) * 5, (1,) * 5, (identity_rows(9),) * 4)))
    monkeypatch.setattr(fanforge.chains, "_slice_vectors", None)   # the table's first step
    assert main(["validate", str(big)]) == 3
    assert "fan has 2561 elements, table bound is 2049" in capsys.readouterr().err


def test_validate_at_table_bound_within_1gb(tmp_path):
    # a 4x9 ladder is a 2049-element table, the table bound: Light's test
    # costs m^2 per generator, the characters one GF(2) solve per support
    # and the triple closure one test per support class, where the cubic
    # closure scan alone would take about 90 s
    path = tmp_path / "ladder.fan"
    path.write_text(serialize_chain(ladder(random.Random(2049), 4, 9)))
    out = _run_under_1gb("validate", str(path), timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "valid fan: 1024 characters on 2049 elements\n"


@pytest.mark.parametrize("levels", [512, 1024])
def test_validate_deep_path_refused_by_generator_bound_within_1gb(tmp_path, levels):
    # a dimension-1 path of n levels is within the table bound but needs
    # n + 2 generators, and Light's test and the support search grow with
    # them: without the generator bound, 512 levels validate in about 80 s
    path = tmp_path / "path.fan"
    path.write_text(serialize_chain(_path_chain(levels)))
    out = _run_under_1gb("validate", str(path), timeout=20)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", GENERATOR_BOUND_ERROR)


def test_suite_deep_paths_refused_by_generator_bound_within_1gb():
    # the first drawn chain past 62 levels is refused by the generator bound
    out = _run_under_1gb("suite", "--levels", "1000", "--maxdim", "1", timeout=20)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", GENERATOR_BOUND_ERROR)


def test_gen_is_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["gen", "--seed", "5", "--count", "3",
                     "--outdir", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    for i in range(3):
        a = (tmp_path / "a" / f"chain_{i:03d}.fan").read_text()
        b = (tmp_path / "b" / f"chain_{i:03d}.fan").read_text()
        assert a == b


@pytest.mark.parametrize("argv, message", [
    (["suite", "--levels", "0"], "maximum level count must be at least 1, got 0"),
    (["suite", "--maxdim", "0"], "maximum level dimension must be at least 1, got 0"),
    (["suite", "--count", "-2"], "number of chains must be at least 0, got -2"),
    (["gen", "--seed", "1", "--levels", "0"], "maximum level count must be at least 1, got 0"),
    (["gen", "--seed", "1", "--maxdim", "-1"], "maximum level dimension must be at least 1, got -1"),
    (["gen", "--seed", "1", "--count", "-1"], "number of chains must be at least 0, got -1"),
])
def test_corpus_bounds_are_refused_before_any_draw(argv, message, tmp_path, capsys):
    # the refusal names the bad value, not random's own message, and gen
    # makes no output directory
    outdir = tmp_path / "fans"
    if argv[0] == "gen":
        argv = argv + ["--outdir", str(outdir)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not outdir.exists()


# Input files no serializer writes, each refused on the line it names:
# numbers with a leading zero, and lines joined by U+0085, U+2028 and a
# form feed, which str.splitlines would split.
REFUSED_FILES = {
    "leading-zero.fan": ("chars", "fanchain n=01\nlevel d=1 dim=01 minus=1\n",
                         "bad header line 'fanchain n=01'"),
    "leading-zero.forest": ("check-forest", "node id=00 depth=01 parent=none\n",
                            "bad node line 'node id=00 depth=01 parent=none'"),
    "joined.fan": ("validate", "fanchain n=2\x85level d=1 dim=1 minus=1\u2028"
                   "level d=2 dim=2 minus=10\x0ctau d=1 rows=2 1;0\n",
                   "bad header line 'fanchain n=2\\x85level d=1 dim=1 minus=1\\u2028"
                   "level d=2 dim=2 minus=10\\x0ctau d=1 rows=2 1;0'"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_FILES))
def test_non_canonical_input_files_are_refused(name, tmp_path, capsys):
    command, text, message = REFUSED_FILES[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_represent_refuses_a_depth_with_a_leading_zero(files, tmp_path, capsys):
    values = tmp_path / "map.txt"
    values.write_text("d1:1 1\nd02:10 1\nd2:11 1\n")
    assert main(["represent", files["e1"], str(values)]) == 2
    assert capsys.readouterr() == ("", "error: bad value line 'd02:10 1'\n")
    values.write_text("d1:1 1\x85d2:10 1\nd2:11 1\n", encoding="utf-8")
    assert main(["represent", files["e1"], str(values)]) == 2
    assert capsys.readouterr() == ("", "error: bad value line 'd1:1 1\\x85d2:10 1'\n")


def test_crlf_and_blank_lines_are_still_read(files, tmp_path, capsys):
    # read_text turns CRLF into LF before any parser sees it
    chain = tmp_path / "crlf.fan"
    chain.write_bytes(("\n" + serialize_chain(E1) + " \n").replace("\n", "\r\n").encode())
    values = tmp_path / "map.txt"
    values.write_bytes(b"d1:1 1\r\n\r\nd2:10 1\r\nd2:11 1\r\n")
    assert main(["represent", str(chain), str(values)]) == 0
    assert capsys.readouterr().out == "represented by e1:0\n"
    forest = tmp_path / "crlf.forest"
    forest.write_bytes(serialize_forest(FanSpace(E1).forest).replace("\n", "\r\n").encode())
    assert main(["check-forest", str(forest)]) == 0
    assert capsys.readouterr().out == "no violations found\n"


@pytest.mark.parametrize("argv, message", [
    (["suite", "--count", "5000000"], f"corpus has 5000000 chains, bound is {MAX_CORPUS_CHAINS}"),
    (["suite", "--count", str(MAX_CORPUS_CHAINS + 1)],
     f"corpus has {MAX_CORPUS_CHAINS + 1} chains, bound is {MAX_CORPUS_CHAINS}"),
    (["suite", "--count", "1", "--maxdim", "2000000000"],
     "maximum level dimension is 2000000000, bound is 15"),
    (["suite", "--count", "1", "--maxdim", "16"], "maximum level dimension is 16, bound is 15"),
    (["suite", "--count", "1", "--levels", str(MAX_CHARACTERS + 1)],
     f"maximum level count is {MAX_CHARACTERS + 1}, bound is {MAX_CHARACTERS}"),
    (["suite", "--count", "65", "--levels", str(MAX_CHARACTERS)],
     f"corpus may draw {65 * MAX_CHARACTERS} levels, bound is {MAX_CORPUS_LEVELS}"),
    (["gen", "--seed", "1", "--count", "5000000"],
     f"corpus has 5000000 chains, bound is {MAX_CORPUS_CHAINS}"),
    (["gen", "--seed", "1", "--count", "1", "--maxdim", "2000000000"],
     "maximum level dimension is 2000000000, bound is 15"),
])
def test_corpus_resource_bounds_are_refused_before_any_draw(argv, message, tmp_path):
    # every bound is checked before the first draw: drawn, the 5,000,000
    # chains or a level of dimension 2,000,000,000 exhaust the 1 GB limit
    outdir = tmp_path / "fans"
    if argv[0] == "gen":
        argv = argv + ["--outdir", str(outdir)]
    out = _run_under_1gb(*argv, timeout=30)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", f"resource limit: {message}\n")
    assert not outdir.exists()


def test_corpus_at_its_bounds_is_drawn():
    # a level of dimension 15 has exactly MAX_CHARACTERS characters
    assert MAX_CORPUS_DIM == 15 and 1 << (MAX_CORPUS_DIM - 1) == MAX_CHARACTERS
    (chain,) = generate_corpus(2, count=1, max_levels=1, max_dim=MAX_CORPUS_DIM)
    assert chain.n == 1
    assert len(generate_corpus(0, count=MAX_CORPUS_CHAINS, max_levels=1, max_dim=1)) == (
        MAX_CORPUS_CHAINS)


def test_suite_small(capsys):
    assert main(["suite", "--seed", "3", "--count", "6"]) == 0
    out = capsys.readouterr().out
    assert "cardinality: ok" in out and "involutions: ok" in out


def test_suite_on_no_fans_prints_every_section(capsys):
    assert main(["suite", "--count", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["suite over 0 fans"] + [
        f"{name}: ok" for name in (
            "cardinality", "specialization-equivalence", "zero-set-transport",
            "fan-closure", "product-identities", "chain-table-agreement",
            "forest-regularity", "involutions", "generating-systems", "round-trips",
            "self-isomorphism")]


def test_validate_checks_129_element_ladder_in_full(tmp_path, capsys, monkeypatch):
    # every table within the table bound gets separation and closure;
    # no environment variable narrows that
    monkeypatch.delenv("FANFORGE_CAP", raising=False)
    path = tmp_path / "ladder.fan"
    path.write_text(serialize_chain(ladder(random.Random(129), 4, 5)))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid fan: 64 characters on 129 elements\n"


COMMANDS = ("validate", "chars", "levels", "rootsys", "strata", "sgs", "iso", "represent",
            "check-forest", "realize", "gen", "suite")
HELP_AND_ERROR_ARGVS = ([["--help"], ["-h"], ["--he"], [], ["--", "iso"], ["nonsense"],
                         ["iso", "a.fan"], ["iso", "a.fan", "b.fan", "--seed", "x"],
                         ["suite", "--seed", "x"], ["sgs", "a.fan", "--seed", "1.5"]]
                        + [[cmd, "-h"] for cmd in COMMANDS]
                        # every command but suite has a required argument
                        + [[cmd] for cmd in COMMANDS if cmd != "suite"])
VALID_ARGVS = [
    ["validate", "a.fan"], ["chars", "a.fan"], ["levels", "a.fan"], ["rootsys", "a.fan"],
    ["rootsys", "--d", "C"], ["strata", "a.fan"], ["sgs", "a.fan"], ["sgs", "a.fan", "--seed", "3"],
    ["iso", "A", "B"], ["iso", "A", "B", "--se", "3"], ["represent", "a.fan", "v.txt"],
    ["check-forest", "f.forest"], ["realize", "F"], ["realize", "F", "--o", "out"],
    ["gen", "--seed", "1"],
    ["gen", "--seed", "1", "--levels", "3", "--maxdim", "2", "--count", "4", "--outdir", "d"],
    ["suite"], ["suite", "--seed", "2", "--levels", "3", "--maxdim", "2", "--count", "5"],
]


def _parse_output(parser, argv, capsys):
    """stdout, stderr and exit code of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (*capsys.readouterr(), exc.value.code)


def _argparse_formatter(parser):
    """The parser with argparse's own formatter, which reads the terminal
    width each time it is made, on the root and on every subparser."""
    parser.formatter_class = argparse.HelpFormatter
    sub = next(a for a in parser._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(COMMANDS)
    for p in sub.choices.values():
        p.formatter_class = argparse.HelpFormatter
    return parser


@pytest.mark.parametrize("columns", [None, "30", "57", "80", "200"])
def test_help_and_errors_match_argparse_formatter(columns, monkeypatch, capsys):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for argv in HELP_AND_ERROR_ARGVS:
        got = _parse_output(fanforge.cli.build_parser(), argv, capsys)
        assert got == _parse_output(_argparse_formatter(fanforge.cli.build_parser()), argv, capsys)
        assert main(argv) == (2 if got[2] else 0)
        assert capsys.readouterr() == got[:2]


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_named_build_parses_like_the_full_build(argv):
    args = fanforge.cli.build_parser(argv).parse_args(argv)
    assert args == fanforge.cli.build_parser().parse_args(argv)
    assert args.command == argv[0] and callable(args.fn)


def test_valid_argvs_cover_every_command():
    assert {argv[0] for argv in VALID_ARGVS} == set(COMMANDS)


def test_named_build_gives_other_commands_no_actions():
    named = _subparsers(fanforge.cli.build_parser(["iso", "a.fan", "b.fan"]))
    assert list(named) == list(COMMANDS)
    assert [cmd for cmd, p in named.items() if p._actions] == ["iso"]
    full = _subparsers(fanforge.cli.build_parser())
    assert all(p._actions for p in full.values())


def test_main_builds_the_parser_named_by_sys_argv(monkeypatch, capsys):
    seen = []
    build = fanforge.cli.build_parser

    def spy(argv=None):
        seen.append(argv)
        return build(argv)

    monkeypatch.setattr(fanforge.cli, "build_parser", spy)
    monkeypatch.setattr(sys, "argv", ["fanforge", "iso", "-h"])
    assert main() == 0
    assert seen == [["iso", "-h"]]
    assert capsys.readouterr().out.startswith("usage: fanforge iso ")


def test_help_width_is_read_per_call(monkeypatch, capsys):
    outs = []
    for columns in ("30", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["--help"]) == 0
        outs.append(capsys.readouterr().out)
    description = "Finite fan workbench: chain files in, order data out."
    assert description not in outs[0] and description in outs[1]


def test_terminal_width_read_once_per_parser(monkeypatch, capsys):
    calls = []
    size = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    fanforge.cli.build_parser()
    assert len(calls) == 1
    assert main(["suite", "-h"]) == 0
    assert main(["iso", "a.fan"]) == 2
    assert len(calls) == 3
    capsys.readouterr()


def test_input_errors(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.fan")]) == 2
    bad = tmp_path / "bad.fan"
    bad.write_text("not a chain\n")
    assert main(["validate", str(bad)]) == 2
    assert main(["nonsense"]) == 2
