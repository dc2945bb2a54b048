"""CLI: exit codes, output stability, schema validity, round-trips."""

import contextlib
import gc
import io
import json
import time
import tracemalloc
import weakref
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from qdistmat import cli, closedforms, identities, permlab
from qdistmat.polyring import Poly
from qdistmat.treekit import (enumerate_trees, load_tree, random_tree, random_trees,
                              tree_to_json_dict)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output-schema.json").read_text()
)


@pytest.fixture()
def runner():
    return CliRunner()


def validated_json(result):
    payload = json.loads(result.output)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_det_plain_path4(runner):
    result = runner.invoke(cli.main, ["det", "--path", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "tree: n=4 edges=(1,2,1) (2,3,1) (3,4,1)"
    assert "det(Dq) = -3 - 6*q - 3*q^2" in lines
    assert "closed(Dq) = -3 - 6*q - 3*q^2" in lines
    assert lines[-1] == "result: PASS (4/4)"


def test_det_star_equals_path_determinants(runner):
    a = runner.invoke(cli.main, ["det", "--path", "4", "--output", "json"])
    b = runner.invoke(cli.main, ["det", "--star", "4", "--output", "json"])
    pa, pb = validated_json(a), validated_json(b)
    assert [c["determinant"] for c in pa["checks"]] == [
        c["determinant"] for c in pb["checks"]
    ]


def test_det_json_schema(runner):
    result = runner.invoke(cli.main, ["det", "--random", "5", "--max-weight", "3",
                                      "--seed", "11", "--output", "json"])
    assert result.exit_code == 0
    payload = validated_json(result)
    assert payload["pass"] is True


def test_det_on_100_weighted_vertices_is_sparse_work(runner):
    # a cost guard: the dense elimination took about 17 s of CPU for this
    # command and the sparse one about 0.1 s, so 5 s is far from both
    start = time.process_time()
    result = runner.invoke(cli.main, ["det", "--random", "100", "--max-weight", "4",
                                      "--seed", "0", "--output", "json"])
    elapsed = time.process_time() - start
    assert result.exit_code == 0
    assert validated_json(result)["pass"] is True
    assert elapsed <= 5, elapsed


def test_det_csv(runner):
    result = runner.invoke(cli.main, ["det", "--path", "3", "--output", "csv"])
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()
    assert rows[0] == "name,determinant,closed,pass"
    assert len(rows) == 5


def test_det_rejects_cycle_file(runner, tmp_path):
    bad = tmp_path / "cycle.txt"
    bad.write_text("3\n1 2 1\n2 3 1\n1 3 1\n")
    result = runner.invoke(cli.main, ["det", "--tree", str(bad)])
    assert result.exit_code == 2


class TreeFile(str):
    """A tree file's text or JSON, written to a file whose path replaces it."""


@pytest.mark.parametrize("args", [
    ["verify", "--random", "5", "--max-weight", "0"],
    ["det", "--random", "3", "--max-weight", "0"],
    ["gen-tree", "--random", "1"],
    ["wiener", "--random", "1"],
    ["verify", "--exhaustive", "3", "--weight", "0"],
    ["enumerate", "--exhaustive", "3", "--weight", "0"],
    ["det", "--path", "0"],
    ["det", "--star", "0"],
    ["det", "--random", "3", "--max-weight", "100000000000"],
    ["verify", "--random", "3", "--max-weight", "100000000000"],
    ["wiener", "--path", "3", "--weights", "6000 5000"],
    # a JSON tree file takes only JSON integers (not bool) for n and edge fields
    ["det", "--tree", TreeFile('{"n": 2, "edges": [[1, 2, 1e400]]}')],
    ["det", "--tree", TreeFile('{"n": 1e400, "edges": [[1, 2, 1]]}')],
    ["det", "--tree", TreeFile('{"n": 2, "edges": [[1, 2, 1.5]]}')],
    ["det", "--tree", TreeFile('{"n": 2.0, "edges": [[1, 2, 1]]}')],
    ["det", "--tree", TreeFile('{"n": 3, "edges": [[1, 2, 1], [true, 3, 1]]}')],
    ["det", "--tree", TreeFile('{"n": 2, "edges": [[1, "2", 1]]}')],
    ["gen-tree", "--tree", TreeFile('{"n": 3, "edges": [[1, 2, 2.0], [2, 3, 1]]}')],
    ["det", "--tree", TreeFile('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")],
    # integers in text input are an optional sign and ASCII digits
    ["det", "--path", "3", "--weights", "1_0 \u0663"],
    ["det", "--path", "3", "--weights", "1_0 1"],
    ["det", "--path", "3", "--weights", "1 \u0663"],
    ["det", "--prufer", "\u0662"],
    ["det", "--prufer", "+-2"],
    ["det", "--tree", TreeFile("3\n1 2 1_0\n2 3 1\n")],
    ["det", "--tree", TreeFile("\u0663\n1 2 1\n2 3 1\n")],
])
def test_bad_tree_input_exits_2(runner, tmp_path, args):
    args = list(args)
    for i, arg in enumerate(args):
        if isinstance(arg, TreeFile):
            path = tmp_path / "tree.json"
            path.write_text(arg, encoding="utf-8")
            args[i] = str(path)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


# every integer option, the command that takes it and the other arguments
# that make a run with the option set to 3 exit 0
INT_OPTIONS = [
    (cmd, opt, base)
    for cmd in ("det", "wiener", "gen-tree", "perm-table")
    for opt, base in (("--random", []), ("--path", []), ("--star", []),
                      ("--max-weight", ["--random", "4"]), ("--seed", ["--random", "4"]))
] + [
    ("verify", "--exhaustive", []),
    ("verify", "--random", []),
    ("verify", "--trials", []),
    ("verify", "--n-max", ["--random", "2"]),
    ("verify", "--max-weight", ["--random", "2"]),
    ("verify", "--seed", ["--random", "2"]),
    ("verify", "--weight", ["--exhaustive", "3"]),
    ("perm-table", "--k-max", ["--path", "3"]),
    ("enumerate", "--exhaustive", []),
    ("enumerate", "--weight", ["--exhaustive", "3"]),
]


def test_int_options_cover_every_integer_option():
    declared = {(name, p.opts[0]) for name, command in cli.main.commands.items()
                for p in command.params if p.type.name.startswith("integer")}
    assert declared == {(cmd, opt) for cmd, opt, _ in INT_OPTIONS}


@pytest.mark.parametrize("cmd, opt, base", INT_OPTIONS,
                         ids=[f"{cmd}{opt}" for cmd, opt, _ in INT_OPTIONS])
def test_integer_options_take_ascii_digits_only(runner, cmd, opt, base):
    # int() would read "0_3" and the Arabic-Indic digit three as 3
    assert runner.invoke(cli.main, [cmd, *base, opt, "3"]).exit_code == 0
    for token in ("0_3", "\u0663", "3.0", "x"):
        result = runner.invoke(cli.main, [cmd, *base, opt, token])
        assert result.exit_code == 2, (token, result.output)
        assert opt in result.stderr and "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


def test_gen_tree_unwritable_out_exits_2(runner, tmp_path):
    for out in (tmp_path / "missing" / "tree.txt", tmp_path):
        result = runner.invoke(cli.main, ["gen-tree", "--path", "3", "-o", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_det_unreadable_tree_exits_2(runner, tmp_path):
    not_utf8 = tmp_path / "cp1252.txt"
    not_utf8.write_bytes(b"\x961 2 1\n")
    for path in (tmp_path / "missing.txt", tmp_path, not_utf8):
        result = runner.invoke(cli.main, ["det", "--tree", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot read {path}: ")
        assert "Usage:" not in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_det_empty_path_names_vertex_bound(runner):
    for source in ("--path", "--star"):
        result = runner.invoke(cli.main, ["det", source, "0"])
        assert "n >= 1" in result.stderr
        assert "weights" not in result.stderr


def test_total_weight_cap(runner):
    cap = cli.MAX_TOTAL_WEIGHT
    result = runner.invoke(cli.main, ["gen-tree", "--path", "3", "--weights",
                                      f"{cap // 2} {cap - cap // 2}"])
    assert result.exit_code == 0
    result = runner.invoke(cli.main, ["gen-tree", "--path", "3", "--weights",
                                      f"{cap // 2} {cap - cap // 2 + 1}"])
    assert result.exit_code == 2
    assert f"total edge weight {cap + 1} exceeds {cap}" in result.stderr
    # a streamed corpus is checked tree by tree, before any output
    result = runner.invoke(cli.main, ["enumerate", "--exhaustive", "3", "--weight",
                                      str(cap)])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_vertex_count_cap_comes_before_the_tree(runner, monkeypatch):
    # every weight is at least 1, so N vertices weigh at least N - 1: these
    # exit 2 without building a tree
    def forbidden(*args):
        raise AssertionError("a tree was built")

    for name in ("random_tree", "path_tree", "star_tree", "random_trees"):
        monkeypatch.setattr(cli, name, forbidden)
    cap, big = cli.MAX_TOTAL_WEIGHT, 10 ** 9
    for args in (["det", "--random", big], ["wiener", "--path", big],
                 ["gen-tree", "--star", big], ["verify", "--random", 1, "--n-max", big]):
        result = runner.invoke(cli.main, [str(a) for a in args])
        assert result.exit_code == 2, (args, result.output)
        assert result.stderr == (f"error: {args[-2]} {big}: total edge weight at least "
                                 f"{big - 1} exceeds {cap} (matrix entries are dense "
                                 "polynomials of that degree)\n")
    monkeypatch.undo()
    assert runner.invoke(cli.main, ["gen-tree", "--path", str(cap + 1)]).exit_code == 0
    assert runner.invoke(cli.main, ["gen-tree", "--path", str(cap + 2)]).exit_code == 2


def test_exhaustive_cap_message_shared(runner):
    for cmd in ("verify", "enumerate"):
        result = runner.invoke(cli.main, [cmd, "--exhaustive", "9"])
        assert result.exit_code == 2
        assert "--exhaustive supports 2..7 (use --allow-n8 to raise the cap)" in result.stderr
        result = runner.invoke(cli.main, [cmd, "--exhaustive", "9", "--allow-n8"])
        assert result.exit_code == 2
        assert "--exhaustive supports 2..8" in result.stderr
        assert "--allow-n8 to raise" not in result.stderr


def test_det_requires_one_source(runner):
    assert runner.invoke(cli.main, ["det"]).exit_code == 2
    assert runner.invoke(cli.main, ["det", "--path", "3", "--star", "4"]).exit_code == 2


def test_det_identity_failure_exits_1(runner, monkeypatch):
    monkeypatch.setattr(identities, "det_bareiss", lambda m: Poly([777]))
    result = runner.invoke(cli.main, ["det", "--path", "3"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_identity_failure_exits_1(runner, monkeypatch, tmp_path):
    monkeypatch.setattr(identities, "det_bareiss", lambda m: Poly([777]))
    result = runner.invoke(cli.main, ["verify", "--exhaustive", "4"])
    assert result.exit_code == 1
    first = next(enumerate_trees(4))
    line = f"FAIL det(Dq)==closed on {json.dumps(tree_to_json_dict(first))}"
    assert line in result.output.splitlines()
    assert result.output.splitlines()[-1] == "result: FAIL"
    (tmp_path / "tree.json").write_text(line.split(" on ", 1)[1])
    assert load_tree(str(tmp_path / "tree.json")) == first


@pytest.mark.parametrize("output", ["plain", "json"])
def test_structure_independence_failure_names_the_tree(runner, monkeypatch, output):
    # verify runs the suite on the first tree of each suite key only, so the
    # target is a tree whose key no earlier tree has, and not the first tree
    trees = list(enumerate_trees(4))
    keys = [identities.suite_key(t) for t in trees]
    target = next(t for i, t in enumerate(trees) if i and keys[i] not in keys[:i])
    real_suite = cli.identity_suite

    def perturbed(t):
        results, profile = real_suite(t)
        return results, (profile if t != target else profile[:-1] + (Poly([777]),))

    monkeypatch.setattr(cli, "identity_suite", perturbed)
    result = runner.invoke(cli.main, ["verify", "--exhaustive", "4", "--output", output])
    assert result.exit_code == 1
    if output == "json":
        payload = validated_json(result)
        assert payload["pass"] is False
        assert payload["failures"] == [
            {"tree": tree_to_json_dict(target), "check": "structure_independence"}
        ]
    else:
        fails = [ln for ln in result.output.splitlines() if ln.startswith("FAIL")]
        assert fails == [f"FAIL structure_independence on {json.dumps(tree_to_json_dict(target))}"]


def _branched(t):
    return any(len(nbrs) >= 3 for nbrs in t.adjacency())


def test_verify_tree_replays_a_failure(runner, monkeypatch, tmp_path):
    # corner_minor_closed goes wrong on the trees with a vertex of degree 3 or more
    current = []
    real_suite, real_corner = cli.identity_suite, closedforms.corner_minor_closed

    def suite(t):
        current[:] = [t]
        return real_suite(t)

    monkeypatch.setattr(cli, "identity_suite", suite)
    monkeypatch.setattr(closedforms, "corner_minor_closed", lambda w_u, w_v, rest:
                        real_corner(w_u, w_v, rest) + Poly([int(_branched(current[0]))]))
    sweep = runner.invoke(cli.main, ["verify", "--exhaustive", "5"])
    assert sweep.exit_code == 1
    fails = [ln for ln in sweep.output.splitlines() if ln.startswith("FAIL")]
    assert fails and all(ln.startswith("FAIL corner_minor on ") for ln in fails)
    line = fails[len(fails) // 2]
    (tmp_path / "tree.json").write_text(line.split(" on ", 1)[1])
    replay = runner.invoke(cli.main, ["verify", "--tree", str(tmp_path / "tree.json")])
    assert replay.exit_code == 1
    assert [ln for ln in replay.output.splitlines() if ln.startswith("FAIL")] == [line]
    assert replay.output.splitlines()[-1] == "result: FAIL"
    (tmp_path / "path.txt").write_text("5\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    replay = runner.invoke(cli.main, ["verify", "--tree", str(tmp_path / "path.txt"),
                                      "--output", "json"])
    assert replay.exit_code == 0
    payload = validated_json(replay)
    assert payload["mode"] == "tree" and payload["tree"]["n"] == 5
    assert payload["trees"] == 1 and payload["checks"] == 12 and payload["pass"] is True


@pytest.mark.parametrize("args", [
    ["--tree", "t.txt", "--exhaustive", "4"],
    ["--tree", "t.txt", "--random", "3"],
    ["--tree", "missing.txt"],
    ["--tree", "one.txt"],
    ["--tree", "cycle.txt"],
])
def test_verify_tree_usage_errors(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("2\n1 2 1\n")
    (tmp_path / "one.txt").write_text("1\n")
    (tmp_path / "cycle.txt").write_text("3\n1 2 1\n2 3 1\n3 1 1\n")
    result = runner.invoke(cli.main, ["verify", *args])
    assert result.exit_code == 2
    assert "Traceback" not in result.output and "trees:" not in result.stdout


@pytest.mark.parametrize("args", [
    ["--exhaustive", "6"],
    ["--exhaustive", "5", "--weight", "2"],
    ["--random", "200", "--n-max", "8"],
])
def test_verify_failures_match_a_direct_loop(runner, monkeypatch, speedups, args):
    # faults that depend on the class of a tree and its leaf pair: the memo
    # must report each on every labelled tree, in order.  The compiled
    # sweep keeps the two passes over 200 random trees short.
    monkeypatch.setattr(permlab, "_speedups", speedups)
    real_tables, real_corner = permlab.perm_tables, closedforms.corner_minor_closed

    def tables(t):
        n_table, m_table = real_tables(t)
        return n_table + Poly([int(_branched(t))]), m_table

    monkeypatch.setattr(permlab, "perm_tables", tables)
    monkeypatch.setattr(closedforms, "corner_minor_closed", lambda w_u, w_v, rest:
                        real_corner(w_u, w_v, rest) + Poly([int(w_u != w_v)]))
    result = runner.invoke(cli.main, ["verify", *args, "--output", "json"])
    assert result.exit_code == 1
    if args[0] == "--exhaustive":
        trees = enumerate_trees(int(args[1]), int(args[3]) if len(args) > 2 else 1)
    else:
        trees = random_trees(200, 2, 8, 4, 0)
    direct = []
    for t in trees:
        results, _ = identities.identity_suite(t)
        direct.extend({"tree": tree_to_json_dict(t), "check": name}
                      for name, ok in results if not ok)
    failures = validated_json(result)["failures"]
    assert failures == direct
    checks = {f["check"] for f in failures}
    assert checks == ({"genfun_N"} if args[0] == "--exhaustive" else {"genfun_N", "corner_minor"})


def test_verify_runs_the_suite_once_per_key(runner, monkeypatch):
    calls = []
    real = cli.identity_suite
    monkeypatch.setattr(cli, "identity_suite", lambda t: calls.append(t) or real(t))
    assert runner.invoke(cli.main, ["verify", "--exhaustive", "6"]).exit_code == 0
    assert len(calls) == 16
    # a random sweep whose keys repeat
    calls.clear()
    args = ["verify", "--random", "60", "--n-max", "3", "--max-weight", "1"]
    assert runner.invoke(cli.main, args).exit_code == 0
    keys = {identities.suite_key(t) for t in random_trees(60, 2, 3, 1, 0)}
    assert {identities.suite_key(t) for t in calls} == keys
    assert len(calls) == len(keys) == 2


def test_verify_memo_keeps_keys_and_verdicts_only(monkeypatch):
    # a random sweep whose keys almost never repeat; each suite hands back a
    # large profile, which the memo must not keep
    monkeypatch.setattr(cli, "identity_suite", lambda t: (
        [(f"check{i}", True) for i in range(15)], (Poly(range(1, 500)),) * 4))
    held = []

    def trees():
        yield from random_trees(200, 2, 20, 10, 0)
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        assert cli._run_verify_corpus(trees(), False) == (200, 3000, [])
    finally:
        tracemalloc.stop()
    assert held[0] - base < 300_000


def test_verify_exhaustive_7_json(runner):
    payload = validated_json(runner.invoke(cli.main, ["verify", "--exhaustive", "7",
                                                      "--output", "json"]))
    assert (payload["trees"], payload["checks"], payload["pass"]) == (16807, 201685, True)
    assert payload["failures"] == []


def test_verify_exhaustive(runner):
    result = runner.invoke(cli.main, ["verify", "--exhaustive", "5"])
    assert result.exit_code == 0
    assert "trees: 125" in result.output
    assert "failures: 0" in result.output
    assert result.output.splitlines()[-1] == "result: PASS"


def test_verify_random_deterministic(runner):
    args = ["verify", "--random", "25", "--n-max", "7", "--max-weight", "4",
            "--seed", "42", "--output", "json"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    payload = validated_json(a)
    assert payload["trees"] == 25 and payload["pass"] is True


def test_verify_usage_errors(runner):
    assert runner.invoke(cli.main, ["verify"]).exit_code == 2
    assert runner.invoke(cli.main, ["verify", "--random", "0"]).exit_code == 2
    assert runner.invoke(cli.main, ["verify", "--exhaustive", "8"]).exit_code == 2
    assert runner.invoke(
        cli.main, ["verify", "--exhaustive", "3", "--random", "5"]
    ).exit_code == 2


def test_verify_random_and_trials_conflict(runner):
    result = runner.invoke(cli.main, ["verify", "--random", "2", "--trials", "5"])
    assert result.exit_code == 2
    assert "--trials" in result.stderr
    assert "trees:" not in result.stdout


def test_verify_trials_alias(runner):
    result = runner.invoke(cli.main, ["verify", "--trials", "5", "--seed", "1"])
    assert result.exit_code == 0
    assert "trees: 5" in result.output


def test_perm_table_plain(runner):
    result = runner.invoke(cli.main, ["perm-table", "--path", "3"])
    assert result.exit_code == 0
    out = result.output
    assert "  0: 1 / 1 / 1" in out
    assert "  2: -2 / -2 / -2" in out
    assert "agreement(N): determinant PASS, closed PASS" in out
    assert "agreement(M): determinant PASS, closed PASS" in out


def test_perm_table_csv_path4(runner):
    result = runner.invoke(cli.main, ["perm-table", "--path", "4", "--output", "csv"])
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()
    assert rows[0] == "kind,k,oracle,determinant,closed"
    n_rows = [r for r in rows if r.startswith("N,")]
    assert [r.split(",")[1] for r in n_rows] == [str(k) for k in range(7)]


def test_perm_table_weighted_marks_closed_na(runner):
    result = runner.invoke(
        cli.main, ["perm-table", "--path", "3", "--weights", "2 1"]
    )
    assert result.exit_code == 0
    assert "n/a (weighted)" in result.output


@pytest.mark.parametrize("args", [
    ["--star", "4"],
    ["--path", "3", "--weights", "2 1"],
    ["--path", "4", "--k-max", "1"],
], ids=["star4", "weighted", "k-max"])
def test_perm_table_json_schema(runner, args):
    result = runner.invoke(
        cli.main, ["perm-table", *args, "--output", "json"]
    )
    payload = validated_json(result)
    assert payload["pass"] is True
    assert payload["tables"]["N"]["oracle"]["coeffs"]["0"] == 1
    weighted = "--weights" in args
    for kind, table in payload["tables"].items():
        for source in ("oracle", "determinant"):
            assert table[source]["kind"] == kind and table[source]["source"] == source
            assert all(table[source]["coeffs"].values())  # zero coefficients left out
        assert (table["closed"] is None) == weighted
        assert (table["oracle_vs_closed"] is None) == weighted
        if "--k-max" in args:  # it limits the rows shown, not the JSON tables
            assert table["closed"] == table["oracle"]["coeffs"]
            assert max(map(int, table["closed"])) > 1


def test_perm_table_k_max(runner):
    result = runner.invoke(
        cli.main, ["perm-table", "--path", "4", "--k-max", "2", "--output", "csv"]
    )
    rows = [r for r in result.output.strip().splitlines()[1:]]
    assert all(int(r.split(",")[1]) <= 2 for r in rows)


def test_perm_table_k_max_limits_rows_not_the_verdict(runner, monkeypatch):
    real = closedforms.dq_star_simple
    # a wrong closed-form coefficient at k = 2n - 2, far above --k-max 0
    monkeypatch.setattr(closedforms, "dq_star_simple",
                        lambda n: real(n) + Poly([0] * (2 * n - 2) + [5]))
    for extra in ([], ["--k-max", "0"]):
        result = runner.invoke(cli.main, ["perm-table", "--path", "4", *extra])
        assert result.exit_code == 1, extra
        assert "agreement(N): determinant PASS, closed FAIL" in result.output
        # the JSON document shows the coefficient that differs
        result = runner.invoke(cli.main, ["perm-table", "--path", "4", *extra,
                                          "--output", "json"])
        assert result.exit_code == 1, extra
        table = json.loads(result.stdout)["tables"]["N"]
        assert table["oracle_vs_closed"] is False
        assert table["closed"]["6"] == table["oracle"]["coeffs"].get("6", 0) + 5


def test_perm_table_rejects_negative_k_max(runner):
    result = runner.invoke(cli.main, ["perm-table", "--path", "4", "--k-max", "-1"])
    assert result.exit_code == 2
    assert "--k-max" in result.stderr
    assert "PASS" not in result.stdout


def test_perm_table_cap(runner):
    result = runner.invoke(cli.main, ["perm-table", "--random", "10"])
    assert result.exit_code == 2


def test_wiener_plain(runner):
    result = runner.invoke(cli.main, ["wiener", "--path", "4"])
    assert result.exit_code == 0
    assert "wiener polynomial: 3*q + 2*q^2 + q^3" in result.output
    assert "wiener index: 10" in result.output


def test_wiener_json_schema(runner):
    result = runner.invoke(cli.main, ["wiener", "--star", "6", "--output", "json"])
    payload = validated_json(result)
    assert payload["index"] == 5 + 2 * 10


def test_gen_tree_prufer_star(runner):
    result = runner.invoke(cli.main, ["gen-tree", "--prufer", "1 1"])
    assert result.exit_code == 0
    assert result.output == "4\n2 1 1\n3 1 1\n1 4 1\n"


def test_gen_tree_round_trip(runner, tmp_path):
    out = tmp_path / "t.txt"
    result = runner.invoke(
        cli.main, ["gen-tree", "--random", "6", "--seed", "7", "-o", str(out)]
    )
    assert result.exit_code == 0
    assert load_tree(str(out)).edge_set() == random_tree(6, 1, 7).edge_set()


def test_gen_tree_json_round_trip(runner, tmp_path):
    out = tmp_path / "t.json"
    result = runner.invoke(
        cli.main,
        ["gen-tree", "--star", "4", "--weights", "2 3 4", "--output", "json",
         "-o", str(out)],
    )
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert load_tree(str(out)).weights == (2, 3, 4)


def test_enumerate_counts(runner):
    result = runner.invoke(cli.main, ["enumerate", "--exhaustive", "3"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 3


def test_enumerate_json_lines_schema(runner):
    result = runner.invoke(
        cli.main, ["enumerate", "--exhaustive", "4", "--output", "json"]
    )
    lines = result.output.strip().splitlines()
    assert len(lines) == 16
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA)


def test_enumerate_cap(runner):
    assert runner.invoke(cli.main, ["enumerate", "--exhaustive", "8"]).exit_code == 2
    assert runner.invoke(cli.main, ["enumerate", "--exhaustive", "1"]).exit_code == 2


def test_backend_command(runner):
    result = runner.invoke(cli.main, ["backend"])
    assert result.output.strip() in ("compiled", "pure")


def test_in_process_call_releases_redirected_stdout():
    # a caller that runs the CLI in-process and redirects stdout must get
    # its buffer back: nothing the call leaves behind may keep it alive
    buf = io.StringIO()
    ref = weakref.ref(buf)
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            cli.main.main(["verify", "--exhaustive", "3", "--output", "json"],
                          prog_name="qdistmat")
    assert exc.value.code == 0
    assert json.loads(buf.getvalue())["pass"] is True
    del buf
    gc.collect()
    assert ref() is None
