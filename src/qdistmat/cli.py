"""Command-line front end.

Subcommands: det (determinants vs. closed forms for one tree), verify
(identity sweeps over exhaustive or random tree corpora), perm-table
(signed permutation statistics), wiener, gen-tree, and enumerate.  The
identities that det and verify check live in ``qdistmat.identities``;
this module parses arguments, resolves trees and formats results.

Exit status contract: 0 all checks passed, 1 a mathematical identity
failed, 2 invalid input or usage.  All randomness flows from --seed, so a
run can be repeated.  verify prints each failing tree as a JSON tree,
which --tree FILE reads, so verify --tree FILE replays every check on it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys

import click

from . import closedforms, permlab, wiener
from .identities import det_checks, identity_suite, suite_key
from .polyring import Poly
from .treekit import (
    MAX_EXHAUSTIVE_N,
    WeightedTree,
    enumerate_trees,
    load_tree,
    parse_int,
    path_tree,
    prufer_decode,
    random_tree,
    random_trees,
    star_tree,
    tree_to_json_dict,
    tree_to_text,
)

DEFAULT_EXHAUSTIVE_CAP = 7
# whole `verify --exhaustive 8` processes, quoted by --allow-n8 and its warning
N8_SWEEP_TIME = "about 22 s compiled and 50 s pure on a 2-core machine with Python 3.11"
# Matrix entries, the Wiener polynomial and the determinants are dense
# polynomials whose degrees grow with the total edge weight; this cap bounds
# that degree, not n, time or memory.  Every weight is at least 1, so a
# unit-weight tree on up to 10001 vertices passes it (`det --path 10001`),
# and the n x n distance table and matrices grow as n^2.
MAX_TOTAL_WEIGHT = 10_000

EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2


def _echo(message: str, err: bool = False, nl: bool = True):
    # naming the stream bypasses click's default-stream cache, which maps each
    # stream to itself and so keeps every buffer stdout was redirected to alive
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail_usage(message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


def _make_trees(factory, *args):
    """Call a tree constructor; a rejected tree or tree parameter exits 2.

    ``InvalidTreeError`` is a ``ValueError``, and the random and exhaustive
    generators raise ``ValueError`` on bad parameters at call time.  A tree
    whose total weight exceeds ``MAX_TOTAL_WEIGHT`` is rejected too; for a
    generator, when the loop reaches it.
    """
    try:
        made = factory(*args)
    except ValueError as exc:
        _fail_usage(str(exc))
    if isinstance(made, WeightedTree):
        return _weight_capped(made)
    return map(_weight_capped, made)


def _check_weight_cap(total: int, what: str = "total edge weight"):
    if total > MAX_TOTAL_WEIGHT:
        _fail_usage(f"{what} {total} exceeds {MAX_TOTAL_WEIGHT} "
                    "(matrix entries are dense polynomials of that degree)")


def _weight_capped(t: WeightedTree) -> WeightedTree:
    _check_weight_cap(sum(t.weights))
    return t


def _check_vertex_cap(option: str, n: int):
    # every weight is at least 1, so a tree on n vertices weighs at least n - 1
    _check_weight_cap(n - 1, f"{option} {n}: total edge weight at least")


def _check_exhaustive_cap(exhaustive_n: int, allow_n8: bool):
    cap = MAX_EXHAUSTIVE_N if allow_n8 else DEFAULT_EXHAUSTIVE_CAP
    if not 2 <= exhaustive_n <= cap:
        raise click.UsageError(
            f"--exhaustive supports 2..{cap}"
            + ("" if allow_n8 else " (use --allow-n8 to raise the cap)")
        )


class IntegerParam(click.ParamType):
    """An integer option, at least ``min``, spelled as ``treekit.parse_int`` reads it.

    ``int`` would also take "1_0" and non-ASCII digits; they exit 2 here,
    as in ``--weights``, ``--prufer`` and tree files.
    """

    name = "integer"

    def __init__(self, min=None):
        self.min = min

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            try:
                value = parse_int(value)
            except ValueError:
                self.fail(f"{value!r} is not a valid integer.", param, ctx)
        if self.min is not None and value < self.min:
            self.fail(f"{value} is not in the range x>={self.min}.", param, ctx)
        return value


INTEGER = IntegerParam()


# -- tree sources ----------------------------------------------------------


def tree_source_options(f):
    """Add the tree-source options; the command receives the tree as ``t``."""

    @functools.wraps(f)
    def command(tree_file, prufer_seq, random_n, path_n, star_n,
                weights_text, max_weight, seed, **kwargs):
        t = _make_trees(resolve_tree, tree_file, prufer_seq, random_n, path_n,
                        star_n, weights_text, max_weight, seed)
        return f(t, **kwargs)

    opts = [
        click.option("--tree", "tree_file", metavar="FILE", default=None,
                     help="Read the tree from FILE (text or JSON format)."),
        click.option("--prufer", "prufer_seq", metavar='"A B ..."', default=None,
                     help="Decode a Prufer sequence (n = length + 2)."),
        click.option("--random", "random_n", type=INTEGER, default=None, metavar="N",
                     help="Random labeled tree on N vertices."),
        click.option("--path", "path_n", type=INTEGER, default=None, metavar="N",
                     help="Path on N vertices."),
        click.option("--star", "star_n", type=INTEGER, default=None, metavar="N",
                     help="Star on N vertices (center is the last vertex)."),
        click.option("--weights", "weights_text", metavar='"W1 W2 ..."', default=None,
                     help="Edge weights for --prufer/--path/--star (default all 1)."),
        click.option("--max-weight", type=INTEGER, default=1, show_default=True,
                     help="Weight bound for --random."),
        click.option("--seed", type=INTEGER, default=0, show_default=True,
                     help="Seed for --random."),
    ]
    for opt in reversed(opts):
        command = opt(command)
    return command


def _parse_ints(text: str, what: str) -> list[int]:
    # a ValueError, so that _make_trees reports it as bad tree input
    try:
        return [parse_int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"{what} must be whitespace-separated integers, got {text!r}")


def _read_tree_file(path: str) -> WeightedTree:
    try:
        return load_tree(path)
    except (OSError, UnicodeDecodeError) as exc:
        _fail_usage(f"cannot read {path}: {exc}")


def resolve_tree(tree_file, prufer_seq, random_n, path_n, star_n,
                 weights_text, max_weight, seed) -> WeightedTree:
    chosen = [x for x in (tree_file, prufer_seq, random_n, path_n, star_n) if x is not None]
    if len(chosen) != 1:
        raise click.UsageError(
            "exactly one tree source is required: --tree, --prufer, --random, --path or --star"
        )
    weights = _parse_ints(weights_text, "--weights") if weights_text is not None else None
    if tree_file is not None:
        if weights is not None:
            raise click.UsageError("--weights does not apply to --tree")
        return _read_tree_file(tree_file)
    if prufer_seq is not None:
        seq = _parse_ints(prufer_seq, "--prufer") if prufer_seq.strip() else []
        n = len(seq) + 2
        return prufer_decode(seq, n, weights if weights is not None else [1] * (n - 1))
    if random_n is not None:
        if weights is not None:
            raise click.UsageError("--weights does not apply to --random (use --max-weight)")
        _check_vertex_cap("--random", random_n)
        return random_tree(random_n, max_weight, seed)
    if path_n is not None:
        _check_vertex_cap("--path", path_n)
        return path_tree(path_n, weights if weights is not None else [1] * (path_n - 1))
    _check_vertex_cap("--star", star_n)
    return star_tree(star_n, weights if weights is not None else [1] * (star_n - 1))


def format_tree_line(t: WeightedTree) -> str:
    edges = " ".join(f"({u},{v},{w})" for u, v, w in t.edges)
    return f"tree: n={t.n} edges={edges}"


# -- output plumbing -------------------------------------------------------

output_option = click.option(
    "--output", "fmt", type=click.Choice(["plain", "json", "csv"]),
    default="plain", show_default=True, help="Output format.",
)


def emit_json(payload: dict):
    _echo(json.dumps(payload, indent=2))


def emit_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _echo(buf.getvalue().rstrip("\n"))


@click.group()
@click.version_option(package_name="qdistmat")
def main():
    """Exact q-distance matrices of weighted trees."""


# -- det -------------------------------------------------------------------


@main.command("det")
@tree_source_options
@output_option
def cmd_det(t, fmt):
    """Determinants of all four matrix constructions vs. closed forms."""
    if t.n < 2:
        raise click.UsageError("det needs a tree with at least 2 vertices")
    checks = det_checks(t)
    ok = all(c.passed for c in checks)
    if fmt == "json":
        emit_json({
            "command": "det",
            "tree": tree_to_json_dict(t),
            "checks": [
                {"name": c.name, "determinant": str(c.determinant),
                 "closed": str(c.closed), "pass": c.passed}
                for c in checks
            ],
            "pass": ok,
        })
    elif fmt == "csv":
        emit_csv(["name", "determinant", "closed", "pass"],
                 [(c.name, str(c.determinant), str(c.closed), c.passed) for c in checks])
    else:
        _echo(format_tree_line(t))
        for c in checks:
            _echo(f"det({c.name}) = {c.determinant}")
            _echo(f"closed({c.name}) = {c.closed}")
            _echo(f"check({c.name}): {'PASS' if c.passed else 'FAIL'}")
        passed = sum(c.passed for c in checks)
        _echo(f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(checks)})")
    if not ok:
        sys.exit(EXIT_IDENTITY_FAILURE)


# -- verify ----------------------------------------------------------------


def _run_verify_corpus(trees, check_structure_independence):
    """Run the identity suite over ``trees``; return (trees, checks, failures).

    The suite runs once per ``suite_key``, which fixes all its results
    (``identities.suite_key`` shows why), and keeps only its verdicts; every
    tree still counts its own checks and failures, in the order the trees
    come.  A key fixes the weighted tree up to isomorphism, so the first
    tree of a multiset opens a key, and a known key repeats its profile:
    comparing profiles as keys open finds the first mismatching tree.
    """
    checks = 0
    failures = []
    suites = {}  # suite_key -> (number of checks, names of the failed checks)
    first_profiles = {}  # weight multiset -> profile of the first tree with it
    mismatches = {}  # weight multiset -> first tree whose profile differs
    count = 0
    for t in trees:
        count += 1
        skey = suite_key(t)
        if skey not in suites:
            results, profile = identity_suite(t)
            suites[skey] = len(results), tuple(name for name, ok in results if not ok)
            key = (t.n, tuple(sorted(t.weights)))
            if check_structure_independence and first_profiles.setdefault(key, profile) != profile:
                mismatches.setdefault(key, t)
        size, failed = suites[skey]
        checks += size
        failures.extend({"tree": tree_to_json_dict(t), "check": name} for name in failed)
    if check_structure_independence:
        checks += len(first_profiles)
        failures.extend({"tree": tree_to_json_dict(t), "check": "structure_independence"}
                        for t in mismatches.values())
    return count, checks, failures


@main.command("verify")
@click.option("--tree", "tree_file", metavar="FILE", default=None,
              help="Check the one tree in FILE (text or JSON format).")
@click.option("--exhaustive", "exhaustive_n", type=INTEGER, default=None, metavar="N",
              help="Check every labeled tree on N vertices (unit weights).")
@click.option("--random", "trials", type=INTEGER, default=None, metavar="T",
              help="Check T random weighted trees.")
@click.option("--trials", "trials_alias", type=INTEGER, default=None, metavar="T",
              help="Alias for --random T.")
@click.option("--n-max", type=INTEGER, default=7, show_default=True,
              help="Largest vertex count for random trees (min 2).")
@click.option("--max-weight", type=INTEGER, default=4, show_default=True,
              help="Largest edge weight for random trees.")
@click.option("--seed", type=INTEGER, default=0, show_default=True)
@click.option("--weight", type=INTEGER, default=1, show_default=True,
              help="Uniform edge weight for --exhaustive.")
@click.option("--allow-n8", is_flag=True,
              help=f"Raise the exhaustive cap from 7 to 8 (262144 trees, {N8_SWEEP_TIME}).")
@output_option
def cmd_verify(tree_file, exhaustive_n, trials, trials_alias, n_max, max_weight,
               seed, weight, allow_n8, fmt):
    """Run the full identity suite over one tree or a corpus of trees."""
    if trials is not None and trials_alias is not None:
        raise click.UsageError("--trials is an alias for --random; give only one of them")
    if trials is None:
        trials = trials_alias
    if [tree_file, exhaustive_n, trials].count(None) != 2:
        raise click.UsageError("choose exactly one of --tree FILE, --exhaustive N or --random T")
    if tree_file is not None:
        t = _make_trees(_read_tree_file, tree_file)
        if t.n < 2:
            raise click.UsageError("verify needs a tree with at least 2 vertices")
        trees = [t]
        mode = {"mode": "tree", "tree": tree_to_json_dict(t)}
    elif exhaustive_n is not None:
        _check_exhaustive_cap(exhaustive_n, allow_n8)
        if exhaustive_n == MAX_EXHAUSTIVE_N:
            _echo(f"warning: exhaustive n=8 sweeps 262144 trees; expect {N8_SWEEP_TIME}",
                  err=True)
        trees = _make_trees(enumerate_trees, exhaustive_n, weight)
        mode = {"mode": "exhaustive", "n": exhaustive_n, "weight": weight}
    else:
        if trials < 1:
            raise click.UsageError("--random needs at least 1 trial")
        if n_max < 2:
            raise click.UsageError("--n-max must be at least 2")
        _check_vertex_cap("--n-max", n_max)
        trees = _make_trees(random_trees, trials, 2, n_max, max_weight, seed)
        mode = {"mode": "random", "trials": trials, "n_max": n_max,
                "max_weight": max_weight, "seed": seed}
    count, checks, failures = _run_verify_corpus(trees, mode["mode"] == "exhaustive")
    ok = not failures
    if fmt == "json":
        emit_json({
            "command": "verify", **mode, "trees": count, "checks": checks,
            "failures": failures, "pass": ok,
        })
    elif fmt == "csv":
        emit_csv(["trees", "checks", "failures", "pass"],
                 [(count, checks, len(failures), ok)])
    else:
        if mode["mode"] == "tree":
            desc = f"tree {json.dumps(mode['tree'])}"
        elif mode["mode"] == "exhaustive":
            desc = f"exhaustive n={mode['n']} weight={mode['weight']}"
        else:
            desc = (f"random trials={mode['trials']} n_max={mode['n_max']} "
                    f"max_weight={mode['max_weight']} seed={mode['seed']}")
        _echo(f"verify: {desc}")
        _echo(f"trees: {count}")
        _echo(f"checks: {checks}")
        _echo(f"failures: {len(failures)}")
        for f in failures:
            _echo(f"FAIL {f['check']} on {json.dumps(f['tree'])}")
        _echo(f"result: {'PASS' if ok else 'FAIL'}")
    if not ok:
        sys.exit(EXIT_IDENTITY_FAILURE)


# -- perm-table --------------------------------------------------------------


def _table_json(kind: str, n: int, table: Poly, source: str) -> dict:
    coeffs = {str(k): c for k, c in enumerate(table.coeffs) if c}
    return {"kind": kind, "n": n, "coeffs": coeffs, "source": source}


@main.command("perm-table")
@tree_source_options
@click.option("--k-max", type=IntegerParam(min=0), default=None,
              help="Largest k to report, at least 0 (default: largest nonzero entry).")
@output_option
def cmd_perm_table(t, k_max, fmt):
    """Signed permutation statistics: oracle, determinant, and closed forms."""
    if t.n < 2 or t.n > permlab.PERM_MAX_N:
        raise click.UsageError(f"perm-table supports 2 <= n <= {permlab.PERM_MAX_N}")
    simple = t.is_simple()
    n_table, m_table = permlab.perm_tables(t)
    dets = {c.name: c.determinant for c in det_checks(t)}
    tables = {
        "N": (n_table, dets["Dq*"], closedforms.dq_star_simple(t.n) if simple else None),
        "M": (m_table, dets["Dq"], closedforms.dq_simple(t.n) if simple else None),
    }
    ok = True
    payload_tables = {}
    plain = [format_tree_line(t)]
    csv_rows = []
    for kind, (oracle, fromdet, closed) in tables.items():
        top = max([0] + [len(p.coeffs) - 1 for p in (oracle, fromdet, closed) if p is not None])
        if k_max is not None:
            top = min(top, k_max)
        det_ok = oracle == fromdet
        closed_ok = None if closed is None else oracle == closed
        ok = ok and det_ok and closed_ok is not False
        payload_tables[kind] = {
            "oracle": _table_json(kind, t.n, oracle, "oracle"),
            "determinant": _table_json(kind, t.n, fromdet, "determinant"),
            "closed": ({str(k): c for k, c in enumerate(closed.coeffs) if c}
                       if closed is not None else None),
            "oracle_vs_determinant": det_ok,
            "oracle_vs_closed": closed_ok,
        }
        plain.append(f"{kind}-table (k: oracle / determinant / closed):")
        for k in range(top + 1):
            cval = "n/a (weighted)" if closed is None else str(closed.coeff(k))
            plain.append(f"  {k}: {oracle.coeff(k)} / {fromdet.coeff(k)} / {cval}")
            csv_rows.append((kind, k, oracle.coeff(k), fromdet.coeff(k),
                             "" if closed is None else closed.coeff(k)))
        closed_desc = "n/a (weighted)" if closed_ok is None else ("PASS" if closed_ok else "FAIL")
        plain.append(f"agreement({kind}): determinant {'PASS' if det_ok else 'FAIL'}, "
                     f"closed {closed_desc}")
    plain.append(f"result: {'PASS' if ok else 'FAIL'}")
    if fmt == "json":
        emit_json({"command": "perm-table", "tree": tree_to_json_dict(t),
                   "simple": simple, "tables": payload_tables, "pass": ok})
    elif fmt == "csv":
        emit_csv(["kind", "k", "oracle", "determinant", "closed"], csv_rows)
    else:
        for line in plain:
            _echo(line)
    if not ok:
        sys.exit(EXIT_IDENTITY_FAILURE)


# -- wiener ------------------------------------------------------------------


@main.command("wiener")
@tree_source_options
@output_option
def cmd_wiener(t, fmt):
    """Wiener polynomial and Wiener index."""
    poly = wiener.wiener_poly(t)
    index = poly.derivative_at_one()
    if fmt == "json":
        emit_json({"command": "wiener", "tree": tree_to_json_dict(t),
                   "polynomial": str(poly), "coeffs": poly.json_coeffs(),
                   "index": index})
    elif fmt == "csv":
        emit_csv(["k", "coefficient"],
                 [(k, c) for k, c in enumerate(poly.coeffs)])
    else:
        _echo(format_tree_line(t))
        _echo(f"wiener polynomial: {poly}")
        _echo(f"wiener index: {index}")


# -- gen-tree ----------------------------------------------------------------


@main.command("gen-tree")
@tree_source_options
@click.option("-o", "--out", "out_file", metavar="FILE", default=None,
              help="Write to FILE instead of stdout.")
@click.option("--output", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True,
              help="plain = text tree format, json = JSON tree format.")
def cmd_gen_tree(t, out_file, fmt):
    """Generate a tree and write it in the tree file format."""
    text = (json.dumps(tree_to_json_dict(t), indent=2) + "\n") if fmt == "json" \
        else tree_to_text(t)
    if out_file:
        try:
            with open(out_file, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail_usage(f"cannot write {out_file}: {exc}")
    else:
        _echo(text, nl=False)


# -- enumerate ---------------------------------------------------------------


@main.command("enumerate")
@click.option("--exhaustive", "exhaustive_n", type=INTEGER, required=True, metavar="N",
              help="Vertex count (all labeled trees).")
@click.option("--weight", type=INTEGER, default=1, show_default=True,
              help="Uniform edge weight.")
@click.option("--allow-n8", is_flag=True,
              help="Raise the cap from 7 to 8 (262144 trees).")
@output_option
def cmd_enumerate(exhaustive_n, weight, allow_n8, fmt):
    """Stream every labeled tree on N vertices."""
    _check_exhaustive_cap(exhaustive_n, allow_n8)
    trees = _make_trees(enumerate_trees, exhaustive_n, weight)
    if fmt == "csv":
        emit_csv(["tree", "u", "v", "w"],
                 ((idx, u, v, w) for idx, t in enumerate(trees) for u, v, w in t.edges))
    elif fmt == "json":
        for t in trees:
            _echo(json.dumps(tree_to_json_dict(t)))
    else:
        for t in trees:
            _echo(" ".join([str(t.n)] + [f"{u},{v},{w}" for u, v, w in t.edges]))


@main.command("backend")
def cmd_backend():
    """Report which kernel backend is active."""
    _echo(permlab.BACKEND)


if __name__ == "__main__":
    main()
