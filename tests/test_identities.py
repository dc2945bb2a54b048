"""The identity suite: the checks it runs, and that it computes each value once."""

import pytest

from qdistmat import closedforms, exactdet, identities
from qdistmat.exactdet import det_bareiss
from qdistmat.polyring import qbracket
from qdistmat.qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star, minor
from qdistmat.treekit import (
    enumerate_trees,
    from_edges,
    path_tree,
    pendant_first_last,
    random_tree,
)

BUILDERS = ("build_d", "build_d_plus_xJ", "build_dq_star", "build_dq")


def expected_names(n, simple):
    names = [f"det({m})==closed" for m in ("D", "D+xJ", "Dq*", "Dq")]
    if simple:
        names += ["graham_pollak", "dq_simple", "dq_star_simple"]
    if n >= 3:
        names += ["dodgson_identity", "corner_minor"]
    if n >= 4:
        names += ["recurrence16"]
    if n <= 8:
        names += ["genfun_N", "genfun_M"]
    return names


@pytest.mark.parametrize("t", [
    path_tree(2, [1]),
    path_tree(3, [1, 1]),
    path_tree(4, [1, 1, 1]),
    random_tree(5, 4, 12),
    random_tree(9, 1, 3),
], ids=["path2", "path3", "path4", "weighted5", "tree9"])
def test_suite_names_count_and_profile(t):
    n, simple = t.n, t.is_simple()
    results, profile = identities.identity_suite(t)
    names = [name for name, _ in results]
    assert names == expected_names(n, simple)
    assert len(names) == 4 + 3 * simple + 2 * (n >= 3) + (n >= 4) + 2 * (n <= 8)
    assert all(ok for _, ok in results), results
    assert profile == tuple(
        det_bareiss(b(t)) for b in (build_d, build_d_plus_xJ, build_dq_star, build_dq)
    )


@pytest.mark.parametrize("name, check",
                         [(m, f"det({m})==closed") for m in ("D", "D+xJ", "Dq*", "Dq")]
                         + [(c, c) for c in ("graham_pollak", "dq_simple", "dq_star_simple")])
def test_a_wrong_closed_form_fails_its_check(monkeypatch, name, check):
    form = {"D": "bkn_det", "D+xJ": "bkn_det_xj", "Dq*": "dq_star_closed",
            "Dq": "dq_closed"}.get(name, name)
    real = getattr(closedforms, form)
    monkeypatch.setattr(closedforms, form, lambda arg: real(arg) + 1)
    results, _ = identities.identity_suite(path_tree(5, [1, 1, 1, 1]))
    # bkn_det is the constant term of bkn_det_xj, so a wrong shift fails D too
    failing = ["det(D)==closed", check] if name == "D+xJ" else [check]
    assert [n for n, ok in results if not ok] == failing


def test_each_matrix_and_determinant_once(monkeypatch):
    calls = {"dets": 0, "builds": 0}
    real_det = exactdet.bareiss_det

    def counted_det(rows):
        calls["dets"] += 1
        return real_det(rows)

    # the elimination itself, so that the determinants of minors count too
    monkeypatch.setattr(exactdet, "bareiss_det", counted_det)
    for name in BUILDERS:
        def counted_build(tree, real=getattr(identities, name)):
            calls["builds"] += 1
            return real(tree)

        monkeypatch.setattr(identities, name, counted_build)

    def work(t):
        calls.update(dets=0, builds=0)
        results, _ = identities.identity_suite(t)
        assert all(ok for _, ok in results), results
        return dict(calls)

    # v_1 has degree 2: the pendant checks take the leaf pair (2, 6)
    t = from_edges(6, [(1, 2, 2), (1, 3, 1), (3, 4, 3), (4, 5, 1), (5, 6, 2)])
    assert 1 not in t.pendant_vertices()
    assert work(t) == {"dets": 9, "builds": 4}
    # v_1 and v_n of a path are pendant: the leaf pair is (1, n)
    assert work(path_tree(6, [2, 1, 3, 1, 2])) == {"dets": 9, "builds": 4}


def literal_pendant_checks(t):
    """Corner minor and recurrence on D_q of the tree relabelled so that
    v_1 and v_n are pendant, as the paper states them."""
    n = t.n
    tt = pendant_first_last(t, seed=n)
    dq = build_dq(tt)
    first = next(w for (u, v, w) in tt.edges if 1 in (u, v))
    last = next(w for (u, v, w) in tt.edges if n in (u, v))
    rest = [w for (u, v, w) in tt.edges if 1 not in (u, v) and n not in (u, v)]
    got = {"corner_minor": det_bareiss(minor(dq, {1}, {n}))
           == closedforms.corner_minor_closed(first, last, rest)}
    if n >= 4:
        got["recurrence16"] = not (
            det_bareiss(dq)
            + qbracket(2 * first) * det_bareiss(minor(dq, {1}, {1}))
            + qbracket(2 * last) * det_bareiss(minor(dq, {n}, {n}))
            + qbracket(2 * first) * qbracket(2 * last) * det_bareiss(minor(dq, {1, n}, {1, n}))
        )
    return got


def test_pendant_checks_match_the_relabelled_route():
    trees = [t for n in range(3, 6) for t in enumerate_trees(n)]
    trees += [random_tree(n, 4, seed) for n in range(4, 8) for seed in range(6)]
    parities = set()
    for t in trees:
        leaves = t.pendant_vertices()
        u, v = leaves[0], leaves[-1]
        if t.weights != (1,) * (t.n - 1) and (u, v) != (1, t.n):
            parities.add((u + v + t.n + 1) % 2)
        results, _ = identities.identity_suite(t)
        got = {name: ok for name, ok in results if name in ("corner_minor", "recurrence16")}
        want = literal_pendant_checks(t)
        assert got == want and all(want.values()), (t, got, want)
    # weighted trees off (1, n) with the cofactor's sign both + and -
    assert parities == {0, 1}
