"""The identity suite: the checks it runs, and that it computes each value once."""

import pytest

from qdistmat import _kernels, identities
from qdistmat.exactdet import det_bareiss
from qdistmat.qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star
from qdistmat.treekit import from_edges, path_tree, random_tree

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
        det_bareiss(b(t)) for b in (build_d, build_dq, build_dq_star, build_d_plus_xJ)
    )


def test_each_matrix_and_determinant_once(monkeypatch):
    calls = {"dets": 0, "builds": 0}
    real_det = _kernels.bareiss_det

    def counted_det(rows):
        calls["dets"] += 1
        return real_det(rows)

    # the kernel binding, so that determinants inside exactdet count too
    monkeypatch.setattr(_kernels, "bareiss_det", counted_det)
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

    # v_1 has degree 2, so the pendant-relabelled tree needs its own D_q
    t = from_edges(6, [(1, 2, 2), (1, 3, 1), (3, 4, 3), (4, 5, 1), (5, 6, 2)])
    assert 1 not in t.pendant_vertices()
    got = work(t)
    assert got["dets"] <= 15 and got["builds"] <= 5, got
    # v_1 and v_n of a path are pendant: corner minor and recurrence reuse
    # the condensation identity's minors
    got = work(path_tree(6, [2, 1, 3, 1, 2]))
    assert got["dets"] <= 9 and got["builds"] <= 4, got
