"""Trees: validation, generation, distances, file formats."""

import json
import math
import random
import re

import pytest

import propcheck
from qdistmat.identities import suite_key
from qdistmat.treekit import (
    InvalidTreeError,
    all_pairs_distances,
    canonical_order,
    enumerate_trees,
    from_edges,
    load_tree,
    parse_tree_text,
    path_tree,
    pendant_first_last,
    prufer_decode,
    random_tree,
    relabel,
    star_tree,
    tree_from_json_dict,
    tree_to_json_dict,
    tree_to_text,
)


def test_from_edges_valid():
    t = from_edges(2, [(1, 2, 3)])
    assert t.n == 2 and t.weights == (3,)


REJECTIONS = [
    (3, [(1, 2, 1)], "edge-count"),
    (3, [(1, 2, 1), (1, 2, 1)], "duplicate-edge"),
    (3, [(1, 2, 1), (2, 1, 5)], "duplicate-edge"),
    (3, [(1, 2, 1), (3, 3, 1)], "self-loop"),
    (3, [(1, 2, 1), (2, 4, 1)], "label-range"),
    (3, [(1, 2, 1), (2, 3, 0)], "bad-weight"),
    (3, [(1, 2, 1), (2, 3, -2)], "bad-weight"),
    (4, [(1, 2, 1), (2, 3, 1), (1, 3, 1)], "cycle"),
    (4, [(1, 2, 1), (3, 4, 1), (1, 2, 2)], "duplicate-edge"),
    # integers only: a bool, float or str is rejected, not coerced
    (3, [(1, 2, 1.7), (2, 3, 1)], "format"),
    (3, [(1, 2, 1), (2, 3, True)], "format"),
    (3, [(1, 2, 1), ("2", 3, 1)], "format"),
    (3, [(1, 2.0, 1), (2, 3, 1)], "format"),
    (3.0, [(1, 2, 1), (2, 3, 1)], "format"),
]


@pytest.mark.parametrize("n,edges,code", REJECTIONS)
def test_from_edges_rejections(n, edges, code):
    with pytest.raises(InvalidTreeError) as exc:
        from_edges(n, edges)
    assert exc.value.code == code


def test_documented_error_codes_are_the_raised_ones():
    # the codes the docstring lists, "a, b, ..., or z.", are exactly those
    # that the rejection cases above raise
    listed = re.search(r"violation: ([^.]*)\.", InvalidTreeError.__doc__).group(1)
    documented = set(re.split(r",\s*(?:or\s+)?", " ".join(listed.split())))
    assert documented == {code for _, _, code in REJECTIONS}


def test_prufer_single_edge():
    t = prufer_decode([], 2, [1])
    assert t.edges == ((1, 2, 1),)


def test_prufer_star_decode_order():
    t = prufer_decode([1, 1], 4, [1, 1, 1])
    assert t.edges == ((2, 1, 1), (3, 1, 1), (1, 4, 1))


def test_prufer_path():
    t = prufer_decode([2, 3], 4, [1, 1, 1])
    assert t.edge_set() == path_tree(4, [1, 1, 1]).edge_set()


def test_prufer_rejections():
    with pytest.raises(InvalidTreeError):
        prufer_decode([1], 4, [1, 1, 1])
    with pytest.raises(InvalidTreeError):
        prufer_decode([5, 1], 4, [1, 1, 1])
    with pytest.raises(InvalidTreeError):
        prufer_decode([1, 1], 4, [1, 1])


@pytest.mark.parametrize("seq, n, weights", [
    ([2.9], 3, [1, 1]),
    ([True], 3, [1, 1]),
    (["2"], 3, [1, 1]),
    ([2], 3, [1, 1.0]),
    ([2], 3, [1, False]),
    ([2], "3", [1, 1]),
])
def test_prufer_takes_integers_only(seq, n, weights):
    with pytest.raises(InvalidTreeError) as exc:
        prufer_decode(seq, n, weights)
    assert exc.value.code == "format"


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_trees(3)) == 3
    assert sum(1 for _ in enumerate_trees(4)) == 16
    assert sum(1 for _ in enumerate_trees(6)) == 1296


def test_enumerate_range():
    for bad in (1, 9):
        with pytest.raises(ValueError):
            list(enumerate_trees(bad))


def test_prufer_bijectivity():
    propcheck.check_prufer_bijectivity()


def test_random_tree_deterministic():
    a = random_tree(7, 5, seed=123)
    b = random_tree(7, 5, seed=123)
    assert a.edges == b.edges
    assert random_tree(2, 3, seed=9).edge_set() == {(1, 2, random_tree(2, 3, 9).weights[0])}


def test_random_tree_validates():
    rng = random.Random(0)
    for _ in range(500):
        t = random_tree(5, 4, rng.getrandbits(63))
        assert t.n == 5 and len(t.edges) == 4


def test_path_star_shapes():
    p4 = path_tree(4, [1, 1, 1])
    d = all_pairs_distances(p4)
    assert d[0][3] == 3
    s4 = star_tree(4, [2, 3, 5])
    ds = all_pairs_distances(s4)
    assert ds[0][1] == 5  # both pendant edges meet at the center
    assert ds[0][3] == 2
    assert path_tree(2, [5]).edges == star_tree(2, [5]).edges


def test_path_star_weight_count():
    with pytest.raises(InvalidTreeError):
        path_tree(4, [1, 1])
    with pytest.raises(InvalidTreeError):
        star_tree(3, [1, 1, 1])


def test_distance_examples():
    d = all_pairs_distances(path_tree(4, [1, 1, 1]))
    assert d[0][2] == 2 and d[0][3] == 3 and d[1][3] == 2
    d2 = all_pairs_distances(path_tree(3, [1, 2]))
    assert d2[0][2] == 3


def test_distances_computed_once_per_tree():
    t = random_tree(6, 3, 5)
    d = all_pairs_distances(t)
    assert all_pairs_distances(t) is d
    assert type(d) is tuple and all(type(row) is tuple for row in d)
    assert all(type(x) is int for row in d for x in row)
    # an equal tree built separately has its own table, with the same rows
    twin = from_edges(t.n, t.edges)
    assert all_pairs_distances(twin) is not d
    assert all_pairs_distances(twin) == d


def _path_vertices(t, i, j):
    # independent walk: BFS parents from i, then read the i-j path back
    adj = t.adjacency()
    parent = {i: None}
    stack = [i]
    while stack:
        v = stack.pop()
        for u, _ in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return path


def test_distance_metric_properties():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 8)
        t = random_tree(n, 5, rng.getrandbits(63))
        d = all_pairs_distances(t)
        for i in range(1, n + 1):
            assert d[i - 1][i - 1] == 0
            for j in range(i + 1, n + 1):
                assert d[i - 1][j - 1] == d[j - 1][i - 1] > 0
        # additivity: every vertex on the unique i-j path splits the distance
        i, j = rng.sample(range(1, n + 1), 2)
        for v in _path_vertices(t, i, j):
            assert d[i - 1][v - 1] + d[v - 1][j - 1] == d[i - 1][j - 1]


def test_path_distance_sum_closed_form():
    # independent oracle: sum over i<j of (j-i)
    for n in range(2, 13):
        t = path_tree(n, [1] * (n - 1))
        d = all_pairs_distances(t)
        total = sum(d[i - 1][j - 1] for i in range(1, n + 1) for j in range(i + 1, n + 1))
        oracle = sum(j - i for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert total == oracle == math.comb(n + 1, 3)


def test_relabel_preserves_weights():
    t = path_tree(4, [1, 2, 3])
    t2 = relabel(t, {1: 4, 2: 3, 3: 2, 4: 1})
    assert sorted(t2.weights) == [1, 2, 3]
    assert t2.edge_set() == {(3, 4, 1), (2, 3, 2), (1, 2, 3)}
    with pytest.raises(ValueError):
        relabel(t, {1: 1, 2: 2, 3: 3, 4: 3})


def test_pendant_first_last():
    rng = random.Random(5)
    for i in range(50):
        t = random_tree(rng.randint(3, 8), 3, rng.getrandbits(63))
        t2 = pendant_first_last(t, seed=i)
        assert t2.degree(1) == 1 and t2.degree(t2.n) == 1
        assert sorted(t2.weights) == sorted(t.weights)


def canonical_table(t):
    order = canonical_order(t)
    dist = all_pairs_distances(t)
    return tuple(tuple(dist[i - 1][j - 1] for j in order) for i in order)


def centre_count(t):
    """1 for a centre, 2 for a bicentre: the vertices of least eccentricity in hops."""
    hops = all_pairs_distances(from_edges(t.n, [(u, v, 1) for u, v, _ in t.edges]))
    ecc = [max(row) for row in hops]
    return ecc.count(min(ecc))


@pytest.mark.parametrize("n,classes", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)])
def test_canonical_tables_count_the_unlabelled_trees(n, classes):
    # OEIS A000055; n = 8 (23 classes, 262144 trees) is too slow for this suite
    assert len({canonical_table(t) for t in enumerate_trees(n)}) == classes


def test_canonical_table_survives_relabelling():
    rng = random.Random(15)
    centres = []
    for _ in range(300):
        n = rng.randint(1, 14)
        t = (random_tree(n, rng.randint(1, 4), rng.getrandbits(63)) if n > 1
             else from_edges(1, []))
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        t2 = relabel(t, dict(zip(range(1, n + 1), labels)))
        assert sorted(canonical_order(t2)) == list(range(1, n + 1))
        assert canonical_table(t2) == canonical_table(t), t.edges
        centres.append(centre_count(t))
    assert centres.count(1) > 50 and centres.count(2) > 50


def table_key(t):
    """The canonical distance table and the canonical positions of the leaf pair."""
    if t.n < 3:
        return canonical_table(t), None
    order, leaves = canonical_order(t), t.pendant_vertices()
    return canonical_table(t), (order.index(leaves[0]), order.index(leaves[-1]))


def key_classes(trees):
    """How many classes ``suite_key`` splits ``trees`` into, checked to be the
    classes of ``table_key``: equal suite keys exactly when equal table keys."""
    pairs = {(suite_key(t), table_key(t)) for t in trees}
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
    return len(pairs)


@pytest.mark.parametrize("n,keys", [(2, 1), (3, 1), (4, 2), (5, 6), (6, 16), (7, 46)])
def test_suite_keys_split_labelled_trees_like_the_tables(n, keys):
    assert key_classes(enumerate_trees(n)) == keys


def test_suite_keys_split_weighted_trees_like_the_tables():
    rng = random.Random(16)
    trees = []
    for _ in range(300):
        n = rng.randint(2, 12)
        t = random_tree(n, rng.randint(1, 3), rng.getrandbits(63))
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        trees += [t, relabel(t, dict(zip(range(1, n + 1), labels)))]
    # relabelling both merges classes and, by moving the leaf pair, splits them
    assert 300 < key_classes(trees) < 600


def test_canonical_table_separates_weight_placements():
    # a bicentral path: the heavy edge in the middle or at an end
    middle, end = path_tree(4, [1, 2, 1]), path_tree(4, [2, 1, 1])
    assert canonical_table(middle) != canonical_table(end)
    assert canonical_table(end) == canonical_table(path_tree(4, [1, 1, 2]))
    # a spider with legs of two edges: the weight 2 on an inner or an outer edge
    legs = [(4, 1), (1, 5), (4, 2), (2, 6), (4, 3), (3, 7)]
    inner = from_edges(7, [(u, v, 2 if (u, v) == (4, 1) else 1) for u, v in legs])
    outer = from_edges(7, [(u, v, 2 if (u, v) == (1, 5) else 1) for u, v in legs])
    assert canonical_table(inner) != canonical_table(outer)
    # bicentral halves that differ only by where their weights sit
    left = from_edges(6, [(1, 2, 1), (1, 3, 3), (1, 4, 1), (4, 5, 2), (4, 6, 3)])
    right = from_edges(6, [(1, 2, 1), (1, 3, 3), (1, 4, 1), (4, 5, 3), (4, 6, 2)])
    swapped = from_edges(6, [(1, 2, 3), (1, 3, 1), (1, 4, 1), (4, 5, 2), (4, 6, 3)])
    assert canonical_table(left) == canonical_table(right) == canonical_table(swapped)
    heavier = from_edges(6, [(1, 2, 1), (1, 3, 3), (1, 4, 1), (4, 5, 1), (4, 6, 4)])
    assert canonical_table(left) != canonical_table(heavier)


def test_canonical_order_of_a_long_path():
    # ranks are integers, so depth does not meet the recursion limit
    order = canonical_order(path_tree(3001, [1] * 3000))
    assert order[0] == 1501 and sorted(order) == list(range(1, 3002))


def test_text_round_trip(tmp_path):
    t = from_edges(4, [(1, 2, 3), (2, 3, 1), (2, 4, 9)])
    text = tree_to_text(t)
    assert parse_tree_text(text).edge_set() == t.edge_set()
    f = tmp_path / "tree.txt"
    f.write_text(text)
    assert load_tree(str(f)).edge_set() == t.edge_set()


def test_json_round_trip(tmp_path):
    t = from_edges(3, [(1, 2, 2), (2, 3, 7)])
    obj = tree_to_json_dict(t)
    assert tree_from_json_dict(obj).edge_set() == t.edge_set()
    f = tmp_path / "tree.json"
    f.write_text(json.dumps(obj))
    assert load_tree(str(f)).edge_set() == t.edge_set()


def test_files_with_a_byte_order_mark(tmp_path):
    t = from_edges(3, [(1, 2, 2), (2, 3, 7)])
    for name, text in (("tree.txt", tree_to_text(t)),
                       ("tree.json", json.dumps(tree_to_json_dict(t)))):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_tree(str(marked)) == load_tree(str(plain)) == t


def test_bad_files():
    with pytest.raises(InvalidTreeError):
        parse_tree_text("")
    with pytest.raises(InvalidTreeError):
        parse_tree_text("nope\n1 2 3\n")
    with pytest.raises(InvalidTreeError):
        parse_tree_text("3\n1 2\n2 3\n")
    with pytest.raises(InvalidTreeError):
        tree_from_json_dict({"edges": []})
