import math

import numpy as np
import pytest

from treemaml import meta
from treemaml.clustering import (
    ClusterConfig,
    DuplicateTaskError,
    _std,
    build_tree,
    level1_members,
)
from treemaml.models import LinearRegressionModel
from treemaml.numerics import ZeroVectorError, set_similarity
from treemaml.tasks import TaskGeneratorConfig, build_parameter_tree, sample_task_batch

from cluster_walk import clusters_at_level, tree_to_dict
from otd_reference import reference_build_tree

D2 = ClusterConfig(max_depth=2, xi=1.0)
XIS = (0.0, 0.5, 1.0, 2.0)


def unit(deg):
    rad = math.radians(deg)
    return np.array([math.cos(rad), math.sin(rad)])


def build(items, cfg):
    """build_tree on (task_id, vector) pairs, the reference's input form."""
    ids, rows = zip(*items)
    return build_tree(list(ids), np.array(rows), cfg)


def leaf_depths(node, out=None):
    if out is None:
        out = []
    if node.is_leaf:
        out.append(node.depth)
    for c in node.children:
        leaf_depths(c, out)
    return out


def count_leaves(node):
    if node.is_leaf:
        return 1
    return sum(count_leaves(c) for c in node.children)


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(max_depth=0)
    with pytest.raises(ValueError):
        ClusterConfig(xi=-0.1)
    # cosine similarity and the argmax child are fixed; neither is a field
    with pytest.raises(TypeError):
        ClusterConfig(similarity="cosine")
    with pytest.raises(TypeError):
        ClusterConfig(most_similar="argmax")
    # xi = inf is legal and never splits off an outlier (NaN is rejected in test_cli)
    root = build([(1, unit(0)), (2, unit(1)), (3, unit(180))], ClusterConfig(xi=math.inf))
    assert [c.is_leaf for c in root.children] == [True, True, True]


def test_first_two_insertions_append():
    root = build([(1, unit(0))], D2)
    assert len(root.children) == 1
    assert root.children[0].task_id == 1
    assert root.children[0].depth == 1
    root = build([(1, unit(0)), (2, unit(90))], D2)
    assert [c.task_id for c in root.children] == [1, 2]
    assert root.member_tasks == {1, 2}


def test_similar_item_nests_with_closest_leaf():
    # children along e1 and e2; a vector 5 degrees off e1 raises the mean
    # similarity, so it descends and wraps the e1 leaf in a new cluster
    root = build([(1, unit(0)), (2, unit(90)), (3, unit(5))], D2)
    assert len(root.children) == 2
    nested, other = root.children
    assert not nested.is_leaf
    assert nested.member_tasks == {1, 3}
    assert nested.depth == 1
    assert sorted(c.depth for c in nested.children) == [2, 2]
    assert other.task_id == 2
    assert clusters_at_level(root, 1) == [(1, 3), (2,)]


def test_similar_item_appends_at_depth_bound():
    shallow = ClusterConfig(max_depth=1, xi=1.0)
    root = build([(1, unit(0)), (2, unit(90)), (3, unit(5))], shallow)
    assert [c.is_leaf for c in root.children] == [True, True, True]
    assert max(leaf_depths(root)) == 1


def test_similar_item_recurses_into_internal_child():
    root = build([(1, unit(0)), (2, unit(90)), (3, unit(5)), (4, unit(2))], D2)
    nested = root.children[0]
    # task 4 follows the {1, 3} cluster; the depth bound turns the final
    # descent into an append inside it
    assert nested.member_tasks == {1, 3, 4}
    assert len(nested.children) == 3
    assert max(leaf_depths(root)) == 2


def test_outlier_reroots_the_node():
    root = build([(1, unit(0)), (2, unit(1)), (3, unit(180))], D2)
    # opposite direction drops the mean below mean - xi*sigma: old root and
    # the outlier become siblings under a fresh parent
    assert root.member_tasks == {1, 2, 3}
    assert root.depth == 0
    old, outlier = root.children
    assert old.member_tasks == {1, 2}
    assert not old.is_leaf
    assert old.depth == 1
    assert outlier.task_id == 3
    assert clusters_at_level(root, 1) == [(1, 2), (3,)]
    # the shallow outlier leaf persists as its own cluster at deeper levels
    assert clusters_at_level(root, 2) == [(1,), (2,), (3,)]


def test_outlier_appends_when_rerooting_would_break_depth():
    shallow = ClusterConfig(max_depth=1, xi=1.0)
    root = build([(1, unit(0)), (2, unit(1)), (3, unit(180))], shallow)
    assert [c.is_leaf for c in root.children] == [True, True, True]
    assert max(leaf_depths(root)) == 1


def test_coherent_items_widen_flat():
    items = [(i, np.array([float(i), 0.0])) for i in range(1, 7)]
    root = build(items, D2)
    assert len(root.children) == 6
    assert all(c.is_leaf for c in root.children)


def test_two_orthogonal_pairs_give_two_then_four():
    items = [(1, unit(0)), (2, unit(90)), (3, unit(5)), (4, unit(85))]
    root = build(items, D2)
    assert len(root.children) == 2
    for child in root.children:
        assert not child.is_leaf
        assert len(child.children) == 2
        assert all(c.is_leaf for c in child.children)
    assert clusters_at_level(root, 1) == [(1, 3), (2, 4)]
    assert clusters_at_level(root, 2) == [(1,), (3,), (2,), (4,)]


def test_ties_break_to_lowest_node_id():
    root = build([(1, unit(0)), (2, unit(90)), (3, unit(45))], D2)
    # equidistant from both children: joins the earlier-created e1 leaf
    assert root.children[0].member_tasks == {1, 3}


def test_insertion_errors():
    with pytest.raises(DuplicateTaskError, match="task 1 "):
        build([(1, unit(0)), (2, unit(90)), (1, unit(5))], D2)
    with pytest.raises(ZeroVectorError):
        build([(1, unit(0)), (2, unit(90)), (3, np.zeros(2))], D2)
    with pytest.raises(ValueError):
        build_tree([], np.zeros((0, 2)), D2)
    # G must hold one row per id
    with pytest.raises(ValueError):
        build_tree([1, 2], np.array([unit(0), unit(90), unit(5)]), D2)
    with pytest.raises(ValueError):
        build_tree([1, 2], np.array([unit(0), unit(90)])[:, :, None], D2)
    with pytest.raises(ValueError):
        build_tree([1], unit(0), D2)


def test_clusters_at_level_validates_k():
    root = build([(1, unit(0))], D2)
    with pytest.raises(ValueError):
        clusters_at_level(root, 0)


def test_flat_tree_gives_singletons_at_every_level():
    items = [(i, np.array([1.0, float(i)])) for i in range(5)]
    root = build(items, ClusterConfig(max_depth=1))
    for k in (1, 2, 3):
        assert clusters_at_level(root, k) == [(0,), (1,), (2,), (3,), (4,)]


def test_tree_to_dict_structure():
    root = build([(1, unit(0)), (2, unit(90)), (3, unit(5))], D2)
    d = tree_to_dict(root)
    assert d["depth"] == 0
    assert d["member_tasks"] == [1, 2, 3]
    assert d["children"][0]["member_tasks"] == [1, 3]
    assert d["children"][1]["member_tasks"] == [2]
    grand = d["children"][0]["children"]
    assert {g["member_tasks"][0] for g in grand} == {1, 3}


def member_sum(node, vectors):
    return np.sum([vectors[t] for t in sorted(node.member_tasks)], axis=0)


def check_representatives(node, vectors, G):
    # an internal node below the root holds its member sum's dots with every
    # item (so its representative, the mean of its leaf vectors, up to scale)
    if node.is_leaf:
        return
    if node.depth > 0:
        assert np.allclose(node._node.row, G @ member_sum(node, vectors), atol=1e-9)
    union = set()
    for c in node.children:
        assert c.member_tasks <= node.member_tasks
        assert not (union & c.member_tasks)
        union |= c.member_tasks
        check_representatives(c, vectors, G)
    assert union == node.member_tasks


def random_items(rng, duplicates=True):
    n = int(rng.integers(1, 13))
    dim = int(rng.integers(2, 7))
    items = []
    for i in range(n):
        if duplicates and i > 0 and rng.random() < 0.2:
            # duplicate an earlier direction to exercise the widening branch
            v = items[int(rng.integers(i))][1] * float(rng.uniform(0.5, 2.0))
        else:
            v = rng.normal(size=dim)
            while np.linalg.norm(v) < 1e-6:
                v = rng.normal(size=dim)
        items.append((i, v))
    return items


def check_structure(items, cfg):
    root = build(items, cfg)
    ids = sorted(t for t, _ in items)
    assert count_leaves(root) == len(items)
    assert max(leaf_depths(root)) <= cfg.max_depth
    previous = None
    for k in range(1, cfg.max_depth + 2):
        partition = clusters_at_level(root, k)
        flat = sorted(t for cluster in partition for t in cluster)
        assert flat == ids
        if previous is not None:
            owner = {t: i for i, cluster in enumerate(previous) for t in cluster}
            for cluster in partition:
                assert len({owner[t] for t in cluster}) == 1
        previous = partition
    check_representatives(root, dict(items), np.stack([v for _, v in items]))
    assert tree_to_dict(build(items, cfg)) == tree_to_dict(root)


def test_structural_properties_hold_on_random_sequences():
    rng = np.random.default_rng(2024)
    xis = (0.0, 0.5, 1.0, 2.0)
    for trial in range(300):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=xis[trial % 4])
        check_structure(random_items(rng), cfg)


def assert_matches_reference(items, cfg):
    assert tree_to_dict(build(items, cfg)) == tree_to_dict(reference_build_tree(items, cfg))


def has_collinear_pair(items):
    mat = np.stack([v for _, v in items])
    unit_rows = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cos = np.abs(unit_rows @ unit_rows.T)
    np.fill_diagonal(cos, 0.0)
    return bool(np.any(cos > 1.0 - 1e-12))


def clustered_batch(rng, m=96, dim=64):
    # Two-level hierarchy of directions plus per-item noise, the shape of the
    # benchmark's task gradients: 2 top clusters, 4 leaves, 96 tasks, dim 64.
    tops = rng.normal(size=(2, dim))
    leaves = np.repeat(tops, 2, axis=0) + rng.normal(size=(4, dim))
    scale = float(rng.uniform(0.2, 1.0))
    vecs = leaves[rng.integers(0, 4, size=m)] + scale * rng.normal(size=(m, dim))
    return list(enumerate(vecs))


def test_cached_ladder_matches_reference_on_random_sequences():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=XIS[trial % 4])
        items = random_items(rng, duplicates=False)
        assert_matches_reference(items, cfg)


def test_cached_ladder_matches_reference_at_benchmark_scale():
    rng = np.random.default_rng(8)
    for trial in range(50):
        # even trials use the benchmark's clustering config
        cfg = D2 if trial % 2 == 0 else ClusterConfig(max_depth=3, xi=XIS[trial % 4])
        assert_matches_reference(clustered_batch(rng), cfg)


def test_cached_ladder_differs_from_reference_only_on_collinear_ties():
    # Scaled duplicates give cosines of 1 +- a few ulp, and the cache's
    # matrix-vector products round differently from the reference's Gram
    # matrices, so such exact ties may break the other way. Every difference
    # must come from a sequence holding such a pair.
    rng = np.random.default_rng(4)
    for trial in range(1000):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=XIS[trial % 4])
        items = random_items(rng)
        if tree_to_dict(build(items, cfg)) != tree_to_dict(reference_build_tree(items, cfg)):
            assert has_collinear_pair(items)


def check_cache(node, max_depth, vectors):
    if node.is_leaf:
        return
    children = node.children
    if node.depth + 1 == max_depth:
        # a bottom-level node only widens: it scores nothing
        assert all(child.is_leaf for child in children)
        return
    sums = [member_sum(child, vectors) for child in children]
    c = len(children)
    # the pair (a, b), a < b, sits at b (b - 1) / 2 + a
    pairs = [(a, b) for b in range(c) for a in range(b)]
    assert len(node._node.dot) == len(node._node.cos) == len(pairs)
    norms = [child._node.norm for child in children]
    assert np.allclose(norms, [np.linalg.norm(s) for s in sums], rtol=1e-15, atol=0.0)
    for p, (a, b) in enumerate(pairs):
        # a dot is off by at most an ulp or so of the cosine it gives
        assert abs(node._node.dot[p] - sums[a] @ sums[b]) <= 1e-15 * norms[a] * norms[b]
        assert node._node.cos[p] == node._node.dot[p] / (norms[a] * norms[b])
    if c >= 2:
        expected = set_similarity([s / len(child.member_tasks) for child, s in zip(children, sums)])
        # the "before" statistics as the ladder takes them
        cos = node._node.cos
        mean = math.fsum(cos) / len(cos)
        std = _std(cos, mean)
        assert abs(mean - expected.mean_pairwise) <= 1e-12
        assert abs(std - expected.std_pairwise) <= 1e-12
    for child in children:
        check_cache(child, max_depth, vectors)


def test_cached_statistics_match_set_similarity():
    rng = np.random.default_rng(9)
    for trial in range(200):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=XIS[trial % 4])
        items = random_items(rng)
        check_cache(build(items, cfg), cfg.max_depth, dict(items))
    for _ in range(5):
        items = clustered_batch(rng)
        check_cache(build(items, D2), D2.max_depth, dict(items))


def labels(clusters, items):
    """Each item's level-1 cluster, in item order, from the clusters' task_ids."""
    cluster = {t: k for k, members in enumerate(clusters) for t in members}
    return np.array([cluster[t] for t, _ in items])


def level1_labels(root, items):
    return labels(level1_members(root), items)


def reference_labels(items, cfg):
    root = reference_build_tree(items, cfg)
    return labels([child.member_tasks for child in root.children], items)


def test_level1_labels_match_reference_on_recorded_gradients(monkeypatch):
    # every build_tree call of a tiny tree_learned adaptation, fed the engine's
    # own gradient rows, labels its items as the reference tree's root does
    tree = build_parameter_tree(TaskGeneratorConfig(dim=8, branching=(2, 2),
                                                    level_scales=(1.0, 1.0, 0.5), seed=3))
    tasks = sample_task_batch(tree, 24, np.random.default_rng(5), n_train=5, n_val=5)
    cfg = meta.MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.05, tasks_per_batch=24)
    calls = []

    def recording(ids, G, cluster):
        calls.append((list(zip(ids.tolist(), G.copy())), cluster))
        return build_tree(ids, G, cluster)

    monkeypatch.setattr(meta, "build_tree", recording)
    trace = meta.adapt_tree(LinearRegressionModel(8), np.zeros(8), tasks, cfg)
    assert len(calls) == 1 + trace.partition_sizes[0]
    for items, cluster in calls:
        assert np.array_equal(level1_labels(build(items, cluster), items),
                              reference_labels(items, cluster))


@pytest.mark.parametrize("cfg, items", [
    (D2, [(7, unit(30))]),  # a single item
    (ClusterConfig(max_depth=1), [(i, unit(10 * i)) for i in range(6)]),
    (ClusterConfig(xi=math.inf), [(1, unit(0)), (2, unit(1)), (3, unit(180)), (4, unit(90))]),
    (D2, [(5, unit(0)), (3, unit(90)), (9, unit(5)), (1, unit(85)), (2, unit(180))]),
    # exact cosine ties: between two leaves, and between a leaf (node 2) and a
    # later-made cluster (node 3) that sits first among the root's children
    (D2, [(1, np.array([1.0, 0.0])), (2, np.array([0.0, 1.0])), (3, np.array([1.0, 1.0]))]),
    (D2, [(0, np.array([1.0, -1.0])), (1, np.array([-1.0, 2.0])), (2, np.array([0.0, -1.0])),
          (3, np.array([2.0, 1.0]))]),
])
def test_edge_cases_match_reference(cfg, items):
    root = build(items, cfg)
    assert tree_to_dict(root) == tree_to_dict(reference_build_tree(items, cfg))
    assert np.array_equal(level1_labels(root, items), reference_labels(items, cfg))
    if cfg.max_depth == 1:
        assert np.array_equal(level1_labels(root, items), np.arange(len(items)))
    for members in level1_members(root):  # each cluster in arrival order
        assert members == [t for t, _ in items if t in members]


def test_bad_items_raise_before_any_insertion():
    with pytest.raises(DuplicateTaskError):
        build([(4, unit(0)), (4, unit(0))], D2)
    with pytest.raises(ZeroVectorError):
        build([(0, np.zeros(3))], D2)
    with pytest.raises(ZeroVectorError):
        build([(0, unit(0)), (1, np.zeros(2))], ClusterConfig(max_depth=1))
