import math

import numpy as np
import pytest

from treemaml.clustering import (
    ClusterConfig,
    ClusterTreeNode,
    DuplicateTaskError,
    _mean,
    _std,
    build_tree,
    clusters_at_level,
    otd_insert,
    tree_to_dict,
)
from treemaml.numerics import ParamVector, ZeroVectorError, set_similarity

from otd_reference import reference_build_tree

D2 = ClusterConfig(max_depth=2, xi=1.0)
XIS = (0.0, 0.5, 1.0, 2.0)


def unit(deg):
    rad = math.radians(deg)
    return ParamVector([math.cos(rad), math.sin(rad)])


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


def test_first_two_insertions_append():
    root = ClusterTreeNode.new_root()
    root = otd_insert(root, (1, unit(0)), D2)
    assert len(root.children) == 1
    assert root.children[0].task_id == 1
    assert root.children[0].depth == 1
    root = otd_insert(root, (2, unit(90)), D2)
    assert [c.task_id for c in root.children] == [1, 2]
    assert root.member_tasks == {1, 2}


def test_similar_item_nests_with_closest_leaf():
    # children along e1 and e2; a vector 5 degrees off e1 raises the mean
    # similarity, so it descends and wraps the e1 leaf in a new cluster
    root = build_tree([(1, unit(0)), (2, unit(90)), (3, unit(5))], D2)
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
    root = build_tree([(1, unit(0)), (2, unit(90)), (3, unit(5))], shallow)
    assert [c.is_leaf for c in root.children] == [True, True, True]
    assert max(leaf_depths(root)) == 1


def test_similar_item_recurses_into_internal_child():
    root = build_tree([(1, unit(0)), (2, unit(90)), (3, unit(5)), (4, unit(2))], D2)
    nested = root.children[0]
    # task 4 follows the {1, 3} cluster; the depth bound turns the final
    # descent into an append inside it
    assert nested.member_tasks == {1, 3, 4}
    assert len(nested.children) == 3
    assert max(leaf_depths(root)) == 2


def test_outlier_reroots_the_node():
    root = build_tree([(1, unit(0)), (2, unit(1)), (3, unit(180))], D2)
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
    root = build_tree([(1, unit(0)), (2, unit(1)), (3, unit(180))], shallow)
    assert [c.is_leaf for c in root.children] == [True, True, True]
    assert max(leaf_depths(root)) == 1


def test_coherent_items_widen_flat():
    items = [(i, ParamVector([float(i), 0.0])) for i in range(1, 7)]
    root = build_tree(items, D2)
    assert len(root.children) == 6
    assert all(c.is_leaf for c in root.children)


def test_two_orthogonal_pairs_give_two_then_four():
    items = [(1, unit(0)), (2, unit(90)), (3, unit(5)), (4, unit(85))]
    root = build_tree(items, D2)
    assert len(root.children) == 2
    for child in root.children:
        assert not child.is_leaf
        assert len(child.children) == 2
        assert all(c.is_leaf for c in child.children)
    assert clusters_at_level(root, 1) == [(1, 3), (2, 4)]
    assert clusters_at_level(root, 2) == [(1,), (3,), (2,), (4,)]


def test_ties_break_to_lowest_node_id():
    root = build_tree([(1, unit(0)), (2, unit(90)), (3, unit(45))], D2)
    # equidistant from both children: joins the earlier-created e1 leaf
    assert root.children[0].member_tasks == {1, 3}


def test_insertion_errors():
    root = build_tree([(1, unit(0)), (2, unit(90))], D2)
    with pytest.raises(DuplicateTaskError):
        otd_insert(root, (1, unit(5)), D2)
    with pytest.raises(ZeroVectorError):
        otd_insert(root, (3, ParamVector([0.0, 0.0])), D2)
    with pytest.raises(ValueError):
        otd_insert(root.children[0], (4, unit(5)), D2)
    with pytest.raises(ValueError):
        build_tree([], D2)
    with pytest.raises(ValueError):
        ClusterTreeNode.new_root().representative


def test_clusters_at_level_validates_k():
    root = build_tree([(1, unit(0))], D2)
    with pytest.raises(ValueError):
        clusters_at_level(root, 0)


def test_flat_tree_gives_singletons_at_every_level():
    items = [(i, ParamVector([1.0, float(i)])) for i in range(5)]
    root = build_tree(items, ClusterConfig(max_depth=1))
    for k in (1, 2, 3):
        assert clusters_at_level(root, k) == [(0,), (1,), (2,), (3,), (4,)]


def test_tree_to_dict_structure():
    root = build_tree([(1, unit(0)), (2, unit(90)), (3, unit(5))], D2)
    d = tree_to_dict(root)
    assert d["depth"] == 0
    assert d["member_tasks"] == [1, 2, 3]
    assert d["children"][0]["member_tasks"] == [1, 3]
    assert d["children"][1]["member_tasks"] == [2]
    grand = d["children"][0]["children"]
    assert {g["member_tasks"][0] for g in grand} == {1, 3}


def check_representatives(node, vectors):
    # an internal node's representative is the mean of its leaf vectors
    if node.is_leaf:
        return
    members = sorted(node.member_tasks)
    expected = np.mean([vectors[t].values for t in members], axis=0)
    assert np.allclose(node.representative.values, expected, atol=1e-9)
    union = set()
    for c in node.children:
        assert c.member_tasks <= node.member_tasks
        assert not (union & c.member_tasks)
        union |= c.member_tasks
        check_representatives(c, vectors)
    assert union == node.member_tasks


def random_items(rng, duplicates=True):
    n = int(rng.integers(1, 13))
    dim = int(rng.integers(2, 7))
    items = []
    for i in range(n):
        if duplicates and i > 0 and rng.random() < 0.2:
            # duplicate an earlier direction to exercise the widening branch
            v = items[int(rng.integers(i))][1].values * float(rng.uniform(0.5, 2.0))
        else:
            v = rng.normal(size=dim)
            while np.linalg.norm(v) < 1e-6:
                v = rng.normal(size=dim)
        items.append((i, ParamVector(v)))
    return items


def check_structure(items, cfg):
    root = build_tree(items, cfg)
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
    check_representatives(root, dict(items))
    assert tree_to_dict(build_tree(items, cfg)) == tree_to_dict(root)


def test_structural_properties_hold_on_random_sequences():
    rng = np.random.default_rng(2024)
    xis = (0.0, 0.5, 1.0, 2.0)
    for trial in range(300):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=xis[trial % 4])
        check_structure(random_items(rng), cfg)


def assert_matches_reference(items, cfg):
    assert tree_to_dict(build_tree(items, cfg)) == tree_to_dict(reference_build_tree(items, cfg))


def has_collinear_pair(items):
    mat = np.stack([v.values for _, v in items])
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
    return [(i, ParamVector(v)) for i, v in enumerate(vecs)]


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
        if tree_to_dict(build_tree(items, cfg)) != tree_to_dict(reference_build_tree(items, cfg)):
            assert has_collinear_pair(items)


def check_cache(node):
    if node.is_leaf:
        return
    c = len(node.children)
    reps = [child.representative for child in node.children]
    assert np.array_equal(node._reps[:c], np.stack([r.values for r in reps]))
    assert np.allclose(node._norms[:c], [r.norm() for r in reps], rtol=1e-15, atol=0.0)
    if c >= 2:
        expected = set_similarity(reps)
        pairs = node._pair_cosines(c)
        mean, std = _mean(pairs), _std(pairs, _mean(pairs))
        # the ladder's helpers round exactly as ndarray.mean and ndarray.std
        assert mean == pairs.mean() and std == pairs.std()
        assert abs(mean - expected.mean_pairwise) <= 1e-12
        assert abs(std - expected.std_pairwise) <= 1e-12
    for child in node.children:
        check_cache(child)


def test_cached_statistics_match_set_similarity():
    rng = np.random.default_rng(9)
    for trial in range(200):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=XIS[trial % 4])
        check_cache(build_tree(random_items(rng), cfg))
    for _ in range(5):
        check_cache(build_tree(clustered_batch(rng), D2))
