import numpy as np
import pytest

from treemaml.tasks import (
    ConfigError,
    TaskGeneratorConfig,
    TaskSampler,
    build_parameter_tree,
    distribution_to_dict,
    sample_task,
    sample_task_batch,
)

SMALL = TaskGeneratorConfig(dim=6, branching=(2, 2), level_scales=(1.0, 1.0, 0.5), seed=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(dim=0)
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(branching=(2, 0))
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(branching=(2, 2), level_scales=(1.0, 1.0))
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(level_scales=(1.0, -1.0, 0.5))
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(noise_std=-0.1)
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(input_low=5.0, input_high=-5.0)
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(input_low=-1e308, input_high=1e308)  # the range overflows
    with pytest.raises(ConfigError):
        TaskGeneratorConfig(task_jitter=-0.5)


def test_config_defaults_and_derived():
    cfg = TaskGeneratorConfig()
    assert cfg.dim == 64
    assert cfg.branching == (2, 2)
    assert cfg.jitter_std == pytest.approx(0.05)  # 0.1 * last level scale
    assert TaskGeneratorConfig(task_jitter=0.3).jitter_std == 0.3


def test_parameter_tree_shape():
    tree = build_parameter_tree(SMALL)
    # branching (2, 2): 1 root + 2 mid + 4 leaves
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    assert count == 7
    assert len(tree.leaves) == 4
    assert tree.root.path == ()
    assert [leaf.path for leaf in tree.leaves] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(leaf.center.dim == SMALL.dim for leaf in tree.leaves)


def test_zero_scales_collapse_hierarchy():
    cfg = TaskGeneratorConfig(dim=4, level_scales=(1.0, 0.0, 0.0), seed=9)
    tree = build_parameter_tree(cfg)
    for leaf in tree.leaves:
        assert leaf.center == tree.root.center


def test_tree_is_deterministic():
    t1 = build_parameter_tree(SMALL)
    t2 = build_parameter_tree(SMALL)
    assert all(a.center == b.center for a, b in zip(t1.leaves, t2.leaves))
    t3 = build_parameter_tree(TaskGeneratorConfig(**{**SMALL.to_dict(), "seed": 4}))
    assert t3.root.center != t1.root.center


def test_sample_task_shapes_and_ranges():
    tree = build_parameter_tree(SMALL)
    task = sample_task(tree, np.random.default_rng(0), n_train=5, n_val=5, n_test=3, task_id=17)
    assert task.task_id == 17
    assert len(task.train_points) == 5
    assert len(task.val_points) == 5
    assert len(task.test_points) == 3
    assert task.train_points.x.min() >= SMALL.input_low
    assert task.train_points.x.max() <= SMALL.input_high
    assert 0 <= task.params.leaf_cluster_id < 4
    assert task.params.path == tree.leaves[task.params.leaf_cluster_id].path
    with pytest.raises(ConfigError):
        sample_task(tree, np.random.default_rng(0), n_train=-1, n_val=5)


def test_noiseless_points_satisfy_the_linear_law():
    cfg = TaskGeneratorConfig(dim=5, noise_std=0.0, task_jitter=0.0, seed=2)
    tree = build_parameter_tree(cfg)
    task = sample_task(tree, np.random.default_rng(5), n_train=8, n_val=8)
    center = tree.leaves[task.params.leaf_cluster_id].center
    assert task.params.weights == center
    expected = task.train_points.x @ center.values
    assert np.array_equal(task.train_points.y, expected)


def test_sampling_is_deterministic():
    tree = build_parameter_tree(SMALL)
    t1 = sample_task(tree, np.random.default_rng(11), 4, 4, 2)
    t2 = sample_task(tree, np.random.default_rng(11), 4, 4, 2)
    assert t1.params.weights == t2.params.weights
    assert np.array_equal(t1.train_points.x, t2.train_points.x)
    assert np.array_equal(t1.val_points.y, t2.val_points.y)
    assert np.array_equal(t1.test_points.y, t2.test_points.y)


def test_sample_task_batch():
    tree = build_parameter_tree(SMALL)
    with pytest.raises(ConfigError):
        sample_task_batch(tree, 0, np.random.default_rng(0), 5, 5)
    batch = sample_task_batch(tree, 8, np.random.default_rng(0), 5, 5, start_id=100)
    assert [t.task_id for t in batch] == list(range(100, 108))
    assert all(t.params.leaf_cluster_id in (0, 1, 2, 3) for t in batch)


def test_leaf_occupancy_is_roughly_uniform():
    tree = build_parameter_tree(SMALL)
    batch = sample_task_batch(tree, 1000, np.random.default_rng(123), 1, 1)
    counts = np.bincount([t.params.leaf_cluster_id for t in batch], minlength=4)
    # binomial(1000, 1/4): mean 250, 5-sigma band
    bound = 5.0 * np.sqrt(250.0 * 0.75)
    assert all(abs(c - 250.0) <= bound for c in counts)


def test_ols_recovers_noiseless_weights():
    cfg = TaskGeneratorConfig(dim=8, noise_std=0.0, seed=21)
    tree = build_parameter_tree(cfg)
    task = sample_task(tree, np.random.default_rng(3), n_train=cfg.dim + 1, n_val=1)
    w_hat, *_ = np.linalg.lstsq(task.train_points.x, task.train_points.y, rcond=None)
    w = task.params.weights.values
    assert np.linalg.norm(w_hat - w) / np.linalg.norm(w) < 1e-8


def test_sibling_leaves_are_closer_than_non_siblings():
    # strictly decreasing scales: offsets shrink with depth
    sib, non = [], []
    for seed in range(100):
        cfg = TaskGeneratorConfig(dim=16, level_scales=(2.0, 1.0, 0.5), seed=seed)
        leaves = build_parameter_tree(cfg).leaves
        for i in range(4):
            for j in range(i + 1, 4):
                d = float(np.linalg.norm(leaves[i].center.values - leaves[j].center.values))
                (sib if leaves[i].path[0] == leaves[j].path[0] else non).append(d)
    assert np.mean(sib) < np.mean(non)


def test_task_sampler_ids_increase():
    tree = build_parameter_tree(SMALL)
    sampler = TaskSampler(tree, np.random.default_rng(7), start_id=50)
    b1 = sampler.sample_batch(3, 2, 2)
    single = sampler.sample_batch(1, 2, 2)[0]
    b2 = sampler.sample_batch(2, 2, 2)
    ids = [t.task_id for t in b1] + [single.task_id] + [t.task_id for t in b2]
    assert ids == list(range(50, 56))


def test_distribution_round_trip():
    tree = build_parameter_tree(SMALL)
    d = distribution_to_dict(tree)
    assert len(d["centers"]) == 7
    # the dump holds what rebuilds the distribution: its config and the
    # centers in BFS order (root, two mid nodes, four leaves)
    assert TaskGeneratorConfig(**d["config"]) == SMALL
    assert d["centers"][0] == tree.root.center.to_list()
    assert d["centers"][3] == tree.leaves[0].center.to_list()
    assert d["centers"][6] == tree.leaves[3].center.to_list()
