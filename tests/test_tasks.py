import re

import numpy as np
import pytest

from treemaml.tasks import (
    ConfigError,
    TaskGeneratorConfig,
    build_parameter_tree,
    distribution_to_dict,
    sample_task_batch,
)

SMALL = TaskGeneratorConfig(dim=6, branching=(2, 2), level_scales=(1.0, 1.0, 0.5), seed=3)


def sample_task(tree, rng, n_train, n_val, n_test=0, task_id=0):
    return sample_task_batch(tree, 1, rng, n_train, n_val, n_test, start_id=task_id)


def points(task, split):
    """A one-task batch's split as its (n, dim) inputs and (n,) targets."""
    (X, Y), = getattr(task, split).blocks
    return X[0], Y[0]


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
    for field, bad, kind in (("dim", 4.0, "int"), ("seed", True, "int"),
                             ("branching", (2, 2.0), "tuple[int, ...]"),
                             ("branching", [True, 2], "tuple[int, ...]")):
        message = f"{field} must be {kind}, not {bad!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TaskGeneratorConfig(**{field: bad})


def test_config_defaults_and_derived():
    cfg = TaskGeneratorConfig()
    assert cfg.dim == 64
    assert cfg.branching == (2, 2)
    assert cfg.jitter_std == pytest.approx(0.05)  # 0.1 * last level scale
    assert TaskGeneratorConfig(task_jitter=0.3).jitter_std == 0.3


def test_parameter_tree_shape():
    tree = build_parameter_tree(SMALL)
    # branching (2, 2): 1 root + 2 mid + 4 leaves
    assert tree.centers.shape == (7, SMALL.dim)
    assert (tree.leaf_paths.dtype, tree.leaf_paths.shape) == (np.intp, (4, 2))
    assert tree.leaf_paths.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # drawn depth-first (root, mid 0, its leaves, mid 1, its leaves), stored
    # breadth-first (root, two mid nodes, four leaves in path order)
    rng = np.random.default_rng(SMALL.seed)
    root = rng.normal(0.0, 1.0, SMALL.dim)
    drawn = [root]
    for _ in range(2):
        mid = root + rng.normal(0.0, 1.0, SMALL.dim)
        drawn += [mid] + [mid + rng.normal(0.0, 0.5, SMALL.dim) for _ in range(2)]
    assert np.array_equal(tree.centers, np.array([drawn[i] for i in (0, 1, 4, 2, 3, 5, 6)]))


def test_overflowing_centers_are_a_config_error():
    # finite scales whose draws overflow float64
    with pytest.raises(ConfigError, match=r"a level-\d center overflows"):
        build_parameter_tree(TaskGeneratorConfig(dim=8, level_scales=(1e308,) * 3))


def test_zero_scales_collapse_hierarchy():
    cfg = TaskGeneratorConfig(dim=4, level_scales=(1.0, 0.0, 0.0), seed=9)
    tree = build_parameter_tree(cfg)
    for center in tree.centers[-4:]:
        assert np.array_equal(center, tree.centers[0])


def test_tree_is_deterministic():
    t1 = build_parameter_tree(SMALL)
    t2 = build_parameter_tree(SMALL)
    assert np.array_equal(t1.centers[-4:], t2.centers[-4:])
    t3 = build_parameter_tree(TaskGeneratorConfig(**{**SMALL.to_dict(), "seed": 4}))
    assert not np.array_equal(t3.centers[0], t1.centers[0])


def test_sample_task_shapes_and_ranges():
    tree = build_parameter_tree(SMALL)
    task = sample_task(tree, np.random.default_rng(0), n_train=5, n_val=5, n_test=3, task_id=17)
    assert task.ids.tolist() == [17]
    assert len(points(task, "train")[0]) == 5
    assert len(points(task, "val")[0]) == 5
    assert len(points(task, "test")[0]) == 3
    assert points(task, "train")[0].min() >= SMALL.input_low
    assert points(task, "train")[0].max() <= SMALL.input_high
    assert 0 <= task.leaves[0] < 4
    assert task.paths[0].tolist() == tree.leaf_paths[task.leaves[0]].tolist()
    with pytest.raises(ConfigError):
        sample_task(tree, np.random.default_rng(0), n_train=-1, n_val=5)


def test_overflowing_task_weights_are_a_config_error():
    # task_jitter passes the config's range check, but its draws overflow
    tree = build_parameter_tree(TaskGeneratorConfig(dim=6, task_jitter=1e308, seed=3))
    with pytest.raises(ConfigError, match="task_jitter 1e[+]308, level_scales"):
        sample_task_batch(tree, 4, np.random.default_rng(0), 5, 5)


def test_task_batch_arrays():
    tree = build_parameter_tree(SMALL)
    batch = sample_task_batch(tree, 5, np.random.default_rng(1), 3, 2, 4, start_id=20)
    assert (batch.ids.dtype, batch.ids.shape) == (np.int64, (5,))
    assert (batch.leaves.dtype, batch.leaves.shape) == (np.intp, (5,))
    assert (batch.paths.dtype, batch.paths.shape) == (np.intp, (5, 2))
    assert (batch.weights.dtype, batch.weights.shape) == (np.float64, (5, SMALL.dim))
    splits = {"train": batch.train, "val": batch.val, "test": batch.test}
    for name, n in (("train", 3), ("val", 2), ("test", 4)):
        (X, Y), = splits[name].blocks
        assert (X.dtype, X.shape) == (np.float64, (5, n, SMALL.dim))
        assert (Y.dtype, Y.shape) == (np.float64, (5, n))
    arrays = [batch.ids, batch.leaves, batch.paths, batch.weights]
    arrays += [a for stack in splits.values() for block in stack.blocks for a in block]
    assert not any(a.flags.writeable for a in arrays)

    # + joins the splits' blocks as they are, without copying them
    task = sample_task_batch(tree, 1, np.random.default_rng(2), 3, 2, 4, start_id=23)
    joined = batch + task
    assert joined.ids.tolist() == [20, 21, 22, 23, 24, 23]
    assert np.array_equal(joined.paths, np.concatenate([batch.paths, task.paths]))
    assert not joined.weights.flags.writeable
    for name, stack in splits.items():
        parts = stack.blocks + getattr(task, name).blocks
        assert len(getattr(joined, name).blocks) == len(parts)
        assert all(a is b for block, part in zip(getattr(joined, name).blocks, parts)
                   for a, b in zip(block, part))


def test_noiseless_points_satisfy_the_linear_law():
    cfg = TaskGeneratorConfig(dim=5, noise_std=0.0, task_jitter=0.0, seed=2)
    tree = build_parameter_tree(cfg)
    task = sample_task(tree, np.random.default_rng(5), n_train=8, n_val=8)
    center = tree.centers[-4:][task.leaves[0]]
    assert np.array_equal(task.weights[0], center)
    x, y = points(task, "train")
    assert np.array_equal(y, x @ center)


def test_sampling_is_deterministic():
    tree = build_parameter_tree(SMALL)
    t1 = sample_task(tree, np.random.default_rng(11), 4, 4, 2)
    t2 = sample_task(tree, np.random.default_rng(11), 4, 4, 2)
    assert np.array_equal(t1.weights, t2.weights)
    assert np.array_equal(points(t1, "train")[0], points(t2, "train")[0])
    assert np.array_equal(points(t1, "val")[1], points(t2, "val")[1])
    assert np.array_equal(points(t1, "test")[1], points(t2, "test")[1])


def test_sample_task_batch():
    tree = build_parameter_tree(SMALL)
    with pytest.raises(ConfigError):
        sample_task_batch(tree, 0, np.random.default_rng(0), 5, 5)
    batch = sample_task_batch(tree, 8, np.random.default_rng(0), 5, 5, start_id=100)
    assert batch.ids.tolist() == list(range(100, 108))
    assert set(batch.leaves.tolist()) <= {0, 1, 2, 3}


def test_numpy_pcg64_keeps_the_facts_the_input_skip_relies_on():
    # sample_task_batch skips a task's inputs (input_leaves) with PCG64's
    # advance(k) in place of random(out=a) for k doubles, and then puts back
    # the 32-bit half of a draw that PCG64 buffers for integers
    for k in (1, 64, 8192):
        drawn, skipped = (np.random.Generator(np.random.PCG64(k)) for _ in range(2))
        drawn.integers(2), skipped.integers(2)
        buffer = {key: skipped.bit_generator.state[key] for key in ("has_uint32", "uinteger")}
        assert buffer["has_uint32"] == 1
        drawn.random(out=np.empty(k))
        skipped.bit_generator.advance(k)
        cleared = skipped.bit_generator.state
        assert (cleared["has_uint32"], cleared["uinteger"]) == (0, 0), (
            "numpy's PCG64.advance no longer clears the buffered 32-bit half; "
            "sample_task_batch's input skip puts back a buffer that needs no putting back")
        skipped.bit_generator.state = {**cleared, **buffer}
        assert skipped.bit_generator.state == drawn.bit_generator.state, (
            "numpy's Generator.random(out=a) no longer takes one PCG64 step per double; "
            "sample_task_batch's input skip must advance by another count")


def test_leaf_occupancy_is_roughly_uniform():
    tree = build_parameter_tree(SMALL)
    batch = sample_task_batch(tree, 1000, np.random.default_rng(123), 1, 1)
    counts = np.bincount(batch.leaves, minlength=4)
    # binomial(1000, 1/4): mean 250, 5-sigma band
    bound = 5.0 * np.sqrt(250.0 * 0.75)
    assert all(abs(c - 250.0) <= bound for c in counts)


def test_ols_recovers_noiseless_weights():
    cfg = TaskGeneratorConfig(dim=8, noise_std=0.0, seed=21)
    tree = build_parameter_tree(cfg)
    task = sample_task(tree, np.random.default_rng(3), n_train=cfg.dim + 1, n_val=1)
    w_hat, *_ = np.linalg.lstsq(*points(task, "train"), rcond=None)
    w = task.weights[0]
    assert np.linalg.norm(w_hat - w) / np.linalg.norm(w) < 1e-8


def test_sibling_leaves_are_closer_than_non_siblings():
    # strictly decreasing scales: offsets shrink with depth
    sib, non = [], []
    for seed in range(100):
        cfg = TaskGeneratorConfig(dim=16, level_scales=(2.0, 1.0, 0.5), seed=seed)
        tree = build_parameter_tree(cfg)
        centers, paths = tree.centers[-4:], tree.leaf_paths
        for i in range(4):
            for j in range(i + 1, 4):
                d = float(np.linalg.norm(centers[i] - centers[j]))
                (sib if paths[i, 0] == paths[j, 0] else non).append(d)
    assert np.mean(sib) < np.mean(non)


def test_task_sampler_ids_increase():
    tree = build_parameter_tree(SMALL)
    rng = np.random.default_rng(7)
    b1 = sample_task_batch(tree, 3, rng, 2, 2, start_id=50)
    single = sample_task_batch(tree, 1, rng, 2, 2, start_id=53)
    b2 = sample_task_batch(tree, 2, rng, 2, 2, start_id=54)
    ids = (b1 + single + b2).ids.tolist()
    assert ids == list(range(50, 56))


def test_distribution_round_trip():
    tree = build_parameter_tree(SMALL)
    d = distribution_to_dict(tree)
    assert len(d["centers"]) == 7
    # the dump holds what rebuilds the distribution: its config and the
    # centers in BFS order (root, two mid nodes, four leaves)
    assert TaskGeneratorConfig(**d["config"]) == SMALL
    assert d["centers"] == tree.centers.tolist()
