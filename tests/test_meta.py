import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from treemaml.meta import (
    MODES,
    CapabilityError,
    DivergenceError,
    FixedTreeSpec,
    MetaConfig,
    TreeShapeError,
    adapt_and_evaluate,
    adapt_tree,
    generator_hierarchy_tree,
    meta_gradient,
    meta_train,
    meta_validation_loss,
    outer_update,
    single_cluster_tree,
    singleton_tree,
    stable_hash,
)
from treemaml.models import Batch, BatchStack, EmptyBatchError, LinearRegressionModel
from treemaml.numerics import NumericalError
from treemaml.tasks import (
    ConfigError,
    TaskBatch,
    TaskGeneratorConfig,
    TaskSampler,
    build_parameter_tree,
)

from finite_difference import finite_difference_gradient


def stack(x, y):
    """One task's (n, d) inputs and (n,) targets as a one-task BatchStack."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return BatchStack(((x[None], y[None]),))


def make_task(tid, x, y, xv=None, yv=None, path=(0,), test=None):
    """A one-task batch; val defaults to the train points, test (an (x, y)
    pair) to no points."""
    x = np.asarray(x, dtype=np.float64)
    train = stack(x, y)
    val = train if xv is None else stack(xv, yv)
    test = stack(np.zeros((0, x.shape[1])), np.zeros(0)) if test is None else stack(*test)
    return TaskBatch(np.array([tid]), np.zeros(1, dtype=np.intp), np.array([path]),
                     np.zeros((1, x.shape[1])), train, val, test)


def join(tasks):
    """One batch of the given batches, in order."""
    return sum(tasks[1:], tasks[0])


def splits(tasks, name="train"):
    """Each task's split as a Batch, in task order."""
    return [Batch(X[i], Y[i]) for X, Y in getattr(tasks, name).blocks for i in range(len(X))]


def split(task, name="train"):
    """A one-task batch's split as a Batch."""
    (batch,) = splits(task, name)
    return batch


def concat(batches):
    return Batch(np.concatenate([b.x for b in batches]), np.concatenate([b.y for b in batches]))


def random_task_list(rng, m, dim, n=4, path_levels=0):
    """m random one-task batches with ids 0..m-1."""
    tasks = []
    for i in range(m):
        w = rng.normal(size=dim)
        xt = rng.uniform(-2, 2, size=(n, dim))
        xv = rng.uniform(-2, 2, size=(n, dim))
        path = tuple(int(rng.integers(0, 2)) for _ in range(path_levels))
        t = make_task(i, xt, xt @ w + rng.normal(0, 0.1, n),
                      xv, xv @ w + rng.normal(0, 0.1, n), path=path or (0,))
        tasks.append(t)
    return tasks


def random_tasks(rng, m, dim, n=4, path_levels=0):
    return join(random_task_list(rng, m, dim, n, path_levels))


def pooled_step(model, params, batches, lr):
    """One pooled step over the member batches: adapt_tree on a one-step single-cluster tree."""
    tasks = join([make_task(i, b.x, b.y) for i, b in enumerate(batches)])
    cfg = MetaConfig(mode="tree_fixed", inner_steps=1, inner_lr=lr, fixed_tree=single_cluster_tree())
    (cluster,) = adapt_tree(model, params, tasks, cfg).params[0]
    return cluster


def gradient(model, params, batch):
    return model.batch_gradient(params[None], batch.x[None], batch.y[None])[0]


def plain_step(model, params, batch, lr):
    """One gradient step on a single batch, the oracle for the engine's per-task step."""
    return params - lr * gradient(model, params, batch)


def task_step(model, params, task, lr):
    """One maml inner step of one task: adapt_tree with K = 1 on a batch of one."""
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=lr)
    return adapt_tree(model, params, task, cfg).task_params(1)[0]


def members(trace, k):
    """Step k's clusters as tuples of task_ids in batch order."""
    ids = trace.tasks.ids
    return [tuple(ids[trace.owners[k - 1] == c].tolist()) for c in range(trace.partition_sizes[k - 1])]


def assert_nested(trace):
    # every cluster sits inside its parent's member set
    for k in range(2, len(trace.params) + 1):
        parents = members(trace, k - 1)
        for cluster, p in zip(members(trace, k), trace.parents[k - 1]):
            assert set(cluster) <= set(parents[p])


class GradientOnlyModel:
    """Implements the model contract without the second-order capability."""

    def __init__(self, dim):
        self.dim = dim
        self._inner = LinearRegressionModel(dim)

    def loss(self, params, batch):
        return self._inner.loss(params, batch)

    def batch_loss(self, P, X, Y):
        return self._inner.batch_loss(P, X, Y)

    def batch_gradient(self, P, X, Y):
        return self._inner.batch_gradient(P, X, Y)


def test_fixed_tree_factories():
    t = make_task(42, [[1.0, 0.0]], [1.0], path=(0, 1))
    assert generator_hierarchy_tree().path_of(t, 3).tolist() == [[0, 1, 42]]
    assert generator_hierarchy_tree().path_of(t, 2).tolist() == [[0, 42]]
    shallow = make_task(7, [[1.0]], [1.0], path=(1,))
    assert generator_hierarchy_tree().path_of(shallow, 3).tolist() == [[1, 0, 7]]
    assert singleton_tree().path_of(t, 2).tolist() == [[42, 42]]
    assert single_cluster_tree().path_of(t, 2).tolist() == [[0, 0]]
    assert generator_hierarchy_tree().label == "generator"


def test_meta_config_validation():
    with pytest.raises(ConfigError):
        MetaConfig(mode="magic")
    with pytest.raises(ConfigError):
        MetaConfig(inner_lr=-0.1)
    with pytest.raises(ConfigError):
        MetaConfig(inner_steps=0)
    # a count is an int where the config is built, not only where a spec loads
    for name, bad in (("points", 2.5), ("inner_steps", True), ("tasks_per_batch", 8.0),
                      ("outer_iterations", "400"), ("seed", False), ("seed", 1.5)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, not {bad!r}$"):
            MetaConfig(**{name: bad})
    for xi in (-0.1, math.nan):
        with pytest.raises(ConfigError):
            MetaConfig(xi=xi)
    assert MetaConfig(xi=math.inf).xi == math.inf
    # no mode needs a field of its own, and no rule ties inner_steps to a tree depth
    for K in (1, 2, 3, 4):
        assert MetaConfig(mode="tree_fixed", inner_steps=K).fixed_tree == generator_hierarchy_tree()
        assert MetaConfig(mode="tree_learned", inner_steps=K).xi == 1.0


def test_config_describe_and_hash():
    cfg = MetaConfig(mode="tree_learned", inner_steps=3)
    d = cfg.describe()
    json.dumps(d)  # must be serializable
    assert d["xi"] == 1.0
    assert set(d) == {f.name for f in dataclasses.fields(MetaConfig)}
    assert stable_hash(d) == stable_hash(dict(reversed(list(d.items()))))
    assert stable_hash(d) != stable_hash({**d, "inner_lr": 0.5})


def test_one_form_per_config():
    # the default tree is the generator tree, as a value: equal configs, one hash
    default = MetaConfig(mode="tree_fixed")
    explicit = MetaConfig(mode="tree_fixed", fixed_tree=generator_hierarchy_tree())
    assert default == explicit
    assert default.describe() == explicit.describe()
    assert stable_hash(default.describe()) == stable_hash(explicit.describe())
    for factory in (generator_hierarchy_tree, singleton_tree, single_cluster_tree):
        assert factory() == factory()
    assert singleton_tree() != single_cluster_tree()
    assert [f.name for f in dataclasses.fields(MetaConfig)].count("points") == 1
    assert len(dataclasses.fields(MetaConfig)) == 12
    for bad in (None, "generator", generator_hierarchy_tree):
        with pytest.raises(ConfigError, match="fixed_tree must be a FixedTreeSpec"):
            MetaConfig(mode="tree_fixed", fixed_tree=bad)
    with pytest.raises(ConfigError, match="points must be >= 1"):
        MetaConfig(points=0)


def test_inner_step_task_hand_value():
    model = LinearRegressionModel(1)
    out = task_step(model, np.array([0.0]), make_task(0, [[1.0]], [1.0]), 0.5)
    assert out.tolist() == [1.0]


def test_inner_step_task_fixed_point_and_descent():
    rng = np.random.default_rng(0)
    model = LinearRegressionModel(3)
    w = rng.normal(size=3)
    x = rng.uniform(-2, 2, size=(5, 3))
    noiseless = make_task(0, x, x @ w)
    assert np.array_equal(task_step(model, w, noiseless, 0.1), w)
    params = rng.normal(size=3)
    stepped = task_step(model, params, noiseless, 0.01)
    assert model.loss(stepped, split(noiseless)) < model.loss(params, split(noiseless))


def test_cluster_step_single_member_equals_task_step():
    rng = np.random.default_rng(1)
    model = LinearRegressionModel(2)
    params = rng.normal(size=2)
    batch = Batch(rng.uniform(-1, 1, size=(4, 2)), rng.normal(size=4))
    assert np.array_equal(pooled_step(model, params, [batch], 0.05), plain_step(model, params, batch, 0.05))


def test_cluster_step_opposite_gradients_cancel():
    model = LinearRegressionModel(1)
    params = np.array([0.0])
    up = Batch([[1.0]], [-1.0])   # gradient +2
    down = Batch([[1.0]], [1.0])  # gradient -2
    assert np.array_equal(pooled_step(model, params, [up, down], 0.3), params)


def test_cluster_step_matches_concatenated_batch():
    # pooled step over equal-size members = plain step on the concatenation
    rng = np.random.default_rng(2)
    model = LinearRegressionModel(3)
    for _ in range(50):
        params = rng.normal(size=3)
        n = int(rng.integers(2, 6))
        members = [
            Batch(rng.uniform(-2, 2, size=(n, 3)), rng.normal(size=n))
            for _ in range(int(rng.integers(1, 5)))
        ]
        pooled = pooled_step(model, params, members, 0.07)
        direct = plain_step(model, params, concat(members), 0.07)
        assert np.allclose(pooled, direct, atol=1e-12)


def test_adapt_tree_maml_equals_independent_steps():
    rng = np.random.default_rng(3)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 4, 3)
    omega = rng.normal(size=3)
    cfg = MetaConfig(mode="maml", inner_steps=3, inner_lr=0.05, tasks_per_batch=4)
    trace = adapt_tree(model, omega, tasks, cfg)
    assert trace.partition_sizes == [4, 4, 4]
    for batch, adapted in zip(splits(tasks), trace.task_params(3)):
        theta = omega
        for _ in range(3):
            theta = plain_step(model, theta, batch, 0.05)
        assert np.array_equal(adapted, theta)


def test_singleton_fixed_tree_is_bit_identical_to_maml():
    model = LinearRegressionModel(4)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        tasks = random_tasks(rng, 3, 4)
        omega = rng.normal(size=4)
        maml = adapt_tree(model, omega, tasks, MetaConfig(mode="maml", inner_steps=2, inner_lr=0.04))
        fixed = adapt_tree(
            model, omega, tasks,
            MetaConfig(mode="tree_fixed", inner_steps=2, inner_lr=0.04, fixed_tree=singleton_tree()),
        )
        assert np.array_equal(maml.task_params(2), fixed.task_params(2))


def test_single_cluster_tree_pools_everything():
    rng = np.random.default_rng(4)
    model = LinearRegressionModel(2)
    tasks = random_tasks(rng, 3, 2)
    omega = rng.normal(size=2)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=2, inner_lr=0.03, fixed_tree=single_cluster_tree())
    trace = adapt_tree(model, omega, tasks, cfg)
    assert trace.partition_sizes == [1, 1]
    finals = trace.task_params(2)
    assert all(np.array_equal(f, finals[0]) for f in finals)
    manual = omega
    for _ in range(2):
        grads = [gradient(model, manual, b) for b in splits(tasks)]
        manual = manual - 0.03 * np.mean(np.stack(grads), axis=0)
    assert np.array_equal(finals[0], manual)


def test_generator_tree_partitions_coarse_to_fine():
    rng = np.random.default_rng(5)
    model = LinearRegressionModel(3)
    paths = [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]
    tasks = []
    for i, p in enumerate(paths):
        t = random_tasks(rng, 1, 3)
        tasks.append(TaskBatch(np.array([i]), t.leaves, np.array([p]), t.weights,
                               t.train, t.val, t.test))
    tasks = join(tasks)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.02,
                     fixed_tree=generator_hierarchy_tree(), tasks_per_batch=8)
    trace = adapt_tree(model, rng.normal(size=3), tasks, cfg)
    assert trace.partition_sizes == [2, 4, 8]
    # distinct parameter vectors per level match the cluster counts
    for params, expect in zip(trace.params, (2, 4, 8)):
        assert len({tuple(row) for row in params}) == expect
    assert_nested(trace)


def test_fixed_tree_wrong_path_length_raises():
    rng = np.random.default_rng(6)
    tasks = random_tasks(rng, 2, 2)
    bad = FixedTreeSpec(lambda t, K: np.zeros((len(t), 1), dtype=np.int64))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=2, fixed_tree=bad)
    with pytest.raises(TreeShapeError):
        adapt_tree(LinearRegressionModel(2), np.zeros(2), tasks, cfg)


def test_fixed_tree_depth_is_inner_steps():
    tasks = random_tasks(np.random.default_rng(6), 2, 2)
    seen = []

    def path_of(t, K):
        seen.append(K)
        return np.zeros((len(t), K), dtype=np.int64)

    for K in (1, 3):
        cfg = MetaConfig(mode="tree_fixed", inner_steps=K, fixed_tree=FixedTreeSpec(path_of))
        assert adapt_tree(LinearRegressionModel(2), np.zeros(2), tasks, cfg).partition_sizes == [1] * K
    assert seen == [1, 3]


def test_learned_tree_groups_by_gradient_direction():
    # one train point per task makes the gradient parallel to that x; two
    # near-orthogonal direction pairs should split 2 then 4 then 4
    model = LinearRegressionModel(2)
    dirs = [(1.0, 0.0), (0.996, 0.087), (0.0, 1.0), (0.087, 0.996)]
    tasks = join([make_task(i, [list(d)], [1.0]) for i, d in enumerate(dirs)])
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01, tasks_per_batch=4)
    trace = adapt_tree(model, np.zeros(2), tasks, cfg)
    assert trace.partition_sizes == [2, 4, 4]
    assert sorted(members(trace, 1)) == [(0, 1), (2, 3)]
    assert_nested(trace)


def test_learned_tree_puts_zero_gradient_tasks_in_singletons():
    # task 0 is fitted exactly by omega (y = X omega), so its gradient is zero
    # at every step: it cannot be clustered and must step alone
    rng = np.random.default_rng(16)
    model = LinearRegressionModel(3)
    omega = rng.normal(size=3)
    x0 = rng.uniform(-2, 2, size=(4, 3))
    rest = random_task_list(rng, 4, 3)
    tasks = join([make_task(0, x0, x0 @ omega), *rest[1:]])
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01, tasks_per_batch=4)
    trace = adapt_tree(model, omega, tasks, cfg)
    for k in (1, 2):
        assert (0,) in members(trace, k)
        assert sorted(t for cluster in members(trace, k) for t in cluster) == [0, 1, 2, 3]
    assert np.array_equal(trace.task_params(3)[0], omega)

    fitted = join([make_task(i, x, x @ omega)
                   for i, x in enumerate(rng.uniform(-2, 2, size=(3, 4, 3)))])
    trace = adapt_tree(model, omega, fitted, cfg)
    assert trace.partition_sizes == [3, 3, 3]
    assert members(trace, 1) == [(0,), (1,), (2,)]


def test_adapt_tree_input_validation():
    model = LinearRegressionModel(2)
    omega = np.zeros(2)
    cfg = MetaConfig(mode="maml", inner_steps=1)
    empty = BatchStack(())
    no_tasks = TaskBatch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp),
                         np.zeros((0, 1), dtype=np.intp), np.zeros((0, 2)), empty, empty, empty)
    with pytest.raises(EmptyBatchError):
        adapt_tree(model, omega, no_tasks, cfg)
    t = make_task(1, [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        adapt_tree(model, omega, t + t, cfg)
    with pytest.raises(ConfigError):
        adapt_tree(model, omega, t, MetaConfig(mode="baseline"))


def test_omega_is_checked_at_entry():
    model = LinearRegressionModel(2)
    task = make_task(0, [[1.0, 0.0]], [1.0])
    cfg = MetaConfig(mode="maml", inner_steps=1)
    fixed = MetaConfig(mode="tree_fixed", inner_steps=1, fixed_tree=singleton_tree())
    entries = [
        lambda w: adapt_tree(model, w, task, cfg),
        lambda w: adapt_and_evaluate(model, w, None, task, cfg),
        lambda w: adapt_and_evaluate(model, w, task, make_task(1, [[0.0, 1.0]], [1.0]), fixed),
    ]
    for enter in entries:
        with pytest.raises(ValueError, match="shape"):
            enter(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="shape"):
            enter(np.zeros(3))
        with pytest.raises(NumericalError):
            enter(np.array([0.0, np.nan]))
        with pytest.raises(NumericalError):
            enter(np.array([np.inf, 0.0]))
    # a writable omega is copied, so writing into it later changes no trace
    omega = np.array([0.5, -0.5])
    trace = adapt_tree(model, omega, task, cfg)
    omega[0] = 7.0
    assert trace.omega.tolist() == [0.5, -0.5]


def test_parameters_are_read_only():
    gen = TaskGeneratorConfig(dim=4, seed=1)
    tree = build_parameter_tree(gen)
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.01, tasks_per_batch=4,
                     points=4, outer_iterations=2,
                     fixed_tree=generator_hierarchy_tree())
    omega, _ = meta_train(model, TaskSampler(tree, np.random.default_rng(0)), cfg)
    tasks = TaskSampler(tree, np.random.default_rng(1)).sample_batch(4, 4, 4)
    full = adapt_tree(model, omega, tasks, cfg)
    followed = adapt_tree(model, omega, tasks, cfg, follow=3)
    arrays = [omega, followed.followed_params, full.omega,
              tasks.weights, tree.centers, tree.leaf_paths]
    arrays += [full.task_params(k) for k in range(4)] + full.params
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_meta_validation_loss_is_mean_over_tasks():
    model = LinearRegressionModel(1)
    t1 = make_task(1, [[1.0]], [0.0])
    t2 = make_task(2, [[1.0]], [4.0])
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.0)
    trace = adapt_tree(model, np.zeros(1), t1 + t2, cfg)
    # adapted params stay at 0: losses are 0 and 16
    assert meta_validation_loss(model, trace) == 8.0


def test_meta_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    model_cache = {}
    worst = 0.0
    for trial in range(10):
        dim = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        model = model_cache.setdefault(dim, LinearRegressionModel(dim))
        tasks = random_tasks(rng, m, dim, path_levels=K)
        mode = ["maml", "tree_fixed"][trial % 2]
        fixed = FixedTreeSpec(lambda t, k: t.paths[:, :k])  # maml ignores it
        cfg = MetaConfig(mode=mode, fixed_tree=fixed, inner_steps=K,
                         inner_lr=float(rng.uniform(0.01, 0.2)), tasks_per_batch=m)
        omega = rng.normal(size=dim)
        g = meta_gradient(model, adapt_tree(model, omega, tasks, cfg), cfg)
        fd = finite_difference_gradient(
            lambda w: meta_validation_loss(model, adapt_tree(model, w, tasks, cfg)), omega
        )
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_meta_gradient_learned_tree_matches_finite_differences():
    # well-separated gradient directions keep the partition stable under the
    # finite-difference bumps, so the piecewise-smooth loss is locally smooth
    model = LinearRegressionModel(2)
    dirs = [(1.0, 0.0), (0.996, 0.087), (0.0, 1.0), (0.087, 0.996)]
    tasks = join([make_task(i, [list(d)], [1.0]) for i, d in enumerate(dirs)])
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.05, tasks_per_batch=4)
    omega = np.array([0.2, -0.1])
    g = meta_gradient(model, adapt_tree(model, omega, tasks, cfg), cfg)
    fd = finite_difference_gradient(
        lambda w: meta_validation_loss(model, adapt_tree(model, w, tasks, cfg)), omega
    )
    rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel < 1e-4


def test_zero_inner_lr_reduces_to_pooled_validation_gradient():
    rng = np.random.default_rng(8)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 4, 3)
    omega = rng.normal(size=3)
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.0, outer_lr=0.1)
    trace = adapt_tree(model, omega, tasks, cfg)
    assert all(np.array_equal(theta, omega) for theta in trace.task_params(2))
    g = meta_gradient(model, trace, cfg)
    expected = np.mean([gradient(model, omega, b) for b in splits(tasks, "val")], axis=0)
    assert np.allclose(g, expected, atol=1e-12)
    stepped = outer_update(model, trace, cfg)
    assert np.allclose(stepped, omega - 0.1 * g, atol=1e-15)


def test_one_step_meta_gradient_closed_form():
    # K=1, one task: d/dw L_val(w - a*g_train(w)) = (I - a*H_train) g_val(theta)
    rng = np.random.default_rng(9)
    xt = rng.uniform(-2, 2, size=(4, 2))
    yt = rng.normal(size=4)
    xv = rng.uniform(-2, 2, size=(3, 2))
    yv = rng.normal(size=3)
    task = make_task(0, xt, yt, xv, yv)
    model = LinearRegressionModel(2)
    omega = rng.normal(size=2)
    alpha = 0.05
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=alpha)
    trace = adapt_tree(model, omega, task, cfg)
    g = meta_gradient(model, trace, cfg)

    H = (2.0 / len(xt)) * xt.T @ xt
    theta = omega - alpha * (2.0 / len(xt)) * xt.T @ (xt @ omega - yt)
    g_val = (2.0 / len(xv)) * xv.T @ (xv @ theta - yv)
    expected = (np.eye(2) - alpha * H) @ g_val
    assert np.allclose(g, expected, atol=1e-12)


def test_first_order_gradient_ignores_the_inner_jacobian():
    rng = np.random.default_rng(10)
    model = LinearRegressionModel(2)
    tasks = random_tasks(rng, 3, 2)
    omega = rng.normal(size=2)
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.1, second_order=False)
    trace = adapt_tree(model, omega, tasks, cfg)
    g = meta_gradient(model, trace, cfg)
    expected = np.mean(
        [gradient(model, theta, b) for b, theta in zip(splits(tasks, "val"), trace.task_params(2))],
        axis=0
    )
    assert np.allclose(g, expected, atol=1e-15)
    second = meta_gradient(model, trace, MetaConfig(mode="maml", inner_steps=2, inner_lr=0.1))
    assert not np.allclose(g, second)


def test_second_order_needs_hvp_capability():
    rng = np.random.default_rng(11)
    model = GradientOnlyModel(2)
    tasks = random_tasks(rng, 2, 2)
    omega = np.array([0.1, 0.2])
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.05)
    trace = adapt_tree(model, omega, tasks, cfg)
    with pytest.raises(CapabilityError):
        meta_gradient(model, trace, cfg)
    first = meta_gradient(model, trace,
                          MetaConfig(mode="maml", inner_steps=1, inner_lr=0.05, second_order=False))
    assert first.shape == (2,)


def test_inner_steps_do_not_increase_pooled_training_loss():
    rng = np.random.default_rng(12)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 6, 3, path_levels=2)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.001,
                     fixed_tree=generator_hierarchy_tree(), tasks_per_batch=6)
    omega = rng.normal(size=3)
    trace = adapt_tree(model, omega, tasks, cfg)
    batches = dict(zip(tasks.ids.tolist(), splits(tasks)))
    params_in = omega[None]
    for k, params_out in enumerate(trace.params, start=1):
        for cluster, p, out in zip(members(trace, k), trace.parents[k - 1], params_out):
            pooled = concat([batches[tid] for tid in cluster])
            assert model.loss(out, pooled) <= model.loss(params_in[p], pooled) + 1e-12
        params_in = params_out


def make_sampler(dim=4, seed=0, gen_seed=1):
    gen = TaskGeneratorConfig(dim=dim, branching=(2, 2), level_scales=(1.0, 1.0, 0.5),
                              noise_std=0.01, seed=gen_seed)
    tree = build_parameter_tree(gen)
    return TaskSampler(tree, np.random.default_rng(seed))


def test_meta_train_is_deterministic_and_logs():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.01, outer_lr=0.01,
                     tasks_per_batch=4, points=4,
                     outer_iterations=10, seed=3)
    w1, log1 = meta_train(model, make_sampler(), cfg)
    w2, log2 = meta_train(model, make_sampler(), cfg)
    assert np.array_equal(w1, w2)
    assert [r["meta_loss"] for r in log1] == [r["meta_loss"] for r in log2]
    assert len(log1) == 10
    assert log1[0]["iter"] == 1
    assert set(log1[0]) == {"iter", "meta_loss", "wall_ms", "partitions"}
    assert log1[0]["partitions"] == [4, 4]


def test_meta_train_baseline_logs_empty_partitions():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="baseline", outer_lr=0.001, tasks_per_batch=4,
                     points=4, outer_iterations=5, seed=3)
    omega, log = meta_train(model, make_sampler(), cfg)
    assert omega.shape == (4,)
    assert all(r["partitions"] == [] for r in log)


def test_meta_train_reduces_the_meta_loss():
    # Tasks share a dominant common component (root scale 2.0, tiny branch
    # scales), so a well-trained initialization should cut the meta-loss by
    # far more than 10x from the first logged iteration.
    gen = TaskGeneratorConfig(dim=4, branching=(2, 2), level_scales=(2.0, 0.1, 0.05),
                              noise_std=0.01, seed=1)
    sampler = TaskSampler(build_parameter_tree(gen), np.random.default_rng(5))
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.04, outer_lr=0.03,
                     tasks_per_batch=8, points=6,
                     outer_iterations=150, seed=0)
    _, log = meta_train(model, sampler, cfg)
    tail = np.mean([r["meta_loss"] for r in log[-10:]])
    assert tail < log[0]["meta_loss"] / 10.0


def test_meta_train_raises_on_divergence():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="maml", inner_steps=3, inner_lr=2.0, outer_lr=0.001,
                     tasks_per_batch=4, points=4,
                     outer_iterations=5, seed=0)
    with pytest.raises(DivergenceError) as err:
        meta_train(model, make_sampler(), cfg)
    assert err.value.iteration == 1


class TrackingSource:
    """A sampler that, before each draw, counts the earlier batches still alive."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.drawn = []  # weak references to each batch and its splits' buffers
        self.alive_at_draw = []

    def sample_batch(self, m, n_train, n_val):
        self.alive_at_draw.append(sum(ref() is not None for ref in self.drawn))
        batch = self.sampler.sample_batch(m, n_train, n_val)
        self.drawn.append(weakref.ref(batch))
        self.drawn += [weakref.ref(a if a.base is None else a.base)
                       for s in (batch.train, batch.val) for b in s.blocks for a in b]
        return batch


@pytest.mark.parametrize("mode", MODES)
def test_meta_train_holds_one_batch_at_a_time(mode):
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode=mode, inner_steps=3, inner_lr=0.01, outer_lr=0.01,
                     tasks_per_batch=6, points=4, outer_iterations=4, seed=0)
    source = TrackingSource(make_sampler())
    meta_train(model, source, cfg)
    assert source.alive_at_draw == [0, 0, 0, 0]


class FixedSource:
    """A task source that hands out the same tasks every iteration."""

    def __init__(self, tasks):
        self.tasks = tasks

    def sample_batch(self, m, n_train, n_val):
        return self.tasks


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_values_raise_divergence_naming_the_phase():
    # one task, x = 1 and y = 0: the gradient is 2 theta and the Hessian 2, so
    # a step maps theta to (1 - 2 lr) theta and overflow is easy to place
    model = LinearRegressionModel(1)
    task = make_task(0, [[1.0]], [0.0])

    def phase_of(fn, *args):
        with pytest.raises(DivergenceError) as err:
            fn(*args)
        return err.value.phase, err.value.iteration, str(err.value)

    # theta_1 = -2e300 is finite, theta_2 = 4e600 is not
    huge = MetaConfig(mode="maml", inner_steps=3, inner_lr=1e300, tasks_per_batch=1,
                      outer_iterations=2)
    assert phase_of(adapt_tree, model, np.array([1.0]), task, huge) == (
        "inner step 2", None, "non-finite values in inner step 2")
    assert phase_of(meta_train, model, FixedSource(task), huge) == (
        "inner step 2", 1, "non-finite values in inner step 2 at iteration 1")
    assert phase_of(adapt_and_evaluate, model, np.array([1.0]), None, task, huge)[0] == (
        "eval, inner step 2")
    fixed = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=1e300,
                       fixed_tree=singleton_tree())
    target = make_task(1, [[1.0]], [0.0])
    assert phase_of(adapt_and_evaluate, model, np.array([1.0]), task, target, fixed)[0] == (
        "eval, inner step 2")

    # theta_1 = 1 - 2e160 and its validation gradient are finite; the
    # reverse pass multiplies by (1 - 2e160) once more and overflows
    one = MetaConfig(mode="maml", inner_steps=1, inner_lr=1e160)
    trace = adapt_tree(model, np.array([1.0]), task, one)
    assert phase_of(meta_gradient, model, trace, one)[0] == "meta-gradient"

    # a finite meta-gradient of 12.8 times outer_lr 1e308 overflows omega
    step = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.1, outer_lr=1e308)
    omega = np.array([10.0])
    trace = adapt_tree(model, omega, task, step)
    assert phase_of(outer_update, model, trace, step)[0] == "outer step"

    # finite parameters whose test loss overflows
    frozen = MetaConfig(mode="baseline", baseline_finetune=False)
    tested = make_task(2, [[1.0]], [0.0], test=([[1.0]], [0.0]))
    assert phase_of(adapt_and_evaluate, model, np.array([1e200]), None, tested, frozen)[0] == "eval"


def test_eval_checks_finiteness_only_on_the_target_path():
    # each task alone at every step: a support task with x = 1e200 has an
    # infinite first gradient, but the target's parameters never read it
    model = LinearRegressionModel(1)
    wild = make_task(0, [[1e200]], [0.0])
    target = make_task(1, [[1.0]], [0.0], test=([[1.0]], [0.0]))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.1, fixed_tree=singleton_tree())
    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        adapt_tree(model, np.array([1.0]), wild + target, cfg)
    # theta = 0.8^3 after three steps, whose squared error is 0.8^6
    assert adapt_and_evaluate(model, np.array([1.0]), wild, target, cfg) == pytest.approx(0.8 ** 6)


def test_adapt_and_evaluate_baseline_and_maml_paths():
    rng = np.random.default_rng(13)
    model = LinearRegressionModel(3)
    w = rng.normal(size=3)
    xt = rng.uniform(-2, 2, size=(5, 3))
    xs = rng.uniform(-2, 2, size=(6, 3))
    target = make_task(0, xt, xt @ w, path=(0, 0), test=(xs, xs @ w))
    omega = rng.normal(size=3)
    frozen = MetaConfig(mode="baseline", inner_steps=2, inner_lr=0.02, baseline_finetune=False)
    zero_shot = model.loss(omega, split(target, "test"))
    assert adapt_and_evaluate(model, omega, None, target, frozen) == zero_shot
    tuned = MetaConfig(mode="baseline", inner_steps=2, inner_lr=0.02)
    maml = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.02)
    theta = omega
    for _ in range(2):
        theta = plain_step(model, theta, split(target), 0.02)
    expected = model.loss(theta, split(target, "test"))
    assert adapt_and_evaluate(model, omega, None, target, tuned) == expected
    assert adapt_and_evaluate(model, omega, None, target, maml) == expected


def test_adapt_and_evaluate_tree_fixed_at_the_optimum():
    # all tasks share the same noiseless weights and omega equals them:
    # every gradient vanishes, so the tree adaptation stays at omega
    rng = np.random.default_rng(14)
    w = rng.normal(size=3)
    model = LinearRegressionModel(3)

    def noiseless(tid, path):
        x = rng.uniform(-2, 2, size=(4, 3))
        xs = rng.uniform(-2, 2, size=(4, 3))
        return make_task(tid, x, x @ w, path=path, test=(xs, xs @ w))

    support = join([noiseless(i, (i % 2, i // 2)) for i in range(4)])
    target = noiseless(99, (0, 1))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.05,
                     fixed_tree=generator_hierarchy_tree())
    assert adapt_and_evaluate(model, w, support, target, cfg) == 0.0


def test_adapt_and_evaluate_tree_learned_runs():
    rng = np.random.default_rng(15)
    model = LinearRegressionModel(4)
    sampler = make_sampler(seed=9)
    support = sampler.sample_batch(4, 5, 5)
    target = sampler.sample_batch(1, 5, 0, n_test=10)
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01)
    mse = adapt_and_evaluate(model, rng.normal(0, 0.01, 4), support, target, cfg)
    assert math.isfinite(mse) and mse >= 0.0

