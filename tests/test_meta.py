import json
import math

import numpy as np
import pytest

from treemaml.clustering import ClusterConfig
from treemaml.meta import (
    CapabilityError,
    DivergenceError,
    FixedTreeSpec,
    MetaConfig,
    TreeShapeError,
    adapt_and_evaluate,
    adapt_tree,
    generator_hierarchy_tree,
    inner_step_task,
    meta_gradient,
    meta_train,
    meta_validation_loss,
    outer_update,
    single_cluster_tree,
    singleton_tree,
    stable_hash,
)
from treemaml.models import Batch, EmptyBatchError, LinearRegressionModel
from treemaml.numerics import ParamVector, finite_difference_gradient
from treemaml.tasks import (
    ConfigError,
    RegressionTaskParams,
    TaskGeneratorConfig,
    TaskInstance,
    TaskSampler,
    build_parameter_tree,
)


def make_task(tid, x, y, xv=None, yv=None, path=(0,)):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    train = Batch(x, y)
    val = train if xv is None else Batch(xv, yv)
    params = RegressionTaskParams(ParamVector(np.zeros(x.shape[1])), 0, tuple(path))
    empty = Batch(np.zeros((0, x.shape[1])), np.zeros(0))
    return TaskInstance(params, train, val, empty, tid)


def random_tasks(rng, m, dim, n=4, path_levels=0):
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


def pooled_step(model, params, batches, lr):
    """One pooled step over the member batches: adapt_tree on a one-step single-cluster tree."""
    tasks = [make_task(i, b.x, b.y) for i, b in enumerate(batches)]
    cfg = MetaConfig(mode="tree_fixed", inner_steps=1, inner_lr=lr, fixed_tree=single_cluster_tree(1))
    (cluster,) = adapt_tree(model, params, tasks, cfg).steps[0]
    return cluster.params_out


class GradientOnlyModel:
    """Implements the model contract without the second-order capability."""

    def __init__(self, dim):
        self.dim = dim
        self._inner = LinearRegressionModel(dim)

    def loss(self, params, batch):
        return self._inner.loss(params, batch)

    def gradient(self, params, batch):
        return self._inner.gradient(params, batch)

    def batch_loss(self, P, X, Y):
        return self._inner.batch_loss(P, X, Y)

    def batch_gradient(self, P, X, Y):
        return self._inner.batch_gradient(P, X, Y)


def test_fixed_tree_factories():
    t = make_task(42, [[1.0, 0.0]], [1.0], path=(0, 1))
    assert generator_hierarchy_tree(3).path_of(t) == (0, 1, 42)
    assert generator_hierarchy_tree(2).path_of(t) == (0, 42)
    shallow = make_task(7, [[1.0]], [1.0], path=(1,))
    assert generator_hierarchy_tree(3).path_of(shallow) == (1, 0, 7)
    assert singleton_tree(2).path_of(t) == (42, 42)
    assert single_cluster_tree(2).path_of(t) == (0, 0)
    assert generator_hierarchy_tree(3).label == "generator"


def test_meta_config_validation():
    with pytest.raises(ConfigError):
        MetaConfig(mode="magic")
    with pytest.raises(ConfigError):
        MetaConfig(inner_lr=-0.1)
    with pytest.raises(ConfigError):
        MetaConfig(inner_steps=0)
    with pytest.raises(ConfigError):
        MetaConfig(mode="tree_fixed")
    with pytest.raises(ConfigError):
        MetaConfig(mode="tree_fixed", inner_steps=3, fixed_tree=singleton_tree(2))
    with pytest.raises(ConfigError):
        MetaConfig(mode="tree_learned")
    with pytest.raises(ConfigError):
        MetaConfig(mode="tree_learned", inner_steps=2, cluster=ClusterConfig(max_depth=2))


def test_config_describe_and_hash():
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, cluster=ClusterConfig(max_depth=2))
    d = cfg.describe()
    json.dumps(d)  # must be serializable
    assert d["cluster"] == {"max_depth": 2, "xi": 1.0}
    assert stable_hash(d) == stable_hash(dict(reversed(list(d.items()))))
    assert stable_hash(d) != stable_hash({**d, "inner_lr": 0.5})


def test_inner_step_task_hand_value():
    model = LinearRegressionModel(1)
    out = inner_step_task(model, ParamVector([0.0]), Batch([[1.0]], [1.0]), 0.5)
    assert out.to_list() == [1.0]


def test_inner_step_task_fixed_point_and_descent():
    rng = np.random.default_rng(0)
    model = LinearRegressionModel(3)
    w = rng.normal(size=3)
    x = rng.uniform(-2, 2, size=(5, 3))
    noiseless = Batch(x, x @ w)
    assert inner_step_task(model, ParamVector(w), noiseless, 0.1) == ParamVector(w)
    params = ParamVector(rng.normal(size=3))
    stepped = inner_step_task(model, params, noiseless, 0.01)
    assert model.loss(stepped, noiseless) < model.loss(params, noiseless)


def test_cluster_step_single_member_equals_task_step():
    rng = np.random.default_rng(1)
    model = LinearRegressionModel(2)
    params = ParamVector(rng.normal(size=2))
    batch = Batch(rng.uniform(-1, 1, size=(4, 2)), rng.normal(size=4))
    assert pooled_step(model, params, [batch], 0.05) == inner_step_task(model, params, batch, 0.05)


def test_cluster_step_opposite_gradients_cancel():
    model = LinearRegressionModel(1)
    params = ParamVector([0.0])
    up = Batch([[1.0]], [-1.0])   # gradient +2
    down = Batch([[1.0]], [1.0])  # gradient -2
    assert pooled_step(model, params, [up, down], 0.3) == params


def test_cluster_step_matches_concatenated_batch():
    # pooled step over equal-size members = plain step on the concatenation
    rng = np.random.default_rng(2)
    model = LinearRegressionModel(3)
    for _ in range(50):
        params = ParamVector(rng.normal(size=3))
        n = int(rng.integers(2, 6))
        members = [
            Batch(rng.uniform(-2, 2, size=(n, 3)), rng.normal(size=n))
            for _ in range(int(rng.integers(1, 5)))
        ]
        pooled = pooled_step(model, params, members, 0.07)
        direct = inner_step_task(model, params, Batch.concat(members), 0.07)
        assert np.allclose(pooled.values, direct.values, atol=1e-12)


def test_adapt_tree_maml_equals_independent_steps():
    rng = np.random.default_rng(3)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 4, 3)
    omega = ParamVector(rng.normal(size=3))
    cfg = MetaConfig(mode="maml", inner_steps=3, inner_lr=0.05, tasks_per_batch=4)
    trace = adapt_tree(model, omega, tasks, cfg)
    assert trace.partition_sizes == [4, 4, 4]
    for t in tasks:
        theta = omega
        for _ in range(3):
            theta = inner_step_task(model, theta, t.train_points, 0.05)
        assert trace.final_params[t.task_id] == theta


def test_singleton_fixed_tree_is_bit_identical_to_maml():
    model = LinearRegressionModel(4)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        tasks = random_tasks(rng, 3, 4)
        omega = ParamVector(rng.normal(size=4))
        maml = adapt_tree(model, omega, tasks, MetaConfig(mode="maml", inner_steps=2, inner_lr=0.04))
        fixed = adapt_tree(
            model, omega, tasks,
            MetaConfig(mode="tree_fixed", inner_steps=2, inner_lr=0.04, fixed_tree=singleton_tree(2)),
        )
        for tid in maml.final_params:
            assert maml.final_params[tid] == fixed.final_params[tid]


def test_single_cluster_tree_pools_everything():
    rng = np.random.default_rng(4)
    model = LinearRegressionModel(2)
    tasks = random_tasks(rng, 3, 2)
    omega = ParamVector(rng.normal(size=2))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=2, inner_lr=0.03, fixed_tree=single_cluster_tree(2))
    trace = adapt_tree(model, omega, tasks, cfg)
    assert trace.partition_sizes == [1, 1]
    finals = list(trace.final_params.values())
    assert all(f == finals[0] for f in finals)
    manual = omega
    for _ in range(2):
        grads = [model.gradient(manual, t.train_points).values for t in tasks]
        manual = ParamVector(manual.values - 0.03 * np.mean(np.stack(grads), axis=0))
    assert finals[0] == manual


def test_generator_tree_partitions_coarse_to_fine():
    rng = np.random.default_rng(5)
    model = LinearRegressionModel(3)
    paths = [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]
    tasks = []
    for i, p in enumerate(paths):
        t = random_tasks(rng, 1, 3)[0]
        tasks.append(TaskInstance(
            RegressionTaskParams(t.params.weights, 0, p),
            t.train_points, t.val_points, t.test_points, i,
        ))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.02,
                     fixed_tree=generator_hierarchy_tree(3), tasks_per_batch=8)
    trace = adapt_tree(model, ParamVector(rng.normal(size=3)), tasks, cfg)
    assert trace.partition_sizes == [2, 4, 8]
    # distinct parameter vectors per level match the cluster counts
    for level, expect in zip(trace.steps, (2, 4, 8)):
        assert len({tuple(cs.params_out.values) for cs in level}) == expect
    # every cluster sits inside its parent's member set
    for k in range(1, len(trace.steps)):
        for cs in trace.steps[k]:
            parent = trace.steps[k - 1][cs.parent]
            assert set(cs.members) <= set(parent.members)


def test_fixed_tree_wrong_path_length_raises():
    rng = np.random.default_rng(6)
    tasks = random_tasks(rng, 2, 2)
    bad = FixedTreeSpec(2, lambda t: (0,))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=2, fixed_tree=bad)
    with pytest.raises(TreeShapeError):
        adapt_tree(LinearRegressionModel(2), ParamVector([0.0, 0.0]), tasks, cfg)


def test_learned_tree_groups_by_gradient_direction():
    # one train point per task makes the gradient parallel to that x; two
    # near-orthogonal direction pairs should split 2 then 4 then 4
    model = LinearRegressionModel(2)
    dirs = [(1.0, 0.0), (0.996, 0.087), (0.0, 1.0), (0.087, 0.996)]
    tasks = [make_task(i, [list(d)], [1.0]) for i, d in enumerate(dirs)]
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01,
                     cluster=ClusterConfig(max_depth=2, xi=1.0), tasks_per_batch=4)
    trace = adapt_tree(model, ParamVector([0.0, 0.0]), tasks, cfg)
    assert trace.partition_sizes == [2, 4, 4]
    step1 = sorted(tuple(sorted(cs.members)) for cs in trace.steps[0])
    assert step1 == [(0, 1), (2, 3)]
    for k in range(1, len(trace.steps)):
        for cs in trace.steps[k]:
            assert set(cs.members) <= set(trace.steps[k - 1][cs.parent].members)


def test_learned_tree_puts_zero_gradient_tasks_in_singletons():
    # task 0 is fitted exactly by omega (y = X omega), so its gradient is zero
    # at every step: it cannot be clustered and must step alone
    rng = np.random.default_rng(16)
    model = LinearRegressionModel(3)
    omega = ParamVector(rng.normal(size=3))
    x0 = rng.uniform(-2, 2, size=(4, 3))
    tasks = [make_task(0, x0, x0 @ omega.values)] + random_tasks(rng, 4, 3)[1:]
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01,
                     cluster=ClusterConfig(max_depth=2, xi=1.0), tasks_per_batch=4)
    trace = adapt_tree(model, omega, tasks, cfg)
    for k in (0, 1):
        assert (0,) in [cs.members for cs in trace.steps[k]]
        assert sorted(t for cs in trace.steps[k] for t in cs.members) == [0, 1, 2, 3]
    assert trace.final_params[0] == omega

    fitted = [make_task(i, x, x @ omega.values)
              for i, x in enumerate(rng.uniform(-2, 2, size=(3, 4, 3)))]
    trace = adapt_tree(model, omega, fitted, cfg)
    assert trace.partition_sizes == [3, 3, 3]
    assert [cs.members for cs in trace.steps[0]] == [(0,), (1,), (2,)]


def test_adapt_tree_input_validation():
    model = LinearRegressionModel(2)
    omega = ParamVector([0.0, 0.0])
    cfg = MetaConfig(mode="maml", inner_steps=1)
    with pytest.raises(EmptyBatchError):
        adapt_tree(model, omega, [], cfg)
    t = make_task(1, [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        adapt_tree(model, omega, [t, t], cfg)
    with pytest.raises(ConfigError):
        adapt_tree(model, omega, [t], MetaConfig(mode="baseline"))


def test_meta_validation_loss_is_mean_over_tasks():
    model = LinearRegressionModel(1)
    t1 = make_task(1, [[1.0]], [0.0])
    t2 = make_task(2, [[1.0]], [4.0])
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.0)
    trace = adapt_tree(model, ParamVector([0.0]), [t1, t2], cfg)
    vals = {1: t1.val_points, 2: t2.val_points}
    # adapted params stay at 0: losses are 0 and 16
    assert meta_validation_loss(model, trace, vals) == 8.0


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
        fixed = FixedTreeSpec(K, lambda t, k=K: t.params.path[:k]) if mode == "tree_fixed" else None
        cfg = MetaConfig(mode=mode, fixed_tree=fixed, inner_steps=K,
                         inner_lr=float(rng.uniform(0.01, 0.2)), tasks_per_batch=m)
        omega = ParamVector(rng.normal(size=dim))
        vals = {t.task_id: t.val_points for t in tasks}
        g = meta_gradient(model, omega, adapt_tree(model, omega, tasks, cfg), vals, cfg)
        fd = finite_difference_gradient(
            lambda w: meta_validation_loss(model, adapt_tree(model, w, tasks, cfg), vals), omega
        )
        rel = np.linalg.norm(g.values - fd.values) / max(np.linalg.norm(fd.values), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_meta_gradient_learned_tree_matches_finite_differences():
    # well-separated gradient directions keep the partition stable under the
    # finite-difference bumps, so the piecewise-smooth loss is locally smooth
    model = LinearRegressionModel(2)
    dirs = [(1.0, 0.0), (0.996, 0.087), (0.0, 1.0), (0.087, 0.996)]
    tasks = [make_task(i, [list(d)], [1.0]) for i, d in enumerate(dirs)]
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.05,
                     cluster=ClusterConfig(max_depth=2, xi=1.0), tasks_per_batch=4)
    omega = ParamVector([0.2, -0.1])
    vals = {t.task_id: t.val_points for t in tasks}
    g = meta_gradient(model, omega, adapt_tree(model, omega, tasks, cfg), vals, cfg)
    fd = finite_difference_gradient(
        lambda w: meta_validation_loss(model, adapt_tree(model, w, tasks, cfg), vals), omega
    )
    rel = np.linalg.norm(g.values - fd.values) / max(np.linalg.norm(fd.values), 1e-12)
    assert rel < 1e-4


def test_zero_inner_lr_reduces_to_pooled_validation_gradient():
    rng = np.random.default_rng(8)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 4, 3)
    omega = ParamVector(rng.normal(size=3))
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.0, outer_lr=0.1)
    trace = adapt_tree(model, omega, tasks, cfg)
    vals = {t.task_id: t.val_points for t in tasks}
    assert all(theta == omega for theta in trace.final_params.values())
    g = meta_gradient(model, omega, trace, vals, cfg)
    expected = np.mean([model.gradient(omega, t.val_points).values for t in tasks], axis=0)
    assert np.allclose(g.values, expected, atol=1e-12)
    stepped = outer_update(model, omega, trace, vals, cfg)
    assert np.allclose(stepped.values, omega.values - 0.1 * g.values, atol=1e-15)


def test_one_step_meta_gradient_closed_form():
    # K=1, one task: d/dw L_val(w - a*g_train(w)) = (I - a*H_train) g_val(theta)
    rng = np.random.default_rng(9)
    xt = rng.uniform(-2, 2, size=(4, 2))
    yt = rng.normal(size=4)
    xv = rng.uniform(-2, 2, size=(3, 2))
    yv = rng.normal(size=3)
    task = make_task(0, xt, yt, xv, yv)
    model = LinearRegressionModel(2)
    omega = ParamVector(rng.normal(size=2))
    alpha = 0.05
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=alpha)
    trace = adapt_tree(model, omega, [task], cfg)
    g = meta_gradient(model, omega, trace, {0: task.val_points}, cfg)

    H = (2.0 / len(xt)) * xt.T @ xt
    theta = omega.values - alpha * (2.0 / len(xt)) * xt.T @ (xt @ omega.values - yt)
    g_val = (2.0 / len(xv)) * xv.T @ (xv @ theta - yv)
    expected = (np.eye(2) - alpha * H) @ g_val
    assert np.allclose(g.values, expected, atol=1e-12)


def test_first_order_gradient_ignores_the_inner_jacobian():
    rng = np.random.default_rng(10)
    model = LinearRegressionModel(2)
    tasks = random_tasks(rng, 3, 2)
    omega = ParamVector(rng.normal(size=2))
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.1, second_order=False)
    trace = adapt_tree(model, omega, tasks, cfg)
    vals = {t.task_id: t.val_points for t in tasks}
    g = meta_gradient(model, omega, trace, vals, cfg)
    expected = np.mean(
        [model.gradient(trace.final_params[t.task_id], t.val_points).values for t in tasks], axis=0
    )
    assert np.allclose(g.values, expected, atol=1e-15)
    second = meta_gradient(model, omega, trace, vals, MetaConfig(mode="maml", inner_steps=2, inner_lr=0.1))
    assert not np.allclose(g.values, second.values)


def test_second_order_needs_hvp_capability():
    rng = np.random.default_rng(11)
    model = GradientOnlyModel(2)
    tasks = random_tasks(rng, 2, 2)
    omega = ParamVector([0.1, 0.2])
    vals = {t.task_id: t.val_points for t in tasks}
    cfg = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.05)
    trace = adapt_tree(model, omega, tasks, cfg)
    with pytest.raises(CapabilityError):
        meta_gradient(model, omega, trace, vals, cfg)
    first = meta_gradient(model, omega, trace, vals,
                          MetaConfig(mode="maml", inner_steps=1, inner_lr=0.05, second_order=False))
    assert first.dim == 2


def test_inner_steps_do_not_increase_pooled_training_loss():
    rng = np.random.default_rng(12)
    model = LinearRegressionModel(3)
    tasks = random_tasks(rng, 6, 3, path_levels=2)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.001,
                     fixed_tree=generator_hierarchy_tree(3), tasks_per_batch=6)
    trace = adapt_tree(model, ParamVector(rng.normal(size=3)), tasks, cfg)
    batches = {t.task_id: t.train_points for t in tasks}
    for level in trace.steps:
        for cs in level:
            pooled = Batch.concat([batches[tid] for tid in cs.members])
            assert model.loss(cs.params_out, pooled) <= model.loss(cs.params_in, pooled) + 1e-12


def make_sampler(dim=4, seed=0, gen_seed=1):
    gen = TaskGeneratorConfig(dim=dim, branching=(2, 2), level_scales=(1.0, 1.0, 0.5),
                              noise_std=0.01, seed=gen_seed)
    tree = build_parameter_tree(gen)
    return TaskSampler(tree, np.random.default_rng(seed))


def test_meta_train_is_deterministic_and_logs():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.01, outer_lr=0.01,
                     tasks_per_batch=4, points_train=4, points_val=4,
                     outer_iterations=10, seed=3)
    w1, log1 = meta_train(model, make_sampler(), cfg)
    w2, log2 = meta_train(model, make_sampler(), cfg)
    assert w1 == w2
    assert [r["meta_loss"] for r in log1] == [r["meta_loss"] for r in log2]
    assert len(log1) == 10
    assert log1[0]["iter"] == 1
    assert set(log1[0]) == {"iter", "meta_loss", "wall_ms", "partitions"}
    assert log1[0]["partitions"] == [4, 4]


def test_meta_train_baseline_logs_empty_partitions():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="baseline", outer_lr=0.001, tasks_per_batch=4,
                     points_train=4, points_val=4, outer_iterations=5, seed=3)
    omega, log = meta_train(model, make_sampler(), cfg)
    assert omega.dim == 4
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
                     tasks_per_batch=8, points_train=6, points_val=6,
                     outer_iterations=150, seed=0)
    _, log = meta_train(model, sampler, cfg)
    tail = np.mean([r["meta_loss"] for r in log[-10:]])
    assert tail < log[0]["meta_loss"] / 10.0


def test_meta_train_raises_on_divergence():
    model = LinearRegressionModel(4)
    cfg = MetaConfig(mode="maml", inner_steps=3, inner_lr=2.0, outer_lr=0.001,
                     tasks_per_batch=4, points_train=4, points_val=4,
                     outer_iterations=5, seed=0)
    with pytest.raises(DivergenceError) as err:
        meta_train(model, make_sampler(), cfg)
    assert err.value.iteration == 1


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
    assert phase_of(adapt_tree, model, ParamVector([1.0]), [task], huge) == (
        "inner step 2", None, "non-finite values in inner step 2")
    assert phase_of(meta_train, model, FixedSource([task]), huge) == (
        "inner step 2", 1, "non-finite values in inner step 2 at iteration 1")
    assert phase_of(adapt_and_evaluate, model, ParamVector([1.0]), [], task, huge)[0] == (
        "eval, inner step 2")
    fixed = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=1e300,
                       fixed_tree=singleton_tree(3))
    target = make_task(1, [[1.0]], [0.0])
    assert phase_of(adapt_and_evaluate, model, ParamVector([1.0]), [task], target, fixed)[0] == (
        "eval, inner step 2")

    # theta_1 = 1 - 2e160 and its validation gradient are finite; the
    # reverse pass multiplies by (1 - 2e160) once more and overflows
    one = MetaConfig(mode="maml", inner_steps=1, inner_lr=1e160)
    trace = adapt_tree(model, ParamVector([1.0]), [task], one)
    assert phase_of(meta_gradient, model, ParamVector([1.0]), trace, {0: task.val_points}, one)[0] == (
        "meta-gradient")

    # a finite meta-gradient of 12.8 times outer_lr 1e308 overflows omega
    step = MetaConfig(mode="maml", inner_steps=1, inner_lr=0.1, outer_lr=1e308)
    omega = ParamVector([10.0])
    trace = adapt_tree(model, omega, [task], step)
    assert phase_of(outer_update, model, omega, trace, {0: task.val_points}, step)[0] == "outer step"

    # finite parameters whose test loss overflows
    frozen = MetaConfig(mode="baseline", baseline_finetune=False)
    tested = TaskInstance(task.params, task.train_points, task.val_points, task.train_points, 2)
    assert phase_of(adapt_and_evaluate, model, ParamVector([1e200]), [], tested, frozen)[0] == "eval"


def test_adapt_and_evaluate_baseline_and_maml_paths():
    rng = np.random.default_rng(13)
    model = LinearRegressionModel(3)
    w = rng.normal(size=3)
    xt = rng.uniform(-2, 2, size=(5, 3))
    xs = rng.uniform(-2, 2, size=(6, 3))
    target = TaskInstance(
        RegressionTaskParams(ParamVector(w), 0, (0, 0)),
        Batch(xt, xt @ w), Batch(xt, xt @ w), Batch(xs, xs @ w), 0,
    )
    omega = ParamVector(rng.normal(size=3))
    frozen = MetaConfig(mode="baseline", inner_steps=2, inner_lr=0.02, baseline_finetune=False)
    assert adapt_and_evaluate(model, omega, [], target, frozen) == model.loss(omega, target.test_points)
    tuned = MetaConfig(mode="baseline", inner_steps=2, inner_lr=0.02)
    maml = MetaConfig(mode="maml", inner_steps=2, inner_lr=0.02)
    theta = omega
    for _ in range(2):
        theta = inner_step_task(model, theta, target.train_points, 0.02)
    expected = model.loss(theta, target.test_points)
    assert adapt_and_evaluate(model, omega, [], target, tuned) == expected
    assert adapt_and_evaluate(model, omega, [], target, maml) == expected


def test_adapt_and_evaluate_tree_fixed_at_the_optimum():
    # all tasks share the same noiseless weights and omega equals them:
    # every gradient vanishes, so the tree adaptation stays at omega
    rng = np.random.default_rng(14)
    w = rng.normal(size=3)
    model = LinearRegressionModel(3)

    def noiseless(tid, path):
        x = rng.uniform(-2, 2, size=(4, 3))
        xs = rng.uniform(-2, 2, size=(4, 3))
        return TaskInstance(RegressionTaskParams(ParamVector(w), 0, path),
                            Batch(x, x @ w), Batch(x, x @ w), Batch(xs, xs @ w), tid)

    support = [noiseless(i, (i % 2, i // 2)) for i in range(4)]
    target = noiseless(99, (0, 1))
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.05,
                     fixed_tree=generator_hierarchy_tree(3))
    assert adapt_and_evaluate(model, ParamVector(w), support, target, cfg) == 0.0


def test_adapt_and_evaluate_tree_learned_runs():
    rng = np.random.default_rng(15)
    model = LinearRegressionModel(4)
    sampler = make_sampler(seed=9)
    support = sampler.sample_batch(4, 5, 5)
    target = sampler.sample_batch(1, 5, 0, n_test=10)[0]
    cfg = MetaConfig(mode="tree_learned", inner_steps=3, inner_lr=0.01,
                     cluster=ClusterConfig(max_depth=2, xi=1.0))
    mse = adapt_and_evaluate(model, ParamVector(rng.normal(0, 0.01, 4)), support, target, cfg)
    assert math.isfinite(mse) and mse >= 0.0

