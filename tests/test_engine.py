"""The batched engine against the frozen per-task engine and a closed form.

Differential tests: tests/engine_reference.py holds the per-task engine and
sampler as they were before the engine worked on stacked arrays. At benchmark
scale (dim 64, 96 tasks, 5 and 128 points per task) the batched engine must
reproduce their partitions, cluster parameters, meta-loss, meta-gradient and
meta-test loss bit for bit.

Followed-trace tests: adapt_tree(..., follow=i) steps only what task i's
parameters depend on; its partitions and task i's adapted parameters must be
those of the full trace bit for bit.

Mode-equivalence tests: a config that differs from another only where the
modes coincide must adapt, meta-differentiate and evaluate like it bit for bit.

Oracle tests: for the linear model each cluster step is affine in its input,
theta_c = (I - lr H_c) theta_parent + lr r_c, so a task's adapted parameters
are theta_i = A_i omega + b_i with A_i the product of (I - lr H_c) along its
cluster path, the meta-loss is quadratic in omega, and its gradient is
(1/m) sum_i A_i^T g_i with g_i the validation gradient at theta_i.
"""

from dataclasses import replace

import numpy as np
import pytest

import engine_reference as ref
from treemaml.meta import (
    FixedTreeSpec,
    MetaConfig,
    adapt_and_evaluate,
    adapt_tree,
    generator_hierarchy_tree,
    meta_gradient,
    meta_validation_loss,
    outer_update,
)
from treemaml.models import BatchStack, LinearRegressionModel
from treemaml.tasks import TaskBatch, TaskGeneratorConfig, build_parameter_tree, sample_task_batch

DIM, M = 64, 96
TREE = build_parameter_tree(TaskGeneratorConfig(dim=DIM, branching=(2, 2), level_scales=(1.0, 1.0, 0.5),
                                                noise_std=0.01, seed=0))
MODEL = LinearRegressionModel(DIM)


def config(mode, points, second_order=True):
    return MetaConfig(
        mode=mode, inner_lr=0.007, inner_steps=3, tasks_per_batch=M,
        points=points, second_order=second_order,
    )


def omegas(seed):
    # one initialization near zero, as meta_train starts, and one near the
    # tasks' common center, where a trained initialization ends up
    rng = np.random.default_rng(seed)
    yield rng.normal(0.0, 0.01, DIM)
    yield TREE.centers[0] + rng.normal(0.0, 0.3, DIM)


@pytest.mark.parametrize("points", [5, 128])
def test_sampler_matches_the_per_task_sampler(points):
    for n_val, n_test in ((points, 0), (0, 20)):
        new_rng = np.random.default_rng(points)
        batch = sample_task_batch(TREE, 12, new_rng, points, n_val, n_test, start_id=40)
        rng = np.random.default_rng(points)
        for t in ref.tasks_of(batch):
            old = ref.sample_task(TREE, rng, points, n_val, n_test, task_id=t.task_id)
            assert np.array_equal(t.weights, old.weights)
            assert (t.leaf, t.path) == (old.leaf, old.path)
            for split in ("train_points", "val_points", "test_points"):
                assert np.array_equal(getattr(t, split).x, getattr(old, split).x)
                assert np.array_equal(getattr(t, split).y, getattr(old, split).y)
        # zero-size splits draw nothing, in either sampler
        assert new_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("m", [1, M])
@pytest.mark.parametrize("n_train, n_val, n_test", [
    (5, 5, 0), (20, 20, 0), (128, 128, 0), (5, 0, 20), (128, 0, 20), (5, 0, 0), (0, 3, 2),
])
def test_sampler_bytes_match_the_per_task_sampler(m, n_train, n_val, n_test):
    # the draw loop makes only the RNG calls; the arithmetic after it, on whole
    # arrays, must give the per-task sampler's uniform and normal draws exactly
    for seed in range(10):
        new_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sample_task_batch(TREE, m, new_rng, n_train, n_val, n_test)
        old = [ref.sample_task(TREE, rng, n_train, n_val, n_test, task_id=i) for i in range(m)]
        assert batch.leaves.tobytes() == np.array([t.leaf for t in old], dtype=np.intp).tobytes()
        assert batch.paths.tobytes() == np.array([t.path for t in old], dtype=np.intp).tobytes()
        assert batch.weights.tobytes() == np.stack([t.weights for t in old]).tobytes()
        for stack, name, n in ((batch.train, "train_points", n_train),
                               (batch.val, "val_points", n_val),
                               (batch.test, "test_points", n_test)):
            (X, Y), = stack.blocks
            assert X.tobytes() == np.stack([getattr(t, name).x.reshape(n, DIM) for t in old]).tobytes()
            assert Y.tobytes() == np.stack([getattr(t, name).y for t in old]).tobytes()
        assert new_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("points", [5, 128])
@pytest.mark.parametrize("mode", ["maml", "tree_fixed", "tree_learned"])
def test_engine_is_bit_identical_to_the_per_task_engine(mode, points):
    tasks = sample_task_batch(TREE, M, np.random.default_rng(100 + points), points, points)
    ids = tasks.ids
    vals = {t.task_id: t.val_points for t in ref.tasks_of(tasks)}
    for omega in omegas(points):
        trace = adapt_tree(MODEL, omega, tasks, config(mode, points))
        old = ref.adapt_tree(omega, tasks, config(mode, points))
        assert trace.partition_sizes == old.partition_sizes
        params_in = omega[None]
        for owner, parent, params_out, old_level in zip(trace.owners, trace.parents, trace.params,
                                                        old.steps):
            for c, old_cs in enumerate(old_level):
                assert tuple(ids[owner == c].tolist()) == old_cs.members
                assert parent[c] == old_cs.parent
                assert np.array_equal(params_in[parent[c]], old_cs.params_in)
                assert np.array_equal(params_out[c], old_cs.params_out)
            params_in = params_out
        for tid, theta in zip(ids.tolist(), trace.task_params(3)):
            assert np.array_equal(theta, old.final_params[tid])
        assert meta_validation_loss(MODEL, trace) == ref.meta_validation_loss(old, vals)
        for second_order in (True, False):
            cfg = config(mode, points, second_order)
            g = meta_gradient(MODEL, trace, cfg)
            assert np.array_equal(g, ref.meta_gradient(omega, old, vals, cfg))
            # the outer step reads omega from the trace
            assert np.array_equal(outer_update(MODEL, trace, cfg), trace.omega - cfg.outer_lr * g)


@pytest.mark.parametrize("points", [5, 128])
@pytest.mark.parametrize("mode", ["maml", "tree_fixed", "tree_learned"])
def test_meta_test_loss_is_bit_identical_to_the_per_task_engine(mode, points):
    cfg = config(mode, points)
    omega = next(omegas(7))
    for i in range(3):
        rng = np.random.default_rng([points, i])
        support = sample_task_batch(TREE, M, rng, points, 0, start_id=1000)
        target = sample_task_batch(TREE, 1, rng, points, 0, n_test=20, start_id=5000)
        if mode == "maml":
            old = ref.adapt_tree(omega, target, cfg)
        else:
            old = ref.adapt_tree(omega, support + target, cfg)
        (task,) = ref.tasks_of(target)
        expected = ref.loss(old.final_params[task.task_id], task.test_points)
        assert adapt_and_evaluate(MODEL, omega, support, target, cfg) == expected


def joint_batches(points, rng):
    """Support + target batches of M + 1 tasks; in the last, no support task
    shares the target's generator leaf."""
    for _ in range(2):
        support = sample_task_batch(TREE, M, rng, points, 0, start_id=1000)
        target = sample_task_batch(TREE, 1, rng, points, 0, start_id=5000)
        yield support + target
    pool = sample_task_batch(TREE, 2 * M, rng, points, 0, start_id=1000)
    target = sample_task_batch(TREE, 1, rng, points, 0, start_id=5000)
    alone = np.flatnonzero((pool.paths != target.paths).any(axis=1))[:M]
    yield TaskBatch(pool.ids[alone], pool.leaves[alone], pool.paths[alone], pool.weights[alone],
                    pool.train.take(alone), pool.val.take(alone), pool.test.take(alone)) + target


@pytest.mark.parametrize("points", [5, 128])
@pytest.mark.parametrize("mode", ["maml", "tree_fixed", "tree_learned"])
def test_followed_trace_matches_the_full_trace(mode, points):
    cfg = config(mode, points)
    rng = np.random.default_rng([300, points])
    for tasks, omega in zip(joint_batches(points, rng), [*omegas(points), next(omegas(9))]):
        assert len(tasks) == M + 1
        full = adapt_tree(MODEL, omega, tasks, cfg)
        for row in (M, 17):
            followed = adapt_tree(MODEL, omega, tasks, cfg, follow=row)
            assert followed.partition_sizes == full.partition_sizes
            for owner, old in zip(followed.owners, full.owners):
                assert np.array_equal(owner, old)
            for parent, old in zip(followed.parents, full.parents):
                assert np.array_equal(parent, old)
            expected = full.params[-1][full.owners[-1][row]]
            assert np.array_equal(followed.followed_params, expected)
    if mode == "tree_fixed":
        # the last batch's target shares no step-2 cluster with the support
        assert np.sum(full.owners[1] == full.owners[1][M]) == 1


def test_followed_tree_fixed_gathers_its_members_once(monkeypatch):
    # the followed clusters nest, so only the first gather copies rows; the
    # later steps' members are a prefix of it, and their batches views
    copies = []

    def counting(method):
        def wrapper(self, arg):
            out = method(self, arg)
            copies.append(sum(not any(np.shares_memory(X, src) for src, _ in self.blocks)
                              for X, _ in out.blocks))
            return out
        return wrapper

    monkeypatch.setattr(BatchStack, "take", counting(BatchStack.take))
    monkeypatch.setattr(BatchStack, "head", counting(BatchStack.head))
    tasks = next(joint_batches(128, np.random.default_rng(2)))
    trace = adapt_tree(MODEL, next(omegas(2)), tasks, config("tree_fixed", 128), follow=M)
    assert [np.sum(owner == owner[M]) > 1 for owner in trace.owners[:2]] == [True, True]
    assert copies == [1, 0, 0, 0]  # the gather, then one view per step


def test_followed_trace_rejects_what_it_cannot_answer():
    cfg = config("tree_fixed", 5)
    tasks = next(joint_batches(5, np.random.default_rng(1)))
    omega = next(omegas(1))
    for row in (-1, M + 1):
        with pytest.raises(ValueError, match="follow"):
            adapt_tree(MODEL, omega, tasks, cfg, follow=row)
    followed = adapt_tree(MODEL, omega, tasks, cfg, follow=M)
    with pytest.raises(ValueError, match="followed task row"):
        meta_validation_loss(MODEL, followed)
    with pytest.raises(ValueError, match="followed task row"):
        meta_gradient(MODEL, followed, cfg)
    with pytest.raises(ValueError, match="followed task row"):
        followed.task_params(1)
    with pytest.raises(ValueError, match="follows no task"):
        adapt_tree(MODEL, omega, tasks, cfg).followed_params


def assert_same_adaptation(cfg_a, cfg_b, points, seed):
    """cfg_a and cfg_b give the same full-trace parameters, meta-gradients of
    either order and followed meta-test losses, bit for bit."""
    rng = np.random.default_rng([400, seed])
    tasks = sample_task_batch(TREE, M, rng, points, points)
    for omega in omegas(seed):
        a, b = adapt_tree(MODEL, omega, tasks, cfg_a), adapt_tree(MODEL, omega, tasks, cfg_b)
        assert a.partition_sizes == b.partition_sizes
        for k in range(cfg_a.inner_steps + 1):
            assert np.array_equal(a.task_params(k), b.task_params(k))
        for second_order in (True, False):
            g_a = meta_gradient(MODEL, a, replace(cfg_a, second_order=second_order))
            assert np.array_equal(g_a, meta_gradient(MODEL, b, replace(cfg_b, second_order=second_order)))
        support = sample_task_batch(TREE, M, rng, points, 0, start_id=1000)
        target = sample_task_batch(TREE, 1, rng, points, 0, n_test=20, start_id=5000)
        assert (adapt_and_evaluate(MODEL, omega, support, target, cfg_a)
                == adapt_and_evaluate(MODEL, omega, support, target, cfg_b))


@pytest.mark.parametrize("steps", [1, 2])
def test_tree_learned_with_one_or_two_inner_steps_is_maml(steps):
    # the tree has inner_steps - 1 levels: at one step nothing is clustered,
    # and at two the depth-1 tree only widens its root, so every task steps
    # alone at every step, as in maml
    maml, learned = (replace(config(mode, 5), inner_steps=steps) for mode in ("maml", "tree_learned"))
    assert_same_adaptation(maml, learned, 5, steps)


@pytest.mark.parametrize("points", [5, 128])
def test_tree_fixed_defaults_to_the_generator_paths(points):
    default = config("tree_fixed", points)
    assert default.fixed_tree == generator_hierarchy_tree()
    # a tree of its own that reads the generator paths, then the task ids
    custom = FixedTreeSpec(lambda t, K: np.column_stack((t.paths[:, :K - 1], t.ids)))
    assert_same_adaptation(default, replace(default, fixed_tree=custom), points, 3)


def closed_form(omega, trace, cfg):
    """theta_i, meta-loss and its exact gradient from the trace's partitions."""
    lr = cfg.inner_lr
    train = [t.train_points for t in ref.tasks_of(trace.tasks)]
    hess = np.stack([(2.0 / len(b)) * b.x.T @ b.x for b in train])
    pull = np.stack([(2.0 / len(b)) * b.x.T @ b.y for b in train])
    A = np.eye(DIM)[None]  # per cluster, starting from the root
    b = np.zeros((1, DIM))
    for owner, parent in zip(trace.owners, trace.parents):
        step = np.stack([np.eye(DIM) - lr * hess[owner == c].mean(axis=0) for c in range(len(parent))])
        r = np.stack([pull[owner == c].mean(axis=0) for c in range(len(parent))])
        A = step @ A[parent]
        b = (step @ b[parent][:, :, None])[:, :, 0] + lr * r
    A, b = A[trace.owners[-1]], b[trace.owners[-1]]
    theta = (A @ omega) + b
    val = [t.val_points for t in ref.tasks_of(trace.tasks)]
    resid = [v.x @ th - v.y for v, th in zip(val, theta)]
    loss = np.mean([np.mean(r * r) for r in resid])
    g_val = np.stack([(2.0 / len(v)) * v.x.T @ r for v, r in zip(val, resid)])
    second = np.mean(A.transpose(0, 2, 1) @ g_val[:, :, None], axis=0)[:, 0]
    return theta, loss, second, g_val.mean(axis=0)


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b)


@pytest.mark.parametrize("points", [5, 128])
@pytest.mark.parametrize("mode", ["maml", "tree_fixed", "tree_learned"])
def test_meta_gradient_matches_the_closed_form(mode, points):
    tasks = sample_task_batch(TREE, M, np.random.default_rng(200 + points), points, points)
    for omega in omegas(points + 1):
        trace = adapt_tree(MODEL, omega, tasks, config(mode, points))
        if mode == "tree_learned":
            assert len(trace.parents[0]) > 1  # the learned tree really branches
        theta, loss, second, first = closed_form(omega, trace, config(mode, points))
        assert rel(trace.task_params(3), theta) < 1e-10
        assert abs(meta_validation_loss(MODEL, trace) - loss) < 1e-10 * loss
        g2 = meta_gradient(MODEL, trace, config(mode, points))
        assert rel(g2, second) < 1e-9
        g1 = meta_gradient(MODEL, trace, config(mode, points, second_order=False))
        assert rel(g1, first) < 1e-9
        assert rel(g1, second) > 1e-3  # the two orders differ here
