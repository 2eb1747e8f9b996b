"""Package-level acceptance suite.

One test per shipped guarantee, each with its stated tolerance and time
budget, so `pytest -v tests/test_acceptance.py` reads as a checklist. The
benchmark test loads specs/benchmark.json and runs the full grid, so this
module is the slow part of the suite.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from treemaml.cli import MODES, load_spec, render_csv, run_experiment, spec_from_dict
from treemaml.clustering import ClusterConfig, build_tree, clusters_at_level
from treemaml.meta import (
    FixedTreeSpec,
    MetaConfig,
    adapt_tree,
    meta_gradient,
    meta_validation_loss,
    single_cluster_tree,
    singleton_tree,
)
from treemaml.models import Batch, BatchStack, LinearRegressionModel
from treemaml.tasks import ConfigError, TaskBatch

from finite_difference import finite_difference_gradient

BENCHMARK_SPEC = Path(__file__).resolve().parents[1] / "specs" / "benchmark.json"


def one_task(tid, weights, path, train, val, test):
    """A one-task batch from its weights, path and (x, y) splits."""
    def stack(x, y):
        return BatchStack(((x[None], y[None]),))

    return TaskBatch(np.array([tid]), np.zeros(1, dtype=np.intp), np.array([path]),
                     weights[None], stack(*train), stack(*val), stack(*test))


def random_tasks(rng, m, dim, n=4, path_levels=3):
    tasks = []
    for i in range(m):
        w = rng.normal(size=dim)
        xt = rng.uniform(-2, 2, size=(n, dim))
        xv = rng.uniform(-2, 2, size=(n, dim))
        path = tuple(int(rng.integers(0, 2)) for _ in range(path_levels))
        empty = (np.zeros((0, dim)), np.zeros(0))
        tasks.append(one_task(i, w, path,
                              (xt, xt @ w + rng.normal(0, 0.1, n)),
                              (xv, xv @ w + rng.normal(0, 0.1, n)),
                              empty))
    return sum(tasks[1:], tasks[0])


def test_criterion_1_meta_gradient_matches_finite_differences():
    # 50 random small instances, maml and fixed-tree modes alternating; the
    # second-order outer gradient must match central differences of the
    # meta validation loss within 1e-4 relative error.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    models = {}
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        steps = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        model = models.setdefault(dim, LinearRegressionModel(dim))
        tasks = random_tasks(rng, m, dim, path_levels=steps)
        if trial % 2 == 0:
            cfg = MetaConfig(mode="maml", inner_steps=steps, tasks_per_batch=m,
                             inner_lr=float(rng.uniform(0.01, 0.2)))
        else:
            fixed = FixedTreeSpec(lambda t, k: t.paths[:, :k])
            cfg = MetaConfig(mode="tree_fixed", fixed_tree=fixed, inner_steps=steps,
                             tasks_per_batch=m, inner_lr=float(rng.uniform(0.01, 0.2)))
        omega = rng.normal(size=dim)
        g = meta_gradient(model, adapt_tree(model, omega, tasks, cfg), cfg)
        fd = finite_difference_gradient(
            lambda w: meta_validation_loss(model, adapt_tree(model, w, tasks, cfg)),
            omega,
        )
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_singleton_fixed_tree_is_bit_identical_to_maml():
    # A fixed tree that puts every task alone at every step must follow the
    # exact same arithmetic as maml: final per-task parameters bit-identical.
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        steps = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        model = LinearRegressionModel(dim)
        tasks = random_tasks(rng, m, dim)
        omega = rng.normal(size=dim)
        lr = float(rng.uniform(0.01, 0.2))
        maml_cfg = MetaConfig(mode="maml", inner_steps=steps, inner_lr=lr, tasks_per_batch=m)
        tree_cfg = MetaConfig(mode="tree_fixed", fixed_tree=singleton_tree(),
                              inner_steps=steps, inner_lr=lr, tasks_per_batch=m)
        a = adapt_tree(model, omega, tasks, maml_cfg).task_params(steps)
        b = adapt_tree(model, omega, tasks, tree_cfg).task_params(steps)
        assert np.array_equal(a, b)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_cluster_step_equals_step_on_concatenated_batch():
    # With equal member batch sizes, one pooled cluster step (adapt_tree's step
    # on a single-cluster tree) must equal one plain step on the concatenation,
    # to 1e-12 per coordinate.
    rng = np.random.default_rng(3)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        members = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        lr = float(rng.uniform(0.01, 0.5))
        model = LinearRegressionModel(dim)
        params = rng.normal(size=dim)
        w = rng.normal(size=dim)
        batches = []
        for _ in range(members):
            x = rng.uniform(-2, 2, size=(n, dim))
            batches.append(Batch(x, x @ w + rng.normal(0, 0.1, n)))
        tasks = [one_task(i, w, (0,), (b.x, b.y), (b.x, b.y), (b.x, b.y))
                 for i, b in enumerate(batches)]
        cfg = MetaConfig(mode="tree_fixed", fixed_tree=single_cluster_tree(), inner_steps=1,
                         inner_lr=lr, tasks_per_batch=members)
        (pooled,) = adapt_tree(model, params, sum(tasks[1:], tasks[0]), cfg).params[0]
        cat = Batch(np.concatenate([b.x for b in batches]), np.concatenate([b.y for b in batches]))
        concat = params - lr * model.batch_gradient(params[None], cat.x[None], cat.y[None])[0]
        assert np.max(np.abs(pooled - concat)) <= 1e-12


def count_leaves(node):
    if node.is_leaf:
        return 1
    return sum(count_leaves(c) for c in node.children)


def leaf_ids_and_depths(node, out):
    if node.is_leaf:
        out.append((node.task_id, node.depth))
        return
    for c in node.children:
        leaf_ids_and_depths(c, out)


def check_structure(items, cfg):
    ids = [t for t, _ in items]
    root = build_tree(ids, np.array([v for _, v in items]), cfg)
    ids = sorted(ids)
    leaves = []
    leaf_ids_and_depths(root, leaves)
    assert sorted(t for t, _ in leaves) == ids
    assert max(d for _, d in leaves) <= cfg.max_depth
    previous = None
    for k in range(1, cfg.max_depth + 2):
        partition = clusters_at_level(root, k)
        assert sorted(t for cluster in partition for t in cluster) == ids
        if previous is not None:
            owner = {t: i for i, cluster in enumerate(previous) for t in cluster}
            for cluster in partition:
                assert len({owner[t] for t in cluster}) == 1
        previous = partition


def test_criterion_4_clustering_structural_properties():
    # 1000 random insertion sequences: every leaf survives exactly once, the
    # depth bound holds, and each level's clusters partition the tasks and
    # refine the previous level. The two-orthogonal-pairs instance must come
    # out as two clusters that split into four.
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    xis = (0.0, 0.5, 1.0, 2.0)
    for trial in range(1000):
        cfg = ClusterConfig(max_depth=int(rng.integers(1, 5)), xi=xis[trial % 4])
        n = int(rng.integers(1, 13))
        dim = int(rng.integers(2, 7))
        items = []
        for i in range(n):
            if i > 0 and rng.random() < 0.2:
                v = items[int(rng.integers(i))][1] * float(rng.uniform(0.5, 2.0))
            else:
                v = rng.normal(size=dim)
                while np.linalg.norm(v) < 1e-6:
                    v = rng.normal(size=dim)
            items.append((i, v))
        check_structure(items, cfg)

    def unit(deg):
        rad = np.deg2rad(deg)
        return np.array([np.cos(rad), np.sin(rad)])

    root = build_tree([1, 2, 3, 4], np.array([unit(0), unit(90), unit(5), unit(85)]),
                      ClusterConfig(max_depth=2, xi=1.0))
    assert clusters_at_level(root, 1) == [(1, 3), (2, 4)]
    assert clusters_at_level(root, 2) == [(1,), (3,), (2,), (4,)]
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.slow
def test_criterion_5_benchmark_orderings_and_ratios():
    # Full benchmark grid from specs/benchmark.json: per points column,
    # averaged over replicate seeds, (a) fixed tree < maml < baseline,
    # (b) fixed tree <= 0.75 x maml, (c) learned tree <= 1.25 x fixed tree.
    t0 = time.perf_counter()
    spec = load_spec(BENCHMARK_SPEC)
    out = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    assert not out.failures
    cells = {}
    for r in out.results:
        cells.setdefault((r.mode, r.points_per_task), []).append(r.mean_mse)
    assert all(len(v) == len(spec.replicate_seeds) for v in cells.values())
    mean = {k: float(np.mean(v)) for k, v in cells.items()}
    for p in spec.points_sweep:
        base = mean[("baseline", p)]
        maml = mean[("maml", p)]
        fixed = mean[("tree_fixed", p)]
        learned = mean[("tree_learned", p)]
        assert fixed < maml < base, f"ordering broken at points={p}"
        assert fixed <= 0.75 * maml, f"fixed/maml ratio too high at points={p}"
        assert learned <= 1.25 * fixed, f"learned/fixed ratio too high at points={p}"
    assert elapsed < 900.0


@pytest.mark.slow
def test_criterion_6_tree_advantage_is_largest_at_few_points():
    # Sweep points per task with the benchmark generator: the maml-minus-fixed
    # MSE gap must trend downward as tasks get more data (Spearman < 0).
    spec = dataclasses.replace(
        load_spec(BENCHMARK_SPEC),
        modes=("maml", "tree_fixed"),
        points_sweep=(4, 8, 16, 32, 64, 128),
        replicate_seeds=(0,),
        meta_test_tasks=200,
    )
    out = run_experiment(spec)
    assert not out.failures
    mse = {(r.mode, r.points_per_task): r.mean_mse for r in out.results}
    points = list(spec.points_sweep)
    gaps = [mse[("maml", p)] - mse[("tree_fixed", p)] for p in points]
    assert gaps[0] == max(gaps)
    assert spearmanr(points, gaps).statistic < 0


def test_criterion_7_rerun_gives_byte_identical_csv():
    spec = spec_from_dict(
        {
            "generator": {"dim": 16, "branching": [2, 2], "level_scales": [1.0, 1.0, 0.5],
                          "noise_std": 0.01, "seed": 0},
            "meta": {"inner_lr": 0.007, "outer_lr": 0.005, "inner_steps": 3,
                     "tasks_per_batch": 16, "outer_iterations": 40, "xi": 1.0},
            "points_sweep": [5],
            "meta_test_tasks": 50,
            "replicate_seeds": [0],
            "eval_test_points": 20,
        }
    )
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert not first.failures and not second.failures
    a = render_csv(first.results, spec)
    assert a == render_csv(second.results, spec)
    assert a.encode() == render_csv(second.results, spec).encode()


def test_criterion_8_scope_is_the_four_regression_modes():
    # The harness deliberately supports only the synthetic regression study;
    # any other mode is rejected up front rather than silently skipped.
    assert MODES == ("baseline", "maml", "tree_fixed", "tree_learned")
    with pytest.raises(ConfigError):
        spec_from_dict({"generator": {"dim": 4}, "meta": {"inner_steps": 3},
                        "modes": ["maml", "other"]})
