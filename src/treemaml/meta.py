"""Meta-training engine: per-task and tree-structured inner loops, exact
meta-gradients, the outer loop, and meta-test adaptation.

Inner adaptation runs K pooled gradient steps. A step for cluster c starts from
its parent cluster's parameters and subtracts inner_lr times the across-member
mean of per-task mean gradients. Mode selects the per-step partition:

- maml: every task is its own cluster at every step;
- tree_fixed: clusters follow the length-K key paths of a FixedTreeSpec
  (cluster identity at step k = the length-k prefix, so partitions nest);
- tree_learned: steps 1..K-1 regroup fresh task gradients by online top-down
  clustering run independently inside each step-(k-1) cluster; the final step
  is task-specific.

Second-order meta-gradients run reverse mode over the recorded trace: the
Jacobian of one cluster step is (I - inner_lr * H_c) with H_c the mean of the
member batches' Hessians at the step's input parameters, applied bottom-up
along each cluster's path to the root, with adjoints of sibling subtrees summed
at their shared parent. First-order mode instead averages the validation
gradients at the adapted parameters.

A model is any object with dim, loss(params, batch) and gradient(params,
batch), such as models.LinearRegressionModel. hessian_vector_product(params,
batch, v) is optional; second-order meta-gradients raise CapabilityError
without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .clustering import ClusterConfig, build_tree, clusters_at_level
from .models import Batch, EmptyBatchError
from .numerics import ParamVector
from .tasks import ConfigError, TaskInstance

MODES = ("baseline", "maml", "tree_fixed", "tree_learned")

DIVERGENCE_LIMIT = 1e6


class TreeShapeError(ValueError):
    """Per-step partitions are inconsistent with each other or with the tasks."""


class CapabilityError(TypeError):
    """The model lacks a capability the configuration requires."""


class DivergenceError(RuntimeError):
    """Meta-training left the finite/bounded regime."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class FixedTreeSpec:
    """Known cluster assignments, one key per inner step per task.

    path_of(task) returns a length-num_levels tuple of hashable keys; tasks
    sharing a length-k prefix share a cluster at step k. label identifies the
    assignment rule in config hashes (the callable itself is not serializable).
    """

    num_levels: int
    path_of: Callable[[TaskInstance], tuple]
    label: str = "custom"


def generator_hierarchy_tree(num_levels: int) -> FixedTreeSpec:
    """Fixed tree reading each task's known generator path, final step task-specific."""

    def path_of(task: TaskInstance) -> tuple:
        levels = list(task.params.path[: num_levels - 1])
        while len(levels) < num_levels - 1:
            levels.append(0)
        levels.append(task.task_id)
        return tuple(levels)

    return FixedTreeSpec(num_levels, path_of, label="generator")


def singleton_tree(num_levels: int) -> FixedTreeSpec:
    """Every task alone at every step (the maml-degenerate fixed tree)."""
    return FixedTreeSpec(num_levels, lambda t: (t.task_id,) * num_levels, label="singleton")


def single_cluster_tree(num_levels: int) -> FixedTreeSpec:
    """All tasks pooled at every step (one gradient averaged across all tasks)."""
    return FixedTreeSpec(num_levels, lambda t: (0,) * num_levels, label="single-cluster")


@dataclass(frozen=True)
class MetaConfig:
    """Everything the engine needs for one training/evaluation configuration."""

    inner_lr: float = 0.01
    outer_lr: float = 0.002
    inner_steps: int = 3
    tasks_per_batch: int = 8
    points_train: int = 5
    points_val: int = 5
    mode: str = "maml"
    fixed_tree: Optional[FixedTreeSpec] = None
    cluster: Optional[ClusterConfig] = None
    second_order: bool = True
    outer_iterations: int = 400
    seed: int = 0
    baseline_finetune: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.inner_lr < 0 or self.outer_lr < 0:
            raise ConfigError("learning rates must be non-negative")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be >= 1")
        if self.tasks_per_batch < 1:
            raise ConfigError("tasks_per_batch must be >= 1")
        if self.points_train < 1 or self.points_val < 1:
            raise ConfigError("points per split must be >= 1")
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations must be >= 1")
        if self.mode == "tree_fixed":
            if self.fixed_tree is None:
                raise ConfigError("tree_fixed mode needs fixed_tree")
            if self.fixed_tree.num_levels != self.inner_steps:
                raise ConfigError(
                    f"fixed_tree has {self.fixed_tree.num_levels} levels "
                    f"but inner_steps is {self.inner_steps}"
                )
        if self.mode == "tree_learned":
            if self.cluster is None:
                raise ConfigError("tree_learned mode needs a cluster config")
            if self.inner_steps != self.cluster.max_depth + 1:
                raise ConfigError(
                    "tree_learned needs inner_steps = cluster.max_depth + 1 "
                    "(clustered steps plus one task-specific step)"
                )

    def describe(self) -> dict:
        """JSON-able view for config hashing; callables reduced to labels."""
        d = {
            "inner_lr": self.inner_lr,
            "outer_lr": self.outer_lr,
            "inner_steps": self.inner_steps,
            "tasks_per_batch": self.tasks_per_batch,
            "points_train": self.points_train,
            "points_val": self.points_val,
            "mode": self.mode,
            "second_order": self.second_order,
            "outer_iterations": self.outer_iterations,
            "seed": self.seed,
            "baseline_finetune": self.baseline_finetune,
            "fixed_tree": None,
            "cluster": None,
        }
        if self.fixed_tree is not None:
            d["fixed_tree"] = {"label": self.fixed_tree.label, "num_levels": self.fixed_tree.num_levels}
        if self.cluster is not None:
            d["cluster"] = {
                "max_depth": self.cluster.max_depth,
                "xi": self.cluster.xi,
            }
        return d


def stable_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class ClusterState:
    """One cluster at one inner step.

    members are task_ids in task-batch order; parent indexes the previous
    step's cluster list (-1 for the virtual root holding the initial
    parameters). params_in is the parent's parameters the step started from.
    """

    members: tuple
    parent: int
    params_in: Optional[ParamVector]
    params_out: ParamVector


@dataclass
class AdaptationTrace:
    """Everything reverse mode needs about one adaptation pass."""

    steps: list
    final_params: dict
    train_batches: dict

    @property
    def partition_sizes(self) -> list:
        return [len(level) for level in self.steps]


def inner_step_task(model, params: ParamVector, batch: Batch, lr: float) -> ParamVector:
    """One gradient step on a single task's training batch."""
    g = model.gradient(params, batch)
    return ParamVector(params.values - lr * g.values)


def _fixed_paths(tasks: Sequence[TaskInstance], cfg: MetaConfig) -> dict:
    paths = {}
    for t in tasks:
        p = tuple(cfg.fixed_tree.path_of(t))
        if len(p) != cfg.inner_steps:
            raise TreeShapeError(
                f"task {t.task_id}: fixed path has {len(p)} levels, expected {cfg.inner_steps}"
            )
        paths[t.task_id] = p
    return paths


def _partition_step(tasks, grads, k, cfg, prev_level, index, paths):
    """Partition for inner step k: list of (member ids in batch order, parent index)."""
    ids = [t.task_id for t in tasks]
    if cfg.mode == "maml" or (cfg.mode == "tree_learned" and k == cfg.inner_steps):
        return [([tid], index[tid]) for tid in ids]
    if cfg.mode == "tree_fixed":
        groups: dict = {}
        order = []
        for tid in ids:
            key = paths[tid][:k]
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(tid)
        out = []
        for key in order:
            members = groups[key]
            parents = {index[tid] for tid in members}
            if len(parents) != 1:
                raise TreeShapeError(f"step-{k} cluster {key} spans multiple parents")
            out.append((members, parents.pop()))
        return out
    # tree_learned, clustered step: regroup independently inside each parent so
    # the new partition refines the previous one. A zero gradient (an exactly
    # fitted task) has no direction to cluster on, so that task steps alone,
    # after the clustered tasks and in batch order.
    out = []
    for p_idx, parent in enumerate(prev_level):
        zero = {tid for tid in parent.members if grads[tid].norm() == 0.0}
        items = [(tid, grads[tid]) for tid in parent.members if tid not in zero]
        if items:
            for cluster in clusters_at_level(build_tree(items, cfg.cluster), 1):
                cset = set(cluster)
                out.append(([tid for tid in parent.members if tid in cset], p_idx))
        out.extend(([tid], p_idx) for tid in parent.members if tid in zero)
    return out


def adapt_tree(model, omega: ParamVector, task_batch: Sequence[TaskInstance], cfg: MetaConfig) -> AdaptationTrace:
    """Run the K-step inner loop for a batch of tasks and record the trace.

    Step k computes every task's mean training gradient at its current
    cluster's parameters, forms the step-k partition per cfg.mode, and moves
    each cluster from its parent's parameters by one pooled step.
    """
    tasks = list(task_batch)
    if not tasks:
        raise EmptyBatchError("adapt_tree needs a non-empty task batch")
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("task_ids in a batch must be unique")
    if cfg.mode not in ("maml", "tree_fixed", "tree_learned"):
        raise ConfigError(f"mode {cfg.mode!r} has no inner adaptation")

    paths = _fixed_paths(tasks, cfg) if cfg.mode == "tree_fixed" else None
    prev_level = [ClusterState(tuple(ids), -1, None, omega)]
    index = {tid: 0 for tid in ids}
    levels = []

    for k in range(1, cfg.inner_steps + 1):
        grads = {}
        for t in tasks:
            params = prev_level[index[t.task_id]].params_out
            grads[t.task_id] = model.gradient(params, t.train_points)
        level = []
        for members, p_idx in _partition_step(tasks, grads, k, cfg, prev_level, index, paths):
            params_in = prev_level[p_idx].params_out
            stack = np.stack([grads[tid].values for tid in members])
            params_out = ParamVector(params_in.values - cfg.inner_lr * np.mean(stack, axis=0))
            level.append(ClusterState(tuple(members), p_idx, params_in, params_out))
        index = {tid: i for i, cs in enumerate(level) for tid in cs.members}
        levels.append(level)
        prev_level = level

    final = {tid: prev_level[index[tid]].params_out for tid in ids}
    return AdaptationTrace(
        steps=levels,
        final_params=final,
        train_batches={t.task_id: t.train_points for t in tasks},
    )


def meta_validation_loss(model, trace: AdaptationTrace, val_batches: dict) -> float:
    """Mean over tasks of the validation loss at the adapted parameters."""
    losses = [model.loss(theta, val_batches[tid]) for tid, theta in trace.final_params.items()]
    return float(np.mean(losses))


def meta_gradient(model, omega: ParamVector, trace: AdaptationTrace, val_batches: dict, cfg: MetaConfig) -> ParamVector:
    """Gradient of the meta validation loss with respect to omega.

    Second-order mode applies the transposed step Jacobians (I - lr * H_c)
    bottom-up through the trace; the Hessians are symmetric, so the factor is
    applied as-is via hessian_vector_product. First-order mode treats the
    adapted parameters as constants.
    """
    m = len(trace.final_params)
    if not cfg.second_order:
        stack = np.stack(
            [model.gradient(theta, val_batches[tid]).values for tid, theta in trace.final_params.items()]
        )
        return ParamVector(np.mean(stack, axis=0))

    hvp = getattr(model, "hessian_vector_product", None)
    if hvp is None:
        raise CapabilityError(
            "second-order meta-gradients need model.hessian_vector_product; "
            "set second_order=False for the first-order approximation"
        )

    n_steps = len(trace.steps)
    adjoints = [[np.zeros(omega.dim) for _ in level] for level in trace.steps]
    for ci, cs in enumerate(trace.steps[-1]):
        acc = np.zeros(omega.dim)
        for tid in cs.members:
            acc = acc + model.gradient(cs.params_out, val_batches[tid]).values
        adjoints[-1][ci] = acc / m

    root_acc = np.zeros(omega.dim)
    for k in range(n_steps - 1, -1, -1):
        for ci, cs in enumerate(trace.steps[k]):
            v = adjoints[k][ci]
            vv = ParamVector(v)
            hstack = np.stack(
                [hvp(cs.params_in, trace.train_batches[tid], vv).values for tid in cs.members]
            )
            pushed = v - cfg.inner_lr * np.mean(hstack, axis=0)
            if k == 0:
                root_acc = root_acc + pushed
            else:
                adjoints[k - 1][cs.parent] = adjoints[k - 1][cs.parent] + pushed
    return ParamVector(root_acc)


def outer_update(model, omega: ParamVector, trace: AdaptationTrace, val_batches: dict, cfg: MetaConfig) -> ParamVector:
    """One outer step: omega minus outer_lr times the meta-gradient."""
    g = meta_gradient(model, omega, trace, val_batches, cfg)
    return ParamVector(omega.values - cfg.outer_lr * g.values)


def meta_train(model, task_source, cfg: MetaConfig):
    """Train omega from scratch; returns (omega, per-iteration log records).

    omega starts at N(0, 0.01^2) per coordinate from cfg.seed. Baseline mode
    skips adaptation and takes one pooled-gradient step per iteration over the
    batch tasks' train+val points. Raises DivergenceError when the tracked
    loss goes non-finite or above DIVERGENCE_LIMIT.
    """
    rng = np.random.default_rng(cfg.seed)
    omega = ParamVector(rng.normal(0.0, 0.01, model.dim))
    log = []
    for it in range(1, cfg.outer_iterations + 1):
        t0 = time.perf_counter()
        batch = task_source.sample_batch(cfg.tasks_per_batch, cfg.points_train, cfg.points_val)
        if cfg.mode == "baseline":
            val_pool = Batch.concat([t.val_points for t in batch])
            loss_now = model.loss(omega, val_pool)
            pooled = Batch.concat(
                [b for t in batch for b in (t.train_points, t.val_points)]
            )
            omega = ParamVector(omega.values - cfg.outer_lr * model.gradient(omega, pooled).values)
            partitions = []
        else:
            trace = adapt_tree(model, omega, batch, cfg)
            vals = {t.task_id: t.val_points for t in batch}
            loss_now = meta_validation_loss(model, trace, vals)
            omega = outer_update(model, omega, trace, vals, cfg)
            partitions = trace.partition_sizes
        if not math.isfinite(loss_now) or loss_now > DIVERGENCE_LIMIT:
            raise DivergenceError(f"meta-loss {loss_now:.3e} at iteration {it}", iteration=it)
        log.append(
            {
                "iter": it,
                "meta_loss": float(loss_now),
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
                "partitions": list(partitions),
            }
        )
    return omega, log


def adapt_and_evaluate(model, omega: ParamVector, support_tasks: Sequence[TaskInstance],
                       target_task: TaskInstance, cfg: MetaConfig) -> float:
    """Adapt to the target task and return its test MSE.

    Tree modes adapt support + target jointly, target ordered last so each
    regroup inserts it into an already-built structure; maml adapts the target
    alone; baseline optionally fine-tunes with the same step count and rate.
    """
    if cfg.mode == "baseline" and not cfg.baseline_finetune:
        theta = omega
    elif cfg.mode in ("maml", "baseline"):
        theta = omega
        for _ in range(cfg.inner_steps):
            theta = inner_step_task(model, theta, target_task.train_points, cfg.inner_lr)
    else:
        batch = list(support_tasks) + [target_task]
        trace = adapt_tree(model, omega, batch, cfg)
        theta = trace.final_params[target_task.task_id]
    return model.loss(theta, target_task.test_points)

