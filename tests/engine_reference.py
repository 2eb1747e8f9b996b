"""Frozen reference for the per-task meta-learning engine.

This is the engine as it was before it worked on stacked arrays: every inner
step calls the model once per task, builds a ParamVector per gradient and
np.stacks each cluster's member gradients; the reverse pass calls the HVP once
per task and accumulates the adjoints one cluster at a time. The model's
loss, gradient and HVP are frozen here too, as the per-batch formulas they
were, so the differential tests in test_engine.py compare the batched engine
against arithmetic that shares no code with it. sample_task is the task sampler
as it was, one task and three freshly drawn splits at a time. Do not optimise
this file: it is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from treemaml.clustering import build_tree, clusters_at_level
from treemaml.models import Batch
from treemaml.numerics import ParamVector
from treemaml.tasks import RegressionTaskParams, TaskInstance


def loss(params: ParamVector, batch) -> float:
    r = batch.x @ params.values - batch.y
    return float(np.mean(r * r))


def gradient(params: ParamVector, batch) -> ParamVector:
    r = batch.x @ params.values - batch.y
    return ParamVector((2.0 / len(batch)) * (batch.x.T @ r))


def hessian_vector_product(params: ParamVector, batch, v: ParamVector) -> ParamVector:
    return ParamVector((2.0 / len(batch)) * (batch.x.T @ (batch.x @ v.values)))


@dataclass(frozen=True)
class ClusterState:
    members: tuple
    parent: int
    params_in: Optional[ParamVector]
    params_out: ParamVector


@dataclass
class Trace:
    steps: list
    final_params: dict
    train_batches: dict

    @property
    def partition_sizes(self) -> list:
        return [len(level) for level in self.steps]


def _partition_step(tasks, grads, k, cfg, prev_level, index, paths):
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
            assert len(parents) == 1
            out.append((members, parents.pop()))
        return out
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


def adapt_tree(omega: ParamVector, tasks, cfg) -> Trace:
    tasks = list(tasks)
    ids = [t.task_id for t in tasks]
    paths = None
    if cfg.mode == "tree_fixed":
        paths = {t.task_id: tuple(cfg.fixed_tree.path_of(t)) for t in tasks}
    prev_level = [ClusterState(tuple(ids), -1, None, omega)]
    index = {tid: 0 for tid in ids}
    levels = []
    for k in range(1, cfg.inner_steps + 1):
        grads = {}
        for t in tasks:
            params = prev_level[index[t.task_id]].params_out
            grads[t.task_id] = gradient(params, t.train_points)
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
    return Trace(levels, final, {t.task_id: t.train_points for t in tasks})


def meta_validation_loss(trace: Trace, val_batches: dict) -> float:
    losses = [loss(theta, val_batches[tid]) for tid, theta in trace.final_params.items()]
    return float(np.mean(losses))


def meta_gradient(omega: ParamVector, trace: Trace, val_batches: dict, cfg) -> ParamVector:
    m = len(trace.final_params)
    if not cfg.second_order:
        stack = np.stack(
            [gradient(theta, val_batches[tid]).values for tid, theta in trace.final_params.items()]
        )
        return ParamVector(np.mean(stack, axis=0))

    n_steps = len(trace.steps)
    adjoints = [[np.zeros(omega.dim) for _ in level] for level in trace.steps]
    for ci, cs in enumerate(trace.steps[-1]):
        acc = np.zeros(omega.dim)
        for tid in cs.members:
            acc = acc + gradient(cs.params_out, val_batches[tid]).values
        adjoints[-1][ci] = acc / m

    root_acc = np.zeros(omega.dim)
    for k in range(n_steps - 1, -1, -1):
        for ci, cs in enumerate(trace.steps[k]):
            v = adjoints[k][ci]
            vv = ParamVector(v)
            hstack = np.stack(
                [hessian_vector_product(cs.params_in, trace.train_batches[tid], vv).values
                 for tid in cs.members]
            )
            pushed = v - cfg.inner_lr * np.mean(hstack, axis=0)
            if k == 0:
                root_acc = root_acc + pushed
            else:
                adjoints[k - 1][cs.parent] = adjoints[k - 1][cs.parent] + pushed
    return ParamVector(root_acc)


def sample_task(tree, rng, n_train, n_val, n_test=0, task_id=0):
    """sample_task as it was: a fresh (and copied) Batch per split, zero-size splits drawn too."""
    cfg = tree.config

    def draw(weights, n):
        x = rng.uniform(cfg.input_low, cfg.input_high, size=(n, cfg.dim))
        noise = rng.normal(0.0, cfg.noise_std, size=n)
        return Batch(x, x @ weights + noise)

    leaf_idx = int(rng.integers(len(tree.leaves)))
    leaf = tree.leaves[leaf_idx]
    weights = leaf.center.values + rng.normal(0.0, cfg.jitter_std, cfg.dim)
    params = RegressionTaskParams(ParamVector(weights), leaf_idx, leaf.path)
    train = draw(weights, n_train)
    val = draw(weights, n_val)
    test = draw(weights, n_test)
    return TaskInstance(params, train, val, test, task_id)
