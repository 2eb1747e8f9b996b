"""Frozen reference for the per-task meta-learning engine.

This is the engine as it was before it worked on stacked arrays: every inner
step calls the model once per task, keeps one gradient array per task and
np.stacks each cluster's member gradients; the reverse pass calls the HVP once
per task and accumulates the adjoints one cluster at a time. The model's
loss, gradient and HVP are frozen here too, as the per-batch formulas they
were, so the differential tests in test_engine.py compare the batched engine
against arithmetic that shares no code with it. sample_task is the task sampler
as it was, one task and three freshly drawn splits at a time. Do not optimise
this file: it is the reference. Only its containers and its calls into the
package follow the package: it reads a TaskBatch through tasks_of, one Task
record per row, and calls path_of and build_tree in their current forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from treemaml.clustering import ClusterConfig, build_tree
from treemaml.models import Batch

from cluster_walk import clusters_at_level


@dataclass(frozen=True)
class Task:
    """One task as the per-task engine reads it."""

    task_id: int
    weights: np.ndarray
    leaf: int
    path: tuple
    train_points: Batch
    val_points: Batch
    test_points: Batch


def tasks_of(batch) -> list:
    """A TaskBatch's rows as Task records whose Batches are views of its stacks."""
    splits = [[Batch(X[i], Y[i]) for X, Y in stack.blocks for i in range(len(X))]
              for stack in (batch.train, batch.val, batch.test)]
    return [Task(tid, w, leaf, tuple(path), *points) for tid, w, leaf, path, *points
            in zip(batch.ids.tolist(), batch.weights, batch.leaves.tolist(), batch.paths.tolist(),
                   *splits)]


def loss(params: np.ndarray, batch) -> float:
    r = batch.x @ params - batch.y
    return float(np.mean(r * r))


def gradient(params: np.ndarray, batch) -> np.ndarray:
    r = batch.x @ params - batch.y
    return (2.0 / len(batch)) * (batch.x.T @ r)


def hessian_vector_product(params: np.ndarray, batch, v: np.ndarray) -> np.ndarray:
    return (2.0 / len(batch)) * (batch.x.T @ (batch.x @ v))


@dataclass(frozen=True)
class ClusterState:
    members: tuple
    parent: int
    params_in: Optional[np.ndarray]
    params_out: np.ndarray


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
        zero = {tid for tid in parent.members if float(np.linalg.norm(grads[tid])) == 0.0}
        items = [tid for tid in parent.members if tid not in zero]
        if items:
            G = np.array([grads[tid] for tid in items])
            tree = build_tree(items, G, ClusterConfig(cfg.inner_steps - 1, cfg.xi))
            for cluster in clusters_at_level(tree, 1):
                cset = set(cluster)
                out.append(([tid for tid in parent.members if tid in cset], p_idx))
        out.extend(([tid], p_idx) for tid in parent.members if tid in zero)
    return out


def adapt_tree(omega: np.ndarray, batch, cfg) -> Trace:
    tasks = tasks_of(batch)
    ids = [t.task_id for t in tasks]
    paths = None
    if cfg.mode == "tree_fixed":
        paths = dict(zip(ids, map(tuple, cfg.fixed_tree.path_of(batch, cfg.inner_steps).tolist())))
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
            stack = np.stack([grads[tid] for tid in members])
            params_out = params_in - cfg.inner_lr * np.mean(stack, axis=0)
            level.append(ClusterState(tuple(members), p_idx, params_in, params_out))
        index = {tid: i for i, cs in enumerate(level) for tid in cs.members}
        levels.append(level)
        prev_level = level
    final = {tid: prev_level[index[tid]].params_out for tid in ids}
    return Trace(levels, final, {t.task_id: t.train_points for t in tasks})


def meta_validation_loss(trace: Trace, val_batches: dict) -> float:
    losses = [loss(theta, val_batches[tid]) for tid, theta in trace.final_params.items()]
    return float(np.mean(losses))


def meta_gradient(omega: np.ndarray, trace: Trace, val_batches: dict, cfg) -> np.ndarray:
    m = len(trace.final_params)
    if not cfg.second_order:
        stack = np.stack(
            [gradient(theta, val_batches[tid]) for tid, theta in trace.final_params.items()]
        )
        return np.mean(stack, axis=0)

    n_steps = len(trace.steps)
    adjoints = [[np.zeros(omega.shape[0]) for _ in level] for level in trace.steps]
    for ci, cs in enumerate(trace.steps[-1]):
        acc = np.zeros(omega.shape[0])
        for tid in cs.members:
            acc = acc + gradient(cs.params_out, val_batches[tid])
        adjoints[-1][ci] = acc / m

    root_acc = np.zeros(omega.shape[0])
    for k in range(n_steps - 1, -1, -1):
        for ci, cs in enumerate(trace.steps[k]):
            v = adjoints[k][ci]
            hstack = np.stack(
                [hessian_vector_product(cs.params_in, trace.train_batches[tid], v)
                 for tid in cs.members]
            )
            pushed = v - cfg.inner_lr * np.mean(hstack, axis=0)
            if k == 0:
                root_acc = root_acc + pushed
            else:
                adjoints[k - 1][cs.parent] = adjoints[k - 1][cs.parent] + pushed
    return root_acc


def sample_task(tree, rng, n_train, n_val, n_test=0, task_id=0):
    """sample_task as it was: a fresh (and copied) Batch per split, zero-size splits drawn too."""
    cfg = tree.config

    def draw(weights, n):
        x = rng.uniform(cfg.input_low, cfg.input_high, size=(n, cfg.dim))
        noise = rng.normal(0.0, cfg.noise_std, size=n)
        return Batch(x, x @ weights + noise)

    leaf_idx = int(rng.integers(len(tree.leaf_paths)))
    center = tree.centers[len(tree.centers) - len(tree.leaf_paths) + leaf_idx]
    weights = center + rng.normal(0.0, cfg.jitter_std, cfg.dim)
    train = draw(weights, n_train)
    val = draw(weights, n_val)
    test = draw(weights, n_test)
    path = tuple(tree.leaf_paths[leaf_idx].tolist())
    return Task(task_id, weights, leaf_idx, path, train, val, test)
