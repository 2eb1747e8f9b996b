"""Meta-training engine: per-task and tree-structured inner loops, exact
meta-gradients, the outer loop, and meta-test adaptation.

Inner adaptation runs K pooled gradient steps. A step for cluster c starts from
its parent cluster's parameters and subtracts inner_lr times the across-member
mean of per-task mean gradients. Mode selects the per-step partition:

- maml: every task is its own cluster at every step;
- tree_fixed: clusters follow the length-K key paths of cfg.fixed_tree, by
  default the tasks' generator paths (cluster identity at step k = the
  length-k prefix, so partitions nest);
- tree_learned: steps 1..K-1 regroup fresh task gradients by online top-down
  clustering run independently inside each step-(k-1) cluster; the final step
  is task-specific. The tree has one level per clustered step, so build_tree
  gets max_depth = K - 1 and cfg.xi. At K = 1 or 2 this is maml: no step is
  clustered, or a depth-1 tree only widens its root into singletons.

No mode needs its own config field or cross-field rule: every mode runs from
any valid MetaConfig, and a mode ignores the fields it does not read.

Second-order meta-gradients run reverse mode over the recorded trace: the
Jacobian of one cluster step is (I - inner_lr * H_c) with H_c the mean of the
member batches' Hessians at the step's input parameters, applied bottom-up
along each cluster's path to the root, with adjoints of sibling subtrees summed
at their shared parent. First-order mode instead averages the validation
gradients at the adapted parameters.

The engine works on stacked arrays: a task batch is a TaskBatch whose splits
are (m, n, d) inputs and (m, n) targets, each inner step takes all m task
gradients in one batched call, and the reverse pass takes one batched HVP per
step. Cluster means and adjoint sums add rows in the order the per-task loops
did, so the results are those loops' bit for bit. A followed adaptation
(adapt_tree's follow, which meta-test eval uses) still forms every partition
but takes only the gradients and cluster steps that the followed task's
parameters depend on, with the same sums.

Parameters are read-only float64 arrays: omega and a followed task's adapted
parameters are (d,), a step's cluster parameters (C, d). omega is checked for
shape and finiteness where it enters (adapt_tree, adapt_and_evaluate); the
reverse pass reads it and the validation splits from the trace. Every
computed step's gradients and parameters, the meta-gradient and the outer
step are checked for finiteness once, as whole arrays; a failure raises
DivergenceError naming the phase and, in meta_train, the iteration.

A model is any object with:
- dim;
- loss(params, batch) for (d,) params on one Batch, read only by
  adapt_and_evaluate for the meta-test loss;
- batch_loss(P, X, Y) -> (m,) and batch_gradient(P, X, Y) -> (m, d), per task
  i at parameters P[i] (P is (m, d)) on inputs X[i] (X is (m, n, d)) and
  targets Y[i] (Y is (m, n));
- optionally batch_hvp(P, X, Y, V) -> (m, d), the Hessian of task i's loss at
  P[i] applied to V[i]. Second-order meta-gradients raise CapabilityError
  without it.
models.LinearRegressionModel is one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .clustering import ClusterConfig, build_tree, level1_labels
from .models import Batch, BatchStack, EmptyBatchError, _frozen
from .numerics import NumericalError
from .tasks import ConfigError, TaskBatch, _require_int

MODES = ("baseline", "maml", "tree_fixed", "tree_learned")

DIVERGENCE_LIMIT = 1e6


class TreeShapeError(ValueError):
    """Per-step partitions are inconsistent with each other or with the tasks."""


class CapabilityError(TypeError):
    """The model lacks a capability the configuration requires."""


class DivergenceError(RuntimeError):
    """Values left the finite/bounded regime.

    phase says where: "inner step k", "meta-validation", "meta-gradient",
    "outer step" or "eval, ..."; iteration is the outer iteration when
    meta_train raised it, else None.
    """

    def __init__(self, what: str, phase: str, iteration: Optional[int] = None):
        where = f"{what} in {phase}"
        super().__init__(where if iteration is None else f"{where} at iteration {iteration}")
        self.what = what
        self.phase = phase
        self.iteration = iteration


@dataclass(frozen=True)
class FixedTreeSpec:
    """Known cluster assignments, one key per inner step per task.

    path_of(tasks, K) returns an (m, K) integer array for K = cfg.inner_steps,
    row i task i's keys; tasks sharing a length-k prefix share a cluster at
    step k. label identifies the assignment rule in config hashes (the
    callable is not serializable). Each built-in tree is one module-level
    value, so two configs naming it compare and hash equal.
    """

    path_of: Callable[[TaskBatch, int], np.ndarray]
    label: str = "custom"


def _generator_paths(tasks: TaskBatch, K: int) -> np.ndarray:
    keys = np.zeros((len(tasks), K), dtype=np.int64)
    known = min(K - 1, tasks.paths.shape[1])
    keys[:, :known] = tasks.paths[:, :known]
    keys[:, -1] = tasks.ids
    return keys


_GENERATOR = FixedTreeSpec(_generator_paths, "generator")
_SINGLETON = FixedTreeSpec(lambda t, K: np.repeat(t.ids[:, None], K, axis=1), "singleton")
_SINGLE_CLUSTER = FixedTreeSpec(lambda t, K: np.zeros((len(t), K), np.int64), "single-cluster")


def generator_hierarchy_tree() -> FixedTreeSpec:
    """Fixed tree reading each task's known generator path, final step task-specific."""
    return _GENERATOR


def singleton_tree() -> FixedTreeSpec:
    """Every task alone at every step (the maml-degenerate fixed tree)."""
    return _SINGLETON


def single_cluster_tree() -> FixedTreeSpec:
    """All tasks pooled at every step (one gradient averaged across all tasks)."""
    return _SINGLE_CLUSTER


@dataclass(frozen=True)
class MetaConfig:
    """Everything the engine needs for one training/evaluation configuration."""

    inner_lr: float = 0.01
    outer_lr: float = 0.002
    inner_steps: int = 3
    tasks_per_batch: int = 8
    points: int = 5
    mode: str = "maml"
    fixed_tree: FixedTreeSpec = _GENERATOR
    xi: float = 1.0
    second_order: bool = True
    outer_iterations: int = 400
    seed: int = 0
    baseline_finetune: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not (0 <= self.inner_lr < math.inf and 0 <= self.outer_lr < math.inf):
            raise ConfigError("learning rates must be finite and non-negative")
        _require_int("seed", self.seed)
        for name in ("inner_steps", "tasks_per_batch", "points", "outer_iterations"):
            _require_int(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.xi >= 0:  # inf is allowed, NaN is not
            raise ConfigError("xi must be non-negative")
        if not isinstance(self.fixed_tree, FixedTreeSpec):
            raise ConfigError(f"fixed_tree must be a FixedTreeSpec, not {self.fixed_tree!r}")

    def describe(self) -> dict:
        """JSON-able view for config hashing, one key per field: fixed_tree
        reduced to its label (the callable is not serializable)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "fixed_tree": {"label": self.fixed_tree.label}}


def stable_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _Groups:
    """Rows grouped by seg: row i is in group seg[i], groups 0..count-1 all non-empty.

    Both reductions add each group's rows in row order. mean() sums a
    C-contiguous (k, d) block over axis 0, as np.mean(np.stack(rows), axis=0)
    does, and running_sum() adds the rows one at a time onto zeros, as a Python
    loop does. They differ when d == 1, where numpy sums axis 0 pairwise.
    np.add.reduceat and np.add.at are no substitute: the first sums pairwise
    for any d, the second costs a microsecond per row.
    """

    def __init__(self, seg: np.ndarray, count: int):
        self.sizes = np.bincount(seg, minlength=count)
        self.order = np.argsort(seg, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.runs = [(c, int(self.starts[c]), int(self.starts[c] + self.sizes[c]))
                     for c in np.flatnonzero(self.sizes > 1).tolist()]

    def _reduce(self, values: np.ndarray, block_sum) -> np.ndarray:
        rows = values[self.order]
        out = rows[self.starts]
        for c, a, b in self.runs:
            out[c] = block_sum(rows[a:b])
        return out

    def mean(self, values: np.ndarray) -> np.ndarray:
        return self._reduce(values, lambda block: block.sum(axis=0)) / self.sizes[:, None]

    def running_sum(self, values: np.ndarray) -> np.ndarray:
        # 0.0 + s turns a -0.0 sum into the +0.0 a loop from zeros gives.
        return 0.0 + self._reduce(values, lambda block: np.add.accumulate(block, axis=0)[-1])


@dataclass
class AdaptationTrace:
    """Everything reverse mode needs about one adaptation pass, as arrays.

    A task's index in `tasks` is its row in every per-task array. For inner
    step k, entry k-1 of each list holds: owners, each task's cluster (m,);
    parents, each cluster's index among the step-(k-1) clusters (C,), all 0
    at step 1, whose parent is the root holding omega; params, each cluster's
    parameters after the step (C, d), read-only; groups, the tasks grouped by
    cluster.

    A followed trace (adapt_tree's follow=i) has every step's owners and
    parents, but params[k-1] is (1, d), the row of task i's cluster alone,
    at every step that stepped only that cluster, and groups is empty. Only
    partition_sizes and followed_params read it; task_params raises
    ValueError.
    """

    omega: np.ndarray
    tasks: TaskBatch
    owners: list
    parents: list
    params: list
    groups: list = field(repr=False)
    follow: Optional[int] = None

    @property
    def partition_sizes(self) -> list:
        return [len(parent) for parent in self.parents]

    @property
    def followed_params(self) -> np.ndarray:
        """The followed task's (d,) parameters after the last step, read-only."""
        if self.follow is None:
            raise ValueError("a full trace follows no task")
        return self.params[-1][0]

    def task_params(self, k: int) -> np.ndarray:
        """(m, d) each task's parameters after k inner steps, read-only."""
        if self.follow is not None:
            raise ValueError(f"this trace followed task row {self.follow} only; "
                             "reading every task's parameters needs a full trace")
        if k == 0:
            P = np.repeat(self.omega[None], len(self.tasks), axis=0)
        else:
            P = self.params[k - 1][self.owners[k - 1]]
        P.setflags(write=False)
        return P


def _check_omega(model, omega) -> np.ndarray:
    """omega as a read-only float64 (model.dim,) array, copied unless nothing
    can write through it. Raises ValueError for another shape and
    NumericalError for a non-finite entry."""
    omega = _frozen(omega)
    if omega.shape != (model.dim,):
        raise ValueError(f"omega must have shape ({model.dim},), not {omega.shape}")
    if not np.isfinite(omega).all():
        raise NumericalError("omega entries must be finite")
    return omega


def _require_finite(values, phase: str) -> None:
    if not np.isfinite(values).all():
        raise DivergenceError("non-finite values", phase)


def _per_task(method, P: np.ndarray, stack: BatchStack, *extra: np.ndarray) -> np.ndarray:
    """method(P, X, Y, *extra) over the stack's blocks, rows in task order."""
    out = []
    a = 0
    for X, Y in stack.blocks:
        b = a + len(X)
        out.append(method(P[a:b], X, Y, *(e[a:b] for e in extra)))
        a = b
    return out[0] if len(out) == 1 else np.concatenate(out)


def _fixed_paths(tasks: TaskBatch, cfg: MetaConfig) -> np.ndarray:
    paths = np.asarray(cfg.fixed_tree.path_of(tasks, cfg.inner_steps))
    if paths.shape != (len(tasks), cfg.inner_steps):
        raise TreeShapeError(f"fixed paths have shape {paths.shape}, expected "
                             f"({len(tasks)}, {cfg.inner_steps}): one key per task per step")
    return paths


def _fixed_partition(paths: np.ndarray, k: int, prev_owner: np.ndarray):
    """Step-k clusters = length-k path prefixes, numbered by first appearance.

    Equal length-k prefixes have equal length-(k-1) prefixes, so a step-k
    cluster is a step-(k-1) cluster paired with a step-k key.
    """
    keys = paths[:, k - 1]
    order = np.lexsort((keys, prev_owner))  # stable: a run lists its rows in order
    sorted_keys, sorted_prev = keys[order], prev_owner[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]) | (sorted_prev[1:] != sorted_prev[:-1])
    firsts = order[starts]  # each cluster's first row
    number = np.empty(len(firsts), dtype=np.intp)
    number[np.argsort(firsts)] = np.arange(len(firsts))
    owner = np.empty(len(order), dtype=np.intp)
    owner[order] = number[np.cumsum(starts) - 1]
    return owner, prev_owner[np.sort(firsts)]


def _learned_partition(G: np.ndarray, prev_owner: np.ndarray, n_prev: int,
                       cluster: ClusterConfig):
    """Regroup by OTD clustering of the gradient rows, independently inside each
    previous cluster, so the new partition refines the old one. A zero gradient
    (an exactly fitted task) has no direction to cluster on, so that task steps
    alone, after the clustered tasks and in batch order."""
    zero = np.linalg.norm(G, axis=1) == 0.0
    owner = np.empty(len(G), dtype=np.intp)
    parent: list = []
    for p in range(n_prev):
        members = np.flatnonzero(prev_owner == p)
        rows = members[~zero[members]]
        if len(rows):
            labels = level1_labels(build_tree(rows, G[rows], cluster))
            owner[rows] = len(parent) + labels
            parent += [p] * (int(labels.max()) + 1)
        alone = members[zero[members]]
        owner[alone] = len(parent) + np.arange(len(alone))
        parent += [p] * len(alone)
    return owner, np.array(parent, dtype=np.intp)


def _adapt(model, omega: np.ndarray, tasks: TaskBatch, cfg: MetaConfig, mode: str,
           follow: Optional[int] = None) -> AdaptationTrace:
    """adapt_tree's K-step inner loop, with mode choosing the partitions and
    follow, when not None, the one task whose path is stepped."""
    m, K = len(tasks), cfg.inner_steps
    paths = _fixed_paths(tasks, cfg) if mode == "tree_fixed" else None
    # one clustered step per tree level below the root, then the task-specific step
    cluster = ClusterConfig(K - 1, cfg.xi) if mode == "tree_learned" and K > 1 else None
    P = omega[None]  # a row per cluster, or the followed cluster's alone
    owner = np.zeros(m, dtype=np.intp)
    stepped_all = True
    train = None  # a followed run's first stepped members, gathered once
    trace = AdaptationTrace(omega, tasks, [], [], [], [], follow)
    for k in range(1, K + 1):
        phase = f"inner step {k}"
        clustering = mode == "tree_learned" and k < K
        if follow is None or clustering:
            G = _per_task(model.batch_gradient, P[owner], tasks.train)
            _require_finite(G, phase)
        if mode == "maml" or (mode == "tree_learned" and k == K):
            owner, parent = np.arange(m), owner
        elif mode == "tree_fixed":
            owner, parent = _fixed_partition(paths, k, owner)
        else:
            owner, parent = _learned_partition(G, owner, len(P), cluster)
        if follow is None or (mode == "tree_learned" and k <= K - 2):
            # every cluster: the trace is full, or the next clustering step
            # reads the gradients at every cluster's parameters
            groups = _Groups(owner, len(parent))
            P = P[parent] - cfg.inner_lr * groups.mean(G)
            if follow is None:
                trace.groups.append(groups)
        else:
            c = owner[follow]
            members = np.flatnonzero(owner == c)
            p = P[parent[c]] if stepped_all else P[0]
            if clustering:
                G_c = G[members]
            else:
                if train is None:
                    # The followed clusters nest, so gather these members once,
                    # deeper clusters first: each later step's members are then
                    # the first ones, and their batches views.
                    gathered = members
                    if paths is not None:
                        shared = np.cumprod(paths[members] == paths[follow], axis=1).sum(axis=1)
                        gathered = members[np.argsort(-shared, kind="stable")]
                    train = tasks.train.take(gathered)
                G_c = _per_task(model.batch_gradient, np.repeat(p[None], len(members), axis=0),
                                train.head(len(members)))
                _require_finite(G_c, phase)
                if len(members) > 1:  # back to task-row order, which the sum adds in
                    G_c = G_c[np.argsort(gathered[:len(members)])]
            # the member-order sum and the division _Groups.mean does for one cluster
            mean = G_c.sum(axis=0) / len(members) if len(members) > 1 else G_c[0]
            P = (p - cfg.inner_lr * mean)[None]
            stepped_all = False
        _require_finite(P, phase)
        P.setflags(write=False)
        trace.owners.append(owner)
        trace.parents.append(parent)
        trace.params.append(P)
    return trace


def adapt_tree(model, omega: np.ndarray, tasks: TaskBatch, cfg: MetaConfig,
               follow: Optional[int] = None) -> AdaptationTrace:
    """Run the K-step inner loop for a batch of tasks and record the trace.

    Step k takes every task's mean training gradient at its current cluster's
    parameters in one batched call, forms the step-k partition per cfg.mode,
    and moves each cluster from its parent's parameters by one pooled step.

    follow, the row of one task in the batch, asks only for that task's
    adapted parameters (trace.followed_params). Every step still forms the
    whole partition, but takes gradients and steps clusters only where a
    later step or the followed task reads them: its own path down the tree,
    plus, in tree_learned, every task's gradient at the clustering steps and
    every cluster's step before the last one of them. The trace records the
    partitions and the followed path only (see AdaptationTrace).

    Raises DivergenceError naming the step when a computed gradient or
    parameter goes non-finite.
    """
    omega = _check_omega(model, omega)
    if not len(tasks):
        raise EmptyBatchError("adapt_tree needs a non-empty task batch")
    if len(set(tasks.ids.tolist())) != len(tasks):
        raise ValueError("task_ids in a batch must be unique")
    if cfg.mode not in ("maml", "tree_fixed", "tree_learned"):
        raise ConfigError(f"mode {cfg.mode!r} has no inner adaptation")
    if follow is not None and not 0 <= follow < len(tasks):
        raise ValueError(f"follow={follow} is not a row of a batch of {len(tasks)} tasks")
    return _adapt(model, omega, tasks, cfg, cfg.mode, follow)


def meta_validation_loss(model, trace: AdaptationTrace) -> float:
    """Mean over the trace's tasks of the validation loss at the adapted parameters."""
    final = trace.task_params(len(trace.params))
    return float(np.mean(_per_task(model.batch_loss, final, trace.tasks.val)))


def meta_gradient(model, trace: AdaptationTrace, cfg: MetaConfig) -> np.ndarray:
    """Gradient of the meta validation loss with respect to trace.omega.

    Second-order mode applies the transposed step Jacobians (I - lr * H_c)
    bottom-up through the trace, one batched HVP per step; the Hessians are
    symmetric, so the factor is applied as-is. First-order mode treats the
    adapted parameters as constants.
    """
    hvp = getattr(model, "batch_hvp", None)
    if cfg.second_order and hvp is None:
        raise CapabilityError(
            "second-order meta-gradients need model.batch_hvp; "
            "set second_order=False for the first-order approximation"
        )
    K = len(trace.params)
    m = len(trace.tasks)
    G_val = _per_task(model.batch_gradient, trace.task_params(K), trace.tasks.val)
    if not cfg.second_order:
        g = np.mean(G_val, axis=0)
    else:
        adjoint = trace.groups[-1].running_sum(G_val) / m
        for k in range(K - 1, -1, -1):
            H = _per_task(hvp, trace.task_params(k), trace.tasks.train, adjoint[trace.owners[k]])
            pushed = adjoint - cfg.inner_lr * trace.groups[k].mean(H)
            n_parents = len(trace.params[k - 1]) if k else 1
            adjoint = _Groups(trace.parents[k], n_parents).running_sum(pushed)
        g = adjoint[0]
    _require_finite(g, "meta-gradient")
    return g


def _outer_step(omega: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    stepped = omega - lr * g
    _require_finite(stepped, "outer step")
    stepped.setflags(write=False)
    return stepped


def outer_update(model, trace: AdaptationTrace, cfg: MetaConfig) -> np.ndarray:
    """One outer step: the read-only trace.omega minus outer_lr times the meta-gradient."""
    return _outer_step(trace.omega, meta_gradient(model, trace, cfg), cfg.outer_lr)


def _check_meta_loss(loss: float) -> None:
    if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise DivergenceError(f"meta-loss {loss:.3e}", "meta-validation")


def meta_step(model, omega: np.ndarray, batch: TaskBatch, cfg: MetaConfig):
    """One outer iteration on batch; returns (omega, meta_loss, partitions).

    omega is the new read-only initialization, meta_loss the batch's loss
    before the step and partitions the adaptation's partition sizes. Baseline
    mode skips adaptation: meta_loss is the loss of omega on the pooled val
    points, and the step is one pooled-gradient step over the batch tasks'
    train+val points, with partitions []. Raises DivergenceError naming the
    phase when the loss or a step's values go non-finite, or the loss passes
    DIVERGENCE_LIMIT.
    """
    if cfg.mode == "baseline":
        Xt, Yt, Xv, Yv = (np.concatenate(a) for s in (batch.train, batch.val)
                          for a in zip(*s.blocks))
        loss = model.batch_loss(omega[None], Xv.reshape(1, -1, model.dim), Yv.reshape(1, -1))[0]
        _check_meta_loss(loss)
        # the pool is each task's train rows, then its val rows, in task order
        X = np.concatenate((Xt, Xv), axis=1).reshape(1, -1, model.dim)
        Y = np.concatenate((Yt, Yv), axis=1).reshape(1, -1)
        g = model.batch_gradient(omega[None], X, Y)[0]
        _require_finite(g, "meta-gradient")
        return _outer_step(omega, g, cfg.outer_lr), float(loss), []
    trace = adapt_tree(model, omega, batch, cfg)
    loss = meta_validation_loss(model, trace)
    _check_meta_loss(loss)
    return outer_update(model, trace, cfg), float(loss), trace.partition_sizes


def meta_train(model, task_source, cfg: MetaConfig):
    """Train omega from scratch; returns (omega, per-iteration log records).

    omega is a read-only (model.dim,) array. It starts at N(0, 0.01^2) per
    coordinate from cfg.seed. Each iteration draws a batch from
    task_source.sample_batch and passes it straight to meta_step, so only one
    batch, and its trace, is held at a time: nothing of an iteration is still
    referenced when the next one draws. Raises DivergenceError, naming the
    iteration and phase, when meta_step does.
    """
    rng = np.random.default_rng(cfg.seed)
    omega = rng.normal(0.0, 0.01, model.dim)
    omega.setflags(write=False)
    log = []
    for it in range(1, cfg.outer_iterations + 1):
        t0 = time.perf_counter()
        try:
            omega, loss, partitions = meta_step(
                model, omega,
                task_source.sample_batch(cfg.tasks_per_batch, cfg.points, cfg.points), cfg)
        except DivergenceError as e:
            raise DivergenceError(e.what, e.phase, iteration=it) from None
        log.append(
            {
                "iter": it,
                "meta_loss": loss,
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
                "partitions": partitions,
            }
        )
    return omega, log


def adapt_and_evaluate(model, omega: np.ndarray, support: Optional[TaskBatch],
                       target: TaskBatch, cfg: MetaConfig) -> float:
    """Adapt to the target, a one-task batch, and return its test MSE.

    Tree modes adapt support + target jointly, target ordered last so each
    regroup inserts it into an already-built structure, and follow the
    target: only what its parameters depend on is computed (see adapt_tree).
    maml adapts the target alone; baseline optionally fine-tunes with the
    same step count and rate; neither reads support, which may be None.
    Finiteness is checked only on what the target's loss reads, so a support
    task off the target's path that overflows does not fail eval. A
    non-finite value raises DivergenceError in phase "eval".
    """
    theta = omega = _check_omega(model, omega)
    if len(target) != 1:
        raise ValueError(f"the target must be a one-task batch, not {len(target)} tasks")
    if cfg.mode != "baseline" or cfg.baseline_finetune:
        try:
            if cfg.mode in ("maml", "baseline"):
                trace = _adapt(model, omega, target, cfg, "maml", follow=0)
            else:
                joint = support + target
                trace = adapt_tree(model, omega, joint, cfg, follow=len(joint) - 1)
        except DivergenceError as e:
            raise DivergenceError(e.what, f"eval, {e.phase}") from None
        theta = trace.followed_params
    (X, Y), = target.test.blocks
    mse = model.loss(theta, Batch(X[0], Y[0]))
    if not math.isfinite(mse):
        raise DivergenceError(f"test loss {mse}", "eval")
    return mse
