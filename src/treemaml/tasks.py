"""Synthetic hierarchical linear-regression task distribution.

Task weight vectors live on the leaves of a tree of Gaussian offsets: the root
center is drawn once, each child adds an offset at its level's scale, and each
sampled task jitters around its leaf center. Inputs are uniform on a box and
targets carry additive Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import BatchStack


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


@dataclass(frozen=True)
class TaskGeneratorConfig:
    """Geometry and noise of the task distribution.

    level_scales has one entry per tree level including the root, so its length
    is len(branching) + 1. task_jitter is the std of the per-task offset around
    its leaf center; None selects the default of 0.1 * level_scales[-1].
    Scales, noise_std and task_jitter must be finite and non-negative.
    """

    dim: int = 64
    branching: tuple = (2, 2)
    level_scales: tuple = (1.0, 1.0, 0.5)
    noise_std: float = 0.01
    input_low: float = -5.0
    input_high: float = 5.0
    seed: int = 0
    task_jitter: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))
        object.__setattr__(self, "level_scales", tuple(float(s) for s in self.level_scales))
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        if any(b <= 0 for b in self.branching):
            raise ConfigError("branching factors must be positive")
        if len(self.level_scales) != len(self.branching) + 1:
            raise ConfigError("need one level scale per tree level including the root")
        if not all(0 <= s < math.inf for s in self.level_scales):
            raise ConfigError("level scales must be finite and non-negative")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError("noise_std must be finite and non-negative")
        if not self.input_low < self.input_high:
            raise ConfigError("input_low must be < input_high")
        if not math.isfinite(self.input_high - self.input_low):
            raise ConfigError("the input range input_high - input_low must be finite")
        if self.task_jitter is not None and not 0 <= self.task_jitter < math.inf:
            raise ConfigError("task_jitter must be finite and non-negative")

    @property
    def jitter_std(self) -> float:
        if self.task_jitter is not None:
            return float(self.task_jitter)
        return 0.1 * self.level_scales[-1]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "branching": list(self.branching),
            "level_scales": list(self.level_scales),
            "noise_std": self.noise_std,
            "input_low": self.input_low,
            "input_high": self.input_high,
            "seed": self.seed,
            "task_jitter": self.task_jitter,
        }


@dataclass(frozen=True)
class ParameterTreeNode:
    center: np.ndarray  # read-only (dim,)
    path: tuple
    children: tuple


@dataclass(frozen=True)
class ParameterTree:
    """Center hierarchy plus the flat list of leaves in path order."""

    root: ParameterTreeNode
    leaves: tuple
    config: TaskGeneratorConfig


def build_parameter_tree(cfg: TaskGeneratorConfig) -> ParameterTree:
    """Draw the center hierarchy for cfg, deterministically from cfg.seed.

    Nodes are drawn in depth-first pre-order: the root center comes from
    N(0, level_scales[0]^2) per coordinate, and each level-l child adds a
    N(0, level_scales[l]^2) offset to its parent's center. Raises ConfigError
    naming the level when a center overflows.
    """
    rng = np.random.default_rng(cfg.seed)

    def grow(center: np.ndarray, path: tuple, level: int) -> ParameterTreeNode:
        if not np.isfinite(center).all():
            raise ConfigError(f"a level-{level} center overflows; level_scales "
                              f"{list(cfg.level_scales)} are too large")
        center.setflags(write=False)
        children = []
        if level < len(cfg.branching):
            for b in range(cfg.branching[level]):
                offset = rng.normal(0.0, cfg.level_scales[level + 1], cfg.dim)
                children.append(grow(center + offset, path + (b,), level + 1))
        return ParameterTreeNode(center, path, tuple(children))

    root = grow(rng.normal(0.0, cfg.level_scales[0], cfg.dim), (), 0)

    leaves = []

    def collect(node: ParameterTreeNode):
        if not node.children:
            leaves.append(node)
        for child in node.children:
            collect(child)

    collect(root)
    return ParameterTree(root, tuple(leaves), cfg)


@dataclass(frozen=True, eq=False)
class TaskBatch:
    """m tasks as arrays, row i of each being task i.

    ids (m,) are the task_ids, leaves (m,) each task's generator leaf index,
    paths (m, L) that leaf's path (L = len(branching)) and weights (m, dim)
    the ground-truth weights; all four are made read-only in place. train,
    val and test are the splits as BatchStacks in task order. `+` joins two
    batches without copying their splits, so a support batch and its target
    adapt as one.
    """

    ids: np.ndarray
    leaves: np.ndarray
    paths: np.ndarray
    weights: np.ndarray
    train: BatchStack
    val: BatchStack
    test: BatchStack

    _ARRAYS = ("ids", "leaves", "paths", "weights")

    def __post_init__(self):
        for name in self._ARRAYS:
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __add__(self, other: "TaskBatch") -> "TaskBatch":
        return TaskBatch(*(np.concatenate((getattr(self, name), getattr(other, name)))
                           for name in self._ARRAYS),
                         self.train + other.train, self.val + other.val, self.test + other.test)


def sample_task_batch(
    tree: ParameterTree,
    m: int,
    rng: np.random.Generator,
    n_train: int,
    n_val: int,
    n_test: int = 0,
    start_id: int = 0,
) -> TaskBatch:
    """Sample m tasks with sequential task_ids start_id..start_id+m-1.

    Each task draws a uniform leaf, jittered weights, then its train, val and
    test splits, so replaying a seeded generator replays the exact batch. The
    draws go straight into one (m, n, dim) input and one (m, n) target array
    per split, which are then frozen; a zero-size split draws nothing. Raises
    ConfigError when the drawn weights or targets overflow.
    """
    if m <= 0:
        raise ConfigError("batch size m must be positive")
    if n_train < 0 or n_val < 0 or n_test < 0:
        raise ConfigError("split sizes must be non-negative")
    cfg = tree.config
    splits = [(np.empty((m, n, cfg.dim)), np.empty((m, n))) for n in (n_train, n_val, n_test)]
    drawn = [(x, y) for x, y in splits if y.shape[1]]
    weights = np.empty((m, cfg.dim))
    leaves = np.empty(m, dtype=np.intp)
    span = cfg.input_high - cfg.input_low
    with np.errstate(over="ignore", invalid="ignore"):
        # the RNG stream is drawn task by task, in this order
        for i in range(m):
            leaves[i] = rng.integers(len(tree.leaves))
            w = weights[i]
            np.add(tree.leaves[leaves[i]].center, rng.normal(0.0, cfg.jitter_std, cfg.dim), out=w)
            for x, y in drawn:
                # rng.uniform(low, high)'s own arithmetic, low + (high - low) * u,
                # done in place
                rng.random(out=x[i])
                x[i] *= span
                x[i] += cfg.input_low
                np.matmul(x[i], w, out=y[i])
                y[i] += rng.normal(0.0, cfg.noise_std, size=y.shape[1])
    if not (np.isfinite(weights).all() and all(np.isfinite(y).all() for _, y in drawn)):
        raise ConfigError(
            f"sampled task weights or targets overflow; task_jitter {cfg.jitter_std}, "
            f"level_scales {list(cfg.level_scales)} or noise_std {cfg.noise_std} are too large"
        )
    for x, y in splits:
        x.setflags(write=False)
        y.setflags(write=False)
    paths = np.array([leaf.path for leaf in tree.leaves], dtype=np.intp)
    ids = np.arange(start_id, start_id + m, dtype=np.int64)
    return TaskBatch(ids, leaves, paths[leaves], weights, *(BatchStack(((x, y),)) for x, y in splits))


class TaskSampler:
    """Stateful wrapper handing out batches with unique, increasing task_ids."""

    def __init__(self, tree: ParameterTree, rng: np.random.Generator, start_id: int = 0):
        self.tree = tree
        self.rng = rng
        self.next_id = int(start_id)

    def sample_batch(self, m: int, n_train: int, n_val: int, n_test: int = 0) -> TaskBatch:
        batch = sample_task_batch(
            self.tree, m, self.rng, n_train, n_val, n_test, start_id=self.next_id
        )
        self.next_id += m
        return batch


def distribution_to_dict(tree: ParameterTree) -> dict:
    """JSON-ready audit dump: config plus every node center in BFS order."""
    centers = []
    queue = [tree.root]
    while queue:
        node = queue.pop(0)
        centers.append(node.center.tolist())
        queue.extend(node.children)
    return {"config": tree.config.to_dict(), "centers": centers}

