"""Synthetic hierarchical linear-regression task distribution.

Task weight vectors live on the leaves of a tree of Gaussian offsets: the root
center is drawn once, each child adds an offset at its level's scale, and each
sampled task jitters around its leaf center. Inputs are uniform on a box and
targets carry additive Gaussian noise.

A ParameterTree is plain data: one read-only (N, dim) array of every node's
center, breadth-first from the root so that the leaves are its last rows, and
one read-only (L, depth) array of the leaves' paths. Sampling indexes both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .models import BatchStack


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


def _require_int(name: str, value) -> None:
    """Raise ConfigError naming the field unless value is an int; a bool is not one."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class TaskGeneratorConfig:
    """Geometry and noise of the task distribution.

    level_scales has one entry per tree level including the root, so its length
    is len(branching) + 1. task_jitter is the std of the per-task offset around
    its leaf center; None selects the default of 0.1 * level_scales[-1].
    Scales, noise_std and task_jitter must be finite and non-negative, and so
    must seed. Nothing is coerced: dim, seed and each branching entry must be
    ints, and a spec's generator section is type-checked when it loads.
    """

    dim: int = 64
    branching: tuple[int, ...] = (2, 2)
    level_scales: tuple[float, ...] = (1.0, 1.0, 0.5)
    noise_std: float = 0.01
    input_low: float = -5.0
    input_high: float = 5.0
    seed: int = 0
    task_jitter: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(self.branching))
        object.__setattr__(self, "level_scales", tuple(self.level_scales))
        _require_int("dim", self.dim)
        _require_int("seed", self.seed)
        for k, b in enumerate(self.branching):
            _require_int(f"branching[{k}]", b)
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
        if self.seed < 0:
            raise ConfigError(f"generator.seed must be non-negative, not {self.seed}")

    @property
    def jitter_std(self) -> float:
        if self.task_jitter is not None:
            return float(self.task_jitter)
        return 0.1 * self.level_scales[-1]

    def to_dict(self) -> dict:
        """The fields by name; json writes the tuples as lists."""
        return asdict(self)


@dataclass(frozen=True)
class ParameterTree:
    """Every node's center plus the leaves' paths, both read-only.

    centers (N, dim) holds the centers breadth-first from the root, each level
    in path order, so its last L rows are the leaves; leaf_paths (L, depth)
    holds leaf i's child index at each level (depth = len(branching)).
    """

    centers: np.ndarray
    leaf_paths: np.ndarray
    config: TaskGeneratorConfig

    def __post_init__(self):
        self.centers.setflags(write=False)
        self.leaf_paths.setflags(write=False)


def build_parameter_tree(cfg: TaskGeneratorConfig) -> ParameterTree:
    """Draw the center hierarchy for cfg, deterministically from cfg.seed.

    Nodes are drawn in depth-first pre-order: the root center comes from
    N(0, level_scales[0]^2) per coordinate, and each level-l child adds a
    N(0, level_scales[l]^2) offset to its parent's center. Raises ConfigError
    naming the level when a center overflows.
    """
    rng = np.random.default_rng(cfg.seed)
    levels = [np.empty((n, cfg.dim)) for n in np.cumprod((1,) + cfg.branching)]

    def grow(center: np.ndarray, level: int, index: int):
        if not np.isfinite(center).all():
            raise ConfigError(f"a level-{level} center overflows; level_scales "
                              f"{list(cfg.level_scales)} are too large")
        levels[level][index] = center
        if level < len(cfg.branching):
            b = cfg.branching[level]
            for k in range(b):
                offset = rng.normal(0.0, cfg.level_scales[level + 1], cfg.dim)
                grow(center + offset, level + 1, index * b + k)

    grow(rng.normal(0.0, cfg.level_scales[0], cfg.dim), 0, 0)
    paths = np.array(list(itertools.product(*map(range, cfg.branching))), dtype=np.intp)
    return ParameterTree(np.concatenate(levels), paths, cfg)


@dataclass(frozen=True, eq=False)
class TaskBatch:
    """m tasks as arrays, row i of each being task i.

    ids (m,) are the task_ids, leaves (m,) each task's generator leaf index,
    paths (m, depth) that leaf's path (depth = len(branching)) and weights
    (m, dim) the ground-truth weights; all four are made read-only in place.
    train, val and test are the splits as BatchStacks in task order. `+`
    joins two batches without copying their splits, so a support batch and
    its target adapt as one.
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
    draw loop makes only the RNG calls, task by task, each straight into its
    row of one (m, n, dim) input and one (m, n) target array per split, each
    a contiguous block of one buffer for the batch; a zero-size split draws
    nothing. The arithmetic then runs on whole arrays in place, giving what
    uniform(low, high) and normal(0, std) would have, bit for bit, and the
    arrays are frozen. Raises ConfigError when the drawn weights or targets
    overflow.
    """
    if m <= 0:
        raise ConfigError("batch size m must be positive")
    if n_train < 0 or n_val < 0 or n_test < 0:
        raise ConfigError("split sizes must be non-negative")
    cfg = tree.config
    # One buffer each for the inputs and targets of all splits: glibc's malloc
    # keeps a freed batch for the next one, where a block per split reached
    # its trim threshold, went back to the kernel and was faulted in again.
    inputs = np.empty((m * (n_train + n_val + n_test), cfg.dim))
    targets = np.empty(len(inputs))
    splits, a = [], 0
    for n in (n_train, n_val, n_test):
        splits.append((inputs[a:a + m * n].reshape(m, n, cfg.dim),
                       targets[a:a + m * n].reshape(m, n)))
        a += m * n
    drawn = [(x, y) for x, y in splits if y.shape[1]]
    weights = np.empty((m, cfg.dim))
    leaves = np.empty(m, dtype=np.intp)
    leaf_centers = tree.centers[-len(tree.leaf_paths):]
    # the RNG stream, task by task in this order; each y row holds noise for now
    for i in range(m):
        leaves[i] = rng.integers(len(leaf_centers))
        rng.standard_normal(out=weights[i])
        for x, y in drawn:
            rng.random(out=x[i])
            rng.standard_normal(out=y[i])
    with np.errstate(over="ignore", invalid="ignore"):
        # normal(0, s) is 0.0 + s * z, and uniform(low, high) is low + (high - low) * u
        weights *= cfg.jitter_std
        weights += 0.0
        weights += leaf_centers[leaves]
        for x, y in drawn:
            x *= cfg.input_high - cfg.input_low
            x += cfg.input_low
            y *= cfg.noise_std
            y += 0.0
            # each stacked row's product is the one x[i] @ weights[i] gives
            y += np.matmul(x, weights[:, :, None])[..., 0]
    if not (np.isfinite(weights).all() and all(np.isfinite(y).all() for _, y in drawn)):
        raise ConfigError(
            f"sampled task weights or targets overflow; task_jitter {cfg.jitter_std}, "
            f"level_scales {list(cfg.level_scales)} or noise_std {cfg.noise_std} are too large"
        )
    for array in (inputs, targets, *itertools.chain(*splits)):
        array.setflags(write=False)
    ids = np.arange(start_id, start_id + m, dtype=np.int64)
    return TaskBatch(ids, leaves, tree.leaf_paths[leaves], weights,
                     *(BatchStack(((x, y),)) for x, y in splits))


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
    return {"config": tree.config.to_dict(), "centers": tree.centers.tolist()}
