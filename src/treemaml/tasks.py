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
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .models import BatchStack


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent; field names a mistyped one."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _has_type(kind: str, value) -> bool:
    """Whether value has the annotated type kind: a bool is no number, an int is a float,
    a tuple[...] may come as a list, and any other kind is the name of value's class."""
    if kind.startswith("Optional["):
        return value is None or _has_type(kind[len("Optional["):-1], value)
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        return (isinstance(value, (list, tuple))
                and all(_has_type(kind[len("tuple["):-len(", ...]")], v) for v in value))
    return type(value) in _TYPES[kind] if kind in _TYPES else type(value).__name__ == kind


def _stored(kind: str, value):
    """value in its field's one form: an int in a float as a float, a list as a tuple."""
    if kind.startswith("tuple["):
        return tuple(_stored(kind[len("tuple["):-len(", ...]")], v) for v in value)
    return float(value) if type(value) is int and "float" in kind else value


def _check_types(config) -> None:
    """Raise ConfigError naming the first field of a config dataclass whose value lacks
    the annotation as written or overflows a float, and store each value in its one
    form (_stored); nothing else is coerced. Each config's __post_init__ calls this first."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _has_type(f.type, value):
            raise ConfigError(f"{f.name} must be {f.type}, not {value!r}", f.name)
        try:
            object.__setattr__(config, f.name, _stored(f.type, value))
        except OverflowError:
            raise ConfigError(f"{f.name} {value} overflows a float", f.name) from None


@dataclass(frozen=True)
class TaskGeneratorConfig:
    """Geometry and noise of the task distribution.

    level_scales has one entry per tree level including the root, so its length
    is len(branching) + 1. task_jitter is the std of the per-task offset around
    its leaf center; None selects the default of 0.1 * level_scales[-1].
    Scales, noise_std and task_jitter must be finite and non-negative, and so
    must seed. Every field must have its annotated type (_check_types).
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
        _check_types(self)
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
        return 0.1 * self.level_scales[-1] if self.task_jitter is None else self.task_jitter

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


# A skipped task pays an advance per split and a round trip of the generator's
# state, about 5 us, which is what drawing some 2,500 input values costs; its
# row needs no fill and takes no room, and a read row is drawn straight into
# its key's region, so no pass moves it. At dim 64 and 96 tasks half skipped,
# timed in 200 alternating pairs against the full draw per size, a batch drew
# 26% slower at 16 points and 5% slower at 32, broke even between 36 and 40
# (between 40 and 48 while the read rows were gathered into key order after
# the draw), and drew 18% faster at 64 and 31% at 128.
_MIN_SKIPPED_INPUTS = 2560


def _laid_out_stack(x: np.ndarray, y: np.ndarray, slot: list) -> BatchStack:
    """The split's m tasks in order, task i at row slot[i] of x, y, which hold
    one m-row region per read key, or, for slot -1, a NaN view: one block per
    run of tasks back to back in one region (a full region holds every task),
    or of NaN rows. Each block's span names its region, one view shared by all
    of that region's blocks, so take returns a region's rows as one view."""
    m = len(slot)
    regions = [(x[a:a + m], y[a:a + m]) for a in range(0, len(x), m)]
    at = np.array(slot)
    skip = at < 0
    cut = np.flatnonzero((skip[1:] != skip[:-1]) | (~skip[1:] & (np.diff(at) != 1))) + 1
    cut = cut.tolist()
    nan = np.array(np.nan)
    nx, ny = (np.broadcast_to(nan, (m, *a.shape[1:])) for a in (x, y))
    spans = tuple((*regions[slot[a] // m], slot[a] % m) if slot[a] >= 0 else (nx, ny, a)
                  for a in [0] + cut)
    return BatchStack(tuple((X[s:s + b - a], Y[s:s + b - a]) for (X, Y, s), a, b
                            in zip(spans, [0] + cut, cut + [m])), spans)


def sample_task_batch(
    tree: ParameterTree,
    m: int,
    rng: np.random.Generator,
    n_train: int,
    n_val: int,
    n_test: int = 0,
    start_id: int = 0,
    input_leaves: Optional[np.ndarray] = None,
) -> TaskBatch:
    """Sample m tasks with sequential task_ids start_id..start_id+m-1.

    Each task draws a uniform leaf, jittered weights, then its train, val and
    test splits, so replaying a seeded generator replays the exact batch. The
    draw loop makes only the RNG calls, task by task, each straight into its
    row of one (m, n, dim) input and one (m, n) target array per split (one
    region per key below), each a contiguous block of one buffer for the
    batch; a zero-size split draws nothing. The arithmetic then runs once on
    the stored rows of each split in place, giving what uniform(low, high)
    and normal(0, std) would have, bit for bit, and the arrays are frozen.
    Raises ConfigError when the drawn weights or targets overflow.

    input_leaves, an (L,) int array, gives each generator leaf a key for the
    reader of the inputs; a task on a leaf with a negative key is not read.
    With a PCG64 generator and at least _MIN_SKIPPED_INPUTS input values per
    task, an unread task still draws its leaf, weights and noise rows in the
    same order, but skips its inputs with bit_generator.advance, which clears
    the 32-bit half PCG64 buffers for integers, so the sampler puts that half
    back. Such a row takes no room and no arithmetic: its inputs and targets
    are a read-only NaN view that owns no memory, so a read of them cannot
    pass for data. The read rows are laid out for the reader, one region per
    key: each split's block of the buffer holds an m-row region for each key
    that input_leaves reads, in ascending key order, and the draw writes each
    read task's rows at the next free row of its key's region, so a region
    holds its key's rows back to back in task order. A region is indexed by
    its key's rank among the read keys, so gaps between keys take no room.
    The arithmetic then runs in place on each region's rows. The split's
    BatchStack is one block per run of tasks that sit back to back in one
    region, or that are skipped, and its spans name the region (one view,
    shared by all of its blocks; or the NaN view) and each block's first row
    there, so take returns a gather of one key's rows in task order as one
    view per key (see BatchStack). Every other array, every read row and the
    generator's end state are those of the full draw, bit for bit.
    Smaller tasks and any other generator draw every input, and each split
    is one block in task order, as without input_leaves.
    """
    if m <= 0:
        raise ConfigError("batch size m must be positive")
    if n_train < 0 or n_val < 0 or n_test < 0:
        raise ConfigError("split sizes must be non-negative")
    L = len(tree.leaf_paths)
    if input_leaves is not None:
        input_leaves = np.asarray(input_leaves)
        if input_leaves.shape != (L,) or input_leaves.dtype.kind not in "iu":
            raise ValueError(f"input_leaves must have one entry per leaf, an int key, shape "
                             f"({L},), not {input_leaves.dtype} of shape {input_leaves.shape}")
    cfg = tree.config
    skipping = (input_leaves is not None and type(rng.bit_generator) is np.random.PCG64
                and (n_train + n_val + n_test) * cfg.dim >= _MIN_SKIPPED_INPUTS)
    # Each read key, in ascending order, has an m-row region of every drawn
    # split, and members[r] lists region r's tasks in task order, the order
    # of its rows; a draw that reads every task has one region, the tasks'.
    members = [slice(None)]
    if skipping:
        key_of = input_leaves.tolist()
        keys = sorted({k for k in key_of if k >= 0})
        region_of = [keys.index(k) if k >= 0 else -1 for k in key_of]
        members = [[] for _ in keys]
        sink = np.empty(max(n_train, n_val, n_test))  # a skipped row's noise
    room = len(members) * m
    # One buffer each for the inputs and targets of all splits: glibc's malloc
    # keeps a freed batch for the next one, where a block per split reached
    # its trim threshold, went back to the kernel and was faulted in again.
    inputs = np.empty((room * (n_train + n_val + n_test), cfg.dim))
    targets = np.empty(len(inputs))
    splits, a = [], 0
    for n in (n_train, n_val, n_test):
        k = room if n else m  # a zero-size split is m empty rows
        splits.append((inputs[a:a + k * n].reshape(k, n, cfg.dim),
                       targets[a:a + k * n].reshape(k, n)))
        a += k * n
    drawn = [(x, y) for x, y in splits if y.shape[1]]
    weights = np.empty((m, cfg.dim))
    leaves = np.empty(m, dtype=np.intp)
    leaf_centers = tree.centers[-L:]
    # Task i is drawn into row slot[i] of each split: the next free row of its
    # key's region, or nowhere (-1) if skipped
    slot = list(range(m))
    # the RNG stream, task by task in this order; each y row holds noise for now
    for i in range(m):
        leaf = leaves[i] = rng.integers(L)
        rng.standard_normal(out=weights[i])
        if skipping:
            r = region_of[leaf]
            if r < 0:
                slot[i] = -1
                bits = rng.bit_generator
                before = bits.state
                for x, y in drawn:
                    bits.advance(y.shape[1] * cfg.dim)  # what random(out=x[s]) consumes
                    rng.standard_normal(out=sink[:y.shape[1]])
                bits.state = {**bits.state, "has_uint32": before["has_uint32"],
                              "uinteger": before["uinteger"]}
                continue
            slot[i] = r * m + len(members[r])
            members[r].append(i)
        s = slot[i]
        for x, y in drawn:
            rng.random(out=x[s])
            rng.standard_normal(out=y[s])
    stored = []  # the drawn rows of each region and split
    with np.errstate(over="ignore", invalid="ignore"):
        # normal(0, s) is 0.0 + s * z, and uniform(low, high) is low + (high - low) * u
        weights *= cfg.jitter_std
        weights += 0.0
        weights += leaf_centers[leaves]
        for r, tasks in enumerate(members):
            region_weights = weights[tasks]
            rows = slice(r * m, r * m + len(region_weights))
            for x, y in drawn:
                xr, yr = x[rows], y[rows]
                xr *= cfg.input_high - cfg.input_low
                yr *= cfg.noise_std
                xr += cfg.input_low
                yr += 0.0
                # each stacked row's product is the one x[i] @ weights[i] gives
                yr += np.matmul(xr, region_weights[:, :, None])[..., 0]
                stored.append(yr)
    if not (np.isfinite(weights).all() and all(np.isfinite(y).all() for y in stored)):
        raise ConfigError(
            f"sampled task weights or targets overflow; task_jitter {cfg.jitter_std}, "
            f"level_scales {list(cfg.level_scales)} or noise_std {cfg.noise_std} are too large"
        )
    for array in (inputs, targets, *itertools.chain(*splits)):
        array.setflags(write=False)
    stacks = [_laid_out_stack(x, y, slot) if skipping and y.shape[1] else BatchStack(((x, y),))
              for x, y in splits]
    ids = np.arange(start_id, start_id + m, dtype=np.int64)
    return TaskBatch(ids, leaves, tree.leaf_paths[leaves], weights, *stacks)


def distribution_to_dict(tree: ParameterTree) -> dict:
    """JSON-ready audit dump: config plus every node center in BFS order."""
    return {"config": tree.config.to_dict(), "centers": tree.centers.tolist()}
