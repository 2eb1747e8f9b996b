"""Online top-down (OTD) clustering with non-binary nodes.

Items arrive one at a time as (task_id, gradient vector) and are routed into a
bounded-depth tree. Each arrival runs a branch ladder at the current node:

1. no children yet: the item becomes the sole child;
2. one child: append (a pair is the smallest set with a similarity);
3. adding the item raises the children's mean pairwise similarity: descend
   toward the most similar child, nesting a new internal node around it when it
   is a leaf, or recursing into it when it is already a cluster (unless the
   depth budget forbids growing, in which case append);
4. adding the item lowers the mean by more than xi standard deviations of the
   existing pairwise similarities: the item is an outlier to the whole node, so
   the node and the item become siblings under a new parent (skipped when the
   demoted subtree would exceed the depth bound, falling through to 5);
5. otherwise: append as a new child, widening the node.

Internal nodes are represented by the arithmetic mean of their descendant leaf
vectors; similarities always compare these representatives.

Every internal node caches array state for its c children: their stacked
representatives (_reps[:c]), the norms of those rows (_norms[:c]) and their
pairwise cosines (_cos[i, j] for i != j < c). The invariant, restored before
each insertion returns, is that row i of the cache is children[i]'s current
representative and its norm, and _cos[i, j] = <r_i, r_j> / (|r_i| |r_j|).
An insertion computes the item's cosines against the children once, as one
matrix-vector product stored in column c of _cos. The "before" statistics read
the upper triangle of _cos[:c, :c] and the "after" mean that of
_cos[:c+1, :c+1], in the row-major order numerics.set_similarity uses, and
branch 3 picks its child from the same column. Only one child's
representative changes per insertion (the one the item descended into), so
only its row and column are recomputed; an appended leaf copies the column it
was scored with. Nodes created by branch 3 or 4 start with a fresh two-child
cache. Norms are sqrt(sum(x * x)) as in numpy.linalg.norm(axis=1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

# set_similarity is not called here; it stays importable from this module
# because perfbench/cell.py --trace wraps treemaml.clustering.set_similarity.
from .numerics import ParamVector, ZeroVectorError, set_similarity  # noqa: F401


class DuplicateTaskError(ValueError):
    """A task_id was inserted into the same tree twice."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the insertion ladder.

    max_depth bounds the depth of every node (root is depth 0). xi scales the
    outlier threshold in branch 4.
    """

    max_depth: int = 2
    xi: float = 1.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.xi < 0:
            raise ValueError("xi must be non-negative")


class ClusterTreeNode:
    """One tree node; leaves carry a task_id, internal nodes carry children.

    node_id is unique within a tree and increases with creation order, which is
    what similarity ties break on. member_tasks and the running representative
    sum are maintained incrementally along every insertion path, and internal
    nodes keep the children's cosine cache described in the module docstring.
    """

    __slots__ = ("node_id", "depth", "task_id", "children", "member_tasks", "_rep_sum", "_count",
                 "_ids", "_rep_vec", "_reps", "_norms", "_cos")

    def __init__(self, ids: itertools.count, depth: int, task_id: Optional[int] = None,
                 vector: Optional[ParamVector] = None):
        self.node_id = next(ids)
        self.depth = depth
        self.task_id = task_id
        self.children: list = []
        self.member_tasks: set = set() if task_id is None else {task_id}
        self._rep_sum = None if vector is None else vector.values.copy()
        self._count = 0 if vector is None else 1
        self._ids = ids
        self._rep_vec: Optional[ParamVector] = vector
        self._reps = self._norms = self._cos = None

    @classmethod
    def new_root(cls) -> "ClusterTreeNode":
        return cls(itertools.count(), depth=0)

    @property
    def is_leaf(self) -> bool:
        return self.task_id is not None

    @property
    def representative(self) -> ParamVector:
        if self._count == 0:
            raise ValueError("empty node has no representative")
        if self._rep_vec is None:
            self._rep_vec = ParamVector(self._rep_sum / self._count)
        return self._rep_vec

    def _absorb(self, task_id: int, values: np.ndarray) -> None:
        if self._rep_sum is None:
            self._rep_sum = values.copy()
        else:
            self._rep_sum += values
        self._count += 1
        self._rep_vec = None
        self.member_tasks.add(task_id)

    def _score(self, values: np.ndarray, norm: float) -> np.ndarray:
        """Cosines of values against the c children, also stored in _cos[:c, c]."""
        c = len(self.children)
        if self._reps is None or c == len(self._reps):
            cap = max(8, 2 * c)
            reps, norms, cos = self._reps, self._norms, self._cos
            self._reps = np.empty((cap, values.shape[0]))
            self._norms = np.empty(cap)
            self._cos = np.empty((cap, cap))
            if c:
                self._reps[:c] = reps
                self._norms[:c] = norms
                self._cos[:c, :c] = cos
        col = (self._reps[:c] @ values) / (self._norms[:c] * norm)
        self._cos[:c, c] = col
        return col

    def _append(self, child: "ClusterTreeNode", values: np.ndarray, norm: float,
                col: np.ndarray) -> None:
        """Add child, whose representative is values, scored by _score(values, norm) as col."""
        c = len(self.children)
        self._reps[c] = values
        self._norms[c] = norm
        self._cos[c, :c] = col
        self.children.append(child)

    def _adopt(self, child: "ClusterTreeNode", values: np.ndarray, norm: float) -> None:
        self._append(child, values, norm, self._score(values, norm))

    def _refresh(self, idx: int) -> None:
        """Recompute row and column idx after children[idx] absorbed an item."""
        child = self.children[idx]
        rep = child._rep_sum / child._count
        norm = _norm(rep)
        c = len(self.children)
        self._reps[idx] = rep
        self._norms[idx] = norm
        col = (self._reps[:c] @ rep) / (self._norms[:c] * norm)
        self._cos[idx, :c] = col
        self._cos[:c, idx] = col

    def _pair_cosines(self, n: int) -> np.ndarray:
        """Cosines of the first n children's unordered pairs, upper triangle row-major."""
        return self._cos.take(_flat_pairs(n, self._cos.shape[1]))

    def __repr__(self) -> str:
        kind = f"task={self.task_id}" if self.is_leaf else f"children={len(self.children)}"
        return f"ClusterTreeNode(id={self.node_id}, depth={self.depth}, {kind})"


_FLAT_PAIRS: dict = {}


def _flat_pairs(n: int, stride: int) -> np.ndarray:
    # Flat indices of the strict upper triangle of an n x n block in a matrix
    # with `stride` columns, memoised because every insertion reads two.
    idx = _FLAT_PAIRS.get((n, stride))
    if idx is None:
        rows, cols = np.triu_indices(n, k=1)
        idx = _FLAT_PAIRS[(n, stride)] = rows * stride + cols
    return idx


def _norm(values: np.ndarray) -> float:
    return math.sqrt(float(np.add.reduce(values * values)))


def _mean(arr: np.ndarray) -> float:
    # Same reduction as ndarray.mean, so the statistics round like set_similarity's.
    return float(np.add.reduce(arr)) / arr.size


def _std(arr: np.ndarray, mean: float) -> float:
    # Population std in ndarray.std's order of operations.
    dev = arr - mean
    return math.sqrt(float(np.add.reduce(dev * dev)) / arr.size)


def _max_leaf_depth(node: ClusterTreeNode) -> int:
    if not node.children:
        return node.depth
    return max(_max_leaf_depth(c) for c in node.children)


def _shift_down(node: ClusterTreeNode) -> None:
    node.depth += 1
    for child in node.children:
        _shift_down(child)


def _most_similar_child(node: ClusterTreeNode, col: np.ndarray) -> int:
    """Index of the child with the highest cosine in col, the item's cosine column.

    Ties break to the lowest node_id.
    """
    first = int(col.argmax())
    if first == len(col) - 1 - int(col[::-1].argmax()):
        return first  # the maximum is unique
    hits = np.flatnonzero(col == col[first])
    return int(min(hits, key=lambda i: node.children[i].node_id))


def otd_insert(node: ClusterTreeNode, item: Tuple[int, ParamVector], cfg: ClusterConfig) -> ClusterTreeNode:
    """Insert (task_id, vector) into the tree rooted at node.

    Returns the node now occupying node's position: node itself, or the new
    parent created by branch 4. Callers must use the return value as the new
    root. Raises DuplicateTaskError for a repeated task_id and ZeroVectorError
    for a zero-norm vector (cosine similarity would be undefined).
    """
    task_id, vector = item
    if node.is_leaf:
        raise ValueError("insertion target must be an internal node")
    if task_id in node.member_tasks:
        raise DuplicateTaskError(f"task {task_id} already in tree")
    norm = _norm(vector.values)
    if norm == 0.0:
        raise ZeroVectorError("cannot cluster a zero gradient")
    return _insert(node, task_id, vector, norm, cfg)


def _leaf(parent: ClusterTreeNode, task_id: int, vector: ParamVector) -> ClusterTreeNode:
    return ClusterTreeNode(parent._ids, parent.depth + 1, task_id, vector)


def _pair_with_item(inner: ClusterTreeNode, inner_rep: np.ndarray, inner_norm: float, depth: int,
                    task_id: int, vector: ParamVector, norm: float) -> ClusterTreeNode:
    """New node at depth whose two children are inner and a leaf for the item."""
    outer = ClusterTreeNode(inner._ids, depth)
    outer.member_tasks = set(inner.member_tasks)
    outer._rep_sum = inner._rep_sum.copy()
    outer._count = inner._count
    outer._adopt(inner, inner_rep, inner_norm)
    outer._absorb(task_id, vector.values)
    outer._adopt(_leaf(outer, task_id, vector), vector.values, norm)
    return outer


def _insert(node: ClusterTreeNode, task_id: int, vector: ParamVector, norm: float,
            cfg: ClusterConfig) -> ClusterTreeNode:
    values = vector.values
    c = len(node.children)
    col = node._score(values, norm)

    if c <= 1:
        node._absorb(task_id, values)
        node._append(_leaf(node, task_id, vector), values, norm, col)
        return node

    before = node._pair_cosines(c)
    before_mean = _mean(before)
    after_mean = _mean(node._pair_cosines(c + 1))

    if after_mean > before_mean:
        # Branch 3: the item agrees with this node; push it toward its closest
        # child unless the depth budget only allows widening here.
        node._absorb(task_id, values)
        if node.depth + 1 == cfg.max_depth:
            node._append(_leaf(node, task_id, vector), values, norm, col)
            return node
        idx = _most_similar_child(node, col)
        target = node.children[idx]
        if target.is_leaf:
            target.depth += 1
            node.children[idx] = _pair_with_item(target, node._reps[idx], node._norms[idx],
                                                 node.depth + 1, task_id, vector, norm)
        else:
            node.children[idx] = _insert(target, task_id, vector, norm, cfg)
        node._refresh(idx)
        return node

    threshold = before_mean - cfg.xi * _std(before, before_mean)
    if after_mean < threshold and _max_leaf_depth(node) + 1 <= cfg.max_depth:
        # Branch 4: outlier; this whole node and the item become siblings
        # under a fresh parent occupying the node's slot.
        depth = node.depth
        _shift_down(node)
        rep = node._rep_sum / node._count
        return _pair_with_item(node, rep, _norm(rep), depth, task_id, vector, norm)

    # Branch 5 (and branch 4's depth fallback): widen this node.
    node._absorb(task_id, values)
    node._append(_leaf(node, task_id, vector), values, norm, col)
    return node


def build_tree(items: Sequence[Tuple[int, ParamVector]], cfg: ClusterConfig) -> ClusterTreeNode:
    """Insert items in order into a fresh tree and return the final root."""
    items = list(items)
    if not items:
        raise ValueError("build_tree needs at least one item")
    root = ClusterTreeNode.new_root()
    for item in items:
        root = otd_insert(root, item, cfg)
    return root


def clusters_at_level(root: ClusterTreeNode, k: int) -> list:
    """Partition of the tree's tasks induced by cutting at depth k.

    Nodes sitting exactly at depth k contribute their member sets; leaves that
    never grew to depth k contribute themselves as singletons. Returned in
    depth-first order, members sorted, so the output is deterministic for a
    given insertion sequence.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    out: list = []

    def walk(node: ClusterTreeNode) -> None:
        if node.depth == k or node.is_leaf:
            out.append(tuple(sorted(node.member_tasks)))
            return
        for child in node.children:
            walk(child)

    for child in root.children:
        walk(child)
    return out


def tree_to_dict(node: ClusterTreeNode) -> dict:
    """JSON-ready dump: node_id, depth, member_tasks, children (recursive)."""
    return {
        "node_id": node.node_id,
        "depth": node.depth,
        "member_tasks": sorted(node.member_tasks),
        "children": [tree_to_dict(c) for c in node.children],
    }
