"""Online top-down (OTD) clustering with non-binary nodes.

Items, the rows of a float64 gradient matrix G with one task_id each, arrive
one at a time and are routed into a bounded-depth tree. Each arrival runs a
branch ladder at the current node:

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

build_tree works in the Gram space of its items. It forms D = G G^T once (G
holds one item per row) and reads nothing else of G. A cosine ignores scale,
so the cosine of two representatives is <S_a, S_b> / (|S_a| |S_b|) for their
member sums S, and every such dot is a sum of entries of D. Each internal node
below the root keeps its row S G^T, the dot of its member sum with every item
(one numpy add per absorbed item), and |S|^2; a leaf's row is its row of D.
The root needs no row until branch 4 demotes it, so only then is it built.
The item's dots with a node's children are thus scalar reads of their rows.

An internal node at the bottom level, depth max_depth - 1, only ever widens
(branch 3 appends at the depth budget, branch 4 cannot lift a node with
leaves at max_depth, and branches 1, 2 and 5 append), so it appends each item
without scoring it. Every internal node above it caches its children's
pairwise dots and cosines as Python floats, in two flat lists that hold the
pair (a, b), a < b, at b (b - 1) / 2 + a, so a new child's pairs go on the
end. The "before" statistics read the cached cosines and the "after" mean
adds the item's cosine column; sums are math.fsum, so they do not depend on
the order of the pairs. Only the child the item descends into changes, and
its dots with its siblings grow by the item's dots with them, so only its
pairs are recomputed. Nodes made by branch 3 or 4 start with a two-child
cache.

ClusterTreeNode is a read-only view of the finished tree, made on demand for
clusters_at_level, tree_to_dict and other walkers; the engine reads
level1_labels instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# set_similarity is not called here; it stays importable from this module
# because perfbench/cell.py --trace wraps treemaml.clustering.set_similarity.
from .numerics import ZeroVectorError, set_similarity  # noqa: F401


class DuplicateTaskError(ValueError):
    """A task_id was inserted into the same tree twice."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the insertion ladder.

    max_depth bounds the depth of every node (root is depth 0). xi scales the
    outlier threshold in branch 4; it may be inf, which never splits off an
    outlier, but not NaN.
    """

    max_depth: int = 2
    xi: float = 1.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.xi >= 0:
            raise ValueError("xi must be non-negative")


class _Node:
    """One node under construction. A leaf has kids None and item, its row of
    D; an internal node has item -1. members lists the items below in arrival
    order, height the levels between the node and its deepest leaf. row, sq
    and norm are the member sum's dots with every item, squared norm and norm
    (row is None for a root never demoted); dot and cos are the children's
    pairwise caches of a node that scores insertions, else None."""

    __slots__ = ("node_id", "item", "kids", "members", "height", "row", "sq", "norm", "dot", "cos")

    def __init__(self, node_id: int, item: int, members: list, row, sq: float, cache: bool):
        self.node_id = node_id
        self.item = item
        self.kids = None if item >= 0 else []
        self.members = members
        self.height = 0
        self.row = row
        self.sq = sq
        self.norm = math.sqrt(sq)
        self.dot = [] if cache else None
        self.cos = [] if cache else None


def _std(pairs: list, mean: float) -> float:
    # Population std in ndarray.std's order of operations, with an fsum.
    return math.sqrt(math.fsum([(x - mean) * (x - mean) for x in pairs]) / len(pairs))


class _Ladder:
    """The insertion ladder over one batch's Gram matrix D."""

    def __init__(self, D: np.ndarray, cfg: ClusterConfig):
        self.D = D
        self.dsq = D.diagonal().tolist()
        self.dnorm = [math.sqrt(s) for s in self.dsq]
        self.max_depth = cfg.max_depth
        self.xi = cfg.xi
        self._ids = itertools.count()

    def root(self) -> _Node:
        return _Node(next(self._ids), -1, [], None, 0.0, self.max_depth > 1)

    def _leaf(self, i: int) -> _Node:
        return _Node(next(self._ids), i, [i], self.D[i], self.dsq[i], False)

    def _absorb(self, v: _Node, i: int) -> None:
        v.members.append(i)
        if v.row is not None:
            v.sq += 2.0 * v.row.item(i) + self.dsq[i]
            v.norm = math.sqrt(v.sq)
            v.row += self.D[i]

    def _append(self, v: _Node, i: int, dots: list, col: list) -> None:
        """Absorb item i into the scoring node v as a new leaf child, whose
        dots and cosines with v's other children are dots and col."""
        self._absorb(v, i)
        v.kids.append(self._leaf(i))
        v.height = max(v.height, 1)
        v.dot += dots
        v.cos += col

    def _pair(self, inner: _Node, i: int, dot: float, depth: int) -> _Node:
        """New node at depth whose children are inner and a leaf for item i;
        dot is <S_inner, g_i>."""
        row = None if depth == 0 else inner.row + self.D[i]
        outer = _Node(next(self._ids), -1, inner.members + [i], row,
                      inner.sq + 2.0 * dot + self.dsq[i], depth + 1 < self.max_depth)
        outer.kids = [inner, self._leaf(i)]
        outer.height = inner.height + 1
        if outer.dot is not None:
            outer.dot.append(dot)
            outer.cos.append(dot / (inner.norm * self.dnorm[i]))
        return outer

    def _refresh(self, v: _Node, idx: int, dots: list) -> None:
        """Recompute child idx's pairs in v's cache after it absorbed the item
        whose dots with the children were dots."""
        dot, cos, norm = v.dot, v.cos, v.kids[idx].norm
        base = idx * (idx - 1) // 2
        for j, k in enumerate(v.kids):
            if j != idx:
                p = base + j if j < idx else j * (j - 1) // 2 + idx
                dot[p] += dots[j]
                cos[p] = dot[p] / (norm * k.norm)

    def insert(self, v: _Node, depth: int, i: int) -> _Node:
        """Insert item i below v, which sits at depth; return the node now in v's place."""
        kids = v.kids
        if depth + 1 == self.max_depth:
            # A bottom-level node only widens: branch 3 appends at the depth
            # budget, branch 4 cannot lift a node with leaves at max_depth, and
            # branches 1, 2 and 5 append. So it scores nothing.
            self._absorb(v, i)
            kids.append(self._leaf(i))
            v.height = 1
            return v
        dots = [k.row.item(i) for k in kids]
        ni = self.dnorm[i]
        col = [d / (k.norm * ni) for d, k in zip(dots, kids)]
        if len(kids) >= 2:
            pairs = v.cos
            before = math.fsum(pairs) / len(pairs)
            after = math.fsum(pairs + col) / (len(pairs) + len(col))
            if after > before:
                # Branch 3: the item agrees with this node; push it toward its
                # closest child, ties to the lowest node_id.
                self._absorb(v, i)
                best = max(col)
                idx = col.index(best)
                if col.count(best) > 1:
                    idx = min((k.node_id, j) for j, k in enumerate(kids) if col[j] == best)[1]
                target = kids[idx]
                if target.kids is None:
                    kids[idx] = self._pair(target, i, dots[idx], depth + 1)
                else:
                    kids[idx] = self.insert(target, depth + 1, i)
                v.height = max(v.height, kids[idx].height + 1)
                self._refresh(v, idx, dots)
                return v
            # the depth bound first: it blocks most calls, and _std is the costly part
            if (depth + v.height + 1 <= self.max_depth
                    and after < before - self.xi * _std(pairs, before)):
                # Branch 4: outlier; this whole node and the item become
                # siblings under a fresh parent occupying the node's slot.
                if v.row is None:  # the root, about to become a child
                    v.row = self.D[v.members].sum(axis=0)
                    v.sq = float(v.row[v.members].sum())
                    v.norm = math.sqrt(v.sq)
                return self._pair(v, i, v.row.item(i), depth)
        # Branches 1, 2 and 5 (and branch 4's depth fallback): widen this node.
        self._append(v, i, dots, col)
        return v


class ClusterTreeNode:
    """Read-only view of one node of a tree from build_tree.

    Leaves carry a task_id, internal nodes children. node_id is unique within a
    tree and increases with creation order, which is what similarity ties break
    on. children and member_tasks are made on each read.
    """

    __slots__ = ("_node", "_ids", "depth")

    def __init__(self, node: _Node, ids: list, depth: int):
        self._node = node
        self._ids = ids
        self.depth = depth

    @property
    def node_id(self) -> int:
        return self._node.node_id

    @property
    def is_leaf(self) -> bool:
        return self._node.kids is None

    @property
    def task_id(self) -> Optional[int]:
        return self._ids[self._node.item] if self.is_leaf else None

    @property
    def children(self) -> list:
        return [ClusterTreeNode(k, self._ids, self.depth + 1) for k in self._node.kids or ()]

    @property
    def member_tasks(self) -> set:
        return {self._ids[i] for i in self._node.members}

    def __repr__(self) -> str:
        kind = f"task={self.task_id}" if self.is_leaf else f"children={len(self._node.kids)}"
        return f"ClusterTreeNode(id={self.node_id}, depth={self.depth}, {kind})"


def build_tree(ids: Sequence[int], G: np.ndarray, cfg: ClusterConfig) -> ClusterTreeNode:
    """Insert the rows of G, finite float64 vectors with task_ids ids, in order
    into a fresh tree and return a view of its root.

    Raises ValueError for no items or a G that is not 2-D with one row per id,
    DuplicateTaskError for a repeated task_id and ZeroVectorError for a
    zero-norm row (cosine similarity would be undefined).
    """
    ids = np.asarray(ids).tolist()
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or len(G) != len(ids):
        raise ValueError(f"G must be 2-D with one row per id, not {G.shape} for {len(ids)} ids")
    if not ids:
        raise ValueError("build_tree needs at least one item")
    if len(set(ids)) < len(ids):
        dup = next(t for n, t in enumerate(ids) if t in ids[:n])
        raise DuplicateTaskError(f"task {dup} already in tree")
    ladder = _Ladder(G @ G.T, cfg)
    if 0.0 in ladder.dsq:
        raise ZeroVectorError("cannot cluster a zero gradient")
    root = ladder.root()
    for i in range(len(ids)):
        root = ladder.insert(root, 0, i)
    return ClusterTreeNode(root, ids, 0)


def level1_labels(root: ClusterTreeNode) -> np.ndarray:
    """Each item's level-1 cluster, in build_tree's item order, numbered as
    clusters_at_level(root, 1) lists them."""
    labels = np.empty(len(root._node.members), dtype=np.intp)
    for k, child in enumerate(root._node.kids):
        labels[child.members] = k
    return labels


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
