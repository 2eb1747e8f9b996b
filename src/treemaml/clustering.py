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
without scoring it; its parent's branch 3 does that in place, reusing the
item's dot with it. Every internal node above it caches its children's
pairwise dots and cosines as Python floats, in two flat lists that hold the
pair (a, b), a < b, at b (b - 1) / 2 + a, so a new child's pairs go on the
end. The "before" statistics read the cached cosines and the "after" mean
adds the item's cosine column; sums are math.fsum, so they do not depend on
the order of the pairs. Only the child the item descends into changes, and
its dots with its siblings grow by the item's dots with them, so only its
pairs are recomputed. Nodes made by branch 3 or 4 start with a two-child
cache.

ClusterTreeNode is a read-only view of the finished tree, made on demand for
walkers; the engine reads level1_members instead.
"""

from __future__ import annotations

import itertools
from math import fsum, sqrt
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# set_similarity is not called here; it stays importable from this module
# because perfbench/cell.py --trace wraps treemaml.clustering.set_similarity.
from .numerics import ZeroVectorError, set_similarity  # noqa: F401
from .tasks import ConfigError, _check_types


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
        _check_types(self)
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not self.xi >= 0:
            raise ConfigError("xi must be non-negative")


class _Node:
    """One node under construction. A leaf has kids None and members [its
    item]; an internal node's members lists the items below in arrival order.
    height counts the levels between the node and its deepest leaf. row, sq
    and norm are the member sum's dots with every item (a leaf's row of D; None
    for a root never demoted), squared norm and norm; dot and cos are the
    children's pairwise caches of a node that scores insertions, else None."""

    __slots__ = ("node_id", "kids", "members", "height", "row", "sq", "norm", "dot", "cos")

    def __init__(self, node_id: int, kids, members: list, row, sq: float, norm: float, cache=False):
        self.node_id = node_id
        self.kids = kids
        self.members = members
        self.height = 0
        self.row = row
        self.sq = sq
        self.norm = norm
        self.dot = [] if cache else None
        self.cos = [] if cache else None


def _std(pairs: list, mean: float) -> float:
    # Population std in ndarray.std's order of operations, with an fsum.
    return sqrt(fsum([(x - mean) * (x - mean) for x in pairs]) / len(pairs))


class _Ladder:
    """The insertion ladder over one batch's Gram matrix D."""

    def __init__(self, D: np.ndarray, cfg: ClusterConfig):
        self.D = D
        self.rows = list(D)
        self.dsq = D.diagonal().tolist()
        self.dnorm = [sqrt(s) for s in self.dsq]
        self.max_depth = cfg.max_depth
        self.xi = cfg.xi
        self._ids = itertools.count()

    def _pair(self, inner: _Node, i: int, dot: float, depth: int) -> _Node:
        """New node at depth whose children are inner and a leaf for item i;
        dot is <S_inner, g_i>."""
        gi, dsq, ni = self.rows[i], self.dsq[i], self.dnorm[i]
        sq = inner.sq + 2.0 * dot + dsq
        row = None if depth == 0 else inner.row + gi
        outer = _Node(next(self._ids), [inner], inner.members + [i], row, sq, sqrt(sq),
                      depth + 1 < self.max_depth)
        outer.kids.append(_Node(next(self._ids), None, [i], gi, dsq, ni))
        outer.height = inner.height + 1
        if outer.dot is not None:
            outer.dot.append(dot)
            outer.cos.append(dot / (inner.norm * ni))
        return outer

    def insert(self, v: _Node, depth: int, i: int) -> _Node:
        """Insert item i below v, which sits at depth; return the node now in v's place."""
        kids = v.kids
        gi, dsq, ni = self.rows[i], self.dsq[i], self.dnorm[i]
        if depth + 1 == self.max_depth:
            # only a depth-1 tree's root: branch 3 widens the other bottom-level nodes
            v.members.append(i)
            kids.append(_Node(next(self._ids), None, [i], gi, dsq, ni))
            v.height = 1
            return v
        dots = []
        col = []
        for k in kids:
            d = k.row.item(i)
            dots.append(d)
            col.append(d / (k.norm * ni))
        descend = False
        if len(kids) >= 2:
            pairs = v.cos
            before = fsum(pairs) / len(pairs)
            after = fsum(pairs + col) / (len(pairs) + len(col))
            descend = after > before
            # the depth bound first: it blocks most calls, and _std is the costly part
            if (not descend and depth + v.height + 1 <= self.max_depth
                    and after < before - self.xi * _std(pairs, before)):
                # Branch 4: outlier; this whole node and the item become
                # siblings under a fresh parent occupying the node's slot.
                if v.row is None:  # the root, about to become a child
                    v.row = self.D[v.members].sum(axis=0)
                    v.sq = float(v.row[v.members].sum())
                    v.norm = sqrt(v.sq)
                return self._pair(v, i, v.row.item(i), depth)
        # Every other branch absorbs the item into v.
        v.members.append(i)
        if v.row is not None:
            v.sq += 2.0 * v.row.item(i) + dsq
            v.norm = sqrt(v.sq)
            v.row += gi
        if not descend:
            # Branches 1, 2 and 5 (and branch 4's depth fallback): widen this node.
            kids.append(_Node(next(self._ids), None, [i], gi, dsq, ni))
            v.height = max(v.height, 1)
            v.dot += dots
            v.cos += col
            return v
        # Branch 3: the item agrees with this node; push it toward its closest
        # child, ties to the lowest node_id.
        best = max(col)
        idx = col.index(best)
        if col.count(best) > 1:
            idx = min((k.node_id, j) for j, k in enumerate(kids) if col[j] == best)[1]
        target = kids[idx]
        if target.kids is None:
            kids[idx] = target = self._pair(target, i, dots[idx], depth + 1)
            v.height = max(v.height, target.height + 1)
        elif depth + 2 == self.max_depth:
            # A bottom-level node only widens: branch 3 appends at the depth
            # budget, branch 4 cannot lift a node with leaves at max_depth,
            # and branches 1, 2 and 5 append. So it scores nothing, and its
            # height stays 1.
            target.members.append(i)
            target.sq += 2.0 * dots[idx] + dsq
            target.norm = sqrt(target.sq)
            target.row += gi
            target.kids.append(_Node(next(self._ids), None, [i], gi, dsq, ni))
        else:
            kids[idx] = target = self.insert(target, depth + 1, i)
            v.height = max(v.height, target.height + 1)
        # Only child idx changed: its dots with each sibling grow by the
        # item's, and its cosines are recomputed. Pair (j, idx) sits at
        # idx (idx - 1) / 2 + j, pair (idx, j) at j (j - 1) / 2 + idx.
        dot, cos, norm = v.dot, v.cos, target.norm
        p = idx * (idx - 1) // 2
        for j in range(idx):
            x = dot[p] + dots[j]
            dot[p] = x
            cos[p] = x / (norm * kids[j].norm)
            p += 1
        p += idx
        for j in range(idx + 1, len(kids)):
            x = dot[p] + dots[j]
            dot[p] = x
            cos[p] = x / (norm * kids[j].norm)
            p += j
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
        return self._ids[self._node.members[0]] if self.is_leaf else None

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
    root = _Node(next(ladder._ids), [], [], None, 0.0, 0.0, cfg.max_depth > 1)
    for i in range(len(ids)):
        root = ladder.insert(root, 0, i)
    return ClusterTreeNode(root, ids, 0)


def level1_members(root: ClusterTreeNode) -> list:
    """Each level-1 cluster's task_ids in arrival order, the clusters in the
    order root.children lists them."""
    ids = root._ids
    return [[ids[i] for i in kid.members] for kid in root._node.kids]
