"""Frozen reference for the OTD insertion ladder.

This is the ladder as it was before the clustering nodes cached their
children's cosines: every insertion restacks the children's representatives
and recomputes their pairwise statistics with numerics.set_similarity, and the
most similar child is found with a third pass over the representatives. The
differential tests in test_clustering.py build trees with this module and with
treemaml.clustering and compare the two with tree_to_dict, which reads only
node_id, depth, member_tasks and children. Do not optimise this file: it is
the reference.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from treemaml.clustering import ClusterConfig, DuplicateTaskError
from treemaml.numerics import ParamVector, ZeroVectorError, set_similarity


class ReferenceNode:
    """One tree node; leaves carry a task_id, internal nodes carry children.

    node_id is unique within a tree and increases with creation order, which is
    what similarity ties break on. member_tasks and the running representative
    sum are maintained incrementally along every insertion path.
    """

    __slots__ = ("node_id", "depth", "task_id", "children", "member_tasks", "_rep_sum", "_count", "_ids", "_rep_vec")

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
        self._rep_vec: Optional[ParamVector] = None

    @classmethod
    def new_root(cls) -> "ReferenceNode":
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

    def _absorb(self, vector: ParamVector) -> None:
        if self._rep_sum is None:
            self._rep_sum = vector.values.copy()
        else:
            self._rep_sum = self._rep_sum + vector.values
        self._count += 1
        self._rep_vec = None

    def __repr__(self) -> str:
        kind = f"task={self.task_id}" if self.is_leaf else f"children={len(self.children)}"
        return f"ReferenceNode(id={self.node_id}, depth={self.depth}, {kind})"


def _max_leaf_depth(node: ReferenceNode) -> int:
    if not node.children:
        return node.depth
    return max(_max_leaf_depth(c) for c in node.children)


def _shift_down(node: ReferenceNode) -> None:
    node.depth += 1
    for child in node.children:
        _shift_down(child)


def _most_similar_child(node: ReferenceNode, vector: ParamVector) -> int:
    """Index of the child whose representative is most similar to vector.

    Ties break to the lowest node_id.
    """
    reps = np.stack([child.representative.values for child in node.children])
    norms = np.linalg.norm(reps, axis=1)
    scores = (reps @ vector.values) / (norms * vector.norm())
    best_idx = -1
    best_score = None
    best_id = None
    for idx, child in enumerate(node.children):
        score = float(scores[idx])
        better = (
            best_score is None
            or score > best_score
            or (score == best_score and child.node_id < best_id)
        )
        if better:
            best_idx, best_score, best_id = idx, score, child.node_id
    return best_idx


def reference_insert(node: ReferenceNode, item: Tuple[int, ParamVector], cfg: ClusterConfig) -> ReferenceNode:
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
    if vector.norm() == 0.0:
        raise ZeroVectorError("cannot cluster a zero gradient")
    return _insert(node, task_id, vector, cfg)


def _append_leaf(node: ReferenceNode, task_id: int, vector: ParamVector) -> None:
    node.children.append(ReferenceNode(node._ids, node.depth + 1, task_id, vector))


def _insert(node: ReferenceNode, task_id: int, vector: ParamVector, cfg: ClusterConfig) -> ReferenceNode:
    children = node.children

    if len(children) <= 1:
        node._absorb(vector)
        node.member_tasks.add(task_id)
        _append_leaf(node, task_id, vector)
        return node

    reps = [child.representative for child in children]
    before = set_similarity(reps)
    after = set_similarity(reps + [vector])

    if after.mean_pairwise > before.mean_pairwise:
        # Branch 3: the item agrees with this node; push it toward its closest
        # child unless the depth budget only allows widening here.
        node._absorb(vector)
        node.member_tasks.add(task_id)
        if node.depth + 1 == cfg.max_depth:
            _append_leaf(node, task_id, vector)
            return node
        idx = _most_similar_child(node, vector)
        target = children[idx]
        if target.is_leaf:
            group = ReferenceNode(node._ids, node.depth + 1)
            target.depth += 1
            group.children = [target]
            group.member_tasks = set(target.member_tasks)
            group._rep_sum = target._rep_sum.copy()
            group._count = target._count
            group._absorb(vector)
            group.member_tasks.add(task_id)
            _append_leaf(group, task_id, vector)
            children[idx] = group
        else:
            children[idx] = _insert(target, task_id, vector, cfg)
        return node

    threshold = before.mean_pairwise - cfg.xi * before.std_pairwise
    if after.mean_pairwise < threshold and _max_leaf_depth(node) + 1 <= cfg.max_depth:
        # Branch 4: outlier; this whole node and the item become siblings
        # under a fresh parent occupying the node's slot.
        parent = ReferenceNode(node._ids, node.depth)
        _shift_down(node)
        parent.children = [node]
        parent.member_tasks = set(node.member_tasks)
        parent._rep_sum = node._rep_sum.copy()
        parent._count = node._count
        parent._absorb(vector)
        parent.member_tasks.add(task_id)
        _append_leaf(parent, task_id, vector)
        return parent

    # Branch 5 (and branch 4's depth fallback): widen this node.
    node._absorb(vector)
    node.member_tasks.add(task_id)
    _append_leaf(node, task_id, vector)
    return node


def reference_build_tree(items: Sequence[Tuple[int, ParamVector]], cfg: ClusterConfig) -> ReferenceNode:
    """Insert items in order into a fresh tree and return the final root."""
    items = list(items)
    if not items:
        raise ValueError("reference_build_tree needs at least one item")
    root = ReferenceNode.new_root()
    for item in items:
        root = reference_insert(root, item, cfg)
    return root
