"""Walkers over a finished OTD tree (a treemaml.clustering.ClusterTreeNode).

The tests read build_tree's result through these: clusters_at_level cuts the
tree at a depth and tree_to_dict dumps it whole, so two trees compare by
value. The engine reads level1_members instead, so neither lives in the
package.
"""

from __future__ import annotations

from treemaml.clustering import ClusterTreeNode


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
