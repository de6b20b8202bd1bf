"""The reference for the integer tree DP of `bpmatch.ctree`.

The same bottom-up tree dynamic program on `Fraction`s: every internal
node ranks its children by W+ - W-, forcing the top edge in keeps the
cheapest b-1 child inclusions and forcing it out keeps the cheapest b, and
every value is an exact rational, with no scale.  Tests compare
`bpmatch.ctree.tree_bmatching_dp` with `tree_bmatching_dp` here, result for
result.
"""

from __future__ import annotations

from bpmatch.ctree import BranchValue, DegenerateTreeError, LabeledTree, TreeDPResult
from bpmatch.graph import ZERO, edge_key

_NO_TIES = frozenset()


def tree_bmatching_dp(tree: LabeledTree, init=None, memo=None) -> TreeDPResult:
    """Bottom-up exact optimum over the tree.

    At every internal node the children are ranked by W+ - W-; forcing the
    top edge in keeps the cheapest b-1 child inclusions, forcing it out
    keeps the cheapest b.  A leaf branch contributes W+ = its edge weight
    and W- = 0; when `init` maps (leaf_label, parent_label) to a value, that
    value replaces the leaf edge weight, which reproduces runs started from
    arbitrary initial messages.

    `memo` maps each solved branch node to its BranchValue and the labels
    with a non-strict selection threshold in its subtree.  A branch's value
    depends only on the node and `init`, so one dict passed to every call
    over the trees of one builder and one `init` solves each shared branch
    once; by default every call starts a fresh memo.
    """
    g = tree.graph
    if memo is None:
        memo = {}
    root = tree.root
    # post-order over distinct unsolved nodes: a node is solved when it is
    # back on top of the stack with all its children solved
    stack = [(c, root.label) for c in reversed(root.children)]
    while stack:
        node, parent_label = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [(c, node.label) for c in node.children if c not in memo]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if not node.children:
            w = node.edge_weight
            if init is not None:
                w = init.get((node.label, parent_label), w)
            memo[node] = (BranchValue(w, ZERO), _NO_TIES)
            continue
        a = g.cap(node.label)
        solved = [memo[c] for c in node.children]
        if len(solved) < a:
            raise DegenerateTreeError(
                f"node labeled {node.label} has {len(solved)} children but capacity {a}")
        diffs = sorted(v.n for v, _ in solved)
        base = sum((v.w_minus for v, _ in solved), ZERO)
        w_plus = node.edge_weight + base + sum(diffs[:a - 1], ZERO)
        w_minus = base + sum(diffs[:a], ZERO)
        ties = _NO_TIES.union(*(t for _, t in solved))
        if len(diffs) > a and diffs[a - 1] == diffs[a]:
            ties |= {node.label}
        memo[node] = (BranchValue(w_plus, w_minus), ties)

    child_vals = [(c.label, memo[c][0]) for c in root.children]
    ties = set().union(*(memo[c][1] for c in root.children))
    branches = dict(child_vals)
    b_root = g.cap(root.label)
    selection = selected = total = None
    if len(child_vals) >= b_root:
        ranked = sorted(child_vals, key=lambda lv: (lv[1].n, lv[0]))
        chosen = ranked[:b_root]
        if 0 < b_root < len(ranked) and ranked[b_root - 1][1].n == ranked[b_root][1].n:
            ties.add(root.label)
        selected = tuple(sorted(label for label, _ in chosen))
        selection = frozenset(edge_key(root.label, label) for label in selected)
        total = (sum((v.w_minus for _, v in child_vals), ZERO)
                 + sum((v.n for _, v in chosen), ZERO))
    return TreeDPResult(root.label, branches, selection, selected, total, frozenset(ties))
