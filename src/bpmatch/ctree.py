"""Computation trees: the local unrolling of the graph that message passing
implicitly optimizes over, and the exact tree dynamic program that serves as
a reference semantics for the engine.

A balanced tree of level t rooted at vertex i replicates local connectivity:
the root (label i) has children labeled with i's neighbors, and every
non-leaf node labeled s with parent labeled r has children labeled with the
neighbors of s except r; all leaves sit at depth t+1.  The schedule-driven
generalized tree grows a branch only at steps where its directed edge is
updated, so it is usually unbalanced; under the all-edges schedule it is the
balanced tree.

On either tree, a perfect tree matching picks edges so that every non-leaf
node labeled i has tree-degree exactly b_i (leaves are unconstrained).  For
a branch hanging off a node, W+ / W- denote the minimum matching weight with
the branch's top edge forced in / out; their difference reproduces the
engine's messages exactly, and the root's optimal selection reproduces the
engine's per-vertex estimates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graph import Graph, ZERO, GraphError, edge_key

DEFAULT_NODE_CAP = 200_000


class TreeError(GraphError):
    pass


class TreeSizeError(TreeError):
    pass


class DegenerateTreeError(TreeError):
    pass


class TreeDepthError(TreeError):
    pass


# The builder, tree_size, tree_depth and the tree DP recurse once per tree
# level and use three frames of the recursion limit a level (the function,
# its generator or comprehension, and the builtin that drives it); this many
# frames stay free for their callers.
_CALLER_FRAMES = 200


@dataclass(frozen=True)
class TreeNode:
    label: int
    edge_weight: object  # weight of the edge to the parent; None at the root
    children: tuple


@dataclass(frozen=True)
class LabeledTree:
    root: TreeNode
    kind: str  # "balanced" | "generalized" | "branch"
    graph: Graph
    t: int


def tree_size(tree: LabeledTree) -> int:
    """Number of nodes of the unrolled tree (shared subtrees counted by
    multiplicity)."""
    memo = {}

    def count(node):
        got = memo.get(id(node))
        if got is None:
            got = 1 + sum(count(c) for c in node.children)
            memo[id(node)] = got
        return got

    return count(tree.root)


def tree_depth(tree: LabeledTree) -> int:
    """Length of the shortest root-to-leaf path (shared subtrees visited
    once)."""
    memo = {}

    def depth(node):
        got = memo.get(id(node))
        if got is None:
            got = 1 + min(depth(c) for c in node.children) if node.children else 0
            memo[id(node)] = got
        return got

    return depth(tree.root)


def dump_tree(tree: LabeledTree) -> str:
    """Indented text form, one node per line: depth, label, edge weight."""
    lines = []

    def walk(node, depth):
        w = "" if node.edge_weight is None else f" w={node.edge_weight}"
        lines.append(f"{'  ' * depth}{depth} label={node.label}{w}")
        for c in node.children:
            walk(c, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines) + "\n"


# -- construction -----------------------------------------------------------------

def build_tree(g: Graph, root: int, t: int, node_cap: int = DEFAULT_NODE_CAP) -> LabeledTree:
    """Balanced level-t tree rooted at `root`: leaves at depth t+1, or
    earlier where the unrolling runs out of neighbors (acyclic regions).  It
    is the generalized tree of the all-edges schedule, built with shared
    subtrees; `node_cap` still bounds the unrolled size."""
    if t < 0:
        raise TreeError("t must be >= 0")
    if not 1 <= root <= g.n:
        raise TreeError(f"vertex {root} out of range")
    branches = _BranchBuilder(g, [frozenset(g.directed_edges())] * t)
    return _rooted(branches, root, t, node_cap, "balanced")


class _BranchBuilder:
    """Memoized construction of schedule-driven computation branches."""

    def __init__(self, g: Graph, sets):
        self.g = g
        self.sets = sets  # sets[k] is the update set of step k+1
        self.memo = {}
        _check_depth(g, sets)

    def node(self, i, j, t):
        # The branch of (i -> j) at time t, as the node labeled i hanging
        # under a parent labeled j.  Steps where (i -> j) was not updated
        # leave the branch unchanged, so skip back to the last update.
        while t > 0 and (i, j) not in self.sets[t - 1]:
            t -= 1
        key = (i, j, t)
        got = self.memo.get(key)
        if got is not None:
            return got
        w = self.g.weight(i, j)
        if t == 0:
            made = TreeNode(i, w, ())
        else:
            kids = tuple(self.node(r, i, t - 1) for r in self.g.neighbors(i) if r != j)
            made = TreeNode(i, w, kids)
        self.memo[key] = made
        return made


def _check_depth(g: Graph, sets):
    """Raise TreeDepthError, before anything is built, when some tree over
    these update sets has more levels than the recursive code can walk."""
    limit = (sys.getrecursionlimit() - _CALLER_FRAMES) // 3
    # levels[(i, j)]: levels of the branch node of (i -> j) after step k;
    # a tree has one more level, its root
    levels = dict.fromkeys(g.directed_edges(), 1)
    for k, updates in enumerate(sets, start=1):
        grown = {(i, j): 1 + max((levels[(r, i)] for r in g.neighbors(i) if r != j), default=0)
                 for (i, j) in updates}
        levels.update(grown)
        if max(grown.values(), default=0) + 1 > limit:
            raise TreeDepthError(
                f"t = {len(sets)} gives trees more than {limit} levels deep (from step "
                f"{k} on), deeper than the recursive tree code can walk under the "
                f"recursion limit {sys.getrecursionlimit()}")


def _schedule_prefix(sched, t):
    sets = sched.prefix(t)
    if len(sets) < t:
        sets = sets + [frozenset()] * (t - len(sets))
    return sets


def build_gct_branch(g: Graph, sched, edge, t: int,
                     node_cap: int = DEFAULT_NODE_CAP) -> LabeledTree:
    """Computation branch of the directed edge (i -> j) at time t: a tree
    rooted at j whose single child is the branch node of i."""
    i, j = edge
    if edge_key(i, j) not in g.weights():
        raise TreeError(f"({i},{j}) is not an edge of the graph")
    if t < 0:
        raise TreeError("t must be >= 0")
    builder = _BranchBuilder(g, _schedule_prefix(sched, t))
    root = TreeNode(j, None, (builder.node(i, j, t),))
    tree = LabeledTree(root, "branch", g, t)
    if tree_size(tree) > node_cap:
        raise TreeSizeError(f"tree exceeds {node_cap} nodes")
    return tree


def build_gct(g: Graph, sched, root: int, t: int,
              node_cap: int = DEFAULT_NODE_CAP) -> LabeledTree:
    """Generalized computation tree at time t: the root's branches are the
    computation branches of all its incoming directed edges."""
    return GCTBuilder(g, sched, t).gct(root, t, node_cap=node_cap)


class GCTBuilder:
    """Builds many generalized trees over one schedule, sharing branch memos
    across roots and times."""

    def __init__(self, g: Graph, sched, t_max: int):
        self.g = g
        self._inner = _BranchBuilder(g, _schedule_prefix(sched, t_max))
        self.t_max = t_max

    def gct(self, root: int, t: int, node_cap: int = DEFAULT_NODE_CAP) -> LabeledTree:
        if not (1 <= root <= self.g.n):
            raise TreeError(f"vertex {root} out of range")
        if not 0 <= t <= self.t_max:
            raise TreeError(f"t must be within 0..{self.t_max}")
        return _rooted(self._inner, root, t, node_cap, "generalized")


def _rooted(branches: _BranchBuilder, root: int, t: int, node_cap: int, kind: str) -> LabeledTree:
    # the root's branches are the computation branches of its incoming edges
    g = branches.g
    kids = tuple(branches.node(r, root, t) for r in g.neighbors(root))
    tree = LabeledTree(TreeNode(root, None, kids), kind, g, t)
    if tree_size(tree) > node_cap:
        raise TreeSizeError(f"tree exceeds {node_cap} nodes")
    return tree


# -- tree dynamic program ------------------------------------------------------------

@dataclass(frozen=True)
class BranchValue:
    w_plus: object
    w_minus: object

    @property
    def n(self):
        return self.w_plus - self.w_minus


@dataclass(frozen=True)
class TreeDPResult:
    root: int
    branches: dict        # root-child label -> BranchValue
    selection: frozenset | None   # chosen root edges; None for branch trees
    selected_labels: tuple | None
    total: object         # optimal matching weight; None for branch trees
    ties: frozenset       # labels whose selection threshold was non-strict


def tree_bmatching_dp(tree: LabeledTree, init=None) -> TreeDPResult:
    """Bottom-up exact optimum over the tree.

    At every internal node the children are ranked by W+ - W-; forcing the
    top edge in keeps the cheapest b-1 child inclusions, forcing it out
    keeps the cheapest b.  A leaf branch contributes W+ = its edge weight
    and W- = 0; when `init` maps (leaf_label, parent_label) to a value, that
    value replaces the leaf edge weight, which reproduces runs started from
    arbitrary initial messages.
    """
    g = tree.graph
    memo = {}
    ties = set()

    def branch(node, parent_label):
        got = memo.get(id(node))
        if got is not None:
            return got
        if not node.children:
            w = node.edge_weight
            if init is not None:
                w = init.get((node.label, parent_label), w)
            val = BranchValue(w, ZERO)
        else:
            a = g.cap(node.label)
            vals = [branch(c, node.label) for c in node.children]
            if len(vals) < a:
                raise DegenerateTreeError(
                    f"node labeled {node.label} has {len(vals)} children but capacity {a}")
            diffs = sorted(v.n for v in vals)
            base = sum((v.w_minus for v in vals), ZERO)
            w_plus = node.edge_weight + base + sum(diffs[:a - 1], ZERO)
            w_minus = base + sum(diffs[:a], ZERO)
            if len(diffs) > a and diffs[a - 1] == diffs[a]:
                ties.add(node.label)
            val = BranchValue(w_plus, w_minus)
        memo[id(node)] = val
        return val

    root = tree.root
    child_vals = [(c.label, branch(c, root.label)) for c in root.children]
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
