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
engine's per-vertex estimates.  The DP computes, as the engine does, on ints
scaled by lcm(g.scale, the initial values' denominators), the graph's
scale widened only as far as the initial values need; only its public
results are Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from math import lcm

from .graph import Graph, GraphError, edge_key

DEFAULT_NODE_CAP = 200_000


class TreeError(GraphError):
    pass


class TreeSizeError(TreeError):
    pass


class DegenerateTreeError(TreeError):
    pass


@dataclass(frozen=True, eq=False)
class TreeNode:
    """A tree node; nodes compare and hash by identity, so a shared subtree is
    one object that can key a memo, and no comparison walks the tree."""
    label: int
    edge_weight: object  # weight of the edge to the parent; None at the root
    children: tuple
    # nodes of the unrolled subtree (shared subtrees counted by multiplicity)
    # and its shortest root-to-leaf path; children always exist first
    size: int = field(init=False, repr=False)
    depth: int = field(init=False, repr=False)

    def __post_init__(self):
        kids = self.children
        object.__setattr__(self, "size", 1 + sum(c.size for c in kids))
        object.__setattr__(self, "depth", 1 + min(c.depth for c in kids) if kids else 0)


@dataclass(frozen=True)
class LabeledTree:
    root: TreeNode
    graph: Graph


def tree_size(tree: LabeledTree) -> int:
    """Nodes of the unrolled tree, shared subtrees counted by multiplicity."""
    return tree.root.size


def tree_depth(tree: LabeledTree) -> int:
    """Length of the shortest root-to-leaf path."""
    return tree.root.depth


def dump_tree(tree: LabeledTree) -> str:
    """Indented text form, one node per line: depth, label, edge weight."""
    lines = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        w = "" if node.edge_weight is None else f" w={node.edge_weight}"
        lines.append(f"{'  ' * depth}{depth} label={node.label}{w}")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines) + "\n"


# -- construction -----------------------------------------------------------------

def build_tree(g: Graph, root: int, t: int) -> LabeledTree:
    """Balanced level-t tree rooted at `root`: leaves at depth t+1, or
    earlier where the unrolling runs out of neighbors (acyclic regions).  It
    is the generalized tree of the all-edges schedule, built with shared
    subtrees; DEFAULT_NODE_CAP still bounds the unrolled size."""
    return GCTBuilder(g, repeat(frozenset(g.directed_edges())), t).gct(root, t)


class GCTBuilder:
    """Schedule-driven computation trees, built forward in time; the one
    tree builder, so many trees over one schedule share their branches.

    `steps` is any iterable of update sets, such as a Schedule; one that
    ends before `t_max` continues with empty steps.  An edge (i -> j)
    updated at step t gets a new branch: a node labeled i over the step t-1
    branches feeding it.  grown[t] maps the edges updated at t to their new
    branches (grown[0]: each edge's single node), and each edge's timeline
    lists its steps there, so the builder holds 2m + sum |E(t)| branches."""

    def __init__(self, g: Graph, steps, t_max: int):
        if t_max < 0:
            raise TreeError("t must be >= 0")
        self.g = g
        self.t_max = t_max
        node = {(i, j): TreeNode(i, g.weight(i, j), ()) for (i, j) in g.directed_edges()}
        self.grown = [node]
        self._times = {e: [0] for e in node}
        cur = dict(node)
        for t, updates in enumerate(islice(chain(steps, repeat(())), t_max), start=1):
            new = {(i, j): TreeNode(i, cur[(i, j)].edge_weight,
                                    tuple(cur[(r, i)] for r in g.neighbors(i) if r != j))
                   for (i, j) in updates}
            cur.update(new)
            for e in new:
                self._times[e].append(t)
            self.grown.append(new)

    def gct(self, root: int, t: int) -> LabeledTree:
        """Generalized computation tree at time t: the root's branches are the
        computation branches of all its incoming directed edges."""
        if not (1 <= root <= self.g.n):
            raise TreeError(f"vertex {root} out of range")
        return self._rooted(root, self.g.neighbors(root), t)

    def branch(self, edge, t: int) -> LabeledTree:
        """Computation branch of the directed edge (i -> j) at time t: a tree
        rooted at j whose single child is the branch node of i."""
        i, j = edge
        if not self.g.has_edge(i, j):
            raise TreeError(f"({i},{j}) is not an edge of the graph")
        return self._rooted(j, (i,), t)

    def _rooted(self, root, sources, t) -> LabeledTree:
        # the root's children: its in-edges' branches from `sources` at t
        if not 0 <= t <= self.t_max:
            raise TreeError(f"t must be within 0..{self.t_max}")
        kids = tuple(self.grown[s[bisect_right(s, t) - 1]][(r, root)]
                     for r in sources for s in (self._times[(r, root)],))
        tree = LabeledTree(TreeNode(root, None, kids), self.g)
        if tree_size(tree) > DEFAULT_NODE_CAP:
            raise TreeSizeError(f"tree exceeds {DEFAULT_NODE_CAP} nodes")
        return tree


# -- tree dynamic program ------------------------------------------------------------

@dataclass(frozen=True)
class BranchValue:
    w_plus: object
    w_minus: object

    @property
    def n(self):
        return self.w_plus - self.w_minus


_NO_TIES = frozenset()


@dataclass(frozen=True)
class TreeDPResult:
    root: int
    branches: dict        # root-child label -> BranchValue
    selection: frozenset | None   # chosen root edges; None for branch trees
    selected_labels: tuple | None
    total: object         # optimal matching weight; None for branch trees
    ties: frozenset       # labels whose selection threshold was non-strict


def _solve(g: Graph, branches, init, scale, memo):
    """Solve in scaled ints every node at or under the (node, parent label)
    pairs `branches` that `memo` lacks.

    memo[node] is (n, w_minus, ties) for the branch hanging at `node`:
    W+ - W- and W-, both times `scale`, and the labels with a non-strict
    selection threshold in its subtree.  `scale` is a common denominator
    of the graph's weights and of the `init` values, the same for every
    call on one memo; an edge value it does not fit raises TreeError.  A
    leaf has n = its edge weight (or init value) and W- = 0.  An internal
    node labeled i with edge weight w includes its b_i cheapest children
    (by n) in W- and b_i - 1 of them in W+, so n = w - (b_i-th smallest
    child n), the engine's update rule.  The DP only adds, subtracts and
    compares, so every value is an exact int."""
    # post-order over distinct unsolved nodes: a node is solved when it is
    # back on top of the stack with all its children solved
    stack = list(branches)[::-1]
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
        w = node.edge_weight
        if not node.children:
            if init is not None:
                w = init.get((node.label, parent_label), w)
            memo[node] = (_up(w, scale), 0, _NO_TIES)
            continue
        a = g.cap(node.label)
        solved = [memo[c] for c in node.children]
        if len(solved) < a:
            raise DegenerateTreeError(
                f"node labeled {node.label} has {len(solved)} children but capacity {a}")
        diffs = sorted(n for n, _, _ in solved)
        ties = _NO_TIES.union(*(t for _, _, t in solved))
        if len(diffs) > a and diffs[a - 1] == diffs[a]:
            ties |= {node.label}
        memo[node] = (_up(w, scale) - diffs[a - 1],
                      sum(m for _, m, _ in solved) + sum(diffs[:a]), ties)


def _up(v, scale) -> int:
    # v times the scale, which only the graph's weights and init values fit
    x, r = divmod(v.numerator * scale, v.denominator)
    if r:
        raise TreeError(f"edge value {v} is neither a graph weight nor an init value")
    return x


def tree_bmatching_dp(tree: LabeledTree, init=None, memo=None) -> TreeDPResult:
    """Bottom-up exact optimum over the tree.

    At every internal node the children are ranked by W+ - W-; forcing the
    top edge in keeps the cheapest b-1 child inclusions, forcing it out
    keeps the cheapest b.  A leaf branch contributes W+ = its edge weight
    and W- = 0; when `init` maps (leaf_label, parent_label) to a value, that
    value replaces the leaf edge weight, which reproduces runs started from
    arbitrary initial messages.

    The DP runs in ints scaled by lcm(g.scale, the `init` values'
    denominators), g.scale being the graph's own, worked out once per
    graph; only the root's BranchValues and the total are Fractions.  `memo` is
    _solve's, each solved branch's scaled values.  A branch's value depends
    only on the node and `init`, so one memo passed to every call over the
    trees of one builder and one `init` solves each shared branch once; by
    default every call starts a fresh memo."""
    g = tree.graph
    if memo is None:
        memo = {}
    root = tree.root
    scale = lcm(g.scale, *{v.denominator for v in (init or {}).values()})
    _solve(g, [(c, root.label) for c in root.children], init, scale, memo)
    kids = [(c.label, memo[c]) for c in root.children]
    branches = {label: BranchValue(Fraction(n + m, scale), Fraction(m, scale))
                for label, (n, m, _) in kids}
    ties = set().union(*(t for _, (_, _, t) in kids))
    b_root = g.cap(root.label)
    selection = selected = total = None
    if len(kids) >= b_root:
        ranked = sorted((n, label) for label, (n, _, _) in kids)
        chosen = ranked[:b_root]
        if 0 < b_root < len(ranked) and ranked[b_root - 1][0] == ranked[b_root][0]:
            ties.add(root.label)
        selected = tuple(sorted(label for _, label in chosen))
        selection = frozenset(edge_key(root.label, label) for label in selected)
        total = Fraction(sum(m for _, (_, m, _) in kids) + sum(n for n, _ in chosen), scale)
    return TreeDPResult(root.label, branches, selection, selected, total, frozenset(ties))
