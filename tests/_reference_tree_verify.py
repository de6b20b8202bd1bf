"""The reference for `bpmatch.harness.tree_verify`.

The same checks made tree by tree: for every t <= t_max and every root,
the builder's generalized computation tree of that root at t, its tree DP
over one shared memo, in the scale it works out from the weights and init
values, every engine message of the trace scaled afresh, the root's
selection on both sides and the tree's depth against u(t).  Tests
compare `tree_verify` with `tree_verify` here, (rows, ok, first) for
(rows, ok, first).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from bpmatch.ctree import GCTBuilder, _solve, tree_depth
from bpmatch.engine import MessageInit, StopPolicy, _select
from bpmatch.graph import PERFECT, Graph
from bpmatch.schedule import make_schedule, run_async


def tree_verify(g: Graph, t_max: int, schedule_kind=None, schedule_seed=None,
                init: MessageInit | None = None):
    rows = []
    first = None
    init_map = init.build(g) if init is not None and init.kind != "weights" else None
    sched = make_schedule(g, schedule_kind or "sync", seed=schedule_seed)
    builder = GCTBuilder(g, sched, t_max)
    memo = {}
    values = chain(g.weights().values(), init_map.values() if init_map is not None else ())
    scale = lcm(*(v.denominator for v in values))
    run = run_async(g, sched, init, StopPolicy.budget(t_max), PERFECT, keep_trace=True)
    counts = dict.fromkeys(g.directed_edges(), 0)
    u = [0]
    for updates in sched.prefix(t_max):
        for e in updates:
            counts[e] += 1
        u.append(min(counts.values(), default=0))
    for t in range(t_max + 1):
        m = run.trace[t].m
        for root in g.vertices():
            tree = builder.gct(root, t)
            _solve(g, [(c, root) for c in tree.root.children], init_map, scale, memo)
            nbrs = g.neighbors(root)
            want = [memo[c][0] for c in tree.root.children]
            got = [_scaled(m[(r, root)], scale) for r in nbrs]
            msgs_ok = want == got
            chosen = sorted(zip(want, nbrs))[:g.cap(root)]
            sel_ok = (sorted(label for _, label in chosen)
                      == sorted(_select(nbrs, g.cap(root), got, PERFECT)[0]))
            depth_ok = tree_depth(tree) >= u[t]
            ok = msgs_ok and sel_ok and depth_ok
            rows.append({"root": root, "t": t, "messages": msgs_ok,
                         "selection": sel_ok, "depth": depth_ok})
            if not ok and first is None:
                first = rows[-1]
    return rows, first is None, first


def _scaled(v: Fraction, scale: int):
    x, r = divmod(v.numerator * scale, v.denominator)
    return Fraction(v.numerator * scale, v.denominator) if r else x
