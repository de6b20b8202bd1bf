"""Solves at scale through the command line: bipartite graphs of 100 + 100
vertices, each with a planted b-matching cheaper than every other edge.  At
every vertex the b cheapest edges are then planted ones, so the planted
b-matching is the unique optimum in both modes and the estimate from round 0
on.  Tree verification at scale: a 40-vertex cubic graph under a random
schedule.  The generators are seeded and use the standard library only."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from bpmatch import Graph
from bpmatch.cli import main
from bpmatch.harness import tree_verify
import _reference_tree_verify as reference_tree_verify

K = 100          # vertices per side: left 1..K, right K+1..2K
EXTRA = 6        # random edges per left vertex beyond its capacity
CAPS = {"p1": (1,), "pb": (1, 2, 3), "nb": (1, 2), "p6": (1,)}


def planted_instance(kind, seed):
    """(mode, graph file text, planted edges, label of the trivial vertex
    or None).

    Left vertex i draws its capacity b_i from CAPS[kind]; layer r of the
    planted b-matching joins every left vertex with b_i > r to its image
    under the r-th of a few random permutations, drawn again until no left
    vertex meets a partner twice, and a right vertex's capacity is its
    planted degree.  Each left vertex then gets EXTRA + b_i random right
    partners more.  Planted edges weigh 1..1000 and the others 1001..2000;
    "p6" weighs in sixths and "nb" (non-perfect) shifts every weight to
    -2000..-1.  In "pb", one right vertex whose partners all have b_i >= 2
    keeps only its planted edges: its degree is its capacity, so it is
    trivial, and forcing its edges leaves each partner a capacity of 1 or
    more."""
    rng = random.Random(f"scale:{kind}:{seed}")
    b = [rng.choice(CAPS[kind]) for _ in range(K)]
    while True:
        layers = [rng.sample(range(K), K) for _ in range(max(b))]
        planted = {(i, layers[r][i]) for i in range(K) for r in range(b[i])}
        if len(planted) == sum(b):
            break
    pairs = set(planted)
    for i in range(K):
        pairs.update((i, j) for j in rng.sample(range(K), EXTRA + b[i]))
    trivial = None
    if kind == "pb":
        t = next(j for j in range(K) if all(b[i] >= 2 for i, jj in planted if jj == j))
        pairs = {(i, j) for (i, j) in pairs if j != t or (i, j) in planted}
        trivial = K + t + 1
    right = [sum(1 for _, j in planted if j == r) for r in range(K)]
    lines = [f"{2 * K} {len(pairs)}", " ".join(str(c) for c in b + right)]
    for i, j in sorted(pairs):
        lift = 0 if (i, j) in planted else 1000
        if kind == "p6":
            w = Fraction(rng.randint(6, 6000), 6) + lift
        else:
            w = Fraction(rng.randint(1, 1000) + lift)
        if kind == "nb":
            w -= 2001
        lines.append(f"{i + 1} {K + j + 1} {w}")
    mode = "nonperfect" if kind == "nb" else "perfect"
    edges = sorted([i + 1, K + j + 1] for i, j in planted)
    return mode, "\n".join(lines) + "\n", edges, trivial


@pytest.mark.parametrize("kind", sorted(CAPS))
def test_solve_finds_the_planted_b_matching(kind, tmp_path):
    mode, text, planted, trivial = planted_instance(kind, seed=1)
    path = tmp_path / f"{kind}.graph"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", str(path), "--mode", mode, "--stop", "window=20", "--json"])
    report = json.loads(out.getvalue())
    assert code == 0
    assert report["n"] == 2 * K and report["bp"]["converged"]
    assert report["estimate"] == planted
    assert report["matching_ok"]
    forced = [note for note in report["notes"] if "forced edge" in note]
    if trivial is None:
        assert forced == []
    else:
        cap = int(text.splitlines()[1].split()[trivial - 1])
        assert forced == [f"{cap} forced edge(s) from trivial vertices"]


def cubic_graph(n, seed):
    """A cubic graph on n (even) vertices with b = 1: the cycle 1..n plus a
    random perfect matching of chords, drawn again until no chord is a cycle
    edge; weights 1..100."""
    rng = random.Random(f"cubic:{n}:{seed}")
    cycle = {frozenset((i, i % n + 1)) for i in range(1, n + 1)}
    while True:
        order = rng.sample(range(1, n + 1), n)
        chords = {frozenset(order[k:k + 2]) for k in range(0, n, 2)}
        if not chords & cycle:
            break
    edges = [(*pair, rng.randint(1, 100)) for pair in sorted(map(sorted, cycle | chords))]
    return Graph(n, [1] * n, edges)


def test_tree_verify_on_a_cubic_graph_matches_the_reference():
    # 360 one-edge steps: each re-checks the one root whose in-edge it
    # wrote, and every row still equals the per-(root, t) reference's
    g = cubic_graph(40, seed=1)
    t_max = 3 * 2 * g.m
    rows, ok, first = tree_verify(g, t_max, "random", 7)
    assert ok, first
    assert len(rows) == g.n * (t_max + 1)
    assert (rows, ok, first) == reference_tree_verify.tree_verify(g, t_max, "random", 7)
