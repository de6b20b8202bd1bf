"""Seeded instance generators, independent of the package under test.

Instances are plain data, (n, caps, edges) with edges as (i, j, Fraction),
so a change to the program cannot change them.  Every generator draws from
its own ``random.Random`` built from the benchmark seed and a fixed tag.
"""

from __future__ import annotations

import random
from fractions import Fraction

PERFECT = "perfect"
NONPERFECT = "nonperfect"


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _caps(rng, deg, mode, head):
    """b_i in {1, 2} with b_i <= deg_i - head; perfect mode needs an even
    total.  None when no admissible choice exists."""
    n = len(deg) - 1
    caps = [2 if deg[i] >= 2 + head and rng.random() < 0.2 else 1 for i in range(1, n + 1)]
    if mode == PERFECT and sum(caps) % 2:
        twos = [k for k, b in enumerate(caps) if b == 2]
        ones = [k for k, b in enumerate(caps) if b == 1 and deg[k + 1] >= 2 + head]
        if twos:
            caps[rng.choice(twos)] = 1
        elif ones:
            caps[rng.choice(ones)] = 2
        else:
            return None
    return caps


def small_instance(rng: random.Random, n: int, m: int, mode: str):
    """Random simple graph with n vertices, exactly m edges and b_i in {1, 2}.

    Perfect instances keep every degree strictly above its capacity, so the
    trivial-vertex reduction is the identity and certificates refer to the
    generated graph itself; weights are 1..30.  Non-perfect ones keep
    degree >= capacity and weights in -30..-1."""
    head = 1 if mode == PERFECT else 0
    lo, hi = (1, 30) if mode == PERFECT else (-30, -1)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        chosen = sorted(rng.sample(pairs, m))
        deg = [0] * (n + 1)
        for i, j in chosen:
            deg[i] += 1
            deg[j] += 1
        if min(deg[1:]) < 1 + head:
            continue
        caps = _caps(rng, deg, mode, head)
        if caps is not None:
            return n, caps, [(i, j, Fraction(rng.randint(lo, hi))) for i, j in chosen]


def cubic_instance(rng: random.Random, n: int, hi: int):
    """Random 3-regular simple graph (configuration model, retried until
    simple) for perfect mode: b_i in {1, 2}, weights 1..hi.  Every vertex has
    the same degree, so trees unrolled from it have the same shape."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        chosen = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(chosen) == len(stubs) // 2 and all(a != b for a, b in chosen):
            break
    caps = _caps(rng, [0] + [3] * n, PERFECT, 1)
    return n, caps, [(i, j, Fraction(rng.randint(1, hi))) for i, j in sorted(chosen)]


def bipartite_instance(rng: random.Random, k: int, extra_degree: int, cls: str,
                       offset: int):
    """Bipartite graph with k vertices per side (left 1..k, right k+1..2k).

    A random perfect b-matching is planted first, so perfect instances are
    feasible, then each left vertex gets ``extra_degree + b`` more random
    edges.  Planted edges weigh 1..1000 and the others offset+1..offset+1000
    (non-perfect weights are shifted below zero).  With an offset of at
    least 1000 every planted edge is cheaper than every other edge, so the
    planted b-matching is the unique optimum: message passing converges and
    the stability window, not the weights, sets the number of rounds.

    cls: "p1"  perfect, b = 1, integer weights
         "pb"  perfect, b in {1, 2, 3}, integer weights
         "nb"  non-perfect, b in {1, 2}, negative integer weights
         "pr"  perfect, b = 1, weights in sixths (denominators 2, 3, 6)
    """
    if cls == "pb":
        bl = [rng.choice((1, 2, 3)) for _ in range(k)]
    elif cls == "nb":
        bl = [rng.choice((1, 2)) for _ in range(k)]
    else:
        bl = [1] * k
    br = bl[:]
    rng.shuffle(br)
    # Plant a b-regular pairing: stub lists matched in random order,
    # reshuffled until no pair repeats.
    left_stubs = [i for i in range(k) for _ in range(bl[i])]
    while True:
        right_stubs = [j for j in range(k) for _ in range(br[j])]
        rng.shuffle(right_stubs)
        planted = set(zip(left_stubs, right_stubs))
        if len(planted) == len(left_stubs):
            break
    pairs = set(planted)
    for i in range(k):
        pairs.update((i, j) for j in rng.sample(range(k), min(k, extra_degree + bl[i])))
    edges = []
    for i, j in sorted(pairs):
        lift = 0 if (i, j) in planted else offset
        if cls == "pr":
            w = Fraction(rng.randint(6, 6000), 6) + lift
        else:
            w = Fraction(rng.randint(1, 1000) + lift)
        if cls == "nb":
            w -= offset + 1001
        edges.append((i + 1, k + j + 1, w))
    mode = NONPERFECT if cls == "nb" else PERFECT
    return mode, 2 * k, bl + br, edges


def to_text(n: int, caps, edges) -> str:
    """The package's plain-text graph format."""
    lines = [f"{n} {len(edges)}", " ".join(str(b) for b in caps)]
    lines += [f"{i} {j} {w}" for i, j, w in edges]
    return "\n".join(lines) + "\n"
