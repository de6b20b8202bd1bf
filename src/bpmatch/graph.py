"""Weighted capacitated graphs: representation, text format, validation,
and trivial-vertex preprocessing.

Vertices are labeled 1..n.  Every edge is an unordered pair {i, j} with a
weight; every vertex i carries a positive integer capacity b_i.  A matching
here means a subgraph whose degrees are bounded by (non-perfect mode) or
equal to (perfect mode) the capacities.

All weights are exact rationals.  A graph also holds them as ints: `scale`,
the least common denominator of its weights, and `int_weights`, each weight
times it, worked out once, on first use.  Every exact layer reads these, and
one that mixes in other rationals (initial messages, dual values) rescales
them by one integer factor to lcm(g.scale, its own denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType

PERFECT = "perfect"
NONPERFECT = "nonperfect"
MODES = (PERFECT, NONPERFECT)

ZERO = Fraction(0)


class GraphError(Exception):
    pass


class GraphParseError(GraphError):
    def __init__(self, message, line=None, field=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if field is not None:
                loc += f", field {field}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.field = field


class ValidationError(GraphError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def parse_rational(token: str) -> Fraction:
    """The exact rational a file token names, accepting exactly the tokens
    ``Fraction(token)`` accepts and raising what it raises (ValueError or
    ZeroDivisionError).  A plain ASCII integer, the common case, is read by
    ``int``; every other token goes to ``Fraction``."""
    digits = token[1:] if token[:1] in "+-" else token
    if digits.isascii() and digits.isdigit():
        return Fraction(int(token))
    return Fraction(token)


def _exact(w, e) -> Fraction:
    """Weight `w` of edge `e` as a Fraction; a float or bool is refused,
    since its binary expansion or truth value is no exact weight."""
    if isinstance(w, (float, bool)):
        raise GraphError(f"edge {e}: weight {w!r} is a {type(w).__name__}; "
                         "use an int, Fraction, Decimal or rational string")
    return Fraction(w)


def edge_key(i: int, j: int) -> tuple[int, int]:
    """Canonical (small, large) form of an undirected edge; self-loops rejected."""
    if i == j:
        raise GraphError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    message: str


class Graph:
    """Immutable simple undirected graph with edge weights and vertex capacities.

    A graph remembers the modes it has passed `require_valid` in, so a
    second check of the same graph and mode is a set lookup."""

    def __init__(self, n, capacities, edges):
        if n < 0:
            raise GraphError("vertex count must be >= 0")
        capacities = tuple(capacities)
        if len(capacities) != n:
            raise GraphError(f"expected {n} capacities, got {len(capacities)}")
        for i, b in enumerate(capacities, start=1):
            if not isinstance(b, int) or isinstance(b, bool) or b < 1:
                raise GraphError(f"capacity of vertex {i} must be a positive integer, got {b!r}")
        weights = {}
        for i, j, w in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphError(f"edge ({i},{j}) references a vertex outside 1..{n}")
            e = edge_key(i, j)
            if e in weights:
                raise GraphError(f"duplicate edge {e}")
            weights[e] = w if type(w) is Fraction else _exact(w, e)
        self._build(n, capacities, weights)

    @classmethod
    def _checked(cls, n: int, capacities: tuple, weights: dict) -> "Graph":
        """A graph from parts that already passed __init__'s checks: a tuple
        of n positive int capacities and a map from (i, j), 1 <= i < j <= n,
        to a Fraction weight."""
        g = cls.__new__(cls)
        g._build(n, capacities, weights)
        return g

    def _build(self, n, capacities, weights):
        self.n = n
        self._b = capacities
        self._w = weights
        self._valid = set()
        self._edges = tuple(sorted(weights))
        # in the sorted edge order, i's smaller neighbors k come first, from
        # the edges (k, i), each in increasing order: every list comes out
        # sorted, and so do the directed edges read off them
        adj = {i: [] for i in range(1, n + 1)}
        for (i, j) in self._edges:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {i: tuple(nbrs) for i, nbrs in adj.items()}
        self._directed = tuple([(i, j) for i, nbrs in adj.items() for j in nbrs])

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self):
        return range(1, self.n + 1)

    def edges(self) -> tuple:
        return self._edges

    def directed_edges(self) -> tuple:
        return self._directed

    def neighbors(self, i) -> tuple:
        return self._adj[i]

    def degree(self, i) -> int:
        return len(self._adj[i])

    def cap(self, i) -> int:
        return self._b[i - 1]

    def capacities(self) -> tuple:
        return self._b

    def has_edge(self, i, j) -> bool:
        return edge_key(i, j) in self._w

    def weight(self, i, j):
        return self._w[edge_key(i, j)]

    def weights(self) -> dict:
        return dict(self._w)

    @cached_property
    def scale(self) -> int:
        """The least common denominator of the weights (1 with no edge)."""
        return lcm(*{w.denominator for w in self._w.values()})

    @cached_property
    def int_weights(self):
        """Each weight times `scale`, an exact int, keyed (i, j), i < j, in
        edge order; a read-only map."""
        return MappingProxyType({e: w.numerator * (self.scale // w.denominator)
                                 for e, w in sorted(self._w.items())})

    def total_weight(self, edges) -> Fraction:
        """The exact weight of `edges`, keys (i, j) with i < j: their int
        weights summed over `scale`."""
        return Fraction(sum(map(self.int_weights.__getitem__, edges)), self.scale)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._b == other._b and self._w == other._w

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- text format ----------------------------------------------------------

def _int(tok, lineno, fieldno, what):
    try:
        return int(tok)
    except ValueError:
        raise GraphParseError(f"expected integer {what}, got {tok!r}", lineno, fieldno) from None


def text_rows(text: str) -> list:
    """(line number, tokens) for each line of `text` that still holds a
    token once everything after '#' is dropped: the comment rule of graph,
    init and dual files.  Line numbers count from 1 over every line, so an
    error can name the line it is on."""
    return [(lineno, tokens) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (tokens := raw.partition("#")[0].split())]


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    Line 1: "n m".  Line 2: n capacities (omitted when n = 0).  Then m lines
    "i j w" with 1-based vertex ids; w is any token ``Fraction`` reads (an
    integer, a decimal or a "p/q" rational), read by ``parse_rational``.
    Lines are read by ``text_rows``: anything after '#' is a comment, and
    lines with no token are skipped.

    Each fact is checked once, here, where the error can name its line and
    field; the graph is built from the checked parts without checking them
    again.
    """
    rows = text_rows(text)
    if not rows:
        raise GraphParseError("empty graph file")

    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphParseError("header must be 'n m'", lineno)
    n = _int(header[0], lineno, 1, "vertex count")
    m = _int(header[1], lineno, 2, "edge count")
    if n < 0 or m < 0:
        raise GraphParseError("n and m must be non-negative", lineno)

    cursor = 1
    caps = ()
    if n > 0:
        if len(rows) < 2:
            raise GraphParseError("missing capacity line", lineno)
        lineno, tokens = rows[1]
        if len(tokens) != n:
            raise GraphParseError(f"capacity line has {len(tokens)} entries, expected {n}", lineno)
        try:
            caps = tuple(map(int, tokens))
        except ValueError:
            caps = None
        if caps is None or min(caps) < 1:
            # find the first bad field, reading them in order
            for k, tok in enumerate(tokens, start=1):
                b = _int(tok, lineno, k, "capacity")
                if b < 1:
                    raise GraphParseError(f"capacity must be positive, got {b}", lineno, k)
        cursor = 2

    edge_rows = rows[cursor:]
    if len(edge_rows) != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(edge_rows)}",
                              edge_rows[m][0] if len(edge_rows) > m else None)
    weights = {}
    for lineno, tokens in edge_rows:
        if len(tokens) != 3:
            raise GraphParseError("edge line must be 'i j w'", lineno)
        si, sj, sw = tokens
        try:
            i = int(si)
            j = int(sj)
        except ValueError:
            # one of the two raises, naming its field
            _int(si, lineno, 1, "vertex id")
            _int(sj, lineno, 2, "vertex id")
        if not (0 < i <= n and 0 < j <= n):
            raise GraphParseError(f"vertex id out of range 1..{n}", lineno)
        if i == j:
            raise GraphParseError(f"self-loop at vertex {i}", lineno)
        e = (i, j) if i < j else (j, i)
        if e in weights:
            raise GraphParseError(f"duplicate edge {e}", lineno)
        try:
            weights[e] = parse_rational(sw)
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(f"bad weight {sw!r}", lineno, 3) from None
    return Graph._checked(n, caps, weights)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    if g.n > 0:
        lines.append(" ".join(str(b) for b in g.capacities()))
    for (i, j) in g.edges():
        lines.append(f"{i} {j} {g.weight(i, j)}")
    return "\n".join(lines) + "\n"


# -- validation -----------------------------------------------------------

def validate(g: Graph, mode: str) -> list[Violation]:
    """Check mode-dependent invariants; returns violations instead of raising."""
    if mode not in MODES:
        raise GraphError(f"unknown mode {mode!r}")
    out = []
    for i, b in enumerate(g.capacities(), start=1):
        if b > g.degree(i):
            out.append(Violation("capacity_exceeds_degree", (i,),
                                 f"vertex {i}: capacity {b} exceeds degree {g.degree(i)}"))
    if mode == NONPERFECT:
        for e in g.edges():
            if g._w[e].numerator > 0:  # a Fraction has the sign of its numerator
                out.append(Violation("positive_weight", e,
                                     f"edge {e}: positive weight {g._w[e]} in non-perfect mode"))
    return out


def require_valid(g: Graph, mode: str) -> None:
    """Raise ValidationError unless `g` is valid in `mode`; the graph keeps
    a pass, so it is checked once per mode."""
    if mode in g._valid:
        return
    violations = validate(g, mode)
    if violations:
        raise ValidationError(violations)
    g._valid.add(mode)


# -- matchings ------------------------------------------------------------

@dataclass(frozen=True)
class Matching:
    edges: frozenset
    mode: str
    weight: object

    @classmethod
    def from_edges(cls, g: Graph, edges, mode: str) -> "Matching":
        keys = frozenset(edge_key(i, j) for (i, j) in edges)
        for e in keys:
            if not g.has_edge(*e):
                raise GraphError(f"matching edge {e} not in graph")
        return cls(keys, mode, g.total_weight(keys))

    def degree_violations(self, g: Graph) -> list[str]:
        deg = {i: 0 for i in g.vertices()}
        for (i, j) in self.edges:
            deg[i] += 1
            deg[j] += 1
        out = []
        for i in g.vertices():
            if self.mode == PERFECT and deg[i] != g.cap(i):
                out.append(f"vertex {i}: degree {deg[i]} != capacity {g.cap(i)}")
            elif self.mode == NONPERFECT and deg[i] > g.cap(i):
                out.append(f"vertex {i}: degree {deg[i]} > capacity {g.cap(i)}")
        return out

    def is_valid(self, g: Graph) -> bool:
        return not self.degree_violations(g)


# -- trivial-vertex reduction ----------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """Result of removing trivial vertices (degree equal to capacity).

    ``graph`` is relabeled 1..n'; ``vertex_map`` maps reduced labels back to
    original ones; ``forced`` holds original-label edges that belong to every
    perfect matching.  When ``infeasible`` is set the reduced graph is empty
    and only the flag is meaningful.
    """
    graph: Graph
    forced: frozenset
    vertex_map: dict
    infeasible: bool
    original_n: int

    @classmethod
    def identity(cls, g: Graph) -> "Reduction":
        """The reduction that forces and removes nothing: `g` as it is."""
        return cls(g, frozenset(), {i: i for i in g.vertices()}, False, g.n)

    @property
    def is_identity(self) -> bool:
        return not self.forced and not self.infeasible and self.graph.n == self.original_n

    def to_original(self, reduced_edges) -> frozenset:
        """Map an edge set of the reduced graph back and re-insert forced edges."""
        mapped = {edge_key(self.vertex_map[i], self.vertex_map[j]) for (i, j) in reduced_edges}
        return frozenset(mapped | set(self.forced))

    def to_reduced(self, mapping) -> dict:
        """Map a dict keyed by original-label directed edges onto the reduced
        labels, dropping the edges of removed vertices."""
        inverse = {orig: red for red, orig in self.vertex_map.items()}
        return {(inverse[i], inverse[j]): v for (i, j), v in mapping.items()
                if i in inverse and j in inverse}


def reduce_trivial(g: Graph) -> Reduction:
    """Iteratively remove trivial vertices until none remain.

    Forcing an edge consumes one unit of the neighbor's capacity, so
    neighbors are decremented and the cascade repeats: vertices whose
    capacity reaches zero are deleted along with their remaining edges.
    Any vertex ending with fewer edges than capacity proves the perfect
    matching infeasible.  When nothing is forced or removed, the
    reduction's graph is `g` itself.
    """
    alive = set(g.vertices())
    b = {i: g.cap(i) for i in alive}
    adj = {i: set(g.neighbors(i)) for i in alive}
    forced = set()
    infeasible = False

    def drop(v):
        for u in adj[v]:
            adj[u].discard(v)
        adj.pop(v)
        alive.discard(v)

    # each forced edge takes one unit from a neighbor whose capacity is at
    # least 1 (vertices at 0 are dropped first), so none goes negative
    while True:
        exhausted = sorted(i for i in alive if b[i] == 0)
        if exhausted:
            for v in exhausted:
                if v in alive:
                    drop(v)
            continue
        if any(len(adj[i]) < b[i] for i in alive):
            infeasible = True
            break
        trivial = [i for i in sorted(alive) if len(adj[i]) == b[i]]
        if not trivial:
            break
        v = trivial[0]
        for u in sorted(adj[v]):
            forced.add(edge_key(v, u))
            b[u] -= 1
        drop(v)

    if infeasible:
        return Reduction(Graph(0, (), ()), frozenset(forced), {}, True, g.n)
    if not forced:
        # a vertex is removed only once forcing used up its capacity, so
        # nothing was removed: the graph is its own reduction
        return Reduction.identity(g)

    remaining = sorted(alive)
    relabel = {orig: k for k, orig in enumerate(remaining, start=1)}
    vertex_map = {k: orig for orig, k in relabel.items()}
    edges = []
    for (i, j) in g.edges():
        if i in alive and j in alive:
            edges.append((relabel[i], relabel[j], g.weight(i, j)))
    reduced = Graph(len(remaining), [b[v] for v in remaining], edges)
    return Reduction(reduced, frozenset(forced), vertex_map, False, g.n)
