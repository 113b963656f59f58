"""Finite simplicial graphs and the graph decision procedures.

A simplicial graph is a finite undirected graph with no loops and no
multiple edges. Vertex labels are opaque strings; the declaration order
of the vertices is significant and is the ordering used everywhere a
deterministic traversal is needed (serialization, search, sampling).

Two search problems live here, both solved exactly with an explicit node
budget: strict graph homomorphism (adjacent vertices must map to
distinct adjacent vertices) and induced subgraph isomorphism (edges and
non-edges both preserved). Both run one depth-first search with forward
checking (Haralick and Elliott, 1980) over int bitmask candidate
domains, built from each graph's cached ``adjacency_masks()``: an
assignment cuts every later position's domain to what stays consistent
with it, and a branch ends as soon as a domain is empty. One budget node
is one attempted assignment. Variables go in declaration order and
values lowest index first, so results are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "GraphError",
    "SearchBudgetExceeded",
    "SimplicialGraph",
    "VertexSubset",
    "VertexMap",
    "validate_graph",
    "induced_subgraph",
    "is_full_subgraph",
    "verify_graph_homomorphism",
    "find_graph_homomorphism",
    "verify_induced_subgraph_isomorphism",
    "find_induced_subgraph_isomorphism",
    "random_graph",
    "triangle_vertices",
    "format_graph",
    "read_graph_text",
    "parse_graph",
    "format_map_lines",
    "parse_map_lines",
    "format_vertex_map",
    "parse_vertex_map",
]


class GraphError(ValueError):
    """Raised when graph data violates the simplicial-graph invariants."""


class SearchBudgetExceeded(RuntimeError):
    """Raised when a backtracking search runs out of its node budget.

    Distinct from returning ``None``: ``None`` means the search space was
    exhausted and no solution exists.
    """


def _label_problem(label: str) -> str | None:
    if not isinstance(label, str) or not label:
        return "empty or non-string label"
    if any(ch.isspace() for ch in label):
        return "whitespace in label"
    if "#" in label or "^" in label:
        return "forbidden character in label ('#' and '^' are reserved)"
    return None


def validate_graph(vertices: Iterable[str], edges: Iterable[Iterable[str]]) -> list[str]:
    """Check raw graph data against the simplicial-graph invariants.

    Returns a list of human-readable violations; an empty list means the
    data describes a valid simplicial graph. Violations checked: bad
    labels, duplicate vertices, loops, dangling edge endpoints, duplicate
    edges, malformed edge pairs.
    """
    violations = []
    vertices = list(vertices)
    seen = set()
    for v in vertices:
        problem = _label_problem(v)
        if problem is not None:
            violations.append(f"vertex {v!r}: {problem}")
            continue
        if v in seen:
            violations.append(f"duplicate vertex {v!r}")
        seen.add(v)
    edge_set = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            violations.append(f"edge {pair!r} does not have exactly two endpoints")
            continue
        u, v = pair
        if u == v:
            violations.append(f"loop edge at {u!r}")
            continue
        dangling = [w for w in pair if w not in seen]
        if dangling:
            violations.append(f"edge {pair!r} has undeclared endpoint {dangling[0]!r}")
            continue
        key = frozenset(pair)
        if key in edge_set:
            violations.append(f"duplicate edge {tuple(sorted(pair))!r}")
        edge_set.add(key)
    return violations


class SimplicialGraph:
    """Immutable finite simplicial graph.

    ``vertices`` is an ordered tuple of distinct labels; ``edges`` is a
    frozenset of two-element frozensets. Instances are validated on
    construction and never mutated afterwards, so they are safe to share
    across threads.
    """

    __slots__ = ("vertices", "edges", "adjacency", "_index", "_nbar_cache", "_mask_cache")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]] = ()):
        vertices = tuple(vertices)
        edges = [tuple(e) for e in edges]
        violations = validate_graph(vertices, edges)
        if violations:
            raise GraphError("; ".join(violations))
        self.vertices: tuple[str, ...] = vertices
        self.edges: frozenset[frozenset[str]] = frozenset(frozenset(e) for e in edges)
        self._index: dict[str, int] = {v: i for i, v in enumerate(vertices)}
        adj: dict[str, set[str]] = {v: set() for v in vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency: dict[str, frozenset[str]] = {v: frozenset(s) for v, s in adj.items()}
        self._nbar_cache: tuple[tuple[int, ...], ...] | None = None
        self._mask_cache: tuple[int, ...] | None = None

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency.get(u, ())

    def index_of(self, v: str) -> int:
        return self._index[v]

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as ordered pairs, sorted by vertex declaration order."""
        idx = self._index
        pairs = []
        for e in self.edges:
            u, v = sorted(e, key=idx.__getitem__)
            pairs.append((u, v))
        pairs.sort(key=lambda p: (idx[p[0]], idx[p[1]]))
        return pairs

    def nonneighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuples of indices of distinct non-adjacent vertices."""
        if self._nbar_cache is None:
            n = len(self.vertices)
            out = []
            for i, v in enumerate(self.vertices):
                adj = self.adjacency[v]
                out.append(tuple(j for j in range(n) if j != i and self.vertices[j] not in adj))
            self._nbar_cache = tuple(out)
        return self._nbar_cache

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour sets as int bitmasks: bit ``j`` of entry
        ``i`` is set iff vertices ``i`` and ``j`` are adjacent (indices in
        declaration order). Built on first use and cached."""
        if self._mask_cache is None:
            bit = {v: 1 << i for i, v in enumerate(self.vertices)}.__getitem__
            self._mask_cache = tuple(sum(map(bit, self.adjacency[v])) for v in self.vertices)
        return self._mask_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SimplicialGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class VertexSubset:
    """A subset of the vertices of a fixed parent graph."""

    parent: SimplicialGraph
    members: frozenset[str]

    def __init__(self, parent: SimplicialGraph, members: Iterable[str]):
        members = frozenset(members)
        missing = [v for v in members if not parent.has_vertex(v)]
        if missing:
            raise GraphError(f"subset member {missing[0]!r} is not a vertex of the parent graph")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)

    def ordered(self) -> tuple[str, ...]:
        """Members in the parent graph's declaration order."""
        return tuple(v for v in self.parent.vertices if v in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VertexMap:
    """A total assignment of source vertices to target vertices.

    Edge preservation is deliberately not an invariant; it is what the
    verification operations decide.
    """

    source: SimplicialGraph
    target: SimplicialGraph
    assignment: Mapping[str, str]

    def __init__(self, source: SimplicialGraph, target: SimplicialGraph,
                 assignment: Mapping[str, str]):
        assignment = dict(assignment)
        for v in source.vertices:
            if v not in assignment:
                raise GraphError(f"assignment missing source vertex {v!r}")
        for v, img in assignment.items():
            if not source.has_vertex(v):
                raise GraphError(f"assignment key {v!r} is not a source vertex")
            if not target.has_vertex(img):
                raise GraphError(f"image {img!r} of {v!r} is not a target vertex")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    def __call__(self, v: str) -> str:
        return self.assignment[v]

    def compose(self, outer: "VertexMap") -> "VertexMap":
        """Return the map v -> outer(self(v)) from self.source to outer.target."""
        return VertexMap(self.source, outer.target,
                         {v: outer.assignment[self.assignment[v]] for v in self.source.vertices})


def _subset_members(g: SimplicialGraph, s) -> frozenset[str]:
    if isinstance(s, VertexSubset):
        if s.parent != g:
            raise GraphError("subset belongs to a different parent graph")
        return s.members
    members = frozenset(s)
    missing = [v for v in members if not g.has_vertex(v)]
    if missing:
        raise GraphError(f"subset member {missing[0]!r} is not a vertex of the graph")
    return members


def induced_subgraph(g: SimplicialGraph, s) -> SimplicialGraph:
    """The full subgraph of ``g`` on the vertex subset ``s``.

    Keeps exactly the edges of ``g`` with both endpoints in ``s``, in the
    declaration order inherited from ``g``.
    """
    members = _subset_members(g, s)
    vertices = tuple(v for v in g.vertices if v in members)
    edges = [(u, v) for u, v in g.edge_list() if u in members and v in members]
    return SimplicialGraph(vertices, edges)


def is_full_subgraph(g: SimplicialGraph, sub: SimplicialGraph) -> bool:
    """True iff ``sub`` contains every edge of ``g`` between its vertices.

    Full subgraphs (also called induced or spanning) are exactly the
    subgraphs whose vertex sets generate special subgroups of the
    associated right-angled Artin group.
    """
    for v in sub.vertices:
        if not g.has_vertex(v):
            raise GraphError(f"{v!r} is not a vertex of the ambient graph")
    for e in sub.edges:
        if e not in g.edges:
            u, v = tuple(e)
            raise GraphError(f"edge ({u!r}, {v!r}) is not an edge of the ambient graph")
    members = set(sub.vertices)
    for u, v in g.edge_list():
        if u in members and v in members and not sub.has_edge(u, v):
            return False
    return True


def verify_graph_homomorphism(f: VertexMap) -> bool:
    """Strict edge check: every source edge maps to a target edge.

    Since the target is simplicial this forces adjacent vertices to map
    to distinct vertices. Runs in time proportional to the number of
    source edges.
    """
    assignment = f.assignment
    target = f.target
    for u, v in f.source.edge_list():
        if not target.has_edge(assignment[u], assignment[v]):
            return False
    return True


def _forward_check(relation: list[list[int]], domain: int, on: Sequence[int],
                   off: Sequence[int], budget: int, problem: str) -> list[int] | None:
    """Depth-first search with forward checking over int bitmask domains.

    Positions are assigned in order 0, 1, ...; every position's domain
    starts as ``domain``. Assigning candidate ``c`` (a bit index) to
    position ``i`` intersects the domain of each later position ``j``
    with ``on[c]`` when ``relation[i][j - i - 1]`` is set and with
    ``off[c]`` when it is not, and the branch is pruned as soon as one
    of those domains is empty. Candidates are taken straight from the
    domain, lowest bit first, so they never need re-checking against
    earlier positions. One budget node is one attempted assignment;
    exceeding ``budget`` raises SearchBudgetExceeded. Returns the
    candidate of each position, or ``None`` once the space is exhausted.
    """
    n = len(relation)
    assigned = [0] * n
    nodes = 0

    def extend(i: int, domains: list[int]) -> bool:
        nonlocal nodes
        if i == n:
            return True
        rest = domains[1:]
        row = relation[i]
        dom = domains[0]
        while dom:
            low = dom & -dom
            dom ^= low
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"{problem} search exceeded {budget} nodes")
            c = low.bit_length() - 1
            yes, no = on[c], off[c]
            child = [d & (yes if r else no) for d, r in zip(rest, row)]
            if all(child):
                assigned[i] = c
                if extend(i + 1, child):
                    return True
        return False

    return assigned if extend(0, [domain] * n) else None


def find_graph_homomorphism(source: SimplicialGraph, target: SimplicialGraph,
                            budget: int = 1_000_000) -> VertexMap | None:
    """Exhaustive search for a strict graph homomorphism, by forward checking.

    Source vertices are assigned in declaration order, target vertices
    tried lowest index first. Each source vertex keeps a bitmask domain
    of the target vertices still open to it; assigning ``c`` cuts the
    domain of every later source neighbour down to the neighbours of
    ``c``, and a branch ends as soon as a domain is empty. ``budget``
    caps the number of attempted assignments (search-tree nodes);
    exceeding it raises SearchBudgetExceeded, which is a distinct outcome
    from the exhaustive ``None``.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n = len(source.vertices)
    smask = source.adjacency_masks()
    relation = [[smask[i] >> j & 1 for j in range(i + 1, n)] for i in range(n)]
    everything = (1 << len(target.vertices)) - 1
    tadj = target.adjacency_masks()
    found = _forward_check(relation, everything, tadj, [everything] * len(tadj),
                           budget, "homomorphism")
    if found is None:
        return None
    tgt = target.vertices
    return VertexMap(source, target, {v: tgt[c] for v, c in zip(source.vertices, found)})


def _check_bijection(g: SimplicialGraph, m1: frozenset[str], m2: frozenset[str],
                     f: Mapping[str, str]) -> None:
    if set(f.keys()) != set(m1):
        raise GraphError("map is not defined on exactly the first subset")
    images = set(f.values())
    if images != set(m2) or len(images) != len(m1):
        raise GraphError("map is not a bijection onto the second subset")


def verify_induced_subgraph_isomorphism(g: SimplicialGraph, s1, s2,
                                        f: Mapping[str, str]) -> bool:
    """Check that a bijection between two vertex subsets preserves both
    edges and non-edges of the ambient graph (the induced condition)."""
    m1 = _subset_members(g, s1)
    m2 = _subset_members(g, s2)
    _check_bijection(g, m1, m2, f)
    ordered = [v for v in g.vertices if v in m1]
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if g.has_edge(u, v) != g.has_edge(f[u], f[v]):
                return False
    return True


def find_induced_subgraph_isomorphism(g: SimplicialGraph, s1, s2,
                                      budget: int = 1_000_000) -> dict[str, str] | None:
    """Exhaustive search for an induced isomorphism s1 -> s2, by forward checking.

    Returns a bijection dict, ``None`` when none exists (in particular
    immediately when the subsets have different sizes), or raises
    SearchBudgetExceeded. Members of s1 are assigned in declaration
    order, members of s2 tried lowest index first. Each member of s1
    keeps a bitmask domain of the s2 members still open to it; assigning
    ``c`` cuts the domain of every later member to the s2 neighbours of
    ``c`` (where the pair is an edge) or to its other non-neighbours
    (where it is not), which also keeps the map injective. ``budget``
    caps the number of attempted assignments, as in
    find_graph_homomorphism.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    m1 = _subset_members(g, s1)
    m2 = _subset_members(g, s2)
    if len(m1) != len(m2):
        return None
    verts = g.vertices
    left = [i for i, v in enumerate(verts) if v in m1]
    right = sum(1 << i for i, v in enumerate(verts) if v in m2)
    adj = g.adjacency_masks()
    relation = [[adj[u] >> w & 1 for w in left[k + 1:]] for k, u in enumerate(left)]
    on = [a & right for a in adj]
    off = [right & ~(a | 1 << c) for c, a in enumerate(adj)]
    found = _forward_check(relation, right, on, off, budget, "induced isomorphism")
    if found is None:
        return None
    return {verts[u]: verts[c] for u, c in zip(left, found)}


def random_graph(n: int, p: float, seed: int) -> SimplicialGraph:
    """Erdos-Renyi style graph on vertices v0..v(n-1), deterministic in seed."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((vertices[i], vertices[j]))
    return SimplicialGraph(vertices, edges)


def triangle_vertices(g: SimplicialGraph) -> tuple[str, str, str] | None:
    """Some triple of mutually adjacent vertices, or None if none exists."""
    verts = g.vertices
    for i, u in enumerate(verts):
        for j in range(i + 1, len(verts)):
            v = verts[j]
            if not g.has_edge(u, v):
                continue
            common = g.adjacency[u] & g.adjacency[v]
            for w in verts[j + 1:]:
                if w in common:
                    return (u, v, w)
    return None


# ---------------------------------------------------------------------------
# text format
#
#   line 1: vertices <label> <label> ...
#   then:   edge <label> <label>       (one per edge)
#   '#' begins a comment line; blank lines ignored; LF line endings.


def format_graph(g: SimplicialGraph) -> str:
    lines = ["vertices " + " ".join(g.vertices) if g.vertices else "vertices"]
    for u, v in g.edge_list():
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def _directives(text: str):
    """(line number, fields) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def read_graph_text(text: str) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """The vertices and edges a graph text declares, unvalidated.

    Raises GraphError where the text format itself is broken (unknown
    directive, malformed or repeated line, no 'vertices' line). Pass the
    result to ``validate_graph`` to collect the invariant violations that
    ``parse_graph`` would raise on.
    """
    vertices: tuple[str, ...] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, fields in _directives(text):
        if fields[0] == "vertices":
            if vertices is not None:
                raise GraphError(f"line {lineno}: repeated 'vertices' line")
            vertices = tuple(fields[1:])
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise GraphError(f"line {lineno}: 'edge' needs exactly two labels")
            edges.append((fields[1], fields[2]))
        else:
            raise GraphError(f"line {lineno}: unknown directive {fields[0]!r}")
    if vertices is None:
        raise GraphError("missing 'vertices' line")
    return vertices, edges


def parse_graph(text: str) -> SimplicialGraph:
    """Parse the graph text format; raises GraphError on any problem."""
    return SimplicialGraph(*read_graph_text(text))


def format_map_lines(assignment: Mapping[str, str], order: Iterable[str]) -> str:
    """One 'map <source> <target>' line per source vertex, in ``order``."""
    return "".join(f"map {v} {assignment[v]}\n" for v in order)


def parse_map_lines(text: str) -> dict[str, str]:
    """Read 'map <source> <target>' lines; raises GraphError on a malformed
    line or a repeated source vertex. Checks nothing against any graph."""
    assignment: dict[str, str] = {}
    for lineno, fields in _directives(text):
        if fields[0] != "map" or len(fields) != 3:
            raise GraphError(f"line {lineno}: expected 'map <source> <target>'")
        if fields[1] in assignment:
            raise GraphError(f"line {lineno}: repeated source vertex {fields[1]!r}")
        assignment[fields[1]] = fields[2]
    return assignment


def format_vertex_map(f: VertexMap) -> str:
    return format_map_lines(f.assignment, f.source.vertices)


def parse_vertex_map(text: str, source: SimplicialGraph, target: SimplicialGraph) -> VertexMap:
    return VertexMap(source, target, parse_map_lines(text))
