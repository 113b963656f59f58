"""Finite simplicial graphs and the graph decision procedures.

A simplicial graph is a finite undirected graph with no loops and no
multiple edges. Vertex labels are opaque strings; the declaration order
of the vertices is significant and is the ordering used everywhere a
deterministic traversal is needed (serialization, search, sampling).
Edges are stored as one int bitmask per vertex. Graphs read from outside
are fully validated; graphs the package generates are built from their
masks with a structural check only: one bit-matrix transpose. Pulling a graph
back along a label list (every commitment and map check) takes one C-level
``bytes.translate`` per row up to 256 vertices, through 256-byte tables
memoized by mask value (at most 1024, 0.45 MB) and kept by each graph, which
holds its own (up to 74 KB) after the memo evicts them, and its last pullback;
larger graphs walk the bits.

Two search problems live here, both solved exactly with an explicit node
budget: strict graph homomorphism (adjacent vertices must map to
distinct adjacent vertices) and induced subgraph isomorphism (edges and
non-edges both preserved). Both run one depth-first search with forward
checking (Haralick and Elliott, 1980) over bitmask candidate domains, on
an explicit stack, so its depth is not bounded by Python's recursion
limit. One budget node is one attempted assignment. Each node assigns the
variable with the fewest candidates left (ties to the larger degree,
then declaration order) and tries values lowest index first, so
results are deterministic.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import repeat
from operator import and_, inv

from .words import _label_problem

__all__ = [
    "GraphError",
    "SearchBudgetExceeded",
    "SimplicialGraph",
    "VertexSubset",
    "VertexMap",
    "validate_graph",
    "induced_subgraph",
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
]


class GraphError(ValueError):
    """Raised when graph data violates the simplicial-graph invariants."""


class SearchBudgetExceeded(RuntimeError):
    """Raised when a backtracking search runs out of its node budget.

    Distinct from returning ``None``: ``None`` means the search space was
    exhausted and no solution exists.
    """


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
        if (problem := _label_problem(v)) is not None:
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


@lru_cache(maxsize=256)
def _label_index(vertices: tuple[str, ...]) -> dict[str, int]:
    """Each label's position, once the labels pass the check (else GraphError). Memoized:
    every commitment reuses ``c0``.. or ``g0``..; a failure is never cached, and the
    graphs that share a dict never mutate it."""
    violations = validate_graph(vertices, ())
    if violations:
        raise GraphError("; ".join(violations))
    return {v: i for i, v in enumerate(vertices)}


@lru_cache(maxsize=1024)  # keyed by mask value: a fresh graph's seen rows cost one hit each
def _row_table(mask: int) -> bytes:
    """Byte j is ASCII ``1`` iff bit j of ``mask`` is set: a row's ``bytes.translate`` table."""
    return f"{mask:0256b}"[::-1].encode()


# an array typecode per stride of 16 to 64 bits, where the array's bytes are little-endian
_TYPECODES = {array(c).itemsize * 8: c for c in "HILQ"} if sys.byteorder == "little" else {}


def _transpose_plan(b: int) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """For n-by-n bit matrices with n <= b, a power of two: the stride s = max(8, b) at which
    they are stored row-major (bit ``i * s + j`` is entry (i, j)), the mask of the entries
    that must be 0 (the diagonal, and any column at or above b), and a generator of the (shift,
    mask) of each delta swap that transposes the top-left b-by-b block: swap k exchanges the
    k-by-k blocks above and below the diagonal of each 2k-by-2k block (Warren, Hacker's Delight,
    2nd ed., 7-3). Each mask tiles a pattern by doubling, in O(log s) big-int operations."""
    s = max(8, b)
    def tile(pattern: int, period: int, count: int) -> int:  # count is a power of two
        while count > 1:
            pattern |= pattern << period
            period, count = 2 * period, count >> 1
        return pattern
    def swaps() -> Iterator[tuple[int, int]]:  # each mask built as the transpose reaches it
        for k in (b >> e for e in range(1, b.bit_length())):  # k = b/2, b/4, .., 1
            # entries (i, j) with bit k clear in i and set in j move k rows down, k left
            row = tile(((1 << k) - 1) << k, 2 * k, s // (2 * k))
            yield k * (s - 1), tile(tile(row, s, k), 2 * k * s, s // (2 * k))
    return s, tile(1, s + 1, s) | tile((1 << s) - (1 << b), s, s), swaps()


@lru_cache(maxsize=None)  # one entry per power of two b <= 256, each at most 0.07 MB
def _transpose_masks(b: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    s, zeros, swaps = _transpose_plan(b)  # the plan, its swap masks kept as one tuple
    return s, zeros, tuple(swaps)


class SimplicialGraph:
    """Immutable finite simplicial graph.

    ``vertices`` is an ordered tuple of distinct labels. One int bitmask per
    vertex (``adjacency_masks()``) is the only edge store; ``edges``, ``adjacency``,
    ``nonneighbors()`` and ``edge_list()`` are derived from the masks on first use
    and cached. The constructor runs the full ``validate_graph``; generated graphs
    come from ``_trusted``. Never mutated afterwards, so safe to share.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]] = ()):
        vertices = tuple(vertices)
        edges = [tuple(e) for e in edges]
        violations = validate_graph(vertices, edges)
        if violations:
            raise GraphError("; ".join(violations))
        index = {v: i for i, v in enumerate(vertices)}
        masks = [0] * len(vertices)
        for u, v in edges:
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        self.vertices, self._index, self._masks = vertices, index, tuple(masks)

    @classmethod
    def _trusted(cls, vertices: Iterable[str], masks: Iterable[int]) -> SimplicialGraph:
        """A generated graph, built from its masks without ``validate_graph``'s pass over
        the edges. A cheap structural check stays (else GraphError): labels valid and
        distinct (``_label_index``, run once per distinct label tuple), and on every call
        one mask per vertex, masks symmetric, no loop bit and no bit at or above n.

        The masks are packed row-major at a power-of-two stride s >= 8 (``bytes`` at 8 bits,
        an ``array`` at 16 to 64, ``to_bytes`` above; a negative mask or one of s bits or
        more cannot be packed). With b the power of two at or above n, one AND finds any
        loop or any bit at or above b, and the top-left b-by-b block must equal its
        transpose: as its rows at and above n are empty, so are its columns. Only on a
        failure does a row-by-row scan name the first vertex whose row disagrees with the
        rows before it."""
        vertices, masks = tuple(vertices), tuple(masks)
        n = len(vertices)
        index = _label_index(vertices)
        if len(masks) != n:
            raise GraphError(f"{len(masks)} masks for {n} vertices")
        s, zeros, swaps = (_transpose_masks if n <= 256 else _transpose_plan)(
            1 << (n - 1).bit_length())  # above 256, one swap mask at a time, none kept
        try:  # bytes() packs like a 'B' array, only faster
            packed = int.from_bytes(
                bytes(masks) if s == 8 else array(_TYPECODES[s], masks) if s in _TYPECODES
                else b"".join(map(int.to_bytes, masks, repeat(s >> 3), repeat("little"))),
                "little")
        except (OverflowError, ValueError):  # a negative mask, or one of s bits or more
            packed = zeros  # fails the AND below
        x = packed
        for shift, swap in swaps:
            t = (x ^ x >> shift) & swap
            x ^= t ^ t << shift
        if packed & zeros or x != packed:
            for i, m in enumerate(masks):
                if m >> n or m >> i & 1 or any((masks[j] >> i ^ m >> j) & 1 for j in range(i)):
                    raise GraphError(f"mask of {vertices[i]!r}: asymmetric, a loop or a bit >= {n}")
        graph = cls.__new__(cls)
        graph.vertices, graph._index, graph._masks = vertices, index, masks
        return graph

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and self._masks[i] >> j & 1 == 1

    def index_of(self, v: str) -> int:
        return self._index[v]

    @cached_property
    def _pairs(self) -> tuple[tuple[str, str], ...]:
        vs, n = self.vertices, len(self.vertices)
        return tuple((vs[i], vs[j]) for i, m in enumerate(self._masks)
                     for j in range(i + 1, n) if m >> j & 1)

    @cached_property
    def edges(self) -> frozenset[frozenset[str]]:
        """Edges as two-element frozensets."""
        return frozenset(map(frozenset, self._pairs))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        """Each vertex's neighbours, by label."""
        vs = self.vertices
        return {v: frozenset(u for j, u in enumerate(vs) if m >> j & 1)
                for v, m in zip(vs, self._masks)}

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as ordered pairs, sorted by vertex declaration order; a fresh list per call."""
        return list(self._pairs)

    @cached_property
    def _nbar_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of the distinct non-adjacent vertices."""
        everyone = (1 << len(self.vertices)) - 1
        return tuple(everyone & ~m & ~(1 << i) for i, m in enumerate(self._masks))

    @cached_property
    def _bits(self) -> tuple[int, ...]:
        """Each vertex's own bit, ``1 << i``: the solver reads it rather than allocate it."""
        return tuple(1 << i for i in range(len(self.vertices)))

    @cached_property
    def _letter_codes(self) -> tuple[tuple[tuple[str, int], ...], tuple[bytes, ...], tuple]:
        """The word sampler's tables by letter code, ``2i`` for vertex i and ``2i + 1`` for
        its inverse: each code's letter, each code's row (byte b of row a is 1 iff codes a
        and b commute; (2n)^2 bytes, 1.6 KB at 20 generators, 4 MB at 1,000), and the edges
        as code pairs (in ``edge_list()`` order)."""
        n, index = len(self.vertices), self._index
        letters = tuple(l for v in self.vertices for l in ((v, 1), (v, -1)))
        rows = [bytes(m >> (b >> 1) & 1 for b in range(2 * n)) for m in self._masks]
        edges = tuple((2 * index[u], 2 * index[v]) for u, v in self._pairs)
        return letters, tuple(rows[c >> 1] for c in range(2 * n)), edges

    @cached_property
    def _nbar(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.vertices)
        return tuple(tuple(j for j in range(n) if m >> j & 1) for m in self._nbar_masks)

    def nonneighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuples of indices of distinct non-adjacent vertices."""
        return self._nbar

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour sets as int bitmasks: bit ``j`` of entry
        ``i`` is set iff vertices ``i`` and ``j`` are adjacent (indices in
        declaration order)."""
        return self._masks

    _row_tables = None  # then () after the first pullback, then every row's table
    _pulled = (b"", ())  # the last pullback up to 256 vertices: its index bytes and masks

    def _induced_masks(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Masks on positions 0..k-1, ``i`` and ``j`` adjacent iff ``labels[i]`` and
        ``labels[j]`` are; labels may repeat (a label is never adjacent to itself). Up to
        256 vertices a row is ``int(.., 2)`` of the reversed index bytes translated through
        row a's table (from the memo on a graph's first pullback, from ``_row_tables``
        later), and the same index bytes as the last pullback's (a verifier repeating a
        commitment's) return its masks; above that an index does not fit a byte, and rows
        walk the bits."""
        masks, index = self._masks, self._index
        if len(masks) <= 256:
            idx, rows, last = bytes(map(index.__getitem__, labels)), self._row_tables, self._pulled
            if idx == last[0]:
                return last[1]
            key = idx[::-1]  # position k-1 first: it is the row's top bit
            if rows is None:  # a one-shot graph pays only for the rows its labels reach
                self._row_tables = ()
                pulled = tuple([int(key.translate(_row_table(masks[a])), 2) for a in idx])
            else:
                if not rows:
                    rows = self._row_tables = tuple(map(_row_table, masks))
                pulled = tuple([int(key.translate(rows[a]), 2) for a in idx])
            self._pulled = idx, pulled
            return pulled
        idx = [index[v] for v in labels]
        at = [0] * len(masks)  # the positions holding each vertex
        present = 0
        for j, b in enumerate(idx):
            at[b] |= 1 << j
            present |= 1 << b
        rows = []
        for a in idx:
            rest, row = masks[a] & present, 0
            while rest:
                low = rest & -rest
                row |= at[low.bit_length() - 1]
                rest ^= low
            rows.append(row)
        return tuple(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.vertices, self._masks))

    def __repr__(self) -> str:
        return f"SimplicialGraph({len(self.vertices)} vertices, {len(self._pairs)} edges)"


def _keep_edges(candidates: Sequence[int], p: float, rng: random.Random) -> list[int]:
    """Masks keeping each candidate edge ``{i, j}``, ``i < j`` (bit ``j`` of ``candidates[i]``),
    with probability ``p`` in [0, 1] (the one check of an edge probability, else ValueError):
    one ``rng.random()`` per candidate, in row-major order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    n = len(candidates)
    masks = [0] * n
    for i, row in enumerate(candidates):
        for j in range(i + 1, n):
            if row >> j & 1 and rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


class Record:
    """A frozen record declared by its ``__slots__``: built from its fields by position, then by
    keyword, each once; eq, hash, repr and copy follow them. A validating record calls ``_set``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # a full positional call skips the binding
            named = {**dict(zip(fields, args)), **kwargs}
            if len(args) + len(kwargs) != len(named) or named.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__}() takes each of "
                                f"{', '.join(fields)} exactly once")
            args = [named[name] for name in fields]
        self._set(*args)

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class VertexSubset(Record):
    """A subset of the vertices of a fixed parent graph."""

    __slots__ = ("parent", "members", "__dict__")  # the dict holds the cached ``ordered()``

    def __init__(self, parent: SimplicialGraph, members: Iterable[str]):
        self._set(parent, _subset_members(parent, members))

    @cached_property
    def _ordered(self) -> tuple[str, ...]:
        return tuple(v for v in self.parent.vertices if v in self.members)

    def ordered(self) -> tuple[str, ...]:
        """Members in the parent graph's declaration order, computed once per subset."""
        return self._ordered

    def __len__(self) -> int:
        return len(self.members)


class VertexMap(Record):
    """A total assignment of source vertices to target vertices.

    Edge preservation is deliberately not an invariant; it is what the
    verification operations decide.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: SimplicialGraph, target: SimplicialGraph,
                 assignment: Mapping[str, str]):
        assignment = dict(assignment)
        if not (assignment.keys() == source._index.keys()
                and target._index.keys() >= set(assignment.values())):
            for v in source.vertices:
                if v not in assignment:
                    raise GraphError(f"assignment missing source vertex {v!r}")
            for v, img in assignment.items():
                if not source.has_vertex(v):
                    raise GraphError(f"assignment key {v!r} is not a source vertex")
                if not target.has_vertex(img):
                    raise GraphError(f"image {img!r} of {v!r} is not a target vertex")
        object.__setattr__(self, "source", source)  # not ``_set``: auth builds a map per round
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    def __call__(self, v: str) -> str:
        return self.assignment[v]

    def compose(self, outer: "VertexMap") -> "VertexMap":
        """Return the map v -> outer(self(v)) from self.source to outer.target."""
        return VertexMap(self.source, outer.target,
                         {v: outer.assignment[self.assignment[v]] for v in self.source.vertices})


def _subset_members(g: SimplicialGraph, s) -> frozenset[str]:
    """The members of ``s``, a VertexSubset of ``g`` or labels of vertices of ``g`` other than
    a bare string (else GraphError, naming the first stranger in the order given)."""
    if isinstance(s, VertexSubset):
        if s.parent != g:
            raise GraphError("subset belongs to a different parent graph")
        return s.members
    if isinstance(s, str):
        raise GraphError(f"subset {s!r} is a string, not a collection of vertex labels")
    if iter(s) is s:
        s = tuple(s)  # an iterator is read once
    members = frozenset(s)
    if not g._index.keys() >= members:
        stranger = next(v for v in s if v not in g._index)
        raise GraphError(f"subset member {stranger!r} is not a vertex of the parent graph")
    return members


def induced_subgraph(g: SimplicialGraph, s) -> SimplicialGraph:
    """The full subgraph of ``g`` on the vertex subset ``s``.

    Keeps exactly the edges of ``g`` with both endpoints in ``s``, in the
    declaration order inherited from ``g``.
    """
    members = _subset_members(g, s)
    vertices = tuple(v for v in g.vertices if v in members)
    return SimplicialGraph._trusted(vertices, g._induced_masks(vertices))


def verify_graph_homomorphism(f: VertexMap) -> bool:
    """Strict edge check: every source edge maps to a target edge.

    Since the target is simplicial this forces adjacent vertices to map
    to distinct vertices. Each source mask must lie inside the target's
    masks pulled back along the map.
    """
    pulled = f.target._induced_masks(map(f.assignment.__getitem__, f.source.vertices))
    return not any(map(and_, f.source.adjacency_masks(), map(inv, pulled)))


def _forward_check(masks: Sequence[int] | Mapping[int, int], domains: Mapping[int, int],
                   on: Sequence[int] | Mapping[int, int], off: Sequence[int] | Mapping[int, int],
                   budget: int, problem: str) -> tuple[list[int] | None, int]:
    """Depth-first search with forward checking over int bitmask domains,
    run on an explicit stack of frames, one per assigned position.

    The positions are the keys of ``domains``, in increasing order, and
    position ``i``'s domain starts as ``domains[i]``. Bit ``j`` of
    ``masks[i]`` relates positions ``i`` and ``j``, so positions may be
    any ints, such as the ambient indices of a subset's members. Each node
    assigns the free position with the fewest candidates left, ties to
    the larger degree in ``masks``, then to the lower position. Assigning
    candidate ``c`` (a bit index) to position ``i`` intersects the domain
    of each free position ``j`` with ``on[c]`` when bit ``j`` of
    ``masks[i]`` is set and with ``off[c]`` when it is not, and prunes the
    branch as soon as one is empty. Candidates come straight from the
    domain, lowest bit first, so they never need re-checking against
    assigned positions. No table is kept across nodes: each candidate's
    child domains are read straight off ``masks[i]``, the chosen
    position's mask. Each node copies the free-position list once (the
    parent's frame keeps its own) and deletes its position from that copy
    and from its child-domain list, which that node alone owns. One budget
    node is one attempted assignment; exceeding ``budget`` raises
    SearchBudgetExceeded. Returns a list holding each position's candidate
    at its index, or ``None`` once the space is exhausted, and the number
    of nodes used.
    """
    assigned = [0] * (max(domains, default=-1) + 1)
    nodes = 0
    stack = []  # (free positions left, their domains, position, its mask, untried candidates)
    # free positions stay sorted by degree, so the first smallest domain wins ties
    free = sorted(domains, key=lambda i: -masks[i].bit_count())
    child = [domains[i] for i in free]
    while free:
        sizes = list(map(int.bit_count, child))
        k = sizes.index(min(sizes))
        i, dom = free[k], child[k]
        free = free.copy()  # the parent's frame keeps its own; ``child`` is this node's
        del free[k], child[k]
        rest = child
        m = masks[i]
        while True:
            while not dom:  # backtrack to the newest frame with a candidate left
                if not stack:
                    return None, nodes
                free, rest, i, m, dom = stack.pop()
            low = dom & -dom
            dom ^= low
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"{problem} search exceeded {budget} nodes")
            c = low.bit_length() - 1
            yes, no = on[c], off[c]
            child = [d & (yes if m >> j & 1 else no) for d, j in zip(rest, free)]
            if all(child):
                assigned[i] = c
                stack.append((free, rest, i, m, dom))
                break
    return assigned, nodes


def find_graph_homomorphism(source: SimplicialGraph, target: SimplicialGraph,
                            budget: int = 1_000_000) -> VertexMap | None:
    """Exhaustive search for a strict graph homomorphism, by forward checking.

    Each source vertex keeps a bitmask domain of the target vertices
    still open to it. Each node assigns the one with the smallest domain
    (ties to the larger degree, then declaration order), trying target
    vertices lowest index first; assigning ``c`` cuts the domain of every
    unassigned source neighbour down to the neighbours of ``c``, and a
    branch ends as soon as a domain is empty. ``budget`` caps the number
    of attempted assignments (search-tree nodes); exceeding it raises
    SearchBudgetExceeded, which is a distinct outcome from the
    exhaustive ``None``.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    everything = (1 << len(target.vertices)) - 1
    tadj = target.adjacency_masks()
    found, _ = _forward_check(source.adjacency_masks(),
                              dict.fromkeys(range(len(source.vertices)), everything),
                              tadj, [everything] * len(tadj), budget, "homomorphism")
    if found is None:
        return None
    tgt = target.vertices
    return VertexMap(source, target, {v: tgt[c] for v, c in zip(source.vertices, found)})


def verify_induced_subgraph_isomorphism(g: SimplicialGraph, s1, s2,
                                        f: Mapping[str, str]) -> bool:
    """Check that a bijection between two vertex subsets preserves both
    edges and non-edges of the ambient graph (the induced condition).

    One pass over s1: each member's neighbours inside s1, pushed through
    ``f``, must be exactly the neighbours of its image inside s2.
    """
    m1 = _subset_members(g, s1)
    m2 = _subset_members(g, s2)
    if f.keys() != m1:
        raise GraphError("map is not defined on exactly the first subset")
    images = set(f.values())
    if images != m2 or len(images) != len(m1):
        raise GraphError("map is not a bijection onto the second subset")
    index, adj = g._index, g._masks
    at = {index[u]: index[v] for u, v in f.items()}
    bit_at = {1 << a: 1 << b for a, b in at.items()}  # each member's bit to its image's
    inside1, inside2 = sum(bit_at), sum(bit_at.values())
    for a, b in at.items():
        rest, pushed = adj[a] & inside1, 0
        while rest:
            low = rest & -rest
            pushed |= bit_at[low]
            rest ^= low
        if pushed != adj[b] & inside2:
            return False
    return True


def find_induced_subgraph_isomorphism(g: SimplicialGraph, s1, s2,
                                      budget: int = 1_000_000) -> dict[str, str] | None:
    """Exhaustive search for an induced isomorphism s1 -> s2, by forward checking.

    Returns a bijection dict, ``None`` when none exists (in particular
    immediately when the subsets have different sizes), or raises
    SearchBudgetExceeded. Each member of s1 keeps a bitmask domain of
    the s2 members still open to it, at first those whose degree inside
    s2 is its degree inside s1. Each node assigns the member with the
    smallest domain, trying s2 members lowest index first; assigning
    ``c`` cuts the domain of every unassigned member to the s2 neighbours
    of ``c`` (where the pair is an edge) or to its other non-neighbours
    (where it is not), which also keeps the map injective. Ties and
    ``budget`` work as in find_graph_homomorphism. The set-up reads only
    the subsets' members, not every ambient vertex.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    m1 = _subset_members(g, s1)
    m2 = _subset_members(g, s2)
    if len(m1) != len(m2):
        return None
    index, adj, verts = g._index, g._masks, g.vertices
    # positions and candidates are the members' ambient indices
    left = sorted(map(index.__getitem__, m1))
    ids = list(map(index.__getitem__, m2))
    inside, right = sum(map((1).__lshift__, left)), sum(map((1).__lshift__, ids))
    masks = {a: adj[a] & inside for a in left}
    on = {c: adj[c] & right for c in ids}
    off = {c: right ^ on[c] ^ 1 << c for c in ids}
    # an induced isomorphism keeps each member's degree inside its subset
    by_degree: dict[int, int] = {}
    for c, a in on.items():
        by_degree[a.bit_count()] = by_degree.get(a.bit_count(), 0) | 1 << c
    starts = {a: by_degree.get(m.bit_count(), 0) for a, m in masks.items()}
    found, _ = _forward_check(masks, starts, on, off, budget, "induced isomorphism")
    if found is None:
        return None
    return {verts[a]: verts[found[a]] for a in left}


def random_graph(n: int, p: float, seed: int) -> SimplicialGraph:
    """Erdos-Renyi style graph on vertices v0..v(n-1), deterministic in seed."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    masks = _keep_edges([(1 << n) - 1] * n, p, random.Random(seed))
    return SimplicialGraph._trusted((f"v{i}" for i in range(n)), masks)


def triangle_vertices(g: SimplicialGraph) -> tuple[str, str, str] | None:
    """Some triple of mutually adjacent vertices, or None if none exists."""
    masks, index = g.adjacency_masks(), g._index
    for u, v in g._pairs:
        j = index[v]
        common = (masks[index[u]] & masks[j]) >> j + 1  # common neighbours after v
        if common:
            return (u, v, g.vertices[j + (common & -common).bit_length()])
    return None


# ---------------------------------------------------------------------------
# text format
#
#   line 1: vertices <label> <label> ...
#   then:   edge <label> <label>       (one per edge)
#   '#' begins a comment line; blank lines ignored; LF line endings.


def format_graph(g: SimplicialGraph) -> str:
    lines = [" ".join(("vertices", *g.vertices))] + [f"edge {u} {v}" for u, v in g._pairs]
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
