"""Finite connected multigraphs: cuts, circuit blocks, contractions.

Vertices and edge ids are integers.  Loops and parallel edges are allowed;
edge ends are stored sorted so an edge is (id, u, v) with u <= v.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import DisconnectedGraph, SchemaError, UnknownEdge, is_int, is_int_vector

# safety limit: cuts walks every connected vertex set through the first
# vertex, up to 2^(n-1) of them on a complete graph
MAX_CUT_VERTICES = 22
_CUTS_CACHE_ENTRIES = 64  # graphs; the least recently used goes first


def _bits_connected(verts: int, nbr: list[int]) -> bool:
    """Whether the vertex bitmask verts induces a connected subgraph."""
    seen = frontier = verts & -verts
    while frontier:
        grow = 0
        while frontier:
            v = frontier & -frontier
            grow |= nbr[v.bit_length() - 1]
            frontier ^= v
        frontier = grow & verts & ~seen
        seen |= frontier
    return seen == verts


def _find(parent, x):
    """Class representative of x in the union-find forest parent (a dict or
    list mapping each element to its parent), halving the path as it goes."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Edge(NamedTuple):
    id: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


class Graph(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int, int]]) -> "Graph":
        """edges as (id, u, v) triples; ends get sorted, order is preserved."""
        vs = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(vs)
        es = []
        seen_ids = set()
        for eid, u, v in edges:
            eid, u, v = int(eid), int(u), int(v)
            if eid in seen_ids:
                raise ValueError(f"duplicate edge id {eid}")
            seen_ids.add(eid)
            if u not in vset or v not in vset:
                raise ValueError(f"edge {eid} touches an unknown vertex")
            es.append(Edge(eid, min(u, v), max(u, v)))
        return Graph(vs, tuple(es))

    def edge(self, eid: int) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise UnknownEdge(f"no edge with id {eid}")

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges)

    def sorted_edge_ids(self) -> tuple[int, ...]:
        """Coordinate order used by length charts and ideals."""
        return tuple(sorted(e.id for e in self.edges))

    def adjacency(self) -> dict[int, list[Edge]]:
        adj: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if not e.is_loop:
                adj[e.u].append(e)
                adj[e.v].append(e)
        return adj

    def _tree(self) -> dict[int, Edge | None]:
        """Breadth-first spanning tree from the first vertex: each reached
        vertex maps to the tree edge to its parent, the root to None."""
        if not self.vertices:
            return {}
        adj = self.adjacency()
        up: dict[int, Edge | None] = {self.vertices[0]: None}
        queue = [self.vertices[0]]
        for v in queue:
            for e in adj[v]:
                w = e.other(v)
                if w not in up:
                    up[w] = e
                    queue.append(w)
        return up

    def is_connected(self) -> bool:
        return bool(self.vertices) and len(self._tree()) == len(self.vertices)

    def require_connected(self) -> None:
        if not self.is_connected():
            raise DisconnectedGraph("operation needs a connected graph")

    def cuts(self) -> list[tuple[int, ...]]:
        """All minimal disconnecting edge sets (bonds), as sorted id tuples.

        A bond is the crossing set of a bipartition into two connected sides.
        Over vertex bitmasks, every connected side S that holds the first
        vertex is reached exactly once by branching on the lowest open
        neighbour of S: take it into S, or ban it.  S gives a bond when its
        complement is non-empty and connected.  Loops never appear.

        Results are memoized per graph value (the last _CUTS_CACHE_ENTRIES
        graphs) and returned as a fresh list; errors are raised on every call.
        """
        return list(_cuts(self))

    def blocks(self) -> list[tuple[int, ...]]:
        """Circuit blocks: loops as singletons plus biconnected components.

        Bridges come out as singleton blocks as well.  Sorted id tuples,
        sorted overall.

        Take a spanning tree T and union each edge with the symmetric
        difference of the root paths of its two ends.  For an edge of T that
        is the edge itself; for an edge e off T it completes e to its
        fundamental cycle.  A fundamental cycle is a cycle, so it lies in one
        block, and so does each union class.  Conversely a cycle C is the
        mod-2 sum of the fundamental cycles of its edges off T, each of which
        lies in a class K or misses it.  So C cap K is a sum of cycles: an
        even subgraph inside C, hence empty or all of C.  Every cycle lies in
        one class, and so does every block, since any two of its edges share a
        cycle.  A loop is its own fundamental cycle and a bridge is on none,
        so both stay singletons.
        """
        self.require_connected()
        up = self._tree()

        def root_path(v: int) -> set[int]:
            out = set()
            while (e := up[v]) is not None:
                out.add(e.id)
                v = e.other(v)
            return out

        parent = {e.id: e.id for e in self.edges}
        for e in self.edges:
            for t in root_path(e.u) ^ root_path(e.v):
                parent[_find(parent, t)] = _find(parent, e.id)
        classes: dict[int, list[int]] = {}
        for e in self.edges:
            classes.setdefault(_find(parent, e.id), []).append(e.id)
        return sorted(tuple(sorted(c)) for c in classes.values())

    def contract(self, edge_ids: Iterable[int]) -> "Graph":
        """Contract the listed edges (loops just disappear)."""
        ids = set(int(i) for i in edge_ids)
        known = set(self.edge_ids)
        for i in ids:
            if i not in known:
                raise UnknownEdge(f"no edge with id {i}")
        parent = {v: v for v in self.vertices}
        for e in self.edges:
            if e.id in ids and not e.is_loop:
                a, b = _find(parent, e.u), _find(parent, e.v)
                if a != b:
                    # keep the smaller name as the class representative
                    if a > b:
                        a, b = b, a
                    parent[b] = a
        reps = sorted({_find(parent, v) for v in self.vertices})
        new_edges = [
            (e.id, _find(parent, e.u), _find(parent, e.v)) for e in self.edges if e.id not in ids
        ]
        return Graph.build(reps, new_edges)

    def to_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "ends": [e.u, e.v]} for e in self.edges],
        }

    @staticmethod
    def from_obj(obj: object) -> "Graph":
        if not isinstance(obj, dict):
            raise SchemaError("graph document must be an object")
        verts = obj.get("vertices")
        edges = obj.get("edges")
        if not is_int_vector(verts):
            raise SchemaError("graph.vertices must be a list of integers")
        if len(set(verts)) != len(verts):
            raise SchemaError("graph.vertices must be distinct")
        if not isinstance(edges, list):
            raise SchemaError("graph.edges must be a list")
        for e in edges:
            if (
                not isinstance(e, dict)
                or not is_int(e.get("id"))
                or not is_int_vector(e.get("ends"), 2)
            ):
                raise SchemaError("each edge needs an integer id and a 2-element ends list")
        try:
            return Graph.build(verts, ((e["id"], *e["ends"]) for e in edges))
        except ValueError as ex:
            raise SchemaError(str(ex)) from None


@lru_cache(maxsize=_CUTS_CACHE_ENTRIES)
def _cuts(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The bonds of Graph.cuts, enumerated once per graph value."""
    g.require_connected()
    n = len(g.vertices)
    if n > MAX_CUT_VERTICES:
        raise ValueError("too many vertices for cut enumeration")
    index = {v: i for i, v in enumerate(g.vertices)}
    nbr = [0] * n
    ends = []  # (id, both end bits), by id
    for e in sorted(g.edges):
        if not e.is_loop:
            u, v = index[e.u], index[e.v]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            ends.append((e.id, 1 << u | 1 << v))
    full = (1 << n) - 1
    out = []
    stack = [(1, 1, nbr[0])]  # (side, side | banned, neighbours of side)
    while stack:
        side, closed, reach = stack.pop()
        open_ = reach & ~closed
        if open_:
            v = open_ & -open_
            stack.append((side, closed | v, reach))
            stack.append((side | v, closed | v, reach | nbr[v.bit_length() - 1]))
            continue
        rest = full & ~side
        if rest and _bits_connected(rest, nbr):
            out.append(tuple(eid for eid, uv in ends if uv & side and uv & rest))
    return tuple(sorted(out))
