"""Finite connected multigraphs: cuts, circuit blocks, contractions.

Vertices and edge ids are integers.  Loops and parallel edges are allowed;
edge ends are stored sorted so an edge is (id, u, v) with u <= v.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DisconnectedGraph, SchemaError, UnknownEdge, is_int, is_int_vector

# safety limit: cuts walks every connected vertex set through the first
# vertex, up to 2^(n-1) of them on a complete graph
MAX_CUT_VERTICES = 22


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

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = self.adjacency()
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in adj[v]:
                w = e.other(v)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

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
        """
        self.require_connected()
        n = len(self.vertices)
        if n > MAX_CUT_VERTICES:
            raise ValueError("too many vertices for cut enumeration")
        index = {v: i for i, v in enumerate(self.vertices)}
        nbr = [0] * n
        ends = []  # (id, both end bits), by id
        for e in sorted(self.edges):
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
        return sorted(out)

    def blocks(self) -> list[tuple[int, ...]]:
        """Circuit blocks: loops as singletons plus biconnected components.

        Bridges come out as singleton blocks as well.  Sorted id tuples,
        sorted overall.
        """
        self.require_connected()
        out: list[tuple[int, ...]] = [(e.id,) for e in self.edges if e.is_loop]
        adj = self.adjacency()
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        time = 0
        for root in self.vertices:
            if root in disc:
                continue
            disc[root] = low[root] = time
            time += 1
            stack: list[tuple[int, int | None, int]] = [(root, None, 0)]
            estack: list[int] = []
            while stack:
                v, pe, idx = stack[-1]
                advanced = False
                while idx < len(adj[v]):
                    e = adj[v][idx]
                    idx += 1
                    w = e.other(v)
                    if e.id == pe:
                        continue
                    if w not in disc:
                        estack.append(e.id)
                        disc[w] = low[w] = time
                        time += 1
                        stack[-1] = (v, pe, idx)
                        stack.append((w, e.id, 0))
                        advanced = True
                        break
                    if disc[w] < disc[v]:
                        estack.append(e.id)
                        low[v] = min(low[v], disc[w])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    u, _, _ = stack[-1]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        blk = []
                        while True:
                            eid = estack.pop()
                            blk.append(eid)
                            if eid == pe:
                                break
                        out.append(tuple(sorted(blk)))
        return sorted(out)

    def contract(self, edge_ids: Iterable[int]) -> "Graph":
        """Contract the listed edges (loops just disappear)."""
        ids = set(int(i) for i in edge_ids)
        known = set(self.edge_ids)
        for i in ids:
            if i not in known:
                raise UnknownEdge(f"no edge with id {i}")
        parent = {v: v for v in self.vertices}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            if e.id in ids and not e.is_loop:
                a, b = find(e.u), find(e.v)
                if a != b:
                    # keep the smaller name as the class representative
                    if a > b:
                        a, b = b, a
                    parent[b] = a
        reps = sorted({find(v) for v in self.vertices})
        new_edges = [
            (e.id, find(e.u), find(e.v)) for e in self.edges if e.id not in ids
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
        triples = []
        seen = set()
        vset = set(verts)
        for e in edges:
            if (
                not isinstance(e, dict)
                or not is_int(e.get("id"))
                or not is_int_vector(e.get("ends"), 2)
            ):
                raise SchemaError("each edge needs an integer id and a 2-element ends list")
            if e["id"] in seen:
                raise SchemaError(f"duplicate edge id {e['id']}")
            seen.add(e["id"])
            if e["ends"][0] not in vset or e["ends"][1] not in vset:
                raise SchemaError(f"edge {e['id']} touches an unknown vertex")
            triples.append((e["id"], e["ends"][0], e["ends"][1]))
        return Graph.build(verts, triples)
