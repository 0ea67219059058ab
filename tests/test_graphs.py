"""Graph layer: cuts are bonds, blocks are circuit classes, contraction."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from richfan import Graph
from richfan.catalog import small_connected_graphs
from richfan.errors import DisconnectedGraph, SchemaError, UnknownEdge
from richfan.graphs import _CUTS_CACHE_ENTRIES, MAX_CUT_VERTICES, Edge, _cuts


def bond_oracle(g: Graph) -> set[tuple[int, ...]]:
    """Cuts by definition: crossing sets of connected bipartitions."""
    verts = list(g.vertices)
    found = set()
    for k in range(1, len(verts)):
        for side in combinations(verts, k):
            a = set(side)
            b = set(verts) - a
            cross = [e for e in g.edges if not e.is_loop and (e.u in a) != (e.v in a)]
            if not cross:
                continue
            if _connected_on(g, a) and _connected_on(g, b):
                found.add(tuple(sorted(e.id for e in cross)))
    return found


def _connected_on(g: Graph, verts: set[int]) -> bool:
    if not verts:
        return False
    seen = {next(iter(verts))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for e in g.edges:
            if e.is_loop:
                continue
            if e.u == v and e.v in verts and e.v not in seen:
                seen.add(e.v)
                frontier.append(e.v)
            if e.v == v and e.u in verts and e.u not in seen:
                seen.add(e.u)
                frontier.append(e.u)
    return seen == verts


def circuit_block_oracle(g: Graph) -> set[tuple[int, ...]]:
    """Blocks as equivalence classes of the shared-circuit relation.

    A circuit is a minimal nonempty edge set with connected support and all
    vertex degrees even.  Loops are one-edge circuits.
    """
    ids = g.sorted_edge_ids()
    circuits = []
    for k in range(1, len(ids) + 1):
        for sub in combinations(ids, k):
            if not _is_even_connected(g, sub):
                continue
            if any(set(c) < set(sub) for c in circuits):
                continue
            circuits.append(sub)
    parent = {e: e for e in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in circuits:
        for e in c[1:]:
            parent[find(e)] = find(c[0])
    classes: dict[int, list[int]] = {}
    for e in ids:
        classes.setdefault(find(e), []).append(e)
    return {tuple(sorted(v)) for v in classes.values()}


def _is_even_connected(g: Graph, sub: tuple[int, ...]) -> bool:
    deg: dict[int, int] = {}
    for eid in sub:
        e = g.edge(eid)
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    if any(d % 2 for d in deg.values()):
        return False
    touched = set(deg)
    seen = {next(iter(touched))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for eid in sub:
            e = g.edge(eid)
            if e.u == v and e.v not in seen:
                seen.add(e.v)
                frontier.append(e.v)
            if e.v == v and e.u not in seen:
                seen.add(e.u)
                frontier.append(e.u)
    return touched <= seen


def tarjan_blocks(g: Graph) -> list[tuple[int, ...]]:
    """Circuit blocks by an iterative Tarjan lowpoint search: each DFS edge
    whose far end cannot reach above its near end closes a block of the edge
    stack.  Loops are singletons.  The reference for Graph.blocks."""
    g.require_connected()
    out: list[tuple[int, ...]] = [(e.id,) for e in g.edges if e.is_loop]
    adj = g.adjacency()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    time = 0
    for root in g.vertices:
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


def bipartition_cuts(g: Graph) -> list[tuple[int, ...]]:
    """Cuts by trying all 2^(n-1) bipartitions with the first vertex on one
    side, keeping those whose two sides are connected."""
    g.require_connected()
    vs = list(g.vertices)
    adj = g.adjacency()

    def connected(side: set[int]) -> bool:
        start = next(iter(side))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in adj[v]:
                w = e.other(v)
                if w in side and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(side)

    out = set()
    for mask in range(2 ** (len(vs) - 1) - 1):
        side = {vs[0]} | {v for i, v in enumerate(vs[1:]) if mask >> i & 1}
        other = set(vs) - side
        if connected(side) and connected(other):
            cross = [e.id for e in g.edges if not e.is_loop and (e.u in side) != (e.v in side)]
            out.add(tuple(sorted(cross)))
    return sorted(out)


@st.composite
def connected_multigraphs(draw, max_vertices=5, max_extra=3, relabel=False):
    nv = draw(st.integers(1, max_vertices))
    edges = []
    eid = 0
    for v in range(1, nv):
        u = draw(st.integers(0, v - 1))
        edges.append((eid, u, v))
        eid += 1
    extra = draw(st.integers(0, max_extra))
    for _ in range(extra):
        u = draw(st.integers(0, nv - 1))
        v = draw(st.integers(0, nv - 1))
        edges.append((eid, u, v))
        eid += 1
    names = list(range(nv))
    if relabel:
        names = draw(st.lists(st.integers(-50, 50), min_size=nv, max_size=nv, unique=True))
        ids = draw(st.permutations(range(100, 100 + len(edges))))
        edges = [(i, u, v) for i, (_, u, v) in zip(ids, edges)]
    return Graph.build(names, [(i, names[u], names[v]) for i, u, v in edges])


def sparse_multigraph(rng: random.Random, nv: int, extra: int) -> Graph:
    """A random spanning tree on nv vertices plus extra random edges (loops
    and parallel edges included), with shuffled vertex names and edge ids."""
    names = rng.sample(range(1000), nv)
    pairs = [(rng.randrange(v), v) for v in range(1, nv)]
    pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(extra)]
    ids = rng.sample(range(1000), len(pairs))
    return Graph.build(names, [(i, names[u], names[v]) for i, (u, v) in zip(ids, pairs)])


def path(n: int) -> Graph:
    return Graph.build(range(n), [(i, i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.build(range(n), [(i, i, (i + 1) % n) for i in range(n)])


class TestCuts:
    def test_triangle(self, triangle):
        assert triangle.cuts() == [(0, 1), (0, 2), (1, 2)]

    def test_twogon(self, twogon):
        assert twogon.cuts() == [(0, 1)]

    def test_bridge_is_its_own_cut(self, bridge):
        assert bridge.cuts() == [(0,)]

    def test_loops_never_cut(self, loop_graph):
        assert loop_graph.cuts() == []

    def test_disconnected_rejected(self):
        g = Graph.build([0, 1], [])
        with pytest.raises(DisconnectedGraph):
            g.cuts()

    @given(connected_multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_matches_bond_oracle(self, g):
        assert set(g.cuts()) == bond_oracle(g)

    @given(connected_multigraphs(max_vertices=10, max_extra=10, relabel=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_bipartition_enumeration(self, g):
        assert g.cuts() == bipartition_cuts(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bipartition_enumeration_sparse(self, seed):
        rng = random.Random(seed)
        g = sparse_multigraph(rng, rng.randint(12, 14), rng.randint(2, 6))
        assert g.cuts() == bipartition_cuts(g)

    def test_cycle_at_the_vertex_limit(self):
        # every pair of edges of a cycle is a bond
        g = cycle(MAX_CUT_VERTICES)
        assert g.cuts() == list(combinations(range(MAX_CUT_VERTICES), 2))
        assert len(g.cuts()) == 231

    def test_path_at_the_vertex_limit(self):
        # every edge of a tree is a bond
        assert path(MAX_CUT_VERTICES).cuts() == [(i,) for i in range(MAX_CUT_VERTICES - 1)]

    @given(connected_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_removing_a_cut_makes_two_components(self, g):
        for c in g.cuts():
            kept = [e for e in g.edges if e.id not in c]
            comps = _component_count(g.vertices, kept)
            assert comps == 2


class TestCutsCache:
    def test_returned_list_is_fresh(self, triangle):
        first = triangle.cuts()
        first.append((99,))
        first[0] = ()
        assert triangle.cuts() == [(0, 1), (0, 2), (1, 2)]
        assert triangle.cuts() is not triangle.cuts()

    def test_cached_cuts_match_bipartitions_on_the_census(self):
        for g in small_connected_graphs(5):
            want = bipartition_cuts(g)
            assert g.cuts() == want  # computed or cached
            assert g.cuts() == want  # cached

    def test_errors_are_raised_on_every_call(self):
        apart = Graph.build([0, 1], [])
        long = path(MAX_CUT_VERTICES + 1)
        for _ in range(2):
            with pytest.raises(DisconnectedGraph):
                apart.cuts()
            with pytest.raises(ValueError, match="too many vertices"):
                long.cuts()

    def test_cache_is_bounded(self):
        for k in range(2 * _CUTS_CACHE_ENTRIES):  # triangles with shifted edge ids
            assert Graph.build(range(3), [(k, 0, 1), (k + 1, 1, 2), (k + 2, 0, 2)]).cuts() == [
                (k, k + 1), (k, k + 2), (k + 1, k + 2)
            ]
            assert _cuts.cache_info().currsize <= _CUTS_CACHE_ENTRIES
        assert _cuts.cache_info().currsize == _CUTS_CACHE_ENTRIES


def _component_count(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        parent[find(e.u)] = find(e.v)
    return len({find(v) for v in vertices})


class TestBlocks:
    def test_triangle_single_block(self, triangle):
        assert triangle.blocks() == [(0, 1, 2)]

    def test_bridge_singleton(self, bridge):
        assert bridge.blocks() == [(0,)]

    def test_loop_is_own_block(self):
        g = Graph.build([0, 1], [(0, 0, 1), (1, 1, 1)])
        assert sorted(g.blocks()) == [(0,), (1,)]

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph.build(
            [0, 1, 2, 3, 4],
            [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3), (4, 3, 4), (5, 4, 2)],
        )
        assert sorted(g.blocks()) == [(0, 1, 2), (3, 4, 5)]

    @given(connected_multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_circuit_oracle(self, g):
        if not g.edges:
            assert g.blocks() == []
            return
        assert set(g.blocks()) == circuit_block_oracle(g)

    def test_matches_tarjan_on_sparse_multigraphs(self):
        # 1-40 vertices, loops and parallel edges included: far past the
        # reach of the exponential circuit oracle
        rng = random.Random(19)
        for _ in range(1000):
            nv = rng.randint(1, 40)
            g = sparse_multigraph(rng, nv, rng.randint(0, nv))
            assert g.blocks() == tarjan_blocks(g)

    @given(connected_multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_every_cut_lives_in_one_block(self, g):
        owner = {}
        for b in g.blocks():
            for e in b:
                owner[e] = b
        for c in g.cuts():
            assert len({owner[e] for e in c}) == 1


class TestContract:
    def test_contract_triangle_edge(self, triangle):
        h = triangle.contract([0])
        assert len(h.vertices) == 2
        assert sorted(h.edge_ids) == [1, 2]
        assert h.cuts() == [(1, 2)]

    def test_contract_loop_vanishes(self, loop_graph):
        h = loop_graph.contract([0])
        assert h.edges == ()
        assert len(h.vertices) == 1

    def test_contract_parallel_edge_leaves_loop(self, twogon):
        h = twogon.contract([0])
        assert len(h.edges) == 1
        assert h.edges[0].is_loop

    def test_unknown_edge(self, triangle):
        with pytest.raises(UnknownEdge):
            triangle.contract([7])

    def test_contract_nothing_is_identity(self, triangle):
        h = triangle.contract([])
        assert h.to_obj() == triangle.to_obj()

    @given(connected_multigraphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cut_exchange(self, g, data):
        ids = list(g.sorted_edge_ids())
        sub = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
        h = g.contract(sub)
        expect = {c for c in g.cuts() if not (set(c) & set(sub))}
        assert set(h.cuts()) == expect

    @given(connected_multigraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_contraction_stays_connected(self, g, data):
        ids = list(g.sorted_edge_ids())
        sub = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
        h = g.contract(sub)
        h.require_connected()


class TestEdge:
    def test_sorts_by_id_then_ends(self):
        edges = [Edge(2, 0, 1), Edge(1, 1, 2), Edge(1, 0, 3)]
        assert sorted(edges) == [Edge(1, 0, 3), Edge(1, 1, 2), Edge(2, 0, 1)]

    def test_repr(self):
        assert repr(Edge(0, 0, 1)) == "Edge(id=0, u=0, v=1)"


class TestSerialization:
    def test_round_trip(self, triangle):
        assert Graph.from_obj(triangle.to_obj()).to_obj() == triangle.to_obj()

    def test_rejects_duplicate_ids(self):
        with pytest.raises(SchemaError):
            Graph.from_obj(
                {
                    "vertices": [0, 1],
                    "edges": [{"id": 0, "ends": [0, 1]}, {"id": 0, "ends": [0, 1]}],
                }
            )

    def test_rejects_dangling_end(self):
        with pytest.raises(SchemaError):
            Graph.from_obj({"vertices": [0], "edges": [{"id": 0, "ends": [0, 5]}]})

    def test_edge_shapes_are_checked_before_ids_and_ends(self):
        dup = {"id": 0, "ends": [0, 1]}
        with pytest.raises(SchemaError, match="^duplicate edge id 0$"):
            Graph.from_obj({"vertices": [0, 1], "edges": [dup, dup]})
        with pytest.raises(SchemaError, match="^edge 0 touches an unknown vertex$"):
            Graph.from_obj({"vertices": [0], "edges": [{"id": 0, "ends": [0, 5]}]})
        with pytest.raises(SchemaError, match="^each edge needs an integer id"):
            Graph.from_obj({"vertices": [0, 1], "edges": [dup, dup, {"id": True, "ends": [0, 1]}]})
