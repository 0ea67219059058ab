"""The census of small connected multigraphs used by the exhaustive suites."""

from itertools import permutations

from richfan import catalog
from richfan.catalog import small_connected_graphs


# connected multigraphs up to isomorphism, by edge count
EXPECTED = {0: 1, 1: 2, 2: 4, 3: 11, 4: 30, 5: 95, 6: 328}


def test_counts_by_edges():
    got = {}
    for g in small_connected_graphs(6):
        got[len(g.edges)] = got.get(len(g.edges), 0) + 1
    assert got == EXPECTED


def test_min_edges_filter():
    five = small_connected_graphs(5, min_edges=5)
    assert len(five) == 95
    assert all(len(g.edges) == 5 for g in five)


def test_all_connected_with_normalized_ids():
    for g in small_connected_graphs(4):
        g.require_connected()
        assert g.sorted_edge_ids() == tuple(range(len(g.edges)))
        assert tuple(sorted(g.vertices)) == tuple(range(len(g.vertices)))


def test_pairwise_non_isomorphic():
    def canonical(g):
        nv = len(g.vertices)
        best = None
        for perm in permutations(range(nv)):
            key = tuple(
                sorted(
                    tuple(sorted((perm[e.u], perm[e.v]))) for e in g.edges
                )
            )
            if best is None or key < best:
                best = key
        return (nv, best)

    seen = set()
    for g in small_connected_graphs(4):
        c = canonical(g)
        assert c not in seen
        seen.add(c)


def test_known_members_present():
    def has(graphs, nv, degseq):
        for g in graphs:
            if len(g.vertices) != nv:
                continue
            deg: dict[int, int] = {v: 0 for v in g.vertices}
            for e in g.edges:
                deg[e.u] += 1
                deg[e.v] += 1
            if tuple(sorted(deg.values())) == degseq:
                return True
        return False

    three = small_connected_graphs(3, min_edges=3)
    assert has(three, 3, (2, 2, 2))  # triangle
    assert has(three, 2, (3, 3))  # 3 parallel edges
    assert has(three, 4, (1, 1, 1, 3))  # star


def test_census_cache_is_bounded():
    limit = catalog._CENSUS_CACHE_ENTRIES
    catalog._census.cache_clear()
    for k in range(limit + 1):
        small_connected_graphs(k)
    info = catalog._census.cache_info()
    assert info.maxsize == limit
    assert info.currsize == limit
    # the 0-edge census was the least recently used, so it went first
    assert len(small_connected_graphs(0)) == 1
    assert catalog._census.cache_info().misses == info.misses + 1
