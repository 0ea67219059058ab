"""The weakly rich fans glue over the tropical moduli space of curves.

M_g^trop has one cell R_{>0}^{E(G)}/Aut(G) for each stable graph G of genus g
(Abramovich, Caporaso & Payne, "The tropicalization of the moduli space of
curves", Ann. Sci. ENS 2015).  The fans weakly_rich_fan(G, r) glue into one
subdivision of it only if two laws hold:

- automorphisms: the edge permutation of every automorphism of G maps the
  fan of G onto itself;
- face maps: for every edge set S, the fan of G restricted to {x_e = 0 for
  e in S} is the fan of the contraction G/S.

Both laws depend on the graph only, not on its vertex weights, so they are
checked once per underlying graph of the stable graphs, and the automorphism
law for every automorphism of that graph (which includes the automorphisms
of each weighting).
"""

from collections import Counter
from itertools import combinations, permutations, product

import pytest

from richfan import Fan, Graph, weakly_rich_fan
from richfan.catalog import small_connected_graphs


def stable_graphs(genus: int) -> list[tuple[Graph, tuple[int, ...]]]:
    """Stable graphs of the given genus, one per isomorphism class, as
    (graph, vertex weights).  A stable graph is a connected multigraph, loops
    allowed, with weights w(v) >= 0 such that b1(G) + sum w = genus and
    2 w(v) - 2 + val(v) > 0 at every vertex (a loop adds 2 to the valence).
    Stability bounds the edge count by 3 genus - 3.  The census holds one
    graph per isomorphism class, so weightings are taken up to the vertex
    automorphisms of each graph."""
    out = []
    for g in small_connected_graphs(3 * genus - 3):
        spare = genus - (len(g.edges) - len(g.vertices) + 1)
        if spare < 0:
            continue
        val = Counter()
        for e in g.edges:
            val[e.u] += 1
            val[e.v] += 1
        maps = {tuple(pi[v] for v in g.vertices) for pi, _ in automorphisms(g)}
        seen = set()
        for w in product(range(spare + 1), repeat=len(g.vertices)):
            if sum(w) != spare or any(2 * wv - 2 + val[v] <= 0 for v, wv in zip(g.vertices, w)):
                continue
            # the census numbers vertices 0..n-1: vertex v goes to image[v]
            key = min(tuple(w[image.index(v)] for v in g.vertices) for image in maps)
            if key not in seen:
                seen.add(key)
                out.append((g, w))
    return out


def automorphisms(g: Graph):
    """Every automorphism of g as (vertex map, edge map): a vertex permutation
    that maps the multiset of edge ends onto itself, with every bijection of
    the edges that follows it (parallel edges, and loops at one vertex, are
    interchangeable)."""
    classes: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        classes.setdefault((e.u, e.v), []).append(e.id)
    for image in permutations(g.vertices):
        pi = dict(zip(g.vertices, image))
        target = {uv: tuple(sorted((pi[uv[0]], pi[uv[1]]))) for uv in classes}
        if any(len(classes.get(target[uv], ())) != len(ids) for uv, ids in classes.items()):
            continue
        for picks in product(*(permutations(classes[target[uv]]) for uv in classes)):
            emap = {}
            for ids, img in zip(classes.values(), picks):
                emap.update(zip(ids, img))
            yield pi, emap


@pytest.mark.parametrize("genus, count", [(2, 7), (3, 42)])
def test_stable_graph_counts(genus, count):
    assert len(stable_graphs(genus)) == count


def test_automorphisms_of_the_theta_graph():
    theta = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    assert len(list(automorphisms(theta))) == 12
    assert {tuple(sorted(emap.items())) for _, emap in automorphisms(theta)} == {
        tuple(enumerate(p)) for p in permutations(range(3))
    }


@pytest.mark.parametrize("genus, r", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_gluing_laws(genus, r):
    checks = 0
    for g in dict.fromkeys(g for g, _ in stable_graphs(genus)):
        fan = weakly_rich_fan(g, r)
        ids = g.sorted_edge_ids()
        assert ids == tuple(range(len(ids)))
        for _, emap in automorphisms(g):
            perm = [emap[e] for e in ids]
            image = Fan(fan.rank, [c.permuted(perm) for c in fan.cones])
            assert image == fan, (g.to_obj(), r, perm)
        for m in range(1, len(ids) + 1):
            for s in combinations(ids, m):
                assert fan.restrict(s) == weakly_rich_fan(g.contract(s), r), (g.to_obj(), r, s)
                checks += 1
    # distinct (graph, S) pairs; over the stable graphs, weightings counted
    # apart, there are 22 and 823
    assert checks == {2: 22, 3: 820}[genus]
