"""Census of small connected multigraphs, one representative per isomorphism
class.

Graphs grow one edge at a time: every connected multigraph with k edges arises
from a connected one with k-1 edges by adding an edge between existing
vertices, a loop, or a pendant edge to a fresh vertex (remove a non-bridge
edge, or a leaf edge of a tree, to see the parent).  Each candidate is reduced
to a canonical labeling before deduplication.
"""

from functools import lru_cache
from itertools import permutations, product

from .graphs import Graph

Pair = tuple[int, int]
_CENSUS_CACHE_ENTRIES = 4  # edge bounds; the least recently used goes first


def _refine_colors(nv: int, edges: tuple[Pair, ...]) -> list[int]:
    """Stable vertex coloring: start from (degree, loop count) and repeatedly
    split classes by the multiset of neighbor colors until nothing changes."""
    adj: list[list[int]] = [[] for _ in range(nv)]
    loops = [0] * nv
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            adj[u].append(v)
            adj[v].append(u)
    sig = [(len(adj[v]), loops[v]) for v in range(nv)]
    ranks = {c: i for i, c in enumerate(sorted(set(sig)))}
    colors = [ranks[c] for c in sig]
    for _ in range(nv):
        sig2 = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(nv)]
        ranks = {c: i for i, c in enumerate(sorted(set(sig2)))}
        new = [ranks[c] for c in sig2]
        if new == colors:
            break
        colors = new
    return colors


def _canonical(nv: int, edges: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """Lexicographically least relabeling of the edge multiset, searching only
    permutations that respect the refined color classes."""
    colors = _refine_colors(nv, edges)
    classes: dict[int, list[int]] = {}
    for v in range(nv):
        classes.setdefault(colors[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    best: tuple[Pair, ...] | None = None
    # assign label ranges class by class; permute only within a class
    for pick in product(*(permutations(cls) for cls in ordered)):
        lab = [0] * nv
        pos = 0
        for cls_perm in pick:
            for v in cls_perm:
                lab[v] = pos
                pos += 1
        cand = tuple(
            sorted((lab[u], lab[v]) if lab[u] <= lab[v] else (lab[v], lab[u]) for u, v in edges)
        )
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def _grow(nv: int, edges: tuple[Pair, ...]) -> set[tuple[int, tuple[Pair, ...]]]:
    out = set()
    for u in range(nv):
        for v in range(u, nv):
            cand = tuple(sorted(edges + ((u, v),)))
            out.add((nv, _canonical(nv, cand)))
    # pendant edge to a fresh vertex
    for u in range(nv):
        cand = tuple(sorted(edges + ((u, nv),)))
        out.add((nv + 1, _canonical(nv + 1, cand)))
    return out


@lru_cache(maxsize=_CENSUS_CACHE_ENTRIES)
def _census(max_edges: int) -> tuple[tuple[int, tuple[Pair, ...]], ...]:
    levels: list[set[tuple[int, tuple[Pair, ...]]]] = [{(1, ())}]
    for _ in range(max_edges):
        nxt: set[tuple[int, tuple[Pair, ...]]] = set()
        for nv, edges in levels[-1]:
            nxt |= _grow(nv, edges)
        levels.append(nxt)
    flat = []
    for level in levels:
        flat.extend(sorted(level))
    return tuple(flat)


def small_connected_graphs(max_edges: int, min_edges: int = 0) -> list[Graph]:
    """All connected multigraphs with min_edges..max_edges edges, one per
    isomorphism class, as Graph objects with edge ids 0..e-1."""
    out = []
    for nv, edges in _census(max_edges):
        if not min_edges <= len(edges) <= max_edges:
            continue
        out.append(
            Graph.build(range(nv), [(i, u, v) for i, (u, v) in enumerate(edges)])
        )
    return out
