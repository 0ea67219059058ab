"""Richness ideals, their fans, choice functions, and smoothness."""

import hashlib
import math
import random
from collections import Counter, deque
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from richfan import (
    ChoiceFunction,
    Cone,
    Fan,
    Graph,
    MonomialIdeal,
    RealFamily,
    all_choice_functions,
    choice_cone,
    choice_function_fan,
    choice_monoid,
    cut_order_from_choice,
    factors_through,
    family_is_weakly_r_rich,
    ideal_product,
    ideal_product_many,
    newton_subdivision,
    pullback_to_contraction,
    richness_ideal,
    smoothness_report,
    weakly_rich_fan,
)
from richfan.catalog import small_connected_graphs
from richfan.cones import double_description, unit
from richfan.intlinalg import det
from richfan.errors import (
    DimensionMismatch,
    DisconnectedGraph,
    InvalidChoice,
    NotMinimalOrder,
    SchemaError,
    UnknownCoordinate,
)
from richfan import subdivision
from richfan.monoids import divisors
from richfan.subdivision import (
    _arrangement,
    _closure_of_choice,
    _cut_template_rows,
    _expand_rows,
    _pareto_np,
    _unique_rows,
)


def generic_richness(g: Graph, r: int) -> MonomialIdeal:
    """Reference route, straight from the definition: the product, over every
    cut and every divisor tuple lam of r on it, of the ideal generated by
    lam_e * x_e for the edges e of the cut."""
    ids = g.sorted_edge_ids()
    pos = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    parts = []
    for cut in g.cuts():
        for lam in product(divisors(r), repeat=len(cut)):
            gens = []
            for d, e in zip(lam, sorted(cut)):
                w = [0] * n
                w[pos[e]] = d
                gens.append(tuple(w))
            parts.append(MonomialIdeal.from_generators(n, gens))
    return ideal_product_many(n, parts)


def newton_reference(i: MonomialIdeal) -> Fan:
    """Reference route for newton_subdivision: one double description per
    generator m, cutting the orthant by <m' - m, x> >= 0 for every other
    generator m', keeping the full-dimensional cones."""
    n = i.rank
    gens = i.generators
    cones = []
    for m in gens:
        ineqs = [unit(n, j) for j in range(n)]
        for m2 in gens:
            if m2 is m:
                continue
            ineqs.append(tuple(a - b for a, b in zip(m2, m)))
        c = Cone.from_inequalities(n, ineqs)
        if c.dim() == n:
            cones.append(c)
    return Fan(n, cones)


def newton_fan_reference(g: Graph, r: int) -> Fan:
    """Reference route for weakly_rich_fan: the Newton fan of the whole
    richness ideal."""
    return newton_subdivision(richness_ideal(g, r))


def choice_enumeration_fan(g: Graph) -> Fan:
    """Reference route for the r = 1 fan: every choice function over the
    product of the cuts, grouped by the transitive closure it generates.
    Equal closures give equal cones, and a cone is full dimensional exactly
    when the closure is antisymmetric."""
    cuts = g.cuts()
    pos = {e: j for j, e in enumerate(g.sorted_edge_ids())}
    n = len(pos)
    seen = set()
    cones = []
    for picks in product(*cuts):
        pairs = {(pos[chosen], pos[e]) for c, chosen in zip(cuts, picks) for e in c if e != chosen}
        closure = _closure_of_choice(n, pairs)
        if closure is None or closure in seen:
            continue
        seen.add(closure)
        ineqs = [unit(n, j) for j in range(n)]
        for a, b in pairs:
            v = [0] * n
            v[b] += 1
            v[a] -= 1
            ineqs.append(tuple(v))
        cone = Cone.from_inequalities(n, ineqs)
        assert cone.dim() == n
        cones.append(cone)
    return Fan(n, cones)


def fixed_point_closure(n_edges: int, pairs) -> tuple[int, ...] | None:
    """Reference route for _closure_of_choice: OR in the rows of every
    reached coordinate until nothing changes, then test antisymmetry."""
    rows = [1 << i for i in range(n_edges)]
    for a, b in pairs:
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n_edges):
            acc = rows[i]
            m = acc
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    for i in range(n_edges):
        m = rows[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if j != i and rows[j] >> i & 1:
                return None
    return tuple(rows)


def plain_walk_reference(g: Graph, r: int) -> Fan:
    """Reference route for weakly_rich_fan: the breadth-first walk over every
    chamber, one double description each, without the edge symmetry."""
    n, _, start, chamber, neighbours = _arrangement(g, r)
    seen = {start}
    todo = deque([start])
    cones = []
    while todo:
        pattern = todo.popleft()
        cone = chamber(pattern)
        cones.append(cone)
        for nxt in neighbours(pattern, cone):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return Fan(n, cones)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its edges renamed to shuffled, non-contiguous ids."""
    ids = rng.sample(range(100), len(g.edges))
    return Graph.build(g.vertices, [(i, e.u, e.v) for i, e in zip(ids, g.edges)])


def _cut_template(size: int, r: int) -> MonomialIdeal:
    """The per-cut ideal of one cut of the given size, as a MonomialIdeal."""
    return MonomialIdeal(size, _cut_template_rows(size, r))


def cycle(n: int) -> Graph:
    return Graph.build(range(n), [(i, i, (i + 1) % n) for i in range(n)])


def banana(k: int) -> Graph:
    """k parallel edges between two vertices; banana(3) is the theta graph."""
    return Graph.build([0, 1], [(i, 0, 1) for i in range(k)])


TRIANGLE_R1 = {
    (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1),
}


def minimalize_small(uniq):
    """Reference route for small pullbacks: componentwise-minimal elements of
    a set of tuples, screened in (sum, lex) order and returned lex-sorted."""
    kept = []
    for v in sorted(uniq, key=lambda t: (sum(t), t)):
        if not any(all(k[i] <= v[i] for i in range(len(v))) for k in kept):
            kept.append(v)
    return sorted(kept)


@st.composite
def pareto_rows(draw, max_pool=12):
    """1 to 60 rows of rank 1 to 5, drawn from a pool of up to max_pool rows
    so that rows repeat.  Entries come from up to 4 values in one of a few
    ranges up to 2**62 - 1, so that rows dominate each other at every scale."""
    k = draw(st.integers(1, 5))
    hi = draw(st.sampled_from([1, 6, 1000, (1 << 62) - 1]))
    values = draw(st.lists(st.integers(0, hi), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(values), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=max_pool))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.int64)


def brute_minimal(gens):
    """Reference pruning: keep rows not strictly dominated by another row."""
    out = set()
    for g in gens:
        if any(
            h != g and all(a <= b for a, b in zip(h, g)) for h in gens
        ):
            continue
        out.add(tuple(g))
    return out


class TestMonomialIdeal:
    def test_minimalization_on_build(self):
        i = MonomialIdeal.from_generators(2, [(1, 0), (2, 0), (1, 1)])
        assert set(i.generators) == {(1, 0)}

    def test_unit(self):
        assert MonomialIdeal.unit(3).generators == ((0, 0, 0),)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(2, [(1, -1)])

    @pytest.mark.parametrize(
        "doc",
        [
            {"rank": 1, "generators": [[True]]},
            {"rank": True, "generators": [[1]]},
        ],
    )
    def test_from_obj_rejects_bool(self, doc):
        with pytest.raises(SchemaError):
            MonomialIdeal.from_obj(doc)

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal.from_generators(2, [(1, 0, 0)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_minimalize_matches_brute_force(self, gens):
        assert set(MonomialIdeal.from_generators(3, gens).generators) == brute_minimal(gens)

    @pytest.mark.parametrize("scale", [1, 7, 300, 5000, 1 << 40])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_pareto_np_matches_brute_force(self, scale, k):
        # antichains on a few sum levels, plus dominated and repeated rows.
        # Values reach 8 * scale: the kept rows fold into bit tables up to
        # scale 300, and only the dense compare runs above that
        rng = np.random.default_rng(100 * k + scale % 97)
        rows = []
        for level in (4, 5, 6):
            for _ in range(40):
                cut = np.sort(rng.integers(0, level + 1, size=k - 1))
                rows.append(np.diff(np.r_[0, cut, level]))
        rows = np.array(rows, dtype=np.int64)
        dominated = rows[rng.integers(0, len(rows), 80)] + rng.integers(0, 3, (80, k))
        arr = np.concatenate([rows, dominated, rows[:20]]) * scale
        arr = arr[rng.permutation(len(arr))]
        got = [tuple(row) for row in _pareto_np(arr).tolist()]
        assert got == sorted(set(got))
        assert set(got) == brute_minimal([tuple(row) for row in arr.tolist()])

    # a pool of at most 2 rows makes most rows equal to an earlier one
    @given(st.one_of(pareto_rows(), pareto_rows(max_pool=2)))
    @settings(max_examples=300, deadline=None)
    def test_pareto_np_routes_match_brute_force(self, arr):
        # _PAIRS_CELLS = 0 sends every input through the sum-level screen,
        # 10**12 every input through the all-pairs compare
        want = sorted(brute_minimal([tuple(row) for row in arr.tolist()]))
        before = arr.copy()
        for cells in (0, 10**12):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(subdivision, "_PAIRS_CELLS", cells)
                got = _pareto_np(arr)
            assert got.dtype == np.int64
            assert [tuple(row) for row in got.tolist()] == want
        assert np.array_equal(arr, before)

    def test_exponent_limit_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(1, [(1 << 62,)])

    def test_product_reaching_limit_rejected(self):
        big = MonomialIdeal.from_generators(1, [(1 << 61,)])
        with pytest.raises(ValueError):
            ideal_product(big, big)
        below = MonomialIdeal.from_generators(1, [((1 << 61) - 1,)])
        assert ideal_product(big, below).generators == (((1 << 62) - 1,),)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_product_matches_pairwise_sums(self, a, b):
        ia = MonomialIdeal.from_generators(2, a)
        ib = MonomialIdeal.from_generators(2, b)
        got = set(ideal_product(ia, ib).generators)
        sums = [tuple(x + y for x, y in zip(p, q)) for p in a for q in b]
        assert got == brute_minimal(sums)

    def test_product_in_chunks_matches_brute_force(self, monkeypatch):
        # a 20-cell chunk bound splits every product below into many chunks
        monkeypatch.setattr(subdivision, "_CHUNK_CELLS", 20)
        screens = []
        pareto = subdivision._pareto_np
        monkeypatch.setattr(
            subdivision, "_pareto_np", lambda a: screens.append(len(a)) or pareto(a)
        )
        rng = random.Random(8)
        for _ in range(40):
            k = rng.randint(1, 4)
            a = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(rng.randint(1, 12))]
            b = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(rng.randint(1, 12))]
            ia = MonomialIdeal.from_generators(k, a)
            ib = MonomialIdeal.from_generators(k, b)
            screens.clear()
            got = ideal_product(ia, ib)
            sums = [tuple(x + y for x, y in zip(p, q)) for p in a for q in b]
            assert got.generators == tuple(sorted(brute_minimal(sums)))
            # every chunk is screened on its own, then the survivors once
            step = max(1, 20 // (len(ib.rows) * k))
            chunks = -(-len(ia.rows) // step)
            assert len(screens) == (chunks + 1 if chunks > 1 else 1)
            assert all(n <= step * len(ib.rows) for n in screens[:chunks])

    def test_chunks_are_bounded_in_cells(self, monkeypatch):
        # the same 16 x 2 product builds twice as many chunks at rank 8 as at
        # rank 4: a chunk holds _CHUNK_CELLS cells, not a fixed row count
        monkeypatch.setattr(subdivision, "_CHUNK_CELLS", 64)
        screens = []
        pareto = subdivision._pareto_np
        monkeypatch.setattr(
            subdivision, "_pareto_np", lambda a: screens.append(len(a)) or pareto(a)
        )
        chunks = {}
        for k in (4, 8):
            ia = MonomialIdeal.from_generators(k, [(i, 15 - i) + (0,) * (k - 2) for i in range(16)])
            ib = MonomialIdeal.from_generators(k, [unit(k, 0), unit(k, 1)])
            screens.clear()
            got = ideal_product(ia, ib)
            sums = [tuple(x + y for x, y in zip(p, q)) for p in ia.generators for q in ib.generators]
            assert got.generators == tuple(sorted(brute_minimal(sums)))
            chunks[k] = len(screens) - 1  # one screen per chunk, then the survivors
        assert chunks == {4: 2, 8: 4}

    def test_product_example(self):
        xy = MonomialIdeal.from_generators(3, [(1, 0, 0), (0, 1, 0)])
        xz = MonomialIdeal.from_generators(3, [(1, 0, 0), (0, 0, 1)])
        got = set(ideal_product(xy, xz).generators)
        assert got == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_unit_is_identity(self):
        i = MonomialIdeal.from_generators(2, [(1, 2), (3, 0)])
        assert ideal_product(i, MonomialIdeal.unit(2)).generators == i.generators

    def test_product_commutes_and_associates(self):
        rng = random.Random(2)
        for _ in range(25):
            ids = [
                MonomialIdeal.from_generators(
                    3,
                    [
                        tuple(rng.randint(0, 3) for _ in range(3))
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                for _ in range(3)
            ]
            a, b, c = ids
            assert ideal_product(a, b).generators == ideal_product(b, a).generators
            left = ideal_product(ideal_product(a, b), c)
            right = ideal_product(a, ideal_product(b, c))
            assert left.generators == right.generators
            assert ideal_product_many(3, [a, b, c]).generators == left.generators

    def test_round_trip(self):
        i = MonomialIdeal.from_generators(2, [(1, 0), (0, 2)])
        assert MonomialIdeal.from_obj(i.to_obj()).generators == i.generators


@st.composite
def int64_rows(draw):
    """A 2-d int64 array with repeated rows, 0 to 30 rows and 0 to 4
    columns, with values in one of a few ranges up to all of int64."""
    k = draw(st.integers(0, 4))
    lo, hi = draw(
        st.sampled_from(
            [(0, 3), (-5, 5), (0, 1000), (0, (1 << 62) - 1), (-(1 << 62), (1 << 62) - 1), (-(1 << 63), (1 << 63) - 1)]
        )
    )
    row = st.lists(st.integers(lo, hi), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), k)


def expand_rows_reference(arr, blocks):
    """Reference route for _expand_rows: one image array per permutation of
    each block, written column by column, then the distinct rows."""
    out = arr
    for b in blocks:
        if len(b) <= 1:
            continue
        cols = list(b)
        perms = list(permutations(cols))
        imgs = np.repeat(out[None], len(perms), axis=0)
        for img, p in zip(imgs, perms):
            img[:, cols] = out[:, list(p)]
        out = np.unique(imgs.reshape(-1, out.shape[1]), axis=0)
    return out


@st.composite
def blocked_rows(draw):
    """int64 rows of rank 1 to 6 with repeats, and a partition of the
    coordinates into blocks: shuffled coordinates cut at random points."""
    k = draw(st.integers(1, 6))
    lo, hi = draw(st.sampled_from([(0, 3), (-5, 5), (0, (1 << 62) - 1), (-(1 << 63), (1 << 63) - 1)]))
    row = st.lists(st.integers(lo, hi), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    arr = np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), k)
    coords = draw(st.permutations(range(k)))
    cuts = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    blocks, cur = [], [coords[0]]
    for x, cut in zip(coords[1:], cuts):
        if cut:
            blocks.append(cur)
            cur = []
        cur.append(x)
    blocks.append(cur)
    return arr, tuple(sorted(tuple(sorted(b)) for b in blocks))


class TestRows:
    """MonomialIdeal keeps its minimal generators as one lex-sorted,
    read-only int64 array; generators is the same set as tuples."""

    @given(int64_rows())
    @settings(max_examples=300, deadline=None)
    def test_unique_rows_matches_numpy(self, a):
        got = _unique_rows(a)
        want = np.unique(a, axis=0)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    @given(blocked_rows())
    @example((np.arange(18, dtype=np.int64).reshape(3, 6) % 4, ((0, 2, 3, 4, 5), (1,))))
    @example((np.array([[1, 1, 2, 2, 3]], dtype=np.int64), ((0, 1, 2, 3, 4),)))
    @settings(max_examples=200, deadline=None)
    def test_expand_rows_matches_reference(self, case):
        arr, blocks = case
        got = _expand_rows(arr, blocks)
        want = expand_rows_reference(arr, blocks)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_unique_rows_word_boundaries(self):
        # words here: [all of int64], [two 0/1 columns packed], [all of int64]
        top, bot = (1 << 63) - 1, -(1 << 63)
        a = np.array(
            [[top, 1, 0, top], [bot, 0, 1, bot], [0, 1, 1, 0], [bot, 0, 1, bot], [bot, 1, 0, bot]],
            dtype=np.int64,
        )
        assert np.array_equal(_unique_rows(a), np.unique(a, axis=0))
        # 2 * 2**63 codes do not fit below 2**64: two words
        b = np.array([[1, (1 << 62) - 1], [0, -(1 << 62)], [1, -(1 << 62)], [0, 0], [1, -(1 << 62)]], dtype=np.int64)
        assert np.array_equal(_unique_rows(b), np.unique(b, axis=0))

    @staticmethod
    def routes(triangle):
        square = cycle(4)
        big = richness_ideal(square, 2)
        pairs = [
            MonomialIdeal.from_generators(3, [unit(3, i), unit(3, j)])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        return [
            MonomialIdeal.from_generators(3, [(2, 0, 1), (0, 1, 5), (1, 1, 1), (2, 0, 3)]),
            MonomialIdeal.from_generators(4, big.generators),
            MonomialIdeal.unit(0),
            MonomialIdeal.unit(2),
            ideal_product(pairs[0], pairs[1]),
            ideal_product(big, MonomialIdeal.from_generators(4, [(1, 0, 0, 0), (0, 0, 0, 2)])),
            ideal_product_many(3, pairs),
            pullback_to_contraction(richness_ideal(triangle, 1), [0]),
            pullback_to_contraction(big, [0]),
            pullback_to_contraction(big, [0, 1, 2, 3]),
            richness_ideal(triangle, 1),
            big,
        ]

    def test_rows_on_every_route(self, triangle):
        for i in self.routes(triangle):
            rows = i.rows
            assert not rows.flags.writeable
            assert rows.dtype == np.int64
            want = np.array(i.generators, dtype=np.int64).reshape(len(i.generators), i.rank)
            assert np.array_equal(rows, want)
            assert list(i.generators) == sorted(set(i.generators))
            assert i.to_obj() == {"rank": i.rank, "generators": [list(g) for g in i.generators]}

    def test_equality_and_hash_across_routes(self, triangle):
        square = cycle(4)
        contracted = richness_ideal(square.contract([0]), 2)
        pulled = pullback_to_contraction(richness_ideal(square, 2), [0])
        tri = richness_ideal(triangle, 1)
        pairs = [
            MonomialIdeal.from_generators(3, [unit(3, i), unit(3, j)])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        for ideal, others in (
            (
                contracted,
                [
                    pulled,
                    MonomialIdeal.from_generators(3, reversed(pulled.generators)),
                    MonomialIdeal.from_obj(pulled.to_obj()),
                    ideal_product(pulled, MonomialIdeal.unit(3)),
                ],
            ),
            (
                tri,
                [
                    ideal_product_many(3, pairs),
                    MonomialIdeal.from_generators(3, TRIANGLE_R1),
                    pullback_to_contraction(richness_ideal(cycle(4), 1), [0]),
                ],
            ),
        ):
            for other in others:
                assert other == ideal and hash(other) == hash(ideal)
        assert tri != MonomialIdeal.from_generators(3, list(TRIANGLE_R1)[1:])
        assert MonomialIdeal.unit(2) != MonomialIdeal.unit(3)

    def test_constructor_takes_any_integer_rows(self):
        # int32 rows and tuples store the same int64 rows as the int64 route,
        # so == and hash agree; the caller's array stays writeable
        gens = ((0, 2), (1, 1), (3, 0))
        want = MonomialIdeal.from_generators(2, gens)
        small = np.array(gens, dtype=np.int32)
        for i in (MonomialIdeal(2, small), MonomialIdeal(2, gens), MonomialIdeal(2, want.rows)):
            assert i.rows.dtype == np.int64 and not i.rows.flags.writeable
            assert i == want and hash(i) == hash(want)
        assert small.flags.writeable
        assert MonomialIdeal(0, ((),)) == MonomialIdeal.unit(0)

    def test_rows_are_read_only(self):
        i = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            i.rows[0, 0] = 5
        for name in ("rank", "rows"):
            with pytest.raises(AttributeError):
                setattr(i, name, getattr(i, name))
        assert i.generators == ((0, 1), (1, 0))

    @pytest.mark.parametrize("big", [1 << 63, 1 << 62])
    def test_exponent_at_limit_from_obj(self, big):
        with pytest.raises(ValueError):
            MonomialIdeal.from_obj({"rank": 1, "generators": [[big]]})

    def test_row_sums_beyond_int64(self):
        # three exponents near 2**62 sum past 2**63; 602 rows of rank 3 are
        # past _PAIRS_CELLS and take the sum-level screen, which must still
        # see (0, 0, top) <= (top, top, top)
        top = (1 << 62) - 1
        gens = [(top, top, top), (0, 0, top)] + [(i, 600 - i, 0) for i in range(600)]
        i = MonomialIdeal.from_generators(3, gens)
        assert set(i.generators) == set(gens[1:])

    def test_caches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(subdivision, "_RICHNESS_CACHE_ENTRIES", 2)
        monkeypatch.setattr(subdivision, "_richness_cache", {})
        for n in (2, 3, 4):
            richness_ideal(cycle(n), 1)
        assert [key[0] for key in subdivision._richness_cache] == [3, 4]
        for cached in (subdivision._cut_template_rows, subdivision._cut_template_reps):
            assert cached.cache_info().maxsize == subdivision._TEMPLATE_CACHE_ENTRIES


class TestRichnessIdeal:
    def test_triangle_r1(self, triangle):
        assert set(richness_ideal(triangle, 1).generators) == TRIANGLE_R1

    def test_triangle_r1_is_cut_product(self, triangle):
        pairs = [
            MonomialIdeal.from_generators(3, [unit(3, i), unit(3, j)])
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        assert set(ideal_product_many(3, pairs).generators) == TRIANGLE_R1

    def test_twogon_r1(self, twogon):
        assert set(richness_ideal(twogon, 1).generators) == {(1, 0), (0, 1)}

    def test_bridge_principal(self, bridge):
        # one cut {e}: the product of lam * x_e over the divisors lam of r
        for r, sigma in ((1, 1), (2, 3), (6, 12), (12, 28), (720, 2418)):
            assert richness_ideal(bridge, r).generators == ((sigma,),), r

    def test_loop_gives_unit(self, loop_graph):
        # loops enter no cut, so the product is empty
        assert richness_ideal(loop_graph, 1).generators == ((0,),)

    def test_exponent_bound_checked_up_front(self, triangle, monkeypatch):
        # the caps on r and divisor tuples keep real inputs below 2**62, so a
        # lowered limit stands in: three 2-edge cuts at r=2 bound 3 * 2 * 2**2
        monkeypatch.setattr(subdivision, "_VALUE_LIMIT", 24)
        with pytest.raises(ValueError):
            richness_ideal(triangle, 2)

    def test_infinite_r_rejected(self, triangle):
        from richfan import INF

        with pytest.raises(ValueError):
            richness_ideal(triangle, INF)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_symmetric_route_matches_generic_triangle(self, triangle, r):
        fast = set(richness_ideal(triangle, r).generators)
        slow = set(generic_richness(triangle, r).generators)
        assert fast == slow

    def test_symmetric_route_matches_generic_more(self):
        c4 = Graph.build([0, 1, 2, 3], [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
        banana3 = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        pend = Graph.build([0, 1, 2], [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
        for g, r in ((c4, 1), (c4, 2), (banana3, 2), (banana3, 3), (pend, 2)):
            fast = set(richness_ideal(g, r).generators)
            slow = set(generic_richness(g, r).generators)
            assert fast == slow, (g.to_obj(), r)

    def test_small_chunks_give_the_same_ideals(self, theta, monkeypatch):
        graphs = [(cycle(4), 2), (theta, 3), (cycle(3), 2)]
        expect = [richness_ideal(g, r) for g, r in graphs]
        reps = subdivision._cut_template_reps(3, 2)
        monkeypatch.setattr(subdivision, "_CHUNK_CELLS", 200)
        monkeypatch.setattr(subdivision, "_richness_cache", {})
        assert [richness_ideal(g, r) for g, r in graphs] == expect
        assert np.array_equal(subdivision._cut_template_reps.__wrapped__(3, 2), reps)

    def test_symmetric_route_matches_generic_census(self):
        # every graph with at most 3 edges, one-edge graphs included
        for g in small_connected_graphs(3):
            for r in (1, 2, 3):
                fast = richness_ideal(g, r).generators
                assert fast == generic_richness(g, r).generators, (g.to_obj(), r)

    def test_cut_template_matches_generic(self):
        # one cut of size k: the template equals the direct tuple product
        for k, r in ((1, 4), (2, 2), (2, 3), (3, 2), (3, 3)):
            g = Graph.build([0, 1], [(i, 0, 1) for i in range(k)])
            fast = set(_cut_template(k, r).generators)
            slow = set(generic_richness(g, r).generators)
            assert fast == slow, (k, r)

    def test_generator_counts_stable(self):
        # frozen counts guard the pruning pipeline against regressions
        c4 = Graph.build([0, 1, 2, 3], [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
        banana4 = Graph.build([0, 1], [(i, 0, 1) for i in range(4)])
        assert len(richness_ideal(c4, 2).generators) == 2634
        assert len(richness_ideal(banana4, 2).generators) == 1240
        assert len(richness_ideal(c4, 1).generators) == 38


class TestPullback:
    def test_triangle_to_twogon(self, triangle):
        i = richness_ideal(triangle, 1)
        got = pullback_to_contraction(i, [0])
        assert set(got.generators) == {(1, 0), (0, 1)}

    def test_empty_subset_identity(self, triangle):
        i = richness_ideal(triangle, 1)
        assert pullback_to_contraction(i, []).generators == i.generators

    def test_full_support_collapses_to_unit(self):
        i = MonomialIdeal.from_generators(1, [(2,)])
        assert pullback_to_contraction(i, [0]).generators == ((),)

    def test_unknown_coordinate(self, triangle):
        i = richness_ideal(triangle, 1)
        with pytest.raises(UnknownCoordinate):
            pullback_to_contraction(i, [5])

    def test_matches_tuple_route_on_census(self):
        # every coordinate subset of every ideal of the <=4-edge census at
        # r = 1, 2, against minimalization of the sliced tuples
        for g in small_connected_graphs(4):
            for r in (1, 2):
                i = richness_ideal(g, r)
                for m in range(i.rank + 1):
                    for s in combinations(range(i.rank), m):
                        keep = [j for j in range(i.rank) if j not in s]
                        want = minimalize_small(set(map(tuple, i.rows[:, keep].tolist())))
                        got = pullback_to_contraction(i, s)
                        assert got.rank == len(keep)
                        assert got.generators == tuple(want), (g.to_obj(), r, s)

    TOP = (1 << 62) - 1

    @pytest.mark.parametrize(
        "gens, drop",
        [
            # a row zero off the drop set: the unit ideal
            ([(1, 0, 0), (0, 2, 1), (0, 1, 3)], [0]),
            # three rows tied at the least sum, and a fourth above one of them
            ([(2, 0, 1), (0, 2, 1), (1, 1, 0), (3, 0, 0)], [2]),
            # duplicate projections
            ([(1, 0, 3), (1, 3, 0), (2, 1, 1), (0, 4, 4)], [1, 2]),
            ([(0, 3), (1, 2), (3, 0)], []),
            ([(0, 3), (1, 2), (3, 0)], [0, 1]),
            # (TOP, TOP, 2) sums to 2**63, which wraps to the least int64
            ([(TOP, TOP, 2), (0, 5, 3), (1, 0, TOP)], []),
            ([(TOP, TOP, 2, 0), (0, 5, 3, 1), (1, 0, TOP, 0), (0, TOP, TOP, 0)], [3]),
        ],
    )
    def test_screen_cases(self, gens, drop):
        i = MonomialIdeal.from_generators(len(gens[0]), gens)
        keep = [j for j in range(i.rank) if j not in drop]
        want = sorted(brute_minimal([tuple(g[j] for j in keep) for g in i.generators]))
        assert pullback_to_contraction(i, drop).generators == tuple(want)

    @given(pareto_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, rows, data):
        # an antichain of rank 1 to 5 with entries up to 2**62 - 1, and any
        # drop set, the empty and the full one included
        gens = sorted(brute_minimal(rows.tolist()))
        i = MonomialIdeal(rows.shape[1], gens)
        drop = data.draw(st.sets(st.integers(0, i.rank - 1)))
        keep = [j for j in range(i.rank) if j not in drop]
        want = sorted(brute_minimal([tuple(g[j] for j in keep) for g in gens]))
        got = pullback_to_contraction(i, drop)
        assert got.rank == len(keep)
        assert got.generators == tuple(want)

    def test_census_digest(self):
        # pins the bytes of the ideal layer: every ideal of the <=5-edge
        # census at r = 1 (and r = 2 up to 4 edges), then its pullback to
        # every coordinate subset, in census and combinations order
        h = hashlib.sha256()
        pulled = 0
        for g in small_connected_graphs(5):
            for r in (1, 2):
                if r == 2 and len(g.sorted_edge_ids()) > 4:
                    continue
                base = richness_ideal(g, r)
                h.update(repr((r, base.rows.tolist())).encode())
                for k in range(base.rank + 1):
                    for s in combinations(range(base.rank), k):
                        h.update(repr(pullback_to_contraction(base, s).rows.tolist()).encode())
                        pulled += 1
        assert pulled == 4218
        assert h.hexdigest()[:16] == "8bc29c182f3fc32d"

    def test_matches_recomputation(self):
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 1)])
        ids = g.sorted_edge_ids()
        for r in (1, 2):
            i = richness_ideal(g, r)
            for s in ([0], [3], [0, 2], [1, 2, 3]):
                pos = [ids.index(e) for e in s]
                left = pullback_to_contraction(i, pos)
                h = g.contract(s)
                right = richness_ideal(h, r)
                assert set(left.generators) == set(right.generators), (s, r)


class TestNewtonSubdivision:
    def test_twogon_ideal(self):
        i = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
        fan = newton_subdivision(i)
        assert fan == Fan(
            2,
            [Cone.from_rays(2, [(1, 0), (1, 1)]), Cone.from_rays(2, [(1, 1), (0, 1)])],
        )

    def test_principal_gives_orthant(self):
        i = MonomialIdeal.from_generators(2, [(3, 1)])
        fan = newton_subdivision(i)
        assert len(fan.cones) == 1
        assert fan.cones[0] == Cone.from_rays(2, [(1, 0), (0, 1)])

    def test_triangle_r1_permutation_cones(self, triangle):
        fan = newton_subdivision(richness_ideal(triangle, 1))
        expect = set()
        for sigma in permutations(range(3)):
            ineqs = [
                tuple(
                    (1 if k == sigma[j] else 0) - (1 if k == sigma[j + 1] else 0)
                    for k in range(3)
                )
                for j in range(2)
            ] + [unit(3, sigma[2])]
            expect.add(Cone.from_inequalities(3, ineqs))
        assert set(fan.cones) == expect

    def test_redundant_generator_dropped(self):
        # (1,1) never wins strictly, so only two maximal cones remain
        i = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
        j = MonomialIdeal.from_generators(2, [(1, 0), (0, 1), (1, 1)])
        assert newton_subdivision(i) == newton_subdivision(j)

    def test_product_refines(self):
        rng = random.Random(23)
        for _ in range(30):
            rank = rng.randint(1, 3)
            gens = lambda: [
                tuple(rng.randint(0, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 3))
            ]
            a = MonomialIdeal.from_generators(rank, gens())
            b = MonomialIdeal.from_generators(rank, gens())
            left = newton_subdivision(ideal_product(a, b))
            right = newton_subdivision(a).refine(newton_subdivision(b))
            assert {c.rays for c in left.cones} == {c.rays for c in right.cones}

    def test_matches_reference_random(self):
        rng = random.Random(31)
        for _ in range(200):
            rank = rng.randint(0, 4)
            gens = [
                tuple(rng.randint(0, 5) for _ in range(rank))
                for _ in range(rng.randint(1, 12))
            ]
            i = MonomialIdeal.from_generators(rank, gens)
            assert newton_subdivision(i) == newton_reference(i), i

    def test_matches_reference_unit(self):
        for n in range(4):
            i = MonomialIdeal.unit(n)
            fan = newton_subdivision(i)
            assert fan == newton_reference(i)
            assert len(fan.cones) == 1

    def test_matches_reference_census(self):
        checked = 0
        for g in small_connected_graphs(4):
            if not g.edges:
                continue
            for r in (1, 2):
                i = richness_ideal(g, r)
                if len(i.generators) <= 300:
                    assert newton_subdivision(i) == newton_reference(i), (g, r)
                    checked += 1
        assert checked > 50

    def test_four_cycle_r2(self):
        square = Graph.build(
            [0, 1, 2, 3], [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)]
        )
        fan = newton_fan_reference(square, 2)
        assert len(fan.cones) == 336
        assert fan.is_complete_on_orthant() and fan.is_valid()
        assert fan == weakly_rich_fan(square, 2)

    def test_theta_r4(self, theta):
        fan = newton_fan_reference(theta, 4)
        assert len(fan.cones) == 39
        assert fan == weakly_rich_fan(theta, 4)


class TestChamberWalk:
    # r = 1 is TestChoiceFunctions::test_fan_equals_newton_fan_small
    @pytest.mark.parametrize("max_edges, r", [(4, 2), (3, 3)])
    def test_matches_newton_reference_census(self, max_edges, r):
        for g in small_connected_graphs(max_edges):
            assert weakly_rich_fan(g, r) == newton_fan_reference(g, r), (g.to_obj(), r)

    @pytest.mark.parametrize(
        "n, m, count",
        [
            (3, 0, 6), (4, 0, 24), (6, 0, 720), (3, 1, 30), (4, 1, 336), (5, 1, 5040),
            (2, 2, 6), (3, 2, 72), (4, 2, 1320), (3, 3, 132),
        ],
    )
    def test_cycle_counts_are_extended_catalan(self, n, m, count):
        # on the n-cycle at r = 2^m the walls are y_e - y_f = k log 2 with
        # |k| <= m in log coordinates: the m-extended Catalan arrangement, with
        # n! C((m+1)n, n) / (mn+1) regions (Postnikov & Stanley, JCTA 2000)
        assert count == math.factorial(n) * math.comb((m + 1) * n, n) // (m * n + 1)
        fan = weakly_rich_fan(cycle(n), 2**m)
        assert len(fan.cones) == count
        assert fan.is_complete_on_orthant()

    @pytest.mark.parametrize(
        "graphs, r",
        [
            *((small_connected_graphs(4), r) for r in (1, 2, 3)),
            (small_connected_graphs(5), 1),
            ([cycle(4)], 2),
            ([cycle(4)], 4),
            ([cycle(5)], 2),
        ],
        ids=["census4-r1", "census4-r2", "census4-r3", "census5-r1", "4-cycle-r2", "4-cycle-r4", "5-cycle-r2"],
    )
    def test_matches_plain_walk(self, graphs, r):
        # the same rays, lines and facet normals, cone by cone, also with
        # shuffled edge ids, which move the symmetry blocks around
        rng = random.Random(r)
        for g in graphs:
            for h in (g, relabelled(g, rng)):
                walk, plain = weakly_rich_fan(h, r), plain_walk_reference(h, r)
                assert [(c.rays, c.lines, c.facet_normals) for c in walk.cones] == [
                    (c.rays, c.lines, c.facet_normals) for c in plain.cones
                ], (h.to_obj(), r)

    @pytest.mark.parametrize(
        "graphs, r, limit",
        [
            *((small_connected_graphs(4), r, math.inf) for r in (2, 3)),
            ([cycle(4)], 2, math.inf),
            ([cycle(4)], 4, math.inf),
            ([banana(3)], 6, math.inf),
            ([banana(3)], 12, math.inf),
            ([banana(2)], 12, math.inf),
            ([cycle(5)], 2, 300),
        ],
        ids=["census4-r2", "census4-r3", "4-cycle-r2", "4-cycle-r4", "theta-r6", "theta-r12",
             "2-gon-r12", "5-cycle-r2-prefix"],
    )
    def test_chamber_matches_every_wall_inequality(self, graphs, r, limit):
        # chamber keeps one inequality per pair (h, e); its cone must be the
        # one cut out by all of the pattern's, rebuilt here from the walls
        for g in graphs:
            n, walls, start, chamber, neighbours = _arrangement(g, r)
            units = [unit(n, j) for j in range(n)]
            seen, todo, checked = {start}, deque([start]), 0
            while todo and checked < limit:
                pattern = todo.popleft()
                cone = chamber(pattern)
                ineqs = set()
                for (ps, lam), j in zip(walls, pattern):
                    for k in range(len(ps)):
                        if k != j:
                            v = [0] * n
                            v[ps[k]], v[ps[j]] = lam[k], -lam[j]
                            ineqs.add(tuple(v))
                exact = Cone.from_inequalities(n, units + sorted(ineqs))
                assert (cone.rays, cone.lines, cone.facet_normals) == (
                    exact.rays, exact.lines, exact.facet_normals
                ), (g.to_obj(), r, pattern)
                checked += 1
                for nxt in neighbours(pattern, cone):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)

    def test_one_double_description_per_orbit(self, monkeypatch):
        # S_5 permutes the 5,040 chambers of the 5-cycle at r=2 in 42 orbits,
        # the Catalan number C_5
        calls = []

        def counted(*args):
            calls.append(args[0])
            return double_description(*args)

        monkeypatch.setattr("richfan.cones.double_description", counted)
        assert len(weakly_rich_fan(cycle(5), 2).cones) == 5040
        assert len(calls) == 42

    def test_chamber_limit(self, monkeypatch):
        # the 4-cycle at r=2: 336 chambers in 14 orbits of 24
        monkeypatch.setattr(subdivision, "MAX_CHAMBERS", 336)
        assert len(weakly_rich_fan(cycle(4), 2).cones) == 336
        monkeypatch.setattr(subdivision, "MAX_CHAMBERS", 100)
        with pytest.raises(ValueError, match="^the walk reached 120 chambers, above the limit of 100$"):
            weakly_rich_fan(cycle(4), 2)

    def test_duals_match_double_description(self):
        # the walk's cones carry duals read off the tight masks
        for g in small_connected_graphs(4):
            for r in (1, 2):
                for c in weakly_rich_fan(g, r).cones:
                    fresh = Cone(c.rank, c.rays, c.lines)
                    assert c.facet_normals == fresh.facet_normals, (g.to_obj(), r, c)
                    assert c.span_equations == fresh.span_equations == ()


def random_family(g: Graph, rng: random.Random) -> RealFamily:
    """A seeded family over g: sigma of rank 0 to 3, possibly with the last
    coordinate as a line, with up to 4 rays; the rows vanish on the line."""
    rank = rng.choice((0, 1, 2, 3, 3, 3))
    lines = [unit(rank, rank - 1)] if rank and rng.random() < 0.3 else []
    free = rank - len(lines)
    rays = [
        tuple(rng.randint(0, 3) for _ in range(free)) + tuple(rng.randint(-2, 2) for _ in lines)
        for _ in range(rng.randint(0, 4))
    ]
    rows = {
        e: tuple(rng.randint(0, 3) for _ in range(free)) + (0,) * len(lines)
        for e in g.sorted_edge_ids()
    }
    return RealFamily.build(g, Cone.from_rays(rank, [v for v in rays if any(v)], lines), rows)


class TestFactors:
    def test_weakly_rich_exactly_when_factoring_through_the_fan(self):
        # the fan route, factors_through on the whole walk, is the oracle of
        # the direct test that the factors verb runs
        rng = random.Random(13)
        answers = {True: 0, False: 0}
        shapes = set()
        for r in (1, 2, 3, 4, 6):
            for g in small_connected_graphs(4):
                fan = weakly_rich_fan(g, r)
                for _ in range(6):
                    fam = random_family(g, rng)
                    direct = family_is_weakly_r_rich(fam, r)
                    assert factors_through(fam, fan) == direct, (fam.to_obj(), r)
                    answers[direct] += 1
                    shapes.add((fam.cone.rank, bool(fam.cone.lines)))
        assert answers[False] >= 100 and answers[True] >= 100, answers  # 129 and 1,311
        assert {(0, False), (3, True), (3, False)} <= shapes


class TestChoiceFunctions:
    def test_count_for_triangle(self, triangle):
        assert sum(1 for _ in all_choice_functions(triangle)) == 8

    def test_invalid_choice_rejected(self, twogon):
        with pytest.raises(InvalidChoice):
            ChoiceFunction.build(twogon, {(0, 1): 7})

    def test_missing_cut_rejected(self, triangle):
        with pytest.raises(InvalidChoice):
            ChoiceFunction.build(triangle, {(0, 1): 0})

    @pytest.mark.parametrize(
        "vertices, edges, choices, error",
        [
            # a chosen edge outside its cut
            ([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)],
             {(0, 1): 2, (0, 2): 0, (1, 2): 1}, InvalidChoice),
            # a missing cut
            ([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)],
             {(0, 1): 0, (0, 2): 0}, InvalidChoice),
            # an extra key
            ([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)],
             {(0, 1): 0, (0, 2): 0, (1, 2): 1, (0, 1, 2): 0}, InvalidChoice),
            # a disconnected graph
            ([0, 1, 2, 3], [(0, 0, 1), (1, 2, 3)], {(0,): 0, (1,): 1}, DisconnectedGraph),
        ],
    )
    def test_every_route_rejects_a_bad_choice_alike(self, vertices, edges, choices, error):
        g = Graph.build(vertices, edges)
        f = ChoiceFunction(tuple(sorted(choices.items())))  # bypasses build
        with pytest.raises(error):
            ChoiceFunction.build(g, choices)
        for route in (choice_cone, choice_monoid, cut_order_from_choice):
            with pytest.raises(error):
                route(g, f)

    def test_twogon_cone(self, twogon):
        # chosen edge is the smallest: picking 0 gives {0 <= x0 <= x1}
        f = ChoiceFunction.build(twogon, {(0, 1): 0})
        assert choice_cone(twogon, f) == Cone.from_rays(2, [(0, 1), (1, 1)])
        g = ChoiceFunction.build(twogon, {(0, 1): 1})
        assert choice_cone(twogon, g) == Cone.from_rays(2, [(1, 0), (1, 1)])

    def test_triangle_chain_cone(self, triangle):
        f = ChoiceFunction.build(
            triangle, {(0, 1): 0, (0, 2): 0, (1, 2): 1}
        )
        # x0 <= x1 <= x2
        assert choice_cone(triangle, f) == Cone.from_inequalities(
            3, [(-1, 1, 0), (0, -1, 1), (1, 0, 0)]
        )

    def test_cyclic_choice_collapses(self, triangle):
        f = ChoiceFunction.build(
            triangle, {(0, 1): 0, (1, 2): 1, (0, 2): 2}
        )
        c = choice_cone(triangle, f)
        assert c.dim() == 1
        assert c.rays == ((1, 1, 1),)

    def test_closure_matches_fixed_point_reference(self):
        rng = random.Random(11)
        answers = {True: 0, False: 0}
        for _ in range(5000):
            n = rng.randint(0, 8)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            closure = _closure_of_choice(n, pairs)
            assert closure == fixed_point_closure(n, pairs), (n, pairs)
            answers[closure is None] += 1
        assert min(answers.values()) >= 1000, answers

    def test_choice_cones_match_the_full_pair_list(self):
        # every minimal choice on the census up to 5 edges: choice_cone and
        # the choice monoid's cone against one double description of all the
        # units and every (repeated) pair, as the cones were built before
        minimal = 0
        for g in small_connected_graphs(5):
            pos = {e: j for j, e in enumerate(g.sorted_edge_ids())}
            n = len(pos)
            for f in all_choice_functions(g):
                pairs = [(pos[h], pos[e]) for c, h in f.choices for e in c if e != h]
                if _closure_of_choice(n, pairs) is None:
                    continue
                minimal += 1
                rows = [unit(n, j) for j in range(n)]
                for h, e in pairs:
                    v = [0] * n
                    v[e], v[h] = 1, -1
                    rows.append(tuple(v))
                want = Cone.from_inequalities(n, rows)
                cone = choice_cone(g, f)
                monoid = choice_monoid(g, f).cone
                assert (cone.rays, cone.lines) == (want.rays, want.lines)
                assert cone.dual() == want.dual()
                assert (monoid.rays, monoid.lines) == (want.dual().rays, want.dual().lines)
                assert monoid.dual() == want
        assert minimal == 646

    def test_fan_equals_newton_fan_small(self):
        for g in small_connected_graphs(4):
            fan = choice_function_fan(g)
            assert fan == newton_fan_reference(g, 1), g.to_obj()
            assert fan == choice_enumeration_fan(g), g.to_obj()


BANANA_TRIANGLE = Graph.build(
    [0, 1, 2, 3],
    [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 2), (4, 1, 3), (5, 2, 3)],
)


def banana_triangle_choice() -> ChoiceFunction:
    mapping = {}
    for c in BANANA_TRIANGLE.cuts():
        cs = set(c)
        if cs <= {0, 1, 2}:
            mapping[c] = 0
        elif 3 in cs:
            mapping[c] = 3
        elif 4 in cs:
            mapping[c] = 4
        else:
            mapping[c] = 5
    return ChoiceFunction.build(BANANA_TRIANGLE, mapping)


class TestCutOrder:
    def test_forest_structure(self):
        order = cut_order_from_choice(BANANA_TRIANGLE, banana_triangle_choice())
        assert sorted(order.minima) == [0, 3]
        assert dict(order.pred) == {1: 0, 2: 0, 4: 3, 5: 4}

    def test_tree_graph_all_minimal(self):
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2)])
        f = ChoiceFunction.build(g, {(0,): 0, (1,): 1})
        order = cut_order_from_choice(g, f)
        assert sorted(order.minima) == [0, 1]
        assert order.pred == ()

    def test_twogon(self, twogon):
        f = ChoiceFunction.build(twogon, {(0, 1): 0})
        order = cut_order_from_choice(twogon, f)
        assert order.minima == (0,)
        assert dict(order.pred) == {1: 0}

    def test_cyclic_choice_rejected(self, triangle):
        f = ChoiceFunction.build(
            triangle, {(0, 1): 0, (1, 2): 1, (0, 2): 2}
        )
        with pytest.raises(NotMinimalOrder):
            cut_order_from_choice(triangle, f)

    def test_minimality_matches_subset_oracle(self):
        # accept exactly the choice functions whose generated preorder is
        # minimal among all generated preorders of the same graph
        for g in small_connected_graphs(4, min_edges=2):
            cuts = g.cuts()
            cfs = list(all_choice_functions(g))
            closures = []
            for f in cfs:
                rel = {(e, e) for e in g.sorted_edge_ids()}
                for c in cuts:
                    for e in c:
                        rel.add((f.get(c), e))
                changed = True
                while changed:
                    changed = False
                    for a, b in list(rel):
                        for b2, c2 in list(rel):
                            if b2 == b and (a, c2) not in rel:
                                rel.add((a, c2))
                                changed = True
                closures.append(frozenset(rel))
            for i, f in enumerate(cfs):
                minimal = not any(closures[j] < closures[i] for j in range(len(cfs)))
                try:
                    cut_order_from_choice(g, f)
                    accepted = True
                except NotMinimalOrder:
                    accepted = False
                assert accepted == minimal


class TestChoiceMonoid:
    def test_twogon(self, twogon):
        # generated by e0 and e1 - e0
        f = ChoiceFunction.build(twogon, {(0, 1): 0})
        m = choice_monoid(twogon, f)
        assert set(m.cone.rays) == {(1, 0), (-1, 1)}
        assert m.is_free()

    def test_tree_is_orthant(self):
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2)])
        f = ChoiceFunction.build(g, {(0,): 0, (1,): 1})
        m = choice_monoid(g, f)
        assert set(m.hilbert_basis()) == {(1, 0), (0, 1)}

    def test_banana_triangle_free_basis(self):
        m = choice_monoid(BANANA_TRIANGLE, banana_triangle_choice())
        hb = set(m.hilbert_basis())
        a, d = unit(6, 0), unit(6, 3)
        expect = {
            a,
            d,
            (-1, 1, 0, 0, 0, 0),
            (-1, 0, 1, 0, 0, 0),
            (0, 0, 0, -1, 1, 0),
            (0, 0, 0, 0, -1, 1),
        }
        assert hb == expect
        assert m.is_free()
        assert m.rank == 6

    def test_cone_duality(self, triangle):
        f = ChoiceFunction.build(triangle, {(0, 1): 0, (0, 2): 0, (1, 2): 1})
        m = choice_monoid(triangle, f)
        dual = choice_cone(triangle, f).dual()
        assert set(m.cone.rays) == set(dual.rays)

    def test_nonminimal_rejected(self, triangle):
        f = ChoiceFunction.build(triangle, {(0, 1): 0, (1, 2): 1, (0, 2): 2})
        with pytest.raises(NotMinimalOrder):
            choice_monoid(triangle, f)


class TestFans:
    def test_triangle_r1_six_cones(self, triangle):
        fan = weakly_rich_fan(triangle, 1)
        assert len(fan.cones) == 6
        assert fan.is_valid()
        assert fan.is_complete_on_orthant()

    def test_triangle_r2_complete_not_simplicial(self, triangle):
        fan = weakly_rich_fan(triangle, 2)
        assert fan.is_valid()
        assert fan.is_complete_on_orthant()
        assert any(len(c.rays) > 3 for c in fan.cones)

    def test_twogon_fan(self, twogon):
        fan = weakly_rich_fan(twogon, 1)
        assert fan == Fan(
            2,
            [Cone.from_rays(2, [(1, 0), (1, 1)]), Cone.from_rays(2, [(1, 1), (0, 1)])],
        )

    def test_restrict_reproduces_contraction(self, triangle, twogon):
        tf = weakly_rich_fan(triangle, 1)
        gf = weakly_rich_fan(twogon, 1)
        for i in range(3):
            assert tf.restrict([i]) == gf

    def test_restrict_reproduces_contraction_r2(self, triangle, twogon):
        tf = weakly_rich_fan(triangle, 2)
        gf = weakly_rich_fan(twogon, 2)
        for i in range(3):
            assert tf.restrict([i]) == gf

    def test_tree_fan_is_orthant(self, bridge):
        fan = weakly_rich_fan(bridge, 1)
        assert len(fan.cones) == 1
        assert fan.cones[0].rays == ((1,),)

    def test_completeness_small_graphs(self):
        for g in small_connected_graphs(3, min_edges=1):
            for r in (1, 2, 3):
                assert weakly_rich_fan(g, r).is_complete_on_orthant(), (g.to_obj(), r)


class TestMultiplicities:
    """Past r = 1 the weakly rich fan is neither simplicial nor unimodular.
    The multiplicity of a simplicial cone is |det| of its rays."""

    @staticmethod
    def table(fan):
        simplicial = [c for c in fan.cones if len(c.rays) == fan.rank]
        return len(fan.cones), len(simplicial), Counter(abs(det(c.rays)) for c in simplicial)

    @pytest.mark.parametrize(
        "n, r, want",
        [
            (3, 2, (30, 24, {1: 18, 2: 6})),
            (3, 3, (30, 24, {1: 6, 2: 6, 4: 6, 12: 6})),
            (4, 2, (336, 192, {1: 96, 2: 72, 4: 24})),
            (5, 2, (5040, 2040, {1: 600, 2: 720, 4: 480, 8: 120, 16: 120})),
        ],
    )
    def test_cycle_multiplicities(self, n, r, want):
        assert self.table(weakly_rich_fan(cycle(n), r)) == want


class TestSmoothness:
    def test_triangle_r1_smooth(self, triangle):
        rep = smoothness_report(weakly_rich_fan(triangle, 1))
        assert rep.smooth
        assert rep.verdicts == (True,) * 6

    def test_triangle_r2_not_smooth(self, triangle):
        rep = smoothness_report(weakly_rich_fan(triangle, 2))
        assert not rep.smooth
        assert not all(rep.verdicts)

    def test_orthant_fan_smooth(self):
        o = Cone.from_rays(2, [(1, 0), (0, 1)])
        assert smoothness_report(Fan(2, [o])).smooth
