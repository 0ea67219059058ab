"""Exact cone arithmetic: double description, duality, Hilbert bases, fans."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from richfan import (
    ChoiceFunction,
    Cone,
    Fan,
    Graph,
    SharpMonoid,
    choice_monoid,
    hilbert_basis,
    is_unimodular,
    weakly_rich_fan,
)
from richfan import cones
from richfan.catalog import small_connected_graphs
from richfan.cones import _is_face_of, _reduce_mod_lines, double_description, unit
from richfan.errors import DimensionMismatch
from richfan.intlinalg import (
    det,
    dot,
    hnf_rows,
    is_zero,
    primitive,
    rank_of,
    saturated_span,
    vscale,
)
from richfan.subdivision import _arrangement


def orthant(k: int) -> Cone:
    return Cone.from_rays(k, [unit(k, i) for i in range(k)])


def lattice_coords(basis, v) -> tuple[int, ...]:
    """Coordinates of v in a saturated lattice basis, by Gauss-Jordan over Q."""
    k = len(basis)
    m = [[Fraction(b[i]) for b in basis] + [Fraction(v[i])] for i in range(len(v))]
    for col in range(k):
        piv = next(r for r in range(col, len(m)) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(len(m)):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    assert all(m[r][k] == 0 for r in range(k, len(m))), "vector outside the span"
    x = [m[r][k] for r in range(k)]
    assert all(t.denominator == 1 for t in x), "vector outside the saturated lattice"
    return tuple(int(t) for t in x)


def unimodular_reference(cone: Cone) -> bool:
    """Oracle for is_unimodular: the rays' coordinates in a saturated basis of
    their span, found over Q, must form a square matrix of determinant +-1."""
    if cone.lines:
        return False
    span = saturated_span(cone.rays)
    if len(cone.rays) != len(span):
        return False
    return abs(det([lattice_coords(span, r) for r in cone.rays])) == 1


def hilbert_reference(cone: Cone, cap: int = 4000) -> list | None:
    """Bounding-box Hilbert basis with no unimodular shortcut, or None when
    the box holds more than `cap` points."""
    n = cone.rank
    lo = [sum(min(r[i], 0) for r in cone.rays) for i in range(n)]
    hi = [sum(max(r[i], 0) for r in cone.rays) for i in range(n)]
    vol = 1
    for a, b in zip(lo, hi):
        vol *= b - a + 1
    if vol > cap:
        return None
    pts = [p for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))) if any(p) and cone.contains(p)]
    members = set(pts)
    # p is reducible iff p = q + (p - q) with both parts nonzero members
    return sorted(p for p in pts if not any(tuple(x - y for x, y in zip(p, q)) in members for q in pts))


def free_reference(cone: Cone) -> bool | None:
    hb = hilbert_reference(cone)
    if hb is None:
        return None
    return len(hb) == cone.dim() and unimodular_reference(cone)


def valid_reference(fan: Fan) -> bool:
    """Oracle for Fan.is_valid: every pairwise intersection, by double
    description, is a face of both cones."""
    for c1, c2 in combinations(fan.cones, 2):
        cap = c1.intersect(c2)
        if not _is_face_of(cap, c1) or not _is_face_of(cap, c2):
            return False
    return True


def census_r1_fans(max_edges: int = 5):
    for g in small_connected_graphs(max_edges):
        yield g, weakly_rich_fan(g, 1)


def census_choice_monoids(max_edges: int = 5):
    """One choice monoid per cone of each r=1 fan: every cut picks the edge
    that is smallest at the sum of the cone's rays."""
    for g, fan in census_r1_fans(max_edges):
        pos = {e: j for j, e in enumerate(g.sorted_edge_ids())}
        cuts = g.cuts()
        for cone in fan.cones:
            inner = [sum(col) for col in zip(*cone.rays)]
            f = ChoiceFunction.build(g, {c: min(c, key=lambda e: inner[pos[e]]) for c in cuts})
            yield choice_monoid(g, f)


def reference_double_description(rank, ineqs, eqs=()):
    """Reference route for double_description: the same insertion with
    full-length dot products, and every line and ray of a consumed line's
    step recomputed as d v - <a,v> h and made primitive, dot 0 or not."""
    ins = [tuple(int(x) for x in a) for a in ineqs]
    eqn = [tuple(int(x) for x in e) for e in eqs]
    eqn = [e for e in eqn if not is_zero(e)]

    lines = [unit(rank, i) for i in range(rank)]
    rays = []  # (vector, tight bitmask over ins)

    def insert(a, bit, prev_mask):
        nonlocal lines, rays
        orig = next((l for l in lines if dot(a, l) != 0), None)
        if orig is not None:
            d = dot(a, orig)
            hit = orig if d > 0 else tuple(-x for x in orig)
            d = abs(d)
            new_lines = []
            for l in lines:
                if l is orig:
                    continue
                dl = dot(a, l)
                nl = tuple(d * li - dl * hi for li, hi in zip(l, hit))
                new_lines.append(primitive(nl))
            new_rays = []
            for v, m in rays:
                dv = dot(a, v)
                nv = tuple(d * vi - dv * hi for vi, hi in zip(v, hit))
                nm = m if bit is None else (m | (1 << bit))
                new_rays.append((primitive(nv), nm))
            lines = new_lines
            rays = new_rays
            if bit is not None:
                # the consumed line survives as a ray on the positive side
                rays.append((primitive(hit), prev_mask))
            return
        pos = []
        zero = []
        neg = []
        for v, m in rays:
            dv = dot(a, v)
            if dv > 0:
                pos.append((v, m, dv))
            elif dv < 0:
                neg.append((v, m, dv))
            else:
                zero.append((v, m))
        if not neg and bit is None and not pos:
            return
        all_masks = [m for _, m in zero] + [m for _, m, _ in pos] + [m for _, m, _ in neg]
        fresh = {}
        for pv, pm, pd in pos:
            for nv, nm, nd in neg:
                t = pm & nm
                ok = True
                for m in all_masks:
                    if m is pm or m is nm:
                        continue
                    if (t & m) == t:
                        ok = False
                        break
                if ok:
                    w = primitive(tuple(pd * x - nd * y for x, y in zip(nv, pv)))
                    tm = t if bit is None else (t | (1 << bit))
                    fresh.setdefault(w, tm)
        out = []
        if bit is None:
            out.extend(zero)
        else:
            b = 1 << bit
            out.extend((v, m | b) for v, m in zero)
            out.extend((v, m) for v, m, _ in pos)
        out.extend(fresh.items())
        rays = out

    for e in eqn:
        insert(e, None, 0)
    for k, a in enumerate(ins):
        insert(a, k, (1 << k) - 1)

    line_basis = saturated_span(lines) if lines else []
    masks = {_reduce_mod_lines(v, line_basis): m for v, m in rays}
    vecs = sorted(masks)
    return list(line_basis), vecs, [masks[v] for v in vecs]


@st.composite
def dd_systems(draw):
    """(rank, ineqs, eqs) of rank 0-6, each row with entries in -3..3 on a
    drawn set of coordinates (often one or two, as in units and
    differences), plus units, given equations, zero rows, repeats and pairs
    a, -a, so that cones come out full or lower dimensional, pointed or not."""
    n = draw(st.integers(0, 6))

    def vec():
        v = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)) if n else []:
            v[i] = draw(st.integers(-3, 3))
        return tuple(v)

    ineqs = [vec() for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        ineqs += [unit(n, i) for i in range(n)]
    ineqs += ineqs[: draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(0, 2))):
        a = vec()
        ineqs += [a, vscale(-1, a)]
    ineqs += [(0,) * n] * draw(st.integers(0, 1))
    ineqs = draw(st.permutations(ineqs))
    eqs = [vec() for _ in range(draw(st.integers(0, 2)))]
    return n, ineqs, eqs


def random_cones(seed: int, count: int):
    """Seeded cones of rank 0-5: unimodular bases and index-2 perturbations
    of them, full and lower dimensional, arbitrary ray sets, and cones with
    lines."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 5)
        kind = rng.choice(["basis", "any", "lower", "lines"])
        if kind == "basis":
            rows = [list(unit(n, i)) for i in range(n)]
            for _ in range(3 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                c = rng.choice([-1, 1])
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            rays = rng.sample(rows, rng.randint(0, n))
            if len(rays) > 1 and rng.random() < 0.5:
                rays[0] = [2 * a + b for a, b in zip(rays[0], rays[1])]
            yield Cone.from_rays(n, rays)
        elif kind == "any":
            k = rng.randint(0, n + 2)
            yield Cone.from_rays(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)])
        elif kind == "lower":
            d = rng.randint(0, max(n - 1, 0))
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
            k = rng.randint(1, d + 2)
            rays = [
                [sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(n)]
                for _ in range(k)
            ]
            yield Cone.from_rays(n, rays)
        else:
            k = rng.randint(0, n)
            rays = [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)]
            line = [rng.randint(-1, 1) for _ in range(n)]
            yield Cone.from_rays(n, rays, [line])


class TestDoubleDescription:
    def test_orthant_self_dual(self):
        o = orthant(3)
        assert set(o.dual().rays) == set(o.rays)

    def test_chain_cone_rays(self):
        # x1 >= x2 >= x3 >= 0
        c = Cone.from_inequalities(3, [(1, -1, 0), (0, 1, -1), (0, 0, 1)])
        assert set(c.rays) == {(1, 0, 0), (1, 1, 0), (1, 1, 1)}

    def test_quarter_plane_facets(self):
        c = Cone.from_rays(2, [(1, 0), (1, 2)])
        assert set(c.facet_normals) == {(0, 1), (2, -1)}

    def test_halfplane_has_a_line(self):
        c = Cone.from_inequalities(2, [(0, 1)])
        assert c.lines == ((1, 0),)
        assert c.rays == ((0, 1),)

    def test_single_ray(self):
        c = Cone.from_rays(3, [(2, 4, 6)])
        assert c.rays == ((1, 2, 3),)
        assert c.dim() == 1

    def test_zero_cone(self):
        c = Cone.from_rays(2, [])
        assert c.rays == ()
        assert c.dim() == 0

    def test_primitive_normalization(self):
        c = Cone.from_rays(2, [(2, 0), (0, 4)])
        assert set(c.rays) == {(1, 0), (0, 1)}

    def test_double_dual_identity(self):
        c = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (0, 1, 1)])
        assert c.dual().dual() == c

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_dual_pairing_nonnegative(self, rays):
        c = Cone.from_rays(3, rays)
        d = c.dual()
        for r in c.rays:
            for f in d.rays:
                assert sum(a * b for a, b in zip(r, f)) >= 0

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rays_satisfy_own_facets(self, rays):
        c = Cone.from_rays(2, rays)
        for r in c.rays:
            assert c.contains(r)
        for l in c.lines:
            assert c.contains(l)
            assert c.contains(tuple(-t for t in l))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_tight_masks(self, data):
        n = data.draw(st.integers(1, 4))
        vec = st.tuples(*[st.integers(-2, 2)] * n)
        ineqs = data.draw(st.lists(vec, max_size=6))
        eqs = data.draw(st.lists(vec, max_size=1))
        lines, rays, masks = double_description(n, ineqs, eqs)
        assert len(masks) == len(rays)
        for r, m in zip(rays, masks):
            assert m == sum(1 << k for k, a in enumerate(ineqs) if dot(a, r) == 0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_full_from_inequalities(self, data):
        # the oracle is a fresh double description of the rays and lines.
        # The units keep the cone pointed; without them it may have lines.
        # A pair a, -a is an implicit equality, eqs a given one; zero rows
        # and repeats must not matter.  The dual is read off the masks
        # exactly for the full-dimensional pointed cones.
        n = data.draw(st.integers(0, 5))
        vec = st.tuples(*[st.integers(-2, 2)] * n)
        units = [unit(n, i) for i in range(n)] if data.draw(st.booleans()) else []
        extra = data.draw(st.lists(vec, max_size=6))
        flat = data.draw(st.lists(vec, max_size=1))
        eqs = data.draw(st.lists(vec, max_size=1))
        ineqs = units + extra + extra[:1] + flat + [vscale(-1, a) for a in flat]
        cone = Cone.from_inequalities(n, ineqs, eqs)
        assert (cone._dual is not None) == (cone.is_pointed and cone.dim() == n)
        lines, rays, _ = double_description(n, ineqs, eqs)
        assert (cone.lines, cone.rays) == (tuple(lines), tuple(rays))
        dual_lines, dual_rays, _ = double_description(n, cone.rays, cone.lines)
        assert cone.span_equations == tuple(dual_lines)
        assert cone.facet_normals == tuple(dual_rays)
        assert cone.dual().dual() is cone

    def test_full_from_inequalities_skips_lower_faces(self):
        # a square cone times a quadrant: x3 + x4 >= 0 is tight on the four
        # rays of the 3-face square x {0}, as many as a facet of rank 5 has
        ineqs = [
            (1, 0, 1, 0, 0), (-1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, -1, 1, 0, 0),
            unit(5, 3), unit(5, 4), (0, 0, 0, 1, 1), (0, 0, 0, 0, 0), (2, 0, 2, 0, 0),
        ]
        full = Cone.from_inequalities(5, ineqs)
        assert full._dual is not None  # read off the masks
        assert len(full.rays) == 6
        assert full.facet_normals == tuple(sorted(primitive(a) for a in ineqs[:6]))
        assert full.facet_normals == tuple(double_description(5, full.rays, full.lines)[1])

    def test_one_double_description_per_full_cone(self, monkeypatch, triangle):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return double_description(*args)

        monkeypatch.setattr(cones, "double_description", counted)

        def count(build) -> int:
            calls.clear()
            for cone in build():
                cone.facet_normals, cone.span_equations, cone.dual().dual()
            return len(calls)

        assert count(lambda: [Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1)])]) == 1
        assert count(lambda: [Cone.from_rays(2, [(0, 1)], [(1, 0)])]) == 2
        assert count(lambda: [Cone.from_rays(3, [(1, 0, 0), (1, 1, 0)])]) == 2
        # one per orbit of walk chambers: the triangle's 30 chambers at r=2
        # fall in 5 orbits of S_3, K4's 96 at r=1 in 96 orbits of the
        # trivial group; and one per cone of a fan read back
        assert count(lambda: weakly_rich_fan(triangle, 2).cones) == 5
        k4 = Graph.build(range(4), [(i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))])
        assert count(lambda: weakly_rich_fan(k4, 1).cones) == 96
        doc = weakly_rich_fan(triangle, 2).to_obj()
        assert count(lambda: Fan.from_obj(doc).cones) == len(doc["cones"]) == 30

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_permuted_matches_permuted_inequalities(self, data):
        # permuting a full-dimensional pointed cone gives the cone of the
        # permuted inequalities, with no double description
        n = data.draw(st.integers(0, 5))
        vec = st.tuples(*[st.integers(-2, 2)] * n)
        ineqs = [unit(n, i) for i in range(n)] + data.draw(st.lists(vec, max_size=6))
        cone = Cone.from_inequalities(n, ineqs)
        assume(cone.dim() == n)
        perm = data.draw(st.permutations(range(n)))
        moved = [tuple(a[perm.index(k)] for k in range(n)) for a in ineqs]
        expected = Cone.from_inequalities(n, moved)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cones, "double_description", None)
            image = cone.permuted(perm)
            assert image.dual().dual() is image
        assert (image.rays, image.lines) == (expected.rays, expected.lines)
        assert (image.facet_normals, image.span_equations) == (expected.facet_normals, ())

    def test_permuted_rejects_lines_and_lower_dimensions(self):
        with pytest.raises(ValueError):
            Cone.from_inequalities(2, [(0, 1)]).permuted((1, 0))
        with pytest.raises(ValueError):
            Cone.from_rays(3, [(1, 0, 0), (1, 1, 0)]).permuted((1, 0, 2))


class TestKernelOracle:
    """double_description against the reference insertion it replaced.

    A kernel that keeps a line l unchanged when <a,l> != 0 fails
    test_matches_reference and test_kinds_of_cones.
    """

    @given(dd_systems())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, system):
        assert double_description(*system) == reference_double_description(*system)

    def test_kinds_of_cones(self):
        # a lower-dimensional pointed, a full non-pointed and a pointed cone
        # on a zero row, a repeat and an equation
        for system in [
            (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 2)], []),
            (3, [(1, -1, 0), (0, 2, -3)], []),
            (
                4,
                [unit(4, i) for i in range(4)] + [(0,) * 4, (0, 1, 0, -1), (0, 1, 0, -1)],
                [(1, 0, -1, 0)],
            ),
            (0, [(), ()], [()]),
        ]:
            assert double_description(*system) == reference_double_description(*system)

    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_reference_on_every_census_chamber(self, r):
        # every chamber of the walk without symmetry, on the census up to 5
        # edges: 646 chambers at r = 1 and 14,234 at r = 2
        def checked(*system):
            out = double_description(*system)
            assert out == reference_double_description(*system), system
            return out

        chambers = 0
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cones, "double_description", checked)
            for g in small_connected_graphs(5):
                _, _, start, chamber, neighbours = _arrangement(g, r)
                seen = {start}
                todo = [start]
                while todo:
                    pattern = todo.pop()
                    for nxt in neighbours(pattern, chamber(pattern)):
                        if nxt not in seen:
                            seen.add(nxt)
                            todo.append(nxt)
                chambers += len(seen)
        assert chambers == {1: 646, 2: 14234}[r]


class TestContainment:
    def test_interior(self):
        o = orthant(2)
        assert o.interior_contains((1, 1))
        assert not o.interior_contains((1, 0))
        assert o.contains((1, 0))

    def test_intersect(self):
        a = Cone.from_inequalities(2, [(1, -1), (0, 1)])  # x >= y >= 0
        b = Cone.from_inequalities(2, [(-1, 1), (1, 0)])  # y >= x >= 0
        cap = a.intersect(b)
        assert cap.rays == ((1, 1),)

    def test_contains_cone(self):
        o = orthant(2)
        sub = Cone.from_rays(2, [(1, 0), (1, 1)])
        assert o.contains_cone(sub)
        assert not sub.contains_cone(o)

    def test_pointed(self):
        assert orthant(2).is_pointed
        assert not Cone.from_inequalities(2, [(0, 1)]).is_pointed


class TestHilbertBasis:
    def test_orthant(self):
        assert sorted(hilbert_basis(orthant(2))) == [(0, 1), (1, 0)]

    def test_needs_interior_point(self):
        c = Cone.from_rays(2, [(1, 0), (1, 2)])
        assert sorted(hilbert_basis(c)) == [(1, 0), (1, 1), (1, 2)]

    def test_deep_interior_points(self):
        c = Cone.from_rays(2, [(1, 0), (1, 4)])
        assert sorted(hilbert_basis(c)) == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]

    def test_every_small_point_is_a_combination(self):
        c = Cone.from_rays(2, [(2, 1), (1, 3)])
        hb = hilbert_basis(c)
        # greedy subtraction reaches zero for every contained lattice point
        for x in range(7):
            for y in range(7):
                if not c.contains((x, y)):
                    continue
                v = (x, y)
                for _ in range(40):
                    if v == (0, 0):
                        break
                    for h in hb:
                        w = tuple(a - b for a, b in zip(v, h))
                        if c.contains(w):
                            v = w
                            break
                    else:
                        pytest.fail(f"({x},{y}) stuck at {v}")
                assert v == (0, 0)


class TestUnimodular:
    def test_standard(self):
        assert is_unimodular(Cone.from_rays(2, [(1, 0), (1, 1)]))

    def test_index_two(self):
        assert not is_unimodular(Cone.from_rays(2, [(1, 0), (1, 2)]))

    def test_non_simplicial(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert len(c.rays) == 4
        assert not is_unimodular(c)

    def test_lower_dimensional_unimodular(self):
        assert is_unimodular(Cone.from_rays(3, [(1, 0, 0), (1, 1, 0)]))

    def test_dependent_rays_generating_the_saturated_lattice(self):
        # four rays of a rank-3 lattice generate all of it, yet are no basis
        c = Cone.from_rays(5, [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 0, 0), (0, 1, 1, 0, 0)])
        assert len(c.rays) == 4 and c.dim() == 3
        assert not is_unimodular(c)
        assert not SharpMonoid(5, c).is_free()

    def test_matches_reference_random(self):
        seen = Counter()
        for c in random_cones(20261018, 600):
            got = is_unimodular(c)
            assert got == unimodular_reference(c), c
            k, n = len(c.rays), c.rank
            seen["lines" if c.lines else "k<n" if k < n else "k=n" if k == n else "k>n", got] += 1
            if c.is_pointed:
                expect = free_reference(c)
                if expect is not None:
                    assert SharpMonoid(n, c).is_free() == expect, c
                    seen["free", expect] += 1
        # every branch of is_unimodular is reached with both verdicts
        for key in [("k<n", True), ("k<n", False), ("k=n", True), ("k=n", False), ("free", False)]:
            assert seen[key] >= 20, seen
        assert seen["k>n", False] and seen["lines", False] and seen["free", True] >= 300

    def test_matches_reference_census(self):
        cones = [c for _, fan in census_r1_fans() for c in fan.cones]
        monoids = list(census_choice_monoids())
        assert len(cones) == len(monoids) == 646
        for c in cones + [m.cone for m in monoids]:
            assert is_unimodular(c) == unimodular_reference(c), c
        free_checked = 0
        for m in monoids:
            expect = free_reference(m.cone)
            if expect is not None:
                assert m.is_free() == expect, m
                free_checked += 1
        assert free_checked >= 100

    def test_one_determinant_per_cone(self, monkeypatch):
        calls = []

        def counting_det(rows):
            calls.append(rows)
            return det(rows)

        monkeypatch.setattr(cones, "det", counting_det)
        m = next(census_choice_monoids(3))
        assert len(m.cone.rays) == m.rank
        assert m.is_free()
        assert m.hilbert_basis() == sorted(m.cone.rays)
        assert m.is_free()
        assert len(calls) == 1


class TestFan:
    def two_cone_fan(self) -> Fan:
        a = Cone.from_rays(2, [(1, 0), (1, 1)])
        b = Cone.from_rays(2, [(1, 1), (0, 1)])
        return Fan(2, [a, b])

    def test_valid_and_complete(self):
        f = self.two_cone_fan()
        assert f.is_valid()
        assert f.is_complete_on_orthant()

    def test_overlapping_interiors_invalid(self):
        a = Cone.from_rays(2, [(1, 0), (1, 2)])
        b = Cone.from_rays(2, [(2, 1), (0, 1)])
        assert not Fan(2, [a, b]).is_valid()

    def test_gap_not_complete(self):
        f = Fan(2, [Cone.from_rays(2, [(1, 0), (1, 1)])])
        assert not f.is_complete_on_orthant()

    def test_empty_fan_in_any_rank(self):
        # decided without one vector of the rank
        for n in (1, 3, 10**20):
            assert not Fan(n, []).is_complete_on_orthant()
            assert Fan(n, []).is_valid()
        assert not Fan(0, []).is_complete_on_orthant()
        assert Fan(0, [Cone.from_rays(0, [])]).is_complete_on_orthant()

    def test_orthant_fan_complete(self):
        assert Fan(2, [orthant(2)]).is_complete_on_orthant()

    def test_not_supported_on_orthant(self):
        negative = Cone.from_rays(2, [(-1, 0), (0, -1)])
        assert not Fan(2, [orthant(2), negative]).is_complete_on_orthant()
        assert not Fan(2, [Cone.from_inequalities(2, [(0, 1)])]).is_complete_on_orthant()
        # every wall of this fan of the whole plane is matched
        rays = [(1, 1), (-1, 2), (-1, -3)]
        plane = Fan(2, [Cone.from_rays(2, [u, v]) for u, v in combinations(rays, 2)])
        assert plane.is_valid() and not plane.is_complete_on_orthant()

    def test_completeness_verdict_is_kept(self, monkeypatch):
        f = self.two_cone_fan()
        assert f.is_complete_on_orthant()

        def no_more_certificates(self, v):
            raise AssertionError("certificate computed twice")

        monkeypatch.setattr(Cone, "contains", no_more_certificates)
        assert f.is_complete_on_orthant() and f.is_valid()

    def test_double_cover_not_complete(self):
        f = Fan(2, [orthant(2), *self.two_cone_fan().cones])
        assert not f.is_complete_on_orthant() and not f.is_valid()

    def test_refine_identity(self):
        f = self.two_cone_fan()
        assert f.refine(Fan(2, [orthant(2)])) == f

    def test_refine_rank_mismatch(self):
        with pytest.raises(DimensionMismatch):
            self.two_cone_fan().refine(Fan(3, [orthant(3)]))

    def test_restrict_drops_coordinate(self):
        # x >= y >= z >= 0 sliced at z = 0 leaves x >= y >= 0
        cones = [
            Cone.from_inequalities(3, [(1, -1, 0), (0, 1, -1), (0, 0, 1)]),
            Cone.from_inequalities(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 1)]),
        ]
        f = Fan(3, cones)
        r = f.restrict([2])
        assert r.rank == 2

    def test_round_trip(self):
        f = self.two_cone_fan()
        assert Fan.from_obj(f.to_obj()) == f

    def test_canonical_cone_order_is_stable(self):
        f = self.two_cone_fan()
        g = Fan(2, list(reversed(list(f.cones))))
        assert f.to_obj() == g.to_obj()


TRIANGLE = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
THETA = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])


def invalid_fans() -> dict[str, Fan]:
    return {
        # two 2-D cones in rank 3 crossing along a ray interior to both
        "crossing": Fan(3, [
            Cone.from_rays(3, [(1, 0, 0), (0, 1, 0)]),
            Cone.from_rays(3, [(1, 1, 1), (1, 1, -1)]),
        ]),
        "overlapping": Fan(2, [
            Cone.from_rays(2, [(1, 0), (1, 2)]),
            Cone.from_rays(2, [(2, 1), (0, 1)]),
        ]),
        "nested": Fan(3, [orthant(3), Cone.from_rays(3, [(1, 1, 0), (1, 1, 1), (1, 0, 1)])]),
        "nested ray": Fan(3, [orthant(3), Cone.from_rays(3, [(1, 1, 1)])]),
        # cone(e1, e1 + e2) is only part of the facet cone(e1, e2)
        "part of a facet": Fan(3, [
            orthant(3),
            Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (0, 0, -1)]),
        ]),
        # the upper half-plane contains the pointed cone
        "lines": Fan(2, [
            Cone.from_inequalities(2, [(0, 1)]),
            Cone.from_rays(2, [(1, 1), (0, 1)]),
        ]),
    }


class TestFanValidity:
    def test_census_r1_fans_match_reference(self):
        fans = [fan for _, fan in census_r1_fans()]
        assert len(fans) == 143
        for fan in fans:
            assert fan.is_valid() and valid_reference(fan), fan

    @pytest.mark.parametrize("graph, r", [(TRIANGLE, 2), (TRIANGLE, 3), (THETA, 2)])
    def test_newton_fans_match_reference(self, graph, r):
        fan = weakly_rich_fan(graph, r)
        assert fan.is_valid() and valid_reference(fan)

    @pytest.mark.parametrize("name", sorted(invalid_fans()))
    def test_invalid_fans_match_reference(self, name):
        fan = invalid_fans()[name]
        assert len(fan.cones) == 2
        assert not fan.is_valid() and not valid_reference(fan)

    def test_fan_with_lines(self):
        halves = Fan(2, [Cone.from_inequalities(2, [(0, 1)]), Cone.from_inequalities(2, [(0, -1)])])
        assert halves.is_valid() and valid_reference(halves)
        assert not halves.is_complete_on_orthant()

    def test_valid_fans_without_the_certificate(self):
        a = Cone.from_rays(2, [(1, 0), (1, 1)])
        b = Cone.from_rays(2, [(1, 1), (0, 1)])
        c = Cone.from_rays(2, [(-1, 0), (-1, -1)])
        ray = Cone.from_rays(3, [(-1, 0, 0)])
        for fan in (Fan(2, [a]), Fan(2, [a, c]), Fan(2, [b, c]), Fan(3, [orthant(3), ray])):
            assert not fan.is_complete_on_orthant()
            assert fan.is_valid() and valid_reference(fan), fan

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_valid_matches_reference(self, data):
        n = data.draw(st.integers(2, 3))
        vec = st.tuples(*[st.integers(-2, 2)] * n)
        shared = data.draw(st.lists(vec, max_size=2))
        c1 = Cone.from_rays(n, shared + data.draw(st.lists(vec, min_size=1, max_size=3)))
        c2 = Cone.from_rays(n, shared + data.draw(st.lists(vec, min_size=1, max_size=3)))
        fan = Fan(n, [c1, c2])
        assert fan.is_valid() == valid_reference(fan)


@cache
def small_fans() -> tuple[Fan, ...]:
    """Complete fans of rank 2-3: the r=1 census fans up to 3 edges and a few
    Newton fans with interior rays."""
    twogon = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1)])
    fans = [fan for g, fan in census_r1_fans(3) if fan.rank >= 2]
    fans += [weakly_rich_fan(twogon, 2), weakly_rich_fan(twogon, 6), weakly_rich_fan(THETA, 2)]
    return tuple(fans)


@st.composite
def perturbed_fans(draw) -> Fan:
    """A small complete fan with some cones dropped, a ray moved in every cone
    or in one cone only, or a random cone added."""
    fan = draw(st.sampled_from(small_fans()))
    n = fan.rank
    cones = [list(c.rays) for c in fan.cones]
    kind = draw(st.sampled_from(["none", "drop", "move", "move one", "add"]))
    if kind == "drop":
        cones = [c for c in cones if not draw(st.booleans())]
    elif kind.startswith("move"):
        old = draw(st.sampled_from(sorted({r for c in cones for r in c})))
        new = tuple(x + d for x, d in zip(old, draw(st.tuples(*[st.integers(-1, 1)] * n))))
        assume(any(new))
        which = [draw(st.sampled_from(range(len(cones))))] if kind == "move one" else range(len(cones))
        for i in which:
            cones[i] = [new if r == old else r for r in cones[i]]
    elif kind == "add":
        cones.append(draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=n)))
    return Fan(n, [Cone.from_rays(n, c) for c in cones])


@given(perturbed_fans())
@settings(max_examples=300, deadline=None)
def test_completeness_certificate_is_sound(fan):
    if not fan.is_complete_on_orthant():
        return
    assert fan.is_valid() and valid_reference(fan)
    for x in product(range(1, 5), repeat=fan.rank):
        hits = [c for c in fan.cones if c.contains(x)]
        assert hits, x
        assert len(hits) == 1 or not any(c.interior_contains(x) for c in hits), x


def test_hnf_rows_is_canonical():
    """Unimodular row operations keep the lattice, so they keep hnf_rows."""
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(3, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        mixed = [list(r) for r in rows]
        for _ in range(3 * n):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.randint(-2, 2)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            else:
                mixed[i] = [-a for a in mixed[i]]
        rng.shuffle(mixed)
        h = hnf_rows(rows)
        assert hnf_rows(mixed) == h, (rows, mixed)
        for r, row in enumerate(h):
            c = next(k for k, x in enumerate(row) if x)
            assert row[c] > 0 and all(0 <= h[q][c] < row[c] for q in range(r))


def reduce_mod_lines_over_q(v, lines_hnf):
    """Clear each pivot of the lineality basis over Q, then scale back to a
    primitive integer vector."""
    x = [Fraction(t) for t in v]
    for row in lines_hnf:
        c = next(i for i, t in enumerate(row) if t != 0)
        f = x[c] / row[c]
        x = [xi - f * li for xi, li in zip(x, row)]
    den = math.lcm(*(xi.denominator for xi in x))
    return primitive(tuple(int(xi * den) for xi in x))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_mod_lines_matches_elimination_over_q(data):
    """Integer elimination scales by positive Hermite pivots only, so it ends
    at the same primitive vector as elimination over Q."""
    k = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(k + 1, 7))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    lines = saturated_span(data.draw(st.lists(vec, min_size=k, max_size=k)))
    v = data.draw(vec)
    assume(len(lines) == k and rank_of(lines + [tuple(v)]) > k)
    assert _reduce_mod_lines(v, lines) == reduce_mod_lines_over_q(v, lines)
