"""Curves over sharp monoids: richness predicates, witnesses, basic models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from richfan import (
    Graph,
    INF,
    SharpMonoid,
    TropicalCurve,
    family_is_weakly_r_rich,
)
from richfan.catalog import small_connected_graphs
from richfan.curves import PLFunction
from richfan.errors import NotAFace, NotRClose, NotRRich, SchemaError
from richfan.monoids import tuple_minima_exist


def curve(g: Graph, rank: int, lengths: dict) -> TropicalCurve:
    return TropicalCurve.build(g, SharpMonoid.orthant(rank), lengths)


def rich_by_cuts(c: TropicalCurve, r) -> bool:
    """The definition: the lengths of every bond are r-close."""
    return all(c.monoid.is_r_close([c.length(e) for e in cut], r) for cut in c.graph.cuts())


class TestRich:
    def test_equal_twogon(self, twogon):
        c = curve(twogon, 1, {0: (1,), 1: (1,)})
        assert c.is_r_rich(1)

    def test_basis_twogon_not_rich(self, twogon):
        c = curve(twogon, 2, {0: (1, 0), 1: (0, 1)})
        assert not c.is_r_rich(1)
        assert not c.is_r_rich(INF)

    def test_theta_122(self, theta):
        c = curve(theta, 1, {0: (1,), 1: (2,), 2: (2,)})
        assert c.is_r_rich(2)
        assert not c.is_r_rich(1)

    def test_nested_curve_not_rich_but_weakly(self, nested_curve):
        assert not nested_curve.is_r_rich(1)
        assert nested_curve.is_weakly_r_rich(1)

    def test_basis_curve_neither(self, basis_curve):
        assert not basis_curve.is_r_rich(1)
        assert not basis_curve.is_weakly_r_rich(1)

    def test_tree_always_rich(self, bridge):
        c = curve(bridge, 2, {0: (3, 1)})
        assert c.is_r_rich(1)
        assert c.is_weakly_r_rich(1)

    def test_rich_implies_weakly_rich_random(self):
        rng = random.Random(7)
        g = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        for _ in range(60):
            lens = {
                e: (rng.randint(0, 3), rng.randint(0, 3)) for e in (0, 1, 2)
            }
            if any(v == (0, 0) for v in lens.values()):
                continue
            c = curve(g, 2, lens)
            for r in (1, 2, 4):
                if c.is_r_rich(r):
                    assert c.is_weakly_r_rich(r)

    def test_monotonicity_in_r_random(self):
        rng = random.Random(11)
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
        for _ in range(60):
            lens = {e: (rng.randint(0, 4),) for e in (0, 1, 2)}
            if any(v == (0,) for v in lens.values()):
                continue
            c = curve(g, 1, lens)
            for r, rp in ((1, 2), (2, 4), (1, 4)):
                if c.is_r_rich(r):
                    assert c.is_r_rich(rp)
                if c.is_weakly_r_rich(rp):
                    assert c.is_weakly_r_rich(r)

    def test_blocks_match_bonds_census(self):
        # is_r_rich reads the circuit blocks; the bond route is its oracle.
        # Lengths are multiples of a few directions, so that many sets share
        # a ray and r decides; (1, 1) is not a ray of the non-free monoids
        rng = random.Random(17)
        monoids = [
            (SharpMonoid.orthant(1), [(1,)], True),
            (SharpMonoid.orthant(2), [(1, 0), (0, 1), (1, 1)], True),
            (SharpMonoid.from_rays(2, [(1, 0), (1, 2)]), [(1, 0), (1, 2), (1, 1)], False),
            (SharpMonoid.from_rays(2, [(1, 0), (1, 3)]), [(1, 0), (1, 3), (1, 1), (2, 3)], False),
        ]
        answers = {True: 0, False: 0}
        for g in small_connected_graphs(5, min_edges=1):
            for m, directions, free in monoids:
                assert m.is_free() == free
                for _ in range(2):
                    d = rng.choice(directions)
                    lens = {}
                    for e in g.edge_ids:
                        d = d if rng.random() < 0.7 else rng.choice(directions)
                        k = rng.randint(1, 6)
                        lens[e] = tuple(k * t for t in d)
                    c = TropicalCurve.build(g, m, lens)
                    for r in (1, 2, 3, 6, INF):
                        rich = c.is_r_rich(r)
                        assert rich == rich_by_cuts(c, r), (c.to_obj(), r)
                        answers[rich] += 1
        assert min(answers.values()) >= 1000, answers  # 3,342 and 2,338


class TestPLWitness:
    def test_twogon_unit_slopes(self, twogon):
        c = curve(twogon, 1, {0: (1,), 1: (1,)})
        f = c.pl_witness((0, 1), 1)
        assert sorted(v for _, v in f.vertex_values) == [(0,), (1,)]
        assert sorted(abs(s) for _, s in f.slopes) == [1, 1]
        assert c.check_pl(f, (0, 1), 1)

    def test_theta_divided_slopes(self, theta):
        c = curve(theta, 1, {0: (1,), 1: (2,), 2: (2,)})
        f = c.pl_witness((0, 1, 2), 2)
        assert sorted(v for _, v in f.vertex_values) == [(0,), (2,)]
        assert sorted(abs(s) for _, s in f.slopes) == [1, 1, 2]
        assert c.check_pl(f, (0, 1, 2), 2)

    def test_bridge_trivial_cut(self, bridge):
        c = curve(bridge, 2, {0: (2, 3)})
        f = c.pl_witness((0,), 1)
        assert sorted(v for _, v in f.vertex_values) == [(0, 0), (2, 3)]
        assert c.check_pl(f, (0,), 1)

    def test_not_close_raises(self, twogon):
        c = curve(twogon, 2, {0: (1, 0), 1: (0, 1)})
        with pytest.raises(NotRClose):
            c.pl_witness((0, 1), 1)

    def test_constant_function_rejected(self, twogon):
        c = curve(twogon, 1, {0: (1,), 1: (1,)})
        const = PLFunction.build({0: (0,), 1: (0,)}, {0: 0, 1: 0})
        assert not c.check_pl(const, (0, 1), 1)

    def test_perturbed_slope_rejected(self, twogon):
        c = curve(twogon, 1, {0: (1,), 1: (1,)})
        f = c.pl_witness((0, 1), 1)
        slopes = dict(f.slopes)
        slopes[0] += 1
        bad = PLFunction.build(dict(f.vertex_values), slopes)
        assert not c.check_pl(bad, (0, 1), 1)

    def test_witness_everywhere_iff_rich(self):
        rng = random.Random(3)
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
        for _ in range(40):
            lens = {e: (rng.randint(1, 4),) for e in (0, 1, 2)}
            c = curve(g, 1, lens)
            for r in (1, 2):
                ok = True
                for cut in g.cuts():
                    try:
                        f = c.pl_witness(cut, r)
                    except NotRClose:
                        ok = False
                        break
                    assert c.check_pl(f, cut, r)
                assert ok == c.is_r_rich(r)


    def test_bond_test_matches_cut_enumeration(self):
        # every edge subset of every census graph with at most 6 edges: the
        # witness exists exactly for the bonds, and checks
        subsets = 0
        for g in small_connected_graphs(6):
            c = curve(g, 1, {e: (1,) for e in g.edge_ids})
            bonds = set(g.cuts())
            for mask in range(1 << len(g.edges)):
                subset = tuple(e for e in g.edge_ids if mask >> e & 1)
                subsets += 1
                if subset in bonds:
                    assert c.check_pl(c.pl_witness(subset, 1), subset, 1)
                else:
                    with pytest.raises(ValueError, match="is not a cut"):
                        c.pl_witness(subset, 1)
        assert subsets == 24621

    def test_witness_past_the_cut_vertex_limit(self):
        n = 30
        g = Graph.build(range(n), [(i, i, (i + 1) % n) for i in range(n)])
        c = curve(g, 1, {e: (1,) for e in g.edge_ids})
        f = c.pl_witness((0, 1), 2)
        assert c.check_pl(f, (0, 1), 2)
        assert dict(f.vertex_values)[1] == (2,)
        with pytest.raises(ValueError, match="is not a cut"):
            c.pl_witness((0,), 2)


class TestRealFamily:
    def test_nested_rows(self, nested_curve):
        fam = nested_curve.to_real_family()
        assert fam.cone.rank == 3
        assert fam.row(0) == (1, 0, 0)
        assert fam.row(1) == (1, 1, 0)
        assert fam.row(2) == (1, 1, 1)

    def test_identity_family_of_tree_is_weakly_rich(self, bridge):
        c = curve(bridge, 1, {0: (1,)})
        assert family_is_weakly_r_rich(c.to_real_family(), 1)

    def test_identity_family_of_triangle_is_not(self, triangle):
        c = curve(
            triangle, 3, {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
        )
        assert not family_is_weakly_r_rich(c.to_real_family(), 1)

    def test_line_families_always_weakly_rich(self, theta):
        # one-parameter families: every pair of lengths is comparable
        rng = random.Random(5)
        for _ in range(20):
            lens = {e: (rng.randint(1, 4),) for e in (0, 1, 2)}
            c = curve(theta, 1, lens)
            assert family_is_weakly_r_rich(c.to_real_family(), 1)

    def test_curve_family_consistency(self):
        rng = random.Random(9)
        g = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        for _ in range(50):
            lens = {
                e: (rng.randint(0, 2), rng.randint(0, 2)) for e in (0, 1, 2)
            }
            if any(v == (0, 0) for v in lens.values()):
                continue
            c = curve(g, 2, lens)
            for r in (1, 2):
                # the definition, on every cut's lengths with repeats kept
                literal = all(
                    tuple_minima_exist(c.monoid.cone.contains, [c.length(e) for e in cut], r)
                    for cut in g.cuts()
                )
                # the monoid-level predicate, cut by cut
                by_monoid = all(
                    c.monoid.is_weakly_r_close([c.length(e) for e in cut], r) for cut in g.cuts()
                )
                assert c.is_weakly_r_rich(r) == family_is_weakly_r_rich(
                    c.to_real_family(), r
                ) == literal == by_monoid

    def test_divisor_tuple_limit_fails_fast(self, theta):
        # 240 divisors of 720720 on the 3-edge cut: 240^3 tuples, above the
        # cap, refused by the family and the curve test alike
        c = curve(theta, 1, {0: (1,), 1: (2,), 2: (3,)})
        with pytest.raises(ValueError, match="too many divisor tuples"):
            family_is_weakly_r_rich(c.to_real_family(), 720720)
        with pytest.raises(ValueError, match="too many divisor tuples"):
            c.is_weakly_r_rich(720720)

    def test_round_trip(self, nested_curve):
        from richfan.curves import RealFamily

        fam = nested_curve.to_real_family()
        back = RealFamily.from_obj(fam.to_obj())
        assert back.length_map == fam.length_map
        assert back.cone == fam.cone


class TestSpecialize:
    def test_trivial_face(self, nested_curve):
        c = nested_curve.specialize([])
        assert c.monoid.rank == 3
        assert c.length(0) == (1, 0, 0)

    def test_project_third_coordinate(self, nested_curve):
        c = nested_curve.specialize([(0, 0, 1)])
        assert c.monoid.rank == 2
        assert c.length(0) == (1, 0)
        assert c.length(1) == (1, 1)
        assert c.length(2) == (1, 1)

    def test_contraction_on_vanishing(self, triangle):
        c = curve(triangle, 3, {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)})
        s = c.specialize([(1, 0, 0)])
        assert sorted(s.graph.edge_ids) == [1, 2]
        assert s.monoid.rank == 2

    def test_not_a_face(self, nested_curve):
        with pytest.raises(NotAFace):
            nested_curve.specialize([(1, 1, 0)])

    def test_rays_of_no_face(self, triangle):
        square = SharpMonoid.from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
        c = TropicalCurve.build(triangle, square, {0: (1, 0, 0), 1: (1, 1, 1), 2: (2, 1, 1)})
        with pytest.raises(NotAFace, match="do not span a face"):
            c.specialize([(1, 0, 0), (0, 1, 1)])  # a diagonal of the square
        s = c.specialize([(1, 0, 0), (1, 0, 1)])
        assert s.monoid.rank == 1 and sorted(s.graph.edge_ids) == [1, 2]

    def test_preserves_weak_richness(self, nested_curve):
        for face in ([], [(0, 0, 1)], [(0, 0, 1), (0, 1, 0)]):
            s = nested_curve.specialize(face)
            assert s.is_weakly_r_rich(1)


class TestBasicModel:
    def test_unit_twogon(self, twogon):
        c = curve(twogon, 1, {0: (1,), 1: (1,)})
        bm = c.basic_model(1)
        assert bm.is_basic
        assert bm.components == ((0, 1),)
        assert bm.multipliers == ((0, 1), (1, 1))
        assert bm.roots == ((1,),)

    def test_doubled_twogon_not_basic(self, twogon):
        c = curve(twogon, 1, {0: (2,), 1: (2,)})
        bm = c.basic_model(1)
        assert not bm.is_basic
        assert bm.roots == ((2,),)

    def test_theta_122(self, theta):
        c = curve(theta, 1, {0: (1,), 1: (2,), 2: (2,)})
        bm = c.basic_model(2)
        assert bm.is_basic
        assert bm.multipliers == ((0, 1), (1, 2), (2, 2))

    def test_nonfree_monoid_not_basic(self, twogon):
        # free is decided by unimodularity: no Hilbert basis is enumerated,
        # though this monoid's bounding box holds about 10^9 points
        m = SharpMonoid.from_rays(3, [(1, 0, 0), (0, 1, 0), (999, 999, 1000)])
        c = TropicalCurve.build(twogon, m, {0: (1, 0, 0), 1: (1, 0, 0)})
        bm = c.basic_model(1)
        assert not bm.is_basic
        assert bm.roots == ((1, 0, 0),)
        small = SharpMonoid.from_rays(2, [(1, 0), (1, 2)])
        assert not TropicalCurve.build(twogon, small, {0: (1, 1), 1: (1, 1)}).basic_model(1).is_basic

    def test_not_rich_raises(self, twogon):
        c = curve(twogon, 2, {0: (1, 0), 1: (0, 1)})
        with pytest.raises(NotRRich):
            c.basic_model(1)

    def test_idempotent(self, theta):
        c = curve(theta, 1, {0: (2,), 1: (2,), 2: (4,)})
        bm = c.basic_model(2)
        again = bm.model.basic_model(2)
        assert again.is_basic

    def test_model_lengths_are_rescaled_roots(self, theta):
        c = curve(theta, 1, {0: (1,), 1: (2,), 2: (2,)})
        bm = c.basic_model(2)
        for e in (0, 1, 2):
            lam = bm.multiplier(e)
            assert bm.model.length(e) == (lam,)


class TestParameterDimension:
    def test_one_loop(self):
        g = Graph.build([0], [(0, 0, 0)])
        c = curve(g, 1, {0: (1,)})
        assert c.enriched_parameter_dimension(1) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_n_gon(self, n):
        verts = list(range(n))
        edges = [(i, i, (i + 1) % n) for i in range(n)]
        c = curve(Graph.build(verts, edges), 1, {i: (1,) for i in range(n)})
        assert c.enriched_parameter_dimension(1) == n - 1

    def test_tree(self):
        g = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2)])
        c = curve(g, 1, {0: (1,), 1: (3,)})
        assert c.enriched_parameter_dimension(1) == 0


class TestSerialization:
    def test_round_trip(self, nested_curve):
        back = TropicalCurve.from_obj(nested_curve.to_obj())
        assert back.to_obj() == nested_curve.to_obj()

    def test_zero_length_rejected(self, twogon):
        obj = curve(twogon, 1, {0: (1,), 1: (1,)}).to_obj()
        obj["lengths"]["1"] = [0]
        with pytest.raises(SchemaError):
            TropicalCurve.from_obj(obj)

    def test_length_outside_monoid_rejected(self, twogon):
        obj = curve(twogon, 1, {0: (1,), 1: (1,)}).to_obj()
        obj["lengths"]["1"] = [-1]
        with pytest.raises(SchemaError):
            TropicalCurve.from_obj(obj)
