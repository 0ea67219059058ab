"""Sharp monoids: membership, closeness, roots, weak closeness."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from richfan import INF, SharpMonoid, divisors
from richfan import monoids
from richfan.monoids import check_r
from richfan.errors import AllZero, EmptySet, NotRClose


N1 = SharpMonoid.orthant(1)
N2 = SharpMonoid.orthant(2)


def test_divisors_oracle():
    for r in range(1, 40):
        assert divisors(r) == tuple(d for d in range(1, r + 1) if r % d == 0)


def test_divisors_cache_is_bounded():
    limit = monoids._DIVISORS_CACHE_ENTRIES
    divisors.cache_clear()
    for r in range(1, limit + 2):
        divisors(r)
    info = divisors.cache_info()
    assert info.maxsize == limit
    assert info.currsize == limit
    # r = 1 was the least recently used, so it went first
    assert divisors(1) == (1,)
    assert divisors.cache_info().misses == info.misses + 1


def test_check_r_accepts():
    for r in (1, 2, 17, INF):
        check_r(r)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "2", True])
def test_check_r_rejects(bad):
    with pytest.raises(ValueError):
        check_r(bad)


def test_check_r_can_require_finite():
    with pytest.raises(ValueError):
        check_r(INF, allow_inf=False)


class TestMembership:
    def test_orthant(self):
        assert N2.contains((3, 0))
        assert not N2.contains((-1, 2))

    def test_ray_submonoid(self):
        m = SharpMonoid.from_rays(2, [(1, 2)])
        assert m.contains((2, 4))
        assert not m.contains((1, 1))

    def test_hilbert_basis_of_orthant(self):
        assert sorted(N2.hilbert_basis()) == [(0, 1), (1, 0)]

    def test_hilbert_basis_nonfree_cone(self):
        # cone over (1,0),(1,2) needs the interior point (1,1)
        m = SharpMonoid.from_rays(2, [(1, 0), (1, 2)])
        assert sorted(m.hilbert_basis()) == [(1, 0), (1, 1), (1, 2)]
        assert not m.is_free()

    def test_orthant_is_free(self):
        assert N2.is_free()


class TestRClose:
    def test_singleton_always(self):
        assert N1.is_r_close([(5,)], 1)

    def test_scaled_pair(self):
        # (1,), (2,) share root (1,) with multipliers 1, 2
        assert N1.is_r_close([(1,), (2,)], 2)
        assert not N1.is_r_close([(1,), (2,)], 1)

    def test_coprime_pair_needs_lcm(self):
        s = [(2,), (3,)]
        assert not N1.is_r_close(s, 2)
        assert not N1.is_r_close(s, 3)
        assert N1.is_r_close(s, 6)

    def test_off_ray_never(self):
        assert not N2.is_r_close([(1, 0), (0, 1)], 12)
        assert not N2.is_r_close([(1, 0), (0, 1)], INF)

    def test_inf_close_is_common_ray(self):
        assert N2.is_r_close([(1, 2), (2, 4), (3, 6)], INF)

    def test_zero_forces_all_zero(self):
        assert N2.is_r_close([(0, 0), (0, 0)], 1)
        assert not N2.is_r_close([(0, 0), (1, 0)], INF)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            N1.is_r_close([], 1)

    def test_gcd_normalization(self):
        # (2,), (4,): root (2,) multipliers (1, 2); 2-close even though 4 | r fails
        assert N1.is_r_close([(2,), (4,)], 2)

    def test_monotone_in_r_exhaustive(self):
        # r | r' makes closeness easier, weak closeness harder
        vals = [(a, b) for a in range(5) for b in range(5)]
        pairs = [(1, 2), (1, 4), (2, 4), (2, 6), (1, 6)]
        for s in combinations_with_replacement(vals, 2):
            if all(v == (0, 0) for v in s):
                continue
            for r, rp in pairs:
                if N2.is_r_close(s, r):
                    assert N2.is_r_close(s, rp)
                if N2.is_weakly_r_close(s, rp):
                    assert N2.is_weakly_r_close(s, r)

    def test_pairwise_closure_on_a_ray(self):
        # on a common ray, pairwise r-closeness forces joint r-closeness
        for ms in combinations_with_replacement([1, 2, 3, 4, 6], 3):
            s = [(m,) for m in ms]
            for r in (1, 2, 4, 6, 12):
                pairwise = all(
                    N1.is_r_close(list(p), r) for p in combinations_with_replacement(s, 2)
                )
                if pairwise:
                    assert N1.is_r_close(s, r)


class TestRoot:
    def test_basic(self):
        a, ms = N1.root_with_multipliers([(2,), (4,)], 2)
        assert a == (2,)
        assert ms == [1, 2]

    def test_root_is_largest(self):
        # (2,4) and (4,8): root (2,4), not (1,2)
        m = SharpMonoid.orthant(2)
        assert m.root([(2, 4), (4, 8)], 2) == (2, 4)

    def test_not_close_raises(self):
        with pytest.raises(NotRClose):
            N1.root([(1,), (2,)], 1)

    def test_all_zero_raises(self):
        with pytest.raises(AllZero):
            N1.root([(0,)], 1)

    def test_root_reconstructs(self):
        for elems in [[(3,), (6,)], [(2,), (2,)], [(1,), (2,), (4,)]]:
            r = 4
            if not N1.is_r_close(elems, r):
                continue
            a, ms = N1.root_with_multipliers(elems, r)
            assert [tuple(l * t for t in a) for l in ms] == elems
            assert all(r % l == 0 for l in ms)


class TestWeaklyRClose:
    def test_chain_is_weakly_close(self):
        assert N2.is_weakly_r_close([(1, 0), (1, 1), (2, 1)], 1)

    def test_antichain_is_not(self):
        assert not N2.is_weakly_r_close([(1, 0), (0, 1)], 1)

    def test_r_close_implies_weakly_r_close(self):
        vals = [(a, b) for a in range(4) for b in range(4)]
        for s in combinations_with_replacement(vals, 2):
            for r in (1, 2, 4):
                if N2.is_r_close(s, r):
                    assert N2.is_weakly_r_close(s, r)

    def test_rescaling_can_break_a_chain(self):
        # (1,) <= (2,) but the tuple (lambda=2, lambda=1) gives (2,), (2,): still a minimum;
        # over rank 2, (1,0) vs (2,1) at r=2 scales to (2,0) vs (2,1): fine; a genuine
        # failure needs incomparability after scaling
        assert N2.is_weakly_r_close([(1, 0), (2, 1)], 1)
        assert not N2.is_weakly_r_close([(2, 1), (1, 2)], 2)

    def test_brute_force_agreement(self):
        def oracle(s, r):
            divs = divisors(r)
            uniq = sorted(set(s))
            for lam in product(divs, repeat=len(uniq)):
                scaled = [tuple(l * t for t in a) for l, a in zip(lam, uniq)]
                has_min = any(
                    all(all(y[i] >= x[i] for i in range(2)) for y in scaled)
                    for x in scaled
                )
                if not has_min:
                    return False
            return True

        vals = [(a, b) for a in range(3) for b in range(3)]
        for s in combinations_with_replacement(vals, 3):
            for r in (1, 2, 6):
                assert N2.is_weakly_r_close(s, r) == oracle(s, r)


class TestSerialization:
    def test_round_trip(self):
        m = SharpMonoid.from_rays(2, [(1, 0), (1, 2)])
        back = SharpMonoid.from_obj(m.to_obj())
        assert back.rank == 2
        assert set(back.cone.rays) == set(m.cone.rays)

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_orthant_round_trip(self, k):
        m = SharpMonoid.orthant(k)
        assert SharpMonoid.from_obj(m.to_obj()).cone.rays == m.cone.rays
