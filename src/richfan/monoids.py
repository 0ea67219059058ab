"""Sharp fine saturated monoids: lattice points of strongly convex cones.

A monoid is M = sigma cap Z^n for a strongly convex rational cone sigma.
Fineness and saturation are automatic in this representation.  Divisibility is
b - a in M; closeness predicates quantify over divisor tuples of r.  The value
r = math.inf is the distinguished "infinity" and only makes sense where noted.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

from . import cones
from .errors import (
    AllZero,
    EmptySet,
    NotAMember,
    NotRClose,
    SchemaError,
    check_rank,
    is_int,
    is_int_vector,
)
from .intlinalg import Vec, is_zero, primitive, vec_gcd, vsub

INF = math.inf
MAX_R = 10**6
MAX_DIVISOR_TUPLES = 2_000_000
_DIVISORS_CACHE_ENTRIES = 1024  # values of r; the least recently used goes first


def check_r(r, allow_inf: bool = True) -> None:
    if r == INF:
        if not allow_inf:
            raise ValueError("this predicate needs a finite r")
        return
    if not is_int(r) or r < 1:
        raise ValueError("r must be a positive integer or infinity")
    if r > MAX_R:
        raise ValueError(f"r larger than {MAX_R} is not supported")


@lru_cache(maxsize=_DIVISORS_CACHE_ENTRIES)
def divisors(r: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, r + 1) if r % d == 0)


def tuple_minima_exist(contains: Callable[[Vec], bool], vecs: Sequence[Vec], r: int) -> bool:
    """For every divisor tuple (lambda_i) of r, is some lambda_i v_i smallest,
    contains(lambda_j v_j - lambda_i v_i) holding for every j?

    Quantified literally over tuples; a pairwise test would be wrong (a set
    can have tuple minima while pairs stay incomparable).  More than
    MAX_DIVISOR_TUPLES tuples raise ValueError before the first one.
    """
    divs = divisors(r)
    if len(divs) ** len(vecs) > MAX_DIVISOR_TUPLES:
        raise ValueError(f"too many divisor tuples to enumerate: {len(divs)}^{len(vecs)} for r={r}")
    for lam in product(divs, repeat=len(vecs)):
        scaled = [tuple(l * t for t in v) for l, v in zip(lam, vecs)]
        if not any(all(contains(vsub(y, x)) for y in scaled) for x in scaled):
            return False
    return True


class SharpMonoid:
    __slots__ = ("rank", "cone")

    def __init__(self, rank: int, cone: cones.Cone):
        if cone.rank != rank:
            raise ValueError("cone rank does not match monoid rank")
        if cone.lines:
            raise ValueError("monoid cone must be strongly convex")
        self.rank = rank
        self.cone = cone

    @classmethod
    def from_rays(cls, rank: int, rays: Iterable[Sequence[int]]) -> "SharpMonoid":
        return cls(rank, cones.Cone.from_rays(rank, rays))

    @classmethod
    def orthant(cls, rank: int) -> "SharpMonoid":
        return cls.from_rays(rank, [cones.unit(rank, i) for i in range(rank)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SharpMonoid):
            return NotImplemented
        return self.rank == other.rank and self.cone == other.cone

    def __hash__(self) -> int:
        return hash((self.rank, self.cone))

    def __repr__(self) -> str:
        return f"SharpMonoid(rank={self.rank}, rays={list(self.cone.rays)})"

    def contains(self, x: Sequence[int]) -> bool:
        return self.cone.contains(tuple(int(t) for t in x))

    def require_member(self, x: Sequence[int]) -> Vec:
        v = tuple(int(t) for t in x)
        if not self.contains(v):
            raise NotAMember(f"{v} is not in the monoid")
        return v

    def _ray_data(self, elems: list[Vec]) -> tuple[Vec, list[int]] | None:
        """Common primitive direction p and multiples m_i, for nonzero elems."""
        p = primitive(elems[0])
        j = next(i for i, t in enumerate(p) if t != 0)
        ms = []
        for a in elems:
            if primitive(a) != p:
                return None
            ms.append(a[j] // p[j])
        return p, ms

    def is_r_close(self, s: Iterable[Sequence[int]], r) -> bool:
        """Is there a in M and divisors lambda_i of r with a_i = lambda_i a?

        Zero elements force a = 0 (sharpness), so a set containing 0 is close
        only when every element is 0.  For r = infinity the condition is just
        a common ray.
        """
        check_r(r)
        elems = [self.require_member(x) for x in s]
        if not elems:
            raise EmptySet("closeness of an empty set")
        zeros = [is_zero(a) for a in elems]
        if any(zeros):
            return all(zeros)
        data = self._ray_data(elems)
        if data is None:
            return False
        if r == INF:
            return True
        _, ms = data
        g = vec_gcd(ms)
        return all(r % (m // g) == 0 for m in ms)

    def root(self, s: Iterable[Sequence[int]], r) -> Vec:
        """Largest a with a_i = lambda_i a, lambda_i | r (gcd point on the ray)."""
        a, _ = self.root_with_multipliers(s, r)
        return a

    def root_with_multipliers(self, s: Iterable[Sequence[int]], r) -> tuple[Vec, list[int]]:
        check_r(r)
        elems = [self.require_member(x) for x in s]
        if not elems:
            raise EmptySet("root of an empty set")
        if all(is_zero(a) for a in elems):
            raise AllZero("root of an all-zero set is undefined")
        if not self.is_r_close(elems, r):
            raise NotRClose(f"set is not {r}-close")
        p, ms = self._ray_data(elems)
        g = vec_gcd(ms)
        # the maximal admissible k is always the gcd: for k | g the ratio
        # m_i/k is a multiple of m_i/g, so divisibility into r only gets harder
        return tuple(g * t for t in p), [m // g for m in ms]

    def is_weakly_r_close(self, s: Iterable[Sequence[int]], r: int) -> bool:
        """For every divisor tuple (lambda_i), {lambda_i a_i} has a smallest
        (tuple_minima_exist in the monoid's cone).

        Duplicate elements are collapsed first, which is harmless: scaled
        copies of one element are always comparable.
        """
        check_r(r, allow_inf=False)
        elems = [self.require_member(x) for x in s]
        if not elems:
            raise EmptySet("closeness of an empty set")
        return tuple_minima_exist(self.cone.contains, sorted(set(elems)), r)

    def hilbert_basis(self) -> list[Vec]:
        return cones.hilbert_basis(self.cone)

    def is_free(self) -> bool:
        """Is M isomorphic to some N^d?

        M is saturated and its cone is pointed, so M is free exactly when the
        cone is smooth: simplicial, with rays forming a basis of the lattice
        span cap Z^n (Cox, Little & Schenck, *Toric Varieties*, Thm 1.3.12).
        If the rays are such a basis, M is N^d on them.  Conversely, N^d has
        exactly d = dim irreducible elements, each extremal ray's primitive
        vector is irreducible, and a d-dimensional cone has at least d rays;
        so the rays are those d generators, and they generate the group
        M - M = span cap Z^n.  No Hilbert basis is enumerated.
        """
        return cones.is_unimodular(self.cone)

    def to_obj(self) -> dict:
        return {"rank": self.rank, "rays": [list(r) for r in self.cone.rays]}

    @staticmethod
    def from_obj(obj: object) -> "SharpMonoid":
        if not isinstance(obj, dict):
            raise SchemaError("monoid document must be an object")
        rank = obj.get("rank")
        rays = obj.get("rays")
        if not is_int(rank) or rank < 0:
            raise SchemaError("monoid.rank must be a nonnegative integer")
        check_rank(rank, "monoid.rank")
        if not isinstance(rays, list):
            raise SchemaError("monoid.rays must be a list of integer vectors")
        if not all(is_int_vector(ray, rank) for ray in rays):
            raise SchemaError("each monoid ray must be an integer vector of full rank length")
        cone = cones.Cone.from_rays(rank, [tuple(r) for r in rays])
        if cone.lines:
            raise SchemaError("monoid rays must span a strongly convex cone")
        return SharpMonoid(rank, cone)
