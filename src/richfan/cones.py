"""Rational polyhedral cones and fans, with an exact double description core.

A cone is stored by its extremal rays (primitive integer vectors, reduced to a
canonical representative modulo the lineality space) plus a canonical lattice
basis of that lineality space.  Duality, membership, facets, intersection and
Hilbert bases are all exact; no floats anywhere.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SchemaError, check_rank, is_int, is_int_vector
from .intlinalg import (
    Vec,
    det,
    dot,
    hnf_rows,
    is_zero,
    primitive,
    rank_of,
    saturated_span,
    vscale,
    vsub,
)

MAX_HILBERT_BOX = 4_000_000  # lattice points hilbert_basis may enumerate


def unit(rank: int, i: int) -> Vec:
    v = [0] * rank  # OverflowError at once for a rank no list can hold
    v[i] = 1
    return tuple(v)


def double_description(
    rank: int,
    ineqs: Iterable[Sequence[int]],
    eqs: Iterable[Sequence[int]] = (),
) -> tuple[list[Vec], list[Vec], list[int]]:
    """Generators (lines, rays) of {x : <e,x> = 0 for eqs, <a,x> >= 0 for ineqs},
    and for each ray the bitmask of the ineqs it is tight at (bit k for the
    k-th inequality; a zero inequality is tight everywhere).

    Sequential insertion with combinatorial adjacency; every intermediate ray
    carries its tight bitmask.  Lines are consumed first whenever a new
    constraint cuts the current lineality space.  The lines lie in the kernel
    of every inequality, so reducing a ray modulo the lines keeps its mask.

    A constraint with at most two nonzero entries is dotted over them alone:
    units and differences cut out the chambers and choice cones.  Consuming a
    line h with d = <a,h> > 0 maps each other line and ray v to
    d v - <a,v> h.  A vector with <a,v> = 0 is kept as it is: it is
    primitive, as every stored line and ray is, and d v reduces back to it.
    """
    ins = [tuple(map(int, a)) for a in ineqs]
    eqn = [tuple(map(int, e)) for e in eqs]
    if any(len(a) != rank for a in ins + eqn):
        raise ValueError("dot of vectors of different lengths")
    eqn = [e for e in eqn if not is_zero(e)]

    lines: list[Vec] = [unit(rank, i) for i in range(rank)]
    rays: list[tuple[Vec, int]] = []  # (vector, tight bitmask over ins)

    def insert(a: Vec, bit: int | None, prev_mask: int) -> None:
        nonlocal lines, rays
        sup = [(i, x) for i, x in enumerate(a) if x]
        if len(sup) <= 2:
            (i, x), (j, y) = (sup + [(0, 0), (0, 0)])[:2]

            def adot(v: Vec) -> int:
                return x * v[i] + y * v[j]
        else:

            def adot(v: Vec) -> int:
                return sum(map(mul, a, v))

        b = 0 if bit is None else 1 << bit
        for k, orig in enumerate(lines):
            d = adot(orig)
            if d:
                break
        else:
            d = 0
        if d:
            hit = orig if d > 0 else tuple(-t for t in orig)
            d = abs(d)
            new_lines = lines[:k]  # dot 0, as orig is the first line off it
            for l in lines[k + 1 :]:
                dl = adot(l)
                if dl:
                    l = primitive(tuple(d * s - dl * h for s, h in zip(l, hit)))
                new_lines.append(l)
            new_rays = []
            for v, m in rays:
                dv = adot(v)
                if dv:
                    v = primitive(tuple(d * s - dv * h for s, h in zip(v, hit)))
                new_rays.append((v, m | b))
            lines = new_lines
            rays = new_rays
            if bit is not None:
                # the consumed line survives as a ray on the positive side
                rays.append((hit, prev_mask))
            return
        pos = []
        zero = []
        neg = []
        for v, m in rays:
            dv = adot(v)
            if dv > 0:
                pos.append((v, m, dv))
            elif dv < 0:
                neg.append((v, m, dv))
            else:
                zero.append((v, m | b))
        if not neg and bit is None and not pos:
            return
        all_masks = [m for _, m in rays]
        fresh: dict[Vec, int] = {}
        for pv, pm, pd in pos:
            for nv, nm, nd in neg:
                t = pm & nm
                for m in all_masks:
                    if t & m == t and m is not pm and m is not nm:
                        break
                else:
                    w = primitive(tuple(pd * s - nd * h for s, h in zip(nv, pv)))
                    fresh.setdefault(w, t | b)
        if bit is not None:
            zero.extend((v, m) for v, m, _ in pos)
        zero.extend(fresh.items())
        rays = zero

    for e in eqn:
        insert(e, None, 0)
    for k, a in enumerate(ins):
        insert(a, k, (1 << k) - 1)

    line_basis = saturated_span(lines) if lines else []
    if line_basis:
        classes = {_reduce_mod_lines(v, line_basis): m for v, m in rays}
    else:  # every ray is primitive, so it is its own representative
        classes = dict(rays)
    vecs = sorted(classes)
    return list(line_basis), vecs, [classes[v] for v in vecs]


def _reduce_mod_lines(v: Sequence[int], lines_hnf: Sequence[Vec]) -> Vec:
    """Canonical primitive representative of the ray class of v mod the lines.

    Each pivot coordinate of the lineality basis is cleared in integers,
    x <- row[c] x - x[c] row.  A Hermite pivot row[c] is positive, so x is only
    ever scaled by positive factors and the ray's direction is preserved.
    """
    x = tuple(v)
    for row in lines_hnf:
        c = next(i for i, t in enumerate(row) if t != 0)
        if x[c]:
            p, xc = row[c], x[c]
            x = tuple(p * xi - xc * li for xi, li in zip(x, row))
    assert any(x), "ray vanished into the lineality space"
    return primitive(x)


class Cone:
    """A rational polyhedral cone in a fixed ambient rank."""

    __slots__ = ("rank", "rays", "lines", "_dual", "_unimodular")

    def __init__(self, rank: int, rays: tuple[Vec, ...], lines: tuple[Vec, ...]):
        self.rank = rank
        self.rays = rays
        self.lines = lines
        self._dual: Cone | None = None
        self._unimodular: bool | None = None  # is_unimodular's verdict

    @classmethod
    def from_inequalities(
        cls,
        rank: int,
        ineqs: Iterable[Sequence[int]],
        eqs: Iterable[Sequence[int]] = (),
    ) -> "Cone":
        """{x : <e,x> = 0 for eqs, <a,x> >= 0 for ineqs}, from one double
        description, with the dual read off the tight masks when the cone is
        full dimensional and pointed.

        That is exactly when no nonzero equation is given, the result has no
        lines and no nonzero inequality is tight on every ray.  Then every
        nonzero inequality has a ray off it, and the sum of those rays meets
        all of them strictly, so a ball around it lies in the cone.  A nonzero
        equation, or an inequality tight on every ray of a pointed cone, puts
        the cone in a hyperplane.  The masks cover only the inequalities, so
        a given equation always leaves the dual to dual().

        In a full-dimensional pointed cone every proper face lies in a facet,
        so the facets are the inclusion-maximal tight ray sets of the nonzero
        inequalities (Fukuda & Prodon, "Double description method revisited",
        1996).  A facet spans a hyperplane, so its inequalities share one
        primitive normal, and the dual is the cone on those normals.  In every
        other case dual() runs a second double description.
        """
        ins = [tuple(int(x) for x in a) for a in ineqs]
        eqn = [tuple(int(x) for x in e) for e in eqs]
        lines, rays, masks = double_description(rank, ins, eqn)
        cone = cls(rank, tuple(rays), tuple(lines))
        tight = [0] * len(ins)
        for i, m in enumerate(masks):
            while m:
                low = m & -m
                tight[low.bit_length() - 1] |= 1 << i
                m ^= low
        every = (1 << len(rays)) - 1
        if lines or any(map(any, eqn)) or any(t == every and any(a) for a, t in zip(ins, tight)):
            return cone
        sets = {t for t in tight if t != every and t.bit_count() >= rank - 1}
        facets = {t for t in sets if not any(t != u and t & u == t for u in sets)}
        normals = {primitive(a) for a, t in zip(ins, tight) if t in facets}
        cone._dual = cls(rank, tuple(sorted(normals)), ())
        cone._dual._dual = cone
        return cone

    @classmethod
    def from_rays(
        cls,
        rank: int,
        gens: Iterable[Sequence[int]],
        lines: Iterable[Sequence[int]] = (),
    ) -> "Cone":
        return cls.from_inequalities(rank, gens, lines).dual()

    def dual(self) -> "Cone":
        if self._dual is None:
            self._dual = Cone.from_inequalities(self.rank, self.rays, self.lines)
            self._dual._dual = self
        return self._dual

    def permuted(self, perm: Sequence[int]) -> "Cone":
        """The image of a full-dimensional pointed cone under the coordinate
        permutation that moves coordinate i to perm[i].

        Permuting coordinates keeps vectors primitive, so the permuted and
        re-sorted rays and facet normals are canonical, and the image comes
        with its dual: no double description runs once the dual is known.
        """
        d = self.dual()
        if self.lines or d.lines:
            raise ValueError("only a full-dimensional pointed cone is permuted")
        if self.rank < 2:
            return self
        take = [0] * self.rank
        for i, p in enumerate(perm):
            take[p] = i
        move = itemgetter(*take)
        cone = Cone(self.rank, tuple(sorted(map(move, self.rays))), ())
        cone._dual = Cone(self.rank, tuple(sorted(map(move, d.rays))), ())
        cone._dual._dual = cone
        return cone

    @property
    def facet_normals(self) -> tuple[Vec, ...]:
        return self.dual().rays

    @property
    def span_equations(self) -> tuple[Vec, ...]:
        return self.dual().lines

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in rank {self.rank}"
            )
        d = self.dual()
        return all(dot(e, v) == 0 for e in d.lines) and all(
            dot(f, v) >= 0 for f in d.rays
        )

    def interior_contains(self, v: Sequence[int]) -> bool:
        """Relative interior membership."""
        d = self.dual()
        return all(dot(e, v) == 0 for e in d.lines) and all(
            dot(f, v) > 0 for f in d.rays
        )

    def dim(self) -> int:
        return rank_of(list(self.rays) + list(self.lines))

    @property
    def is_pointed(self) -> bool:
        return not self.lines

    def intersect(self, other: "Cone") -> "Cone":
        if self.rank != other.rank:
            raise DimensionMismatch("cones live in different ambient ranks")
        return Cone.from_inequalities(
            self.rank,
            list(self.facet_normals) + list(other.facet_normals),
            list(self.span_equations) + list(other.span_equations),
        )

    def contains_cone(self, other: "Cone") -> bool:
        if self.rank != other.rank:
            raise DimensionMismatch("cones live in different ambient ranks")
        for r in other.rays:
            if not self.contains(r):
                return False
        for l in other.lines:
            if not self.contains(l) or not self.contains(tuple(-x for x in l)):
                return False
        return True

    def image(self, rows: Sequence[Sequence[int]]) -> "Cone":
        """Image under the linear map whose matrix rows are given."""
        new_rank = len(rows)
        gens = [tuple(dot(row, r) for row in rows) for r in self.rays]
        lns = [tuple(dot(row, l) for row in rows) for l in self.lines]
        return Cone.from_rays(new_rank, gens, lns)

    def drop_zero_coords(self, zero: Sequence[int]) -> "Cone":
        """Delete coordinates that vanish on the whole cone (canonical-safe)."""
        zs = set(zero)
        assert all(all(r[i] == 0 for i in zs) for r in self.rays)
        assert all(all(l[i] == 0 for i in zs) for l in self.lines)
        keep = [i for i in range(self.rank) if i not in zs]
        rays = tuple(sorted(tuple(r[i] for i in keep) for r in self.rays))
        lines = tuple(tuple(l[i] for i in keep) for l in self.lines)
        return Cone(self.rank - len(zs), rays, lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.rays == other.rays
            and self.lines == other.lines
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.rays, self.lines))

    def __repr__(self) -> str:
        if self.lines:
            return f"Cone(rank={self.rank}, rays={list(self.rays)}, lines={list(self.lines)})"
        return f"Cone(rank={self.rank}, rays={list(self.rays)})"


def is_unimodular(cone: Cone) -> bool:
    """Do the extremal rays form a basis of the lattice S = span(rays) cap Z^n?

    Never for a cone with lines.  For a pointed cone with k rays in rank n:
    k == n needs |det| == 1, k > n fails, and k < n needs the rays to be
    independent (k Hermite rows) and to generate S.  The Hermite bases of
    the rays' lattice L and of S share their pivot columns, and projecting on
    those columns shows [S : L] = prod(pivots of L) / prod(pivots of S).
    Independence matters: the rays (x, y, 1, 0, 0), x, y in {0, 1}, generate
    the saturated Z^3 x 0 x 0 but are four vectors.  The verdict is kept on
    the cone, so the cone of a monoid asked is_free and hilbert_basis runs
    one determinant.
    """
    if cone._unimodular is None:
        rays = cone.rays
        k, n = len(rays), cone.rank
        if cone.lines or k > n:
            cone._unimodular = False
        elif k == n:
            cone._unimodular = abs(det(rays)) == 1
        else:
            basis = hnf_rows(rays)
            cone._unimodular = len(basis) == k and _pivot_product(basis) == _pivot_product(
                saturated_span(rays)
            )
    return cone._unimodular


def _pivot_product(echelon: Sequence[Vec]) -> int:
    return math.prod(next(x for x in row if x) for row in echelon)


def hilbert_basis(cone: Cone) -> list[Vec]:
    """Minimal generating set of cone cap Z^n (pointed cones only).

    A unimodular cone's monoid is free on its rays, which are then the basis.
    Otherwise irreducible elements live in the zonotope spanned by the rays,
    so candidates are enumerated from its bounding box and reduced pairwise.
    """
    if cone.lines:
        raise ValueError("hilbert basis needs a pointed cone")
    rays = cone.rays
    if not rays:
        return []
    if is_unimodular(cone):
        return sorted(rays)
    n = cone.rank
    lo = [sum(min(r[i], 0) for r in rays) for i in range(n)]
    hi = [sum(max(r[i], 0) for r in rays) for i in range(n)]
    vol = 1
    for a, b in zip(lo, hi):
        vol *= b - a + 1
        if vol > MAX_HILBERT_BOX:
            raise ValueError("hilbert basis enumeration region too large")
    pts = []
    zero = tuple(0 for _ in range(n))
    for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if p != zero and cone.contains(p):
            pts.append(p)
    out = []
    for p in pts:
        if not any(q != p and cone.contains(vsub(p, q)) for q in pts):
            out.append(p)
    return sorted(out)


class Fan:
    """A finite set of maximal cones in a common ambient rank."""

    __slots__ = ("rank", "cones", "_complete")

    def __init__(self, rank: int, cones: Iterable[Cone]):
        seen = sorted(set(cones), key=lambda c: (c.rays, c.lines))
        for c in seen:
            if c.rank != rank:
                raise DimensionMismatch("fan cone in wrong ambient rank")
        self.rank = rank
        self.cones = tuple(seen)
        self._complete: bool | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return self.rank == other.rank and self.cones == other.cones

    def __hash__(self) -> int:
        return hash((self.rank, self.cones))

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, cones={len(self.cones)})"

    def is_complete_on_orthant(self) -> bool:
        """Exact certificate that the cones subdivide the orthant face to face.

        True exactly when:
        (a) every cone is full dimensional, pointed and has rays >= 0;
        (b) every facet whose primitive inner normal f is not a unit vector
            e_i is, with the same rays, a facet of exactly one other cone,
            whose normal there is -f (a facet with normal e_i lies in the
            coordinate hyperplane x_i = 0);
        (c) exactly one cone contains p = (1, t, ..., t^(n-1)), where
            t = 2 + the largest |entry| of a facet normal.  By Cauchy's root
            bound, <f, p> is a nonzero integer polynomial in t for every
            facet normal f, so p lies in the open orthant and on no wall.

        Coverage.  Let X be the open orthant minus the faces of dimension
        <= n - 2 of all cones; X is connected.  For x in X let N(x) count
        the cones with x in the interior, plus one half for each cone with x
        on a facet.  Such an x is in the relative interior of that facet,
        whose normal is not a unit vector, as x has no zero coordinate.
        Near x, a cone of the first kind covers a whole ball, and by (b) the
        cones of the second kind come in pairs covering the two sides of one
        wall, so N is locally constant on X.  N(p) = 1 by (c), so N = 1 on
        X: X is covered and no two interiors meet.  X is dense in the orthant
        and the union of the cones is closed, so it is the whole orthant.

        Face to face.  Take q in the orthant and a ball B around q that
        meets no cone missing q and no facet missing q of a cone holding q.
        A generic path inside B from the interior of one cone around q to
        the interior of another crosses walls only through the relative
        interiors of facets; each such facet contains q and is matched by
        (b) to the cone across it.  Two cones matched at a facet F that
        contains q share the smallest face of F containing q, which is
        their smallest face containing q.  So all cones around q have one
        smallest face G at q.  For q in the relative interior of c1 cap c2,
        G contains c1 cap c2 (a face containing a relative interior point of
        a convex subset contains all of it) and lies in both cones, so
        c1 cap c2 = G is a face of both.  See De Loera, Rambau & Santos,
        *Triangulations* (2010), ch. 4, for facet matching of subdivisions.

        The verdict is computed once and kept; is_valid reads it.
        """
        if self._complete is None:
            self._complete = self._facets_match()
        return self._complete

    def _facets_match(self) -> bool:
        n = self.rank
        if n == 0 or not self.cones:  # the empty fan covers no orthant of positive rank
            return len(self.cones) == 1 and self.cones[0].dim() == 0
        units = {unit(n, i) for i in range(n)}
        walls: dict[tuple[tuple[Vec, ...], Vec], int] = {}
        for c in self.cones:
            if not c.is_pointed or c.span_equations or any(x < 0 for r in c.rays for x in r):
                return False
            for f in c.facet_normals:
                if f not in units:
                    key = (tuple(r for r in c.rays if dot(f, r) == 0), f)
                    walls[key] = walls.get(key, 0) + 1
        # two cones holding a wall on the same side fail at its opposite key
        if any(walls.get((face, vscale(-1, f))) != 1 for face, f in walls):
            return False
        t = 2 + max((abs(x) for c in self.cones for f in c.facet_normals for x in f), default=0)
        p = tuple(t**j for j in range(n))
        return sum(c.contains(p) for c in self.cones) == 1

    def is_valid(self) -> bool:
        """Pairwise intersections must be faces of both cones.

        A fan with the certificate of `is_complete_on_orthant` is valid, as
        proved there.  Any other fan gets the exact double description of
        every pairwise intersection and the face test.
        """
        if self.is_complete_on_orthant():
            return True
        for c1, c2 in combinations(self.cones, 2):
            cap = c1.intersect(c2)
            if not _is_face_of(cap, c1) or not _is_face_of(cap, c2):
                return False
        return True

    def refine(self, other: "Fan") -> "Fan":
        if self.rank != other.rank:
            raise DimensionMismatch("fans live in different ambient ranks")
        out = []
        for c1 in self.cones:
            for c2 in other.cones:
                cap = c1.intersect(c2)
                if cap.dim() == self.rank:
                    out.append(cap)
        return Fan(self.rank, out)

    def restrict(self, zero_coords: Iterable[int]) -> "Fan":
        """Slice by {x_i = 0 for i in zero_coords} and drop those coordinates."""
        zs = sorted(set(zero_coords))
        for i in zs:
            if not 0 <= i < self.rank:
                raise DimensionMismatch(f"coordinate {i} out of range")
        sliced = []
        for c in self.cones:
            cc = Cone.from_inequalities(
                self.rank,
                c.facet_normals,
                list(c.span_equations) + [unit(self.rank, i) for i in zs],
            )
            sliced.append(cc.drop_zero_coords(zs))
        uniq = list(set(sliced))
        keep = [
            c
            for c in uniq
            if not any(o is not c and o != c and o.contains_cone(c) for o in uniq)
        ]
        return Fan(self.rank - len(zs), keep)

    def to_obj(self) -> dict:
        return {
            "rank": self.rank,
            "cones": [{"rays": [list(r) for r in c.rays]} for c in self.cones],
        }

    @classmethod
    def from_obj(cls, obj: object) -> "Fan":
        if not isinstance(obj, dict):
            raise SchemaError("fan document must be an object")
        rank = obj.get("rank")
        cones = obj.get("cones")
        if not is_int(rank) or rank < 0:
            raise SchemaError("fan.rank must be a nonnegative integer")
        check_rank(rank, "fan.rank")
        if not isinstance(cones, list):
            raise SchemaError("fan.cones must be a list")
        ray_lists = []
        for c in cones:
            rays = c.get("rays") if isinstance(c, dict) else None
            if not isinstance(rays, list) or not all(is_int_vector(v, rank) for v in rays):
                raise SchemaError(f"each fan cone needs a list of integer rays of length {rank}")
            ray_lists.append([tuple(v) for v in rays])
        return cls(rank, [Cone.from_rays(rank, rays) for rays in ray_lists])


def _is_face_of(face: Cone, cone: Cone) -> bool:
    tight_normals = [
        f
        for f in cone.facet_normals
        if all(dot(f, r) == 0 for r in face.rays)
        and all(dot(f, l) == 0 for l in face.lines)
    ]
    tight_rays = {
        r
        for r in cone.rays
        if all(dot(f, r) == 0 for f in tight_normals)
    }
    # a face always carries the whole lineality space along
    return set(face.rays) == tight_rays and face.lines == cone.lines
