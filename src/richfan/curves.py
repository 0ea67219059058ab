"""Tropical curves over sharp monoids, real families over cones, and all the
richness predicates: r-rich, weakly r-rich, PL witnesses, specialization and
the basic (minimal) model.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .cones import Cone, _is_face_of
from .errors import (
    NotAFace,
    NotRRich,
    SchemaError,
    ShapeMismatch,
    UnknownEdge,
    check_rank,
    is_int,
    is_int_vector,
)
from .graphs import Graph
from .intlinalg import Vec, dot, hnf_rows, integer_kernel, is_zero, vsub
from .monoids import SharpMonoid, check_r, tuple_minima_exist


class TropicalCurve(NamedTuple):
    """A connected multigraph with edge lengths in a sharp monoid."""

    graph: Graph
    monoid: SharpMonoid
    lengths: tuple[tuple[int, Vec], ...]  # (edge id, element), sorted by id

    @staticmethod
    def build(
        graph: Graph, monoid: SharpMonoid, lengths: Mapping[int, Sequence[int]]
    ) -> "TropicalCurve":
        graph.require_connected()
        if set(lengths.keys()) != set(graph.edge_ids):
            raise ValueError("lengths must be given for exactly the edges")
        rows = []
        for e in sorted(lengths):
            v = monoid.require_member(lengths[e])
            if is_zero(v):
                raise ValueError(f"edge {e} has zero length; contract it instead")
            rows.append((e, v))
        return TropicalCurve(graph, monoid, tuple(rows))

    def length(self, eid: int) -> Vec:
        for e, v in self.lengths:
            if e == eid:
                return v
        raise UnknownEdge(f"no edge with id {eid}")

    def _cut_lengths(self, cut: Sequence[int]) -> list[Vec]:
        return [self.length(e) for e in cut]

    def is_r_rich(self, r) -> bool:
        """Every cut's lengths are r-close, decided on the circuit blocks:
        the curve is r-rich exactly when every block's lengths are r-close.

        - Every bond lies inside one block: the cycle matroid of the graph is
          the direct sum of its blocks' matroids, so each bond (a cocircuit)
          is a cocircuit of one block.
        - Any two edges of a block share a bond: a 2-connected graph's
          cycle matroid is connected, so is its dual, whose circuits are the
          bonds.  Loop and bridge blocks are single edges.
        - A set of nonzero lengths is r-close exactly when each pair in it
          is (is_r_close).  Both need one common primitive direction p;
          write a_i = m_i p.  The set condition m_i / gcd m | r says, for
          each prime l, that v_l(m_i) - min_j v_l(m_j) <= v_l(r), and the
          left side is the largest of the pair differences
          v_l(m_i) - v_l(m_j).  At r = infinity only p counts.

        So the set of a block is r-close when its pairs are, each pair lying
        in a bond; and a bond is r-close when its block is, its pairs being
        pairs of the block.
        """
        check_r(r)
        return all(
            self.monoid.is_r_close(self._cut_lengths(b), r) for b in self.graph.blocks()
        )

    def is_weakly_r_rich(self, r: int) -> bool:
        """Every cut's lengths are weakly r-close in the monoid: this is
        family_is_weakly_r_rich of the evaluation family, whose cone's dual is
        the monoid's cone, so the factors verb takes the same route."""
        return family_is_weakly_r_rich(self.to_real_family(), r)

    def pl_witness(self, cut: Sequence[int], r: int) -> "PLFunction":
        """A PL function certifying r-closeness of one cut.

        Value 0 on the side containing the smallest vertex, r times the root
        on the other side; slope r/lambda_e across each cut edge, 0 elsewhere.
        """
        check_r(r, allow_inf=False)
        cut = tuple(sorted(int(e) for e in cut))
        # side0 is the component of G - cut at the smallest vertex; the set
        # is a bond when the rest is nonempty and connected in G - cut and
        # the edges leaving side0 are exactly the set
        minus = Graph.build(self.graph.vertices, (e for e in self.graph.edges if e.id not in cut))
        side0 = minus._tree()
        far = Graph.build(
            (v for v in minus.vertices if v not in side0),
            (e for e in minus.edges if e.u not in side0),
        )
        leaving = sorted(e.id for e in self.graph.edges if (e.u in side0) != (e.v in side0))
        if tuple(leaving) != cut or not far.is_connected():
            raise ValueError(f"{cut} is not a cut of the graph")
        root, mults = self.monoid.root_with_multipliers(self._cut_lengths(cut), r)
        high = tuple(r * t for t in root)
        zero = tuple(0 for _ in range(self.monoid.rank))
        values = {v: (zero if v in side0 else high) for v in self.graph.vertices}
        slopes = {}
        lam = dict(zip(cut, mults))
        for e in self.graph.edges:
            if e.id in lam:
                s = r // lam[e.id]
                slopes[e.id] = s if e.u in side0 else -s
            else:
                slopes[e.id] = 0
        return PLFunction.build(values, slopes)

    def check_pl(self, f: "PLFunction", cut: Sequence[int], r: int) -> bool:
        """Verify a PL certificate: compatibility along every edge, nonzero
        cut slopes dividing r, zero slopes off the cut."""
        check_r(r, allow_inf=False)
        values = dict(f.vertex_values)
        slopes = dict(f.slopes)
        if set(values.keys()) != set(self.graph.vertices):
            raise ShapeMismatch("PL function must value every vertex")
        if set(slopes.keys()) != set(self.graph.edge_ids):
            raise ShapeMismatch("PL function must have a slope on every edge")
        cut_set = set(int(e) for e in cut)
        for e in self.graph.edges:
            s = slopes[e.id]
            delta = vsub(values[e.v], values[e.u])
            if delta != tuple(s * t for t in self.length(e.id)):
                return False
            if e.id in cut_set:
                if s == 0 or r % abs(s) != 0:
                    return False
            elif s != 0:
                return False
        return True

    def to_real_family(self) -> "RealFamily":
        """Evaluation family: sigma = dual of the monoid cone, rows = lengths."""
        return RealFamily.build(
            self.graph,
            self.monoid.cone.dual(),
            {e: v for e, v in self.lengths},
        )

    def specialize(self, face_rays: Iterable[Sequence[int]]) -> "TropicalCurve":
        """Quotient the monoid by the span of a face, contracting killed edges."""
        s = [tuple(int(t) for t in v) for v in face_rays]
        rays = set(self.monoid.cone.rays)
        for v in s:
            if v not in rays:
                raise NotAFace(f"{v} is not a ray of the monoid cone")
        if not s:
            return self
        if not _is_face_of(Cone(self.monoid.rank, tuple(s), ()), self.monoid.cone):
            raise NotAFace("the rays do not span a face of the monoid cone")
        # saturated kernel, put in Hermite form so that quotienting by
        # standard basis rays is literally coordinate deletion
        proj = hnf_rows(integer_kernel(s))
        new_rank = len(proj)
        new_monoid = SharpMonoid.from_rays(
            new_rank,
            [tuple(dot(k, rr) for k in proj) for rr in self.monoid.cone.rays],
        )
        new_lengths = {
            e: tuple(dot(k, v) for k in proj) for e, v in self.lengths
        }
        dead = [e for e, v in new_lengths.items() if is_zero(v)]
        new_graph = self.graph.contract(dead)
        return TropicalCurve.build(
            new_graph,
            new_monoid,
            {e: v for e, v in new_lengths.items() if e not in dead},
        )

    def basic_model(self, r) -> "BasicModel":
        """Factor the lengths through roots on circuit blocks.

        The model lives over N^T, one coordinate per block; it is basic when
        t -> root_t is an isomorphism N^T -> M (distinct roots forming the
        Hilbert basis of a free monoid).
        """
        check_r(r)
        if not self.is_r_rich(r):
            raise NotRRich(f"curve is not {r}-rich")
        comps = self.graph.blocks()
        roots: list[Vec] = []
        mults: dict[int, int] = {}
        for comp in comps:
            a, ms = self.monoid.root_with_multipliers(self._cut_lengths(comp), r)
            roots.append(a)
            for e, m in zip(comp, ms):
                mults[e] = m
        k = len(comps)
        model_monoid = SharpMonoid.orthant(k)
        model_lengths = {}
        for t, comp in enumerate(comps):
            for e in comp:
                model_lengths[e] = tuple(
                    mults[e] if j == t else 0 for j in range(k)
                )
        model = TropicalCurve.build(self.graph, model_monoid, model_lengths)
        # a free monoid's Hilbert basis is its set of extremal rays
        distinct = len(set(roots)) == k
        basic = distinct and self.monoid.is_free() and set(roots) == set(self.monoid.cone.rays)
        return BasicModel(
            components=tuple(comps),
            multipliers=tuple(sorted(mults.items())),
            roots=tuple(roots),
            is_basic=basic,
            model=model,
        )

    def enriched_parameter_dimension(self, r) -> int:
        """|E| - |T|: torus dimension of r-rich structures over a point."""
        check_r(r)
        if not self.is_r_rich(r):
            raise NotRRich(f"curve is not {r}-rich")
        return len(self.graph.edges) - len(self.graph.blocks())

    def to_obj(self) -> dict:
        obj = self.graph.to_obj()
        obj["monoid"] = self.monoid.to_obj()
        obj["lengths"] = {str(e): list(v) for e, v in self.lengths}
        return obj

    @staticmethod
    def from_obj(obj: object) -> "TropicalCurve":
        if not isinstance(obj, dict):
            raise SchemaError("curve document must be an object")
        graph = Graph.from_obj(obj)
        monoid = SharpMonoid.from_obj(obj.get("monoid"))
        raw = obj.get("lengths")
        if not isinstance(raw, dict):
            raise SchemaError("curve.lengths must be an object keyed by edge id")
        lengths = {}
        for k, v in raw.items():
            try:
                eid = int(k)
            except ValueError:
                eid = None
            # only the canonical spelling: int() also reads "01" as 1, and a
            # second key for one edge would overwrite the first
            if eid is None or k != str(eid):
                raise SchemaError(f"length key {k!r} is not an edge id")
            if not is_int_vector(v):
                raise SchemaError("each length must be an integer vector")
            lengths[eid] = tuple(v)
        if set(lengths.keys()) != set(graph.edge_ids):
            raise SchemaError("lengths must cover exactly the edges")
        for eid, v in lengths.items():
            if len(v) != monoid.rank:
                raise SchemaError(f"length of edge {eid} has wrong dimension")
            if not monoid.contains(v):
                raise SchemaError(f"length of edge {eid} is outside the monoid")
            if is_zero(v):
                raise SchemaError(f"edge {eid} has zero length")
        return TropicalCurve.build(graph, monoid, lengths)


class PLFunction(NamedTuple):
    """Integer-vector vertex values with one slope per canonically oriented
    edge (smaller endpoint to larger)."""

    vertex_values: tuple[tuple[int, Vec], ...]
    slopes: tuple[tuple[int, int], ...]

    @staticmethod
    def build(values: Mapping[int, Sequence[int]], slopes: Mapping[int, int]) -> "PLFunction":
        return PLFunction(
            tuple(sorted((int(v), tuple(int(t) for t in x)) for v, x in values.items())),
            tuple(sorted((int(e), int(s)) for e, s in slopes.items())),
        )


class RealFamily(NamedTuple):
    """A family of real tropical curves: a parameter cone and a linear map
    sending it into the orthant of edge lengths."""

    graph: Graph
    cone: Cone
    length_map: tuple[tuple[int, Vec], ...]  # (edge id, functional row)

    @staticmethod
    def build(
        graph: Graph, cone: Cone, rows: Mapping[int, Sequence[int]]
    ) -> "RealFamily":
        graph.require_connected()
        if set(rows.keys()) != set(graph.edge_ids):
            raise ValueError("length map must have a row for every edge")
        out = []
        for e in sorted(rows):
            row = tuple(int(t) for t in rows[e])
            if len(row) != cone.rank:
                raise ValueError(f"row for edge {e} has wrong dimension")
            # the invariant: lengths stay nonnegative on the whole cone
            if any(dot(row, rr) < 0 for rr in cone.rays) or any(
                dot(row, l) != 0 for l in cone.lines
            ):
                raise ValueError(f"row for edge {e} leaves the orthant on the cone")
            out.append((e, row))
        return RealFamily(graph, cone, tuple(out))

    def row(self, eid: int) -> Vec:
        for e, v in self.length_map:
            if e == eid:
                return v
        raise UnknownEdge(f"no edge with id {eid}")

    def image_cone(self) -> Cone:
        """Image of the parameter cone in the orthant of edge lengths,
        coordinates in sorted edge id order."""
        return self.cone.image([v for _, v in self.length_map])

    def to_obj(self) -> dict:
        obj = self.graph.to_obj()
        obj["sigma_rays"] = [list(r) for r in self.cone.rays]
        if self.cone.lines:
            obj["sigma_lines"] = [list(l) for l in self.cone.lines]
        if not self.cone.rays:
            obj["sigma_rank"] = self.cone.rank
        obj["length_map"] = [list(self.row(e.id)) for e in self.graph.edges]
        return obj

    @staticmethod
    def from_obj(obj: object) -> "RealFamily":
        if not isinstance(obj, dict):
            raise SchemaError("family document must be an object")
        graph = Graph.from_obj(obj)
        rays = obj.get("sigma_rays")
        if not isinstance(rays, list):
            raise SchemaError("family.sigma_rays must be a list of integer vectors")
        lines = obj.get("sigma_lines", [])
        if not isinstance(lines, list):
            raise SchemaError("family.sigma_lines must be a list of integer vectors")
        vecs = rays + lines
        if vecs:
            if not all(map(is_int_vector, vecs)):
                raise SchemaError("family.sigma rays/lines must be integer vectors")
            m = len(vecs[0])
            if any(len(r) != m for r in vecs):
                raise SchemaError("family.sigma rays/lines must share a dimension")
        else:
            m = obj.get("sigma_rank")
            if not is_int(m) or m < 0:
                raise SchemaError("family without rays needs sigma_rank")
        check_rank(m, "family sigma rank")
        cone = Cone.from_rays(m, [tuple(r) for r in rays], [tuple(l) for l in lines])
        rows = obj.get("length_map")
        if not isinstance(rows, list) or len(rows) != len(graph.edges):
            raise SchemaError("family.length_map needs one row per edge, in edge order")
        mapping = {}
        for e, row in zip(graph.edges, rows):
            if not is_int_vector(row, m):
                raise SchemaError("each length_map row must be an integer vector")
            mapping[e.id] = tuple(row)
        try:
            return RealFamily.build(graph, cone, mapping)
        except ValueError as ex:
            raise SchemaError(str(ex)) from None


def family_is_weakly_r_rich(fam: RealFamily, r: int) -> bool:
    """For every cut and divisor tuple, some edge is universally smallest.

    Universal pointwise minimality on the cone is exactly dual-cone
    membership of the rescaled row differences (tuple_minima_exist).  Each
    cut is tested on its distinct rows: a row is >= 0 on the cone, so scaled
    copies of one row are comparable, and only the smallest copy can matter.
    The cut with the most distinct rows goes first, so a cut over the
    divisor-tuple cap raises before any tuple is tested.
    """
    check_r(r, allow_inf=False)
    contains = fam.cone.dual().contains
    rows = [sorted({fam.row(e) for e in cut}) for cut in fam.graph.cuts()]
    return all(
        tuple_minima_exist(contains, vecs, r) for vecs in sorted(rows, key=len, reverse=True)
    )


class BasicModel(NamedTuple):
    """Roots and multipliers per circuit block, plus the model over N^T."""

    components: tuple[tuple[int, ...], ...]
    multipliers: tuple[tuple[int, int], ...]
    roots: tuple[Vec, ...]
    is_basic: bool
    model: TropicalCurve

    def multiplier(self, eid: int) -> int:
        for e, m in self.multipliers:
            if e == eid:
                return m
        raise UnknownEdge(f"no edge with id {eid}")
