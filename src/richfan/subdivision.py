"""Richness ideals, the weakly rich subdivision, cut orders and smoothness.

The subdivision has one construction for every finite r: a walk over the
chambers cut out by the walls of the richness ideal's factors (see
weakly_rich_fan).  newton_subdivision stays for arbitrary monomial ideals.
The Newton fan of the whole richness ideal and the enumeration of choice
functions at r = 1 are test oracles that the walk must match.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import getitem, itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import _numpy_spec
from .cones import Cone, Fan, double_description, is_unimodular, unit
from .curves import RealFamily
from .errors import (
    DimensionMismatch,
    InvalidChoice,
    NotMinimalOrder,
    SchemaError,
    UnknownCoordinate,
    is_int,
    is_int_vector,
)
from .graphs import Graph, _find
from .intlinalg import Vec, primitive, rank_of
from .monoids import MAX_DIVISOR_TUPLES, SharpMonoid, check_r, divisors


def _lazy_import(spec):
    """The module of `spec`, executed on its first attribute access; the
    module itself when it is already imported."""
    if spec.name in sys.modules:
        return sys.modules[spec.name]
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# only the ideal layer uses numpy, and most CLI requests build no ideal; the
# package looked its spec up once, at import
np = _lazy_import(_numpy_spec)

_PAIRS_CELLS = 65_536  # n*n*k at most this: one all-pairs compare in _pareto_np
_VALUE_LIMIT = 1 << 62
_BITSET_VMAX = 4096
_BITSET_CELLS = 200_000_000
_CHUNK_CELLS = 16_000_000  # array cells one broadcast step builds
MAX_PRODUCT_SUMS = 20_000_000  # sums one ideal product may build, all chunks
_RICHNESS_CACHE_LIMIT = 20_000  # generators per cached ideal
_RICHNESS_CACHE_ENTRIES = 1024  # cached ideals; the oldest is evicted first
_TEMPLATE_CACHE_ENTRIES = 64  # (cut size, r) pairs per template cache
MAX_WALLS = 4096
MAX_CHAMBERS = 100_000  # chambers one walk may build
_richness_cache: dict[tuple, "MonomialIdeal"] = {}


class MonomialIdeal:
    """A monomial ideal in N^rank, stored by its minimal generators.

    rows holds them as one lex-sorted, read-only int64 array of shape
    (count, rank).  The constructor takes them minimal and lex-sorted, as an
    array or as tuples, and stores a read-only int64 view (the caller's array
    stays writeable); generators builds the tuples on each access.  == and
    hash compare rank and rows.  Every exponent is below 2**62, so the sum of
    two exponents fits in int64.  from_generators rejects larger exponents and
    ideal_product rejects products that would reach the limit, both with
    ValueError (CLI exit 2).
    """

    __slots__ = ("rank", "rows")

    def __init__(self, rank: int, rows) -> None:
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), rank)
        rows.flags.writeable = False
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value) -> None:
        # cached ideals are shared between callers
        raise AttributeError(f"cannot assign to MonomialIdeal.{name}")

    def __repr__(self) -> str:
        return f"MonomialIdeal(rank={self.rank!r}, rows={self.rows!r})"

    @property
    def generators(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.rank == other.rank and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.rank, self.rows.tobytes()))

    @staticmethod
    def from_generators(rank: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        vs = []
        for g in gens:
            v = tuple(int(t) for t in g)
            if len(v) != rank:
                raise DimensionMismatch("generator length does not match rank")
            if any(t < 0 for t in v):
                raise ValueError("monomial exponents must be nonnegative")
            if any(t >= _VALUE_LIMIT for t in v):
                raise ValueError("monomial exponents must be below 2**62")
            vs.append(v)
        if not vs:
            raise ValueError("a monomial ideal needs at least one generator")
        return MonomialIdeal(rank, _pareto_np(np.array(vs, dtype=np.int64).reshape(len(vs), rank)))

    @staticmethod
    def unit(rank: int) -> "MonomialIdeal":
        return MonomialIdeal(rank, np.zeros((1, rank), dtype=np.int64))

    def to_obj(self) -> dict:
        return {"rank": self.rank, "generators": self.rows.tolist()}

    @staticmethod
    def from_obj(obj: object) -> "MonomialIdeal":
        if not isinstance(obj, dict):
            raise SchemaError("ideal document must be an object")
        rank = obj.get("rank")
        gens = obj.get("generators")
        if not is_int(rank) or rank < 0:
            raise SchemaError("ideal.rank must be a nonnegative integer")
        if not isinstance(gens, list) or not gens:
            raise SchemaError("ideal.generators must be a nonempty list")
        if not all(is_int_vector(g, rank) and min(g, default=0) >= 0 for g in gens):
            raise SchemaError("each generator must be a nonnegative integer vector")
        return MonomialIdeal.from_generators(rank, [tuple(g) for g in gens])


def _unique_rows(a: "np.ndarray") -> "np.ndarray":
    """The distinct rows of a 2-d int64 array in lex order, as numpy's unique
    along axis 0 returns them.  Each run of adjacent columns whose value
    ranges multiply to less than 2**64 is packed into one uint64 word (digits
    base max - min + 1, so word order is lex order); one lexsort of the words
    and a compare of adjacent words follow."""
    n, k = a.shape
    if k == 0 or n <= 1:
        return a[:1].copy()
    words: list[np.ndarray] = []
    span = 1 << 64  # the first column starts a word
    for col in a.T:
        lo = int(col.min())
        base = int(col.max()) - lo + 1
        digit = (col - lo).view(np.uint64)
        if span * base < 1 << 64:
            words[-1] = words[-1] * np.uint64(base) + digit
            span *= base
        else:
            words.append(digit)
            span = base
    order = np.lexsort(words[::-1])
    w = np.stack(words)[:, order]
    return a[order[np.r_[True, (w[:, 1:] != w[:, :-1]).any(axis=0)]]]


def _fold_append(
    bits: list["np.ndarray"], kept: "np.ndarray", lo: int, hi: int, vmax: int
) -> None:
    """Append rows [lo, hi) of kept into the per-coordinate threshold bit
    tables: bits[j][t] packs the set {i : kept[i][j] <= t}.  Lets a block of
    candidates test domination against every folded row with k table lookups
    and bitwise ANDs instead of a dense compare.  lo and hi are byte-aligned.
    """
    m = hi - lo
    ar = np.arange(m)
    eq = np.empty((vmax + 1, m), dtype=np.uint8)
    for j in range(kept.shape[1]):
        eq[:, :] = 0
        eq[kept[lo:hi, j], ar] = 1
        np.maximum.accumulate(eq, axis=0, out=eq)
        bits[j][:, lo >> 3 : hi >> 3] = np.packbits(eq, axis=1)


def _bitset_kill(
    block: "np.ndarray",
    alive: "np.ndarray",
    bits: list["np.ndarray"],
    nbits: int,
    k: int,
) -> None:
    """Clear alive flags for rows dominated by one of the first nbits kept
    rows, the ones folded into the bit tables (nbits is a multiple of 8)."""
    idx = np.flatnonzero(alive)
    width = nbits >> 3
    chunk = max(256, _CHUNK_CELLS // (k * width))
    for c0 in range(0, idx.size, chunk):
        ii = idx[c0 : c0 + chunk]
        sub = block[ii]
        acc = bits[0][sub[:, 0], :width]
        for j in range(1, k):
            acc &= bits[j][sub[:, j], :width]
        dom = acc.any(axis=1)
        if dom.any():
            alive[ii[dom]] = False


def _direct_kill(
    block: "np.ndarray", alive: "np.ndarray", pc: "np.ndarray"
) -> None:
    """Clear alive flags for rows dominated by some row of pc (dense compare)."""
    idx = np.flatnonzero(alive)
    if not idx.size or not pc.shape[0]:
        return
    chunk = max(256, _CHUNK_CELLS // max(1, pc.shape[0] * pc.shape[1]))
    for c0 in range(0, idx.size, chunk):
        ii = idx[c0 : c0 + chunk]
        dom = (pc[None, :, :] <= block[ii][:, None, :]).all(2).any(1)
        if dom.any():
            alive[ii[dom]] = False


def _pareto_np(arr: "np.ndarray") -> "np.ndarray":
    """Minimal rows under componentwise <=, returned lex-sorted.

    Small inputs (n*n*k at most _PAIRS_CELLS cells) are lex-sorted and
    compared all against all: a row is kept when no lex-earlier row is <= it.
    That is exact, because a <= b with a != b implies a <lex b (the first
    coordinate where they differ is smaller in a).  So every row that some
    other row strictly dominates has a dominator before it, and of equal rows
    only the first is kept; duplicates need no separate pass.  Each row is
    <= itself, so the first dominator of row i (argmax of its boolean row)
    is at most i, and it is i exactly when no earlier row is <= row i.

    Larger inputs drop duplicates first (_unique_rows), and a stable sort by
    sum then groups the distinct rows into sum levels, lex-sorted within each.
    Distinct rows of one level never relate, so each level is screened only
    against the rows kept from lower levels.  Screening runs on packed bit
    tables (one per coordinate, indexed by threshold) when values are small,
    with a dense compare for the not-yet-folded tail; otherwise every kept
    row goes through the dense compare.  When a row sum could overflow
    int64, the sums are taken exactly as Python ints.
    """
    n, k = arr.shape
    if k == 0:
        return arr[:1].copy()
    if n <= 1:
        return arr.copy()
    if n * n * k <= _PAIRS_CELLS:
        lex = arr[np.lexsort(arr.T[::-1])]
        dom = (lex[None, :, :] <= lex[:, None, :]).all(2)  # dom[i, j]: row j <= row i
        return lex[dom.argmax(1) == np.arange(n)]
    lex = _unique_rows(arr)
    n = lex.shape[0]
    vmax = int(lex.max())
    sums = lex.sum(axis=1) if vmax * k < 1 << 63 else lex.sum(axis=1, dtype=object)
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    starts = np.flatnonzero(np.r_[True, sums[1:] != sums[:-1]])
    ends = np.r_[starts[1:], n]
    kept = np.empty((n, k), dtype=lex.dtype)
    survives = np.zeros(n, dtype=bool)
    nk = 0
    nbits = 0
    use_bits = vmax <= _BITSET_VMAX and (vmax + 1) * ((n + 7) >> 3) * k <= _BITSET_CELLS
    bits: list[np.ndarray] | None = None
    cap = 0
    for s0, s1 in zip(starts, ends):
        idx = order[s0:s1]
        block = lex[idx]
        if nk:
            alive = np.ones(block.shape[0], dtype=bool)
            if bits is not None:
                _bitset_kill(block, alive, bits, nbits, k)
            _direct_kill(block, alive, kept[nbits:nk])
            block = block[alive]
            idx = idx[alive]
        m = block.shape[0]
        if m:
            kept[nk : nk + m] = block
            survives[idx] = True
            nk += m
            if use_bits and nk - nbits >= 8:
                fold_to = nk & ~7
                need = fold_to >> 3
                if need > cap:
                    cap = max(1024, need * 2)
                    grown = [np.zeros((vmax + 1, cap), dtype=np.uint8) for _ in range(k)]
                    if bits is not None:
                        for j in range(k):
                            grown[j][:, : nbits >> 3] = bits[j][:, : nbits >> 3]
                    bits = grown
                _fold_append(bits, kept, nbits, fold_to, vmax)
                nbits = fold_to
    return lex[survives]


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the product (Minkowski sum of generator sets)."""
    if a.rank != b.rank:
        raise DimensionMismatch("ideals live in different ranks")
    rank = a.rank
    if rank and int(a.rows.max()) + int(b.rows.max()) >= _VALUE_LIMIT:
        raise ValueError("product exponents would reach 2**62")
    return MonomialIdeal(rank, _sum_rows(a.rows, b.rows, ()))


def ideal_product_many(rank: int, ideals: Iterable[MonomialIdeal]) -> MonomialIdeal:
    """Product of many ideals, smallest pairs first to keep intermediates lean."""
    import heapq

    heap: list[tuple[int, int, MonomialIdeal]] = []
    tie = 0
    for i in ideals:
        if i.rank != rank:
            raise DimensionMismatch("ideals live in different ranks")
        heap.append((len(i.rows), tie, i))
        tie += 1
    if not heap:
        return MonomialIdeal.unit(rank)
    heapq.heapify(heap)
    while len(heap) > 1:
        _, _, x = heapq.heappop(heap)
        _, _, y = heapq.heappop(heap)
        p = ideal_product(x, y)
        heapq.heappush(heap, (len(p.rows), tie, p))
        tie += 1
    return heap[0][2]


def pullback_to_contraction(i: MonomialIdeal, s: Iterable[int]) -> MonomialIdeal:
    """Delete the listed coordinates (0-based) from every generator.

    A generator supported entirely inside s becomes the zero vector, turning
    the result into the unit ideal.
    """
    drop = set(int(t) for t in s)
    for t in drop:
        if not 0 <= t < i.rank:
            raise UnknownCoordinate(f"coordinate {t} out of range")
    keep = [j for j in range(i.rank) if j not in drop]
    return MonomialIdeal(len(keep), _pareto_np(i.rows[:, keep]))


Blocks = tuple[tuple[int, ...], ...]


def _block_canon(arr: "np.ndarray", blocks: Blocks) -> "np.ndarray":
    """Sort each row's entries within every block, in place: the canonical
    orbit representative under the group permuting coordinates block-wise."""
    for b in blocks:
        if len(b) > 1:
            cols = list(b)
            sub = arr[:, cols]
            sub.sort(axis=1)
            arr[:, cols] = sub
    return arr


def _sum_rows(a: "np.ndarray", b: "np.ndarray", blocks: Blocks) -> "np.ndarray":
    """Minimal block-canonical rows of {x + y : x in a, y in b}, lex-sorted.

    The sums are built for one chunk of a at a time, about _CHUNK_CELLS
    cells (at least one row of a) per chunk.  Each chunk is screened, then
    the survivors of all chunks are screened once more.  More than
    MAX_PRODUCT_SUMS sums raise ValueError before any is built.
    """
    sums = len(a) * len(b)
    if sums > MAX_PRODUCT_SUMS:
        raise ValueError(
            f"product of {len(a)} by {len(b)} generators needs {sums} sums,"
            f" above the limit of {MAX_PRODUCT_SUMS}"
        )
    step = max(1, _CHUNK_CELLS // max(1, len(b) * a.shape[1]))
    pieces = []
    for lo in range(0, len(a), step):
        part = a[lo : lo + step, None, :] + b[None, :, :]
        part = part.reshape(part.shape[0] * len(b), a.shape[1])
        pieces.append(_pareto_np(_block_canon(part, blocks)))
    return pieces[0] if len(pieces) == 1 else _pareto_np(np.concatenate(pieces))


def _expand_rows(arr: "np.ndarray", blocks: Blocks) -> "np.ndarray":
    """All distinct images of the rows under block-wise coordinate
    permutations, lex-sorted (arr itself when no block moves)."""
    out = arr
    for b in blocks:
        if len(b) <= 1:
            continue
        cols = list(b)
        perms = list(permutations(cols))
        imgs = np.repeat(out[None], len(perms), axis=0)
        for img, p in zip(imgs, perms):
            img[:, cols] = out[:, list(p)]
        out = _unique_rows(imgs.reshape(-1, out.shape[1]))
    return out


def _swap_support(s: frozenset, a: int, b: int) -> frozenset:
    ina, inb = a in s, b in s
    if ina == inb:
        return s
    t = set(s)
    t.discard(a if ina else b)
    t.add(b if ina else a)
    return frozenset(t)


def _young_blocks(supports: Sequence[frozenset], n: int) -> Blocks:
    """Partition the coordinates into interchangeability classes.

    Two coordinates land in one class when swapping them preserves the multiset
    of cut supports; the full symmetric group on each class then preserves it
    too, since transpositions inside a class generate it.
    """
    ms = Counter(supports)
    parent = list(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if _find(parent, a) == _find(parent, b):
                continue
            if Counter(_swap_support(s, a, b) for s in supports) == ms:
                parent[_find(parent, b)] = _find(parent, a)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(_find(parent, x), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def _blocks_refine(old: Blocks, new: Blocks) -> bool:
    """True when every old block sits inside a single new block, i.e. the old
    block group is a subgroup of the new one."""
    where = {}
    for i, b in enumerate(new):
        for x in b:
            where[x] = i
    return all(len({where[x] for x in b}) == 1 for b in old)


def _support_images(support: frozenset, blocks: Blocks) -> list[tuple[int, ...]]:
    """Orbit of a support under block-wise permutations: independently choose,
    in each block, which positions the support occupies."""
    opts = []
    for b in blocks:
        m = sum(1 for x in b if x in support)
        if m:
            opts.append(list(combinations(b, m)))
    images = set()
    for pick in product(*opts):
        flat: list[int] = []
        for part in pick:
            flat.extend(part)
        images.add(tuple(sorted(flat)))
    return sorted(images)


def _embed_rows(tpl: "np.ndarray", support: Sequence[int], n: int) -> "np.ndarray":
    out = np.zeros((tpl.shape[0], n), dtype=np.int64)
    out[:, list(support)] = tpl
    return out


@lru_cache(maxsize=_TEMPLATE_CACHE_ENTRIES)
def _cut_template_reps(size: int, r: int) -> "np.ndarray":
    """Sorted-row representatives of the minimal generators of the per-cut
    ideal: the product over all divisor tuples of r of the rescaled length
    ideals on one cut.

    The full product is invariant under permuting the cut's coordinates, and
    on sorted representatives componentwise domination decides orbit-wise
    domination, so the whole computation runs on representatives: divisor
    tuples are grouped into permutation orbits, each orbit's subproduct is
    expanded once row-wise, and orbit subproducts are merged smallest first
    with one side expanded back to full orbits.
    """
    divs = divisors(r)
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for lam in product(divs, repeat=size):
        orbits.setdefault(tuple(sorted(lam)), []).append(lam)
    whole: Blocks = (tuple(range(size)),)
    stage: list[np.ndarray] = []
    for _, lams in sorted(orbits.items()):
        cur = np.zeros((1, size), dtype=np.int64)
        for lam in lams:
            cur = _sum_rows(cur, np.diag(np.array(lam, dtype=np.int64)), ())
        stage.append(_pareto_np(_block_canon(cur, whole)))
    stage.sort(key=lambda a: a.shape[0])
    cur = stage[0]
    for nxt in stage[1:]:
        cur = _sum_rows(cur, _expand_rows(nxt, whole), whole)
    return cur


@lru_cache(maxsize=_TEMPLATE_CACHE_ENTRIES)
def _cut_template_rows(size: int, r: int) -> "np.ndarray":
    """Minimal generators of the per-cut ideal in rank `size` (the product over
    divisor tuples of r), as a lex-sorted, read-only int64 array.

    Depends on the cut only through its size, up to coordinate permutation,
    so templates are shared across cuts and graphs.  Callers check the size
    with _cut_divisors first.
    """
    full = _expand_rows(_cut_template_reps(size, r), (tuple(range(size)),))
    full.flags.writeable = False
    return full


def _cut_divisors(cuts: Sequence[tuple[int, ...]], r: int) -> tuple[int, ...]:
    """The divisors of r, after failing fast when a cut would need more than
    MAX_DIVISOR_TUPLES divisor tuples."""
    divs = divisors(r)
    sizes = {len(c) for c in cuts}
    if any(len(divs) ** k > MAX_DIVISOR_TUPLES for k in sizes):
        raise ValueError(f"cut sizes {sorted(sizes)} too large for r={r}")
    return divs


def richness_ideal(g: Graph, r: int) -> MonomialIdeal:
    """Product over all cuts and divisor tuples of the rescaled length ideals.

    Computed on the minimal chart: the length of edge e is the e-th basis
    vector, coordinates ordered by sorted edge id.

    The product runs cut by cut on canonical orbit representatives for the
    block symmetry of the cuts seen so far (rows sorted within each
    interchangeability class).  When a new cut only merges classes, the kept
    representatives feed the next product directly, with the new cut expanded
    over its old-class orbit; when it splits them, the representatives are
    expanded back to the full generator set first.  Equal-sum rows never
    dominate each other, so Pareto screening on representatives is exact.
    """
    check_r(r, allow_inf=False)
    coords = g.sorted_edge_ids()
    pos = {e: j for j, e in enumerate(coords)}
    n = len(coords)
    cuts = g.cuts()
    if not cuts or n == 0:
        return MonomialIdeal.unit(n)
    divs = _cut_divisors(cuts, r)
    # every divisor tuple of a cut can load one coordinate: r*d**|cut| each
    if sum(r * len(divs) ** len(c) for c in cuts) >= _VALUE_LIMIT:
        raise ValueError(f"exponents of the richness ideal could reach 2**62 at r={r}")
    # big cuts first: their expensive templates multiply while the frontier is
    # small, and the cheap pair templates land on compressed representatives
    supports = sorted(
        (frozenset(pos[e] for e in cut) for cut in cuts),
        key=lambda s: (-len(s), max(s), tuple(sorted(s))),
    )
    cache_key = (n, r, tuple(tuple(sorted(s)) for s in supports))
    hit = _richness_cache.get(cache_key)
    if hit is not None:
        return hit
    cur = np.zeros((1, n), dtype=np.int64)
    old_blocks: Blocks = (tuple(range(n)),)
    seen: list[frozenset] = []
    for s in supports:
        seen.append(s)
        new_blocks = _young_blocks(seen, n)
        if _blocks_refine(old_blocks, new_blocks):
            base = cur
            images = _support_images(s, old_blocks)
        else:
            base = _expand_rows(cur, old_blocks)
            images = [tuple(sorted(s))]
        if base.shape[0] == 1 and not base.any() and tuple(sorted(s)) in new_blocks:
            # first cut on a fresh class: representatives of the template
            # suffice, the class symmetry restores the rest
            fac = _embed_rows(_cut_template_reps(len(s), r), tuple(sorted(s)), n)
        else:
            rows = [_embed_rows(_cut_template_rows(len(s), r), img, n) for img in images]
            fac = rows[0] if len(rows) == 1 else np.concatenate(rows)
        cur = _sum_rows(base, fac, new_blocks)
        old_blocks = new_blocks
    out = MonomialIdeal(n, _expand_rows(cur, old_blocks))
    if len(out.rows) <= _RICHNESS_CACHE_LIMIT:
        if len(_richness_cache) >= _RICHNESS_CACHE_ENTRIES:
            del _richness_cache[next(iter(_richness_cache))]
        _richness_cache[cache_key] = out
    return out


def newton_subdivision(i: MonomialIdeal) -> Fan:
    """Linearity domains of x -> min over generators of <m, x> on the orthant.

    One double description in rank n+1, of the inequalities (1, m) for every
    generator m and (0, e_j) for every coordinate j, gives the dual of the
    homogenized Newton polyhedron: full dimensional and pointed, with the
    facet normals (a0, a) as extreme rays.  The domain of m is the image under
    (a0, a) -> a of the face tight at (1, m).  The map is injective on
    a0 = -<a, m> and keeps rays primitive (a0 is an integer combination of a),
    so the sorted tight rays are the canonical rays of Cone.from_inequalities.
    A generator that is not a vertex has a lower-dimensional domain (a face
    of a vertex's domain, or the origin), and is dropped.
    """
    n = i.rank
    homog = [(1,) + m for m in i.generators]
    _, dual_rays, masks = double_description(n + 1, homog + [unit(n + 1, j + 1) for j in range(n)])
    tights: list[list[Vec]] = [[] for _ in homog]
    for r, m in zip(dual_rays, masks):
        m &= (1 << len(homog)) - 1
        while m:
            tights[(m & -m).bit_length() - 1].append(r[1:])
            m &= m - 1
    return Fan(n, [Cone(n, tuple(sorted(t)), ()) for t in tights if rank_of(t) == n])


# -- choice functions ---------------------------------------------------------


class ChoiceFunction(NamedTuple):
    """One chosen edge per cut.

    choices maps each cut (sorted edge-id tuple) to an edge of that cut.
    """

    choices: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def build(g: Graph, mapping: Mapping[tuple[int, ...], int]) -> "ChoiceFunction":
        _choice_pairs(g, mapping.items())
        return ChoiceFunction(tuple(sorted(mapping.items())))

    def get(self, cut: tuple[int, ...]) -> int:
        for c, e in self.choices:
            if c == cut:
                return e
        raise InvalidChoice(f"no choice recorded for cut {cut}")


def all_choice_functions(g: Graph):
    """Iterate over every plain choice function of the graph's cuts."""
    cuts = g.cuts()
    for picks in product(*cuts):
        yield ChoiceFunction(tuple(zip(cuts, picks)))


def _choice_pairs(
    g: Graph, choices: Collection[tuple[tuple[int, ...], int]]
) -> tuple[int, list[tuple[int, int]]]:
    """The edge count n and the coordinate pairs (pos[f(c)], pos[e]), one for
    every cut c and edge e != f(c) of c, after checking that the (cut, edge)
    choices are defined on exactly the cuts of g and pick an edge of each."""
    if set(c for c, _ in choices) != set(g.cuts()):
        raise InvalidChoice("choice function must be defined on exactly the cuts")
    pos = {e: j for j, e in enumerate(g.sorted_edge_ids())}
    pairs = []
    for c, chosen in choices:
        if chosen not in c:
            raise InvalidChoice(f"chosen edge {chosen} is not in cut {c}")
        pairs.extend((pos[chosen], pos[e]) for e in c if e != chosen)
    return len(pos), pairs


def _difference(n: int, h: int, e: int) -> Vec:
    """x_e - x_h in Z^n, for coordinates h != e."""
    v = [0] * n
    v[e], v[h] = 1, -1
    return tuple(v)


def choice_cone(g: Graph, f: ChoiceFunction) -> Cone:
    """{x >= 0 : x_f(c) <= x_e for every cut c and edge e of c}, the r = 1
    cone where the chosen edge is smallest in every cut."""
    n, pairs = _choice_pairs(g, f.choices)
    return _choice_cone(n, range(n), pairs)


def _choice_cone(n: int, low: Iterable[int], pairs: Iterable[tuple[int, int]]) -> Cone:
    """{x : x_j >= 0 for j in low, x_h <= x_e for every coordinate pair
    (h, e)}, with one inequality per distinct pair."""
    units = [unit(n, j) for j in low]
    diffs = [_difference(n, h, e) for h, e in dict.fromkeys(pairs)]
    return Cone.from_inequalities(n, units + diffs)


def _closure_of_choice(n_edges: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...] | None:
    """Transitive closure as row bitmasks; None when antisymmetry fails."""
    rows = [1 << i for i in range(n_edges)]
    for a, b in pairs:
        rows[a] |= 1 << b
    # Warshall: after step k, row i holds each j that i reaches through
    # intermediate coordinates 0..k alone
    for k in range(n_edges):
        for i in range(n_edges):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    for i in range(n_edges):
        m = rows[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if j != i and rows[j] >> i & 1:
                return None
    return tuple(rows)


def choice_function_fan(g: Graph) -> Fan:
    """The r = 1 weakly rich fan: its cones are the full-dimensional choice
    cones, since at r = 1 an argmin pattern is a choice function."""
    return weakly_rich_fan(g, 1)


def _arrangement(g: Graph, r: int):
    """The chamber arrangement of the weakly rich fan of g at r, as
    (n, walls, start, chamber, neighbours); see weakly_rich_fan.

    walls are the sorted distinct (cut positions, lam / gcd lam); a pattern
    holds one argmin index per wall; start is the pattern of the walk's start
    point; chamber(pattern) is the pattern's cone, from one double
    description; neighbours(pattern, cone) yields the patterns across the
    cone's facets off the coordinate hyperplanes.

    More than MAX_WALLS walls raise ValueError before the first chamber.
    """
    check_r(r, allow_inf=False)
    pos = {e: j for j, e in enumerate(g.sorted_edge_ids())}
    n = len(pos)
    cuts = g.cuts()
    divs = _cut_divisors(cuts, r)
    walls = sorted(
        {
            (tuple(pos[e] for e in c), tuple(x // math.gcd(*lam) for x in lam))
            for c in cuts
            for lam in product(divs, repeat=len(c))
        }
    )
    if len(walls) > MAX_WALLS:
        raise ValueError(f"{len(walls)} walls exceed the limit of {MAX_WALLS} for r={r}")
    # cells[w][j]: (f, h, e) for the inner normals f = lam_k x_k - lam_j x_j,
    # k != j, of the cell of wall w where j is the argmin, with h = ps[j] and
    # e = ps[k]; flips[f]: the (w, j, k) tied along f
    cells: list[list[list[tuple[Vec, int, int]]]] = []
    flips: dict[Vec, list[tuple[int, int, int]]] = {}
    for w, (ps, lam) in enumerate(walls):
        cells.append([[] for _ in ps])
        for j, k in permutations(range(len(ps)), 2):
            v = [0] * n
            v[ps[k]], v[ps[j]] = lam[k], -lam[j]
            f = primitive(v)
            cells[w][j].append((f, ps[j], ps[k]))
            flips.setdefault(f, []).append((w, j, k))
    units = [unit(n, j) for j in range(n)]

    def chamber(pattern: tuple[int, ...]) -> Cone:
        # per (h, e) the largest c in x_e >= c x_h implies the rest, as x_h >= 0
        strongest: dict[tuple[int, int], Vec] = {}
        for w, j in enumerate(pattern):
            for f, h, e in cells[w][j]:
                old = strongest.get((h, e))
                if old is None or f[h] * old[e] < old[h] * f[e]:
                    strongest[h, e] = f
        return Cone.from_inequalities(n, units + list(strongest.values()))

    def neighbours(pattern: tuple[int, ...], cone: Cone) -> Iterator[tuple[int, ...]]:
        for f in cone.facet_normals:
            moves = [(w, k) for w, j, k in flips.get(f, ()) if pattern[w] == j]
            if not moves:
                continue  # a facet in a coordinate hyperplane
            nxt = list(pattern)
            for w, k in moves:
                nxt[w] = k
            yield tuple(nxt)

    p = [(r + 1) ** j for j in range(n)]
    start = tuple(
        min(range(len(ps)), key=lambda j: lam[j] * p[ps[j]]) for ps, lam in walls
    )
    return n, walls, start, chamber, neighbours


def _wall_symmetries(n: int, walls: Sequence[tuple[Vec, Vec]]):
    """(perm, gather, tables) for every adjacent transposition inside a block
    of _young_blocks over the walls' cut supports.

    perm is the coordinate transposition.  The image of a pattern is
    tuple(map(getitem, tables, gather(pattern))): gather(pattern)[w] is the
    argmin of the wall that moves to wall w, and tables[w] sends that wall's
    argmin indices to w's.  The block group preserves the multiset of cut
    supports, and _cut_divisors depends only on the cut sizes, so every
    divisor tuple of an image cut is a wall too.
    """
    index = {wall: w for w, wall in enumerate(walls)}
    blocks = _young_blocks([frozenset(s) for s in {ps for ps, _ in walls}], n)
    gens = []
    for b in blocks:
        for a, c in zip(b, b[1:]):
            perm = list(range(n))
            perm[a], perm[c] = c, a
            src = [0] * len(walls)
            tables: list[tuple[int, ...]] = [()] * len(walls)
            for w, (ps, lam) in enumerate(walls):
                moved = sorted((perm[x], l, j) for j, (x, l) in enumerate(zip(ps, lam)))
                image = index[tuple(x for x, _, _ in moved), tuple(l for _, l, _ in moved)]
                table = [0] * len(ps)
                for k, (_, _, j) in enumerate(moved):
                    table[j] = k
                src[image], tables[image] = w, tuple(table)
            if len(src) > 1:
                gather = itemgetter(*src)
            else:  # itemgetter returns a bare item for one index, fails for none
                gather = lambda p, src=tuple(src): tuple(map(p.__getitem__, src))
            gens.append((tuple(perm), gather, tuple(tables)))
    return gens


def weakly_rich_fan(g: Graph, r: int) -> Fan:
    """The weakly rich subdivision of the orthant of edge lengths.

    The richness ideal is the product, over cuts c and divisor tuples lam of
    r, of the ideals (x_e^lam_e : e in c), so its Newton fan is the common
    refinement of the factors' normal fans (Gritzmann & Sturmfels, SIAM J.
    Discrete Math. 1993).  On the orthant the cells of one factor are where
    one edge h attains min over e in c of lam_e x_e, and tuples equal up to
    scaling have the same cells.  A maximal cone is therefore a chamber: the
    set where every wall (c, lam / gcd(lam)) has one fixed argmin h, cut out
    by lam_e x_e - lam_h x_h >= 0 and x >= 0.

    The walk is breadth first over argmin patterns.  It starts at the
    pattern of p = (1, t, ..., t^(n-1)) with t = r + 1, which lies on no
    wall: lam_e t^i <= r t^i < t^j <= lam_f t^j for i < j.  A facet whose
    inner normal f is not a unit vector has a relative interior point q > 0.
    A wall tied at q contains the facet, or it would split the chamber near
    q, so f is the primitive normal lam_e x_e - lam_h x_h of the tie, and no
    third edge ties there (its wall would be another hyperplane through the
    facet).  The neighbour's pattern, the argmin at q - eps f, is therefore
    the chamber's with h replaced by e on exactly the walls whose argmin h
    ties with e along f.  A generic segment between two chambers crosses
    only such facets, so the walk reaches every chamber.

    The walk runs one double description per orbit of chambers under the
    edge permutations of _wall_symmetries, which permute the walls and so
    the chambers (Bremner, Dutour Sikiric & Schurmann, "Polyhedral
    representation conversion up to symmetries", CRM Proc. 48, 2009).  The
    first pattern popped from an orbit is its representative R: its chamber
    is built once, the orbit is closed under the generators with the
    permuted patterns and cones (Cone.permuted, no double description), and
    only R's facets push neighbours.  This reaches every orbit.  Chambers
    are connected across facets, so orbits are too; if orbit O is reached
    and O' lies next to it, some chamber C of O shares a facet with some C'
    of O', and the group element taking C to R takes C' to a chamber of O'
    across one of R's facets.  Fan sorts its cones, so the fan does not
    depend on the order of the visit.

    More than MAX_WALLS walls raise ValueError before the first chamber, and
    more than MAX_CHAMBERS chambers raise it once the orbit that passes the
    limit is closed.
    """
    n, walls, start, chamber, neighbours = _arrangement(g, r)
    gens = _wall_symmetries(n, walls)
    seen: set[tuple[int, ...]] = set()
    todo = deque([start])
    cones: list[Cone] = []
    while todo:
        rep = todo.popleft()
        if rep in seen:
            continue
        seen.add(rep)
        cone = chamber(rep)
        orbit = [(rep, cone)]
        for pattern, c in orbit:  # the orbit grows as it is read
            for perm, gather, tables in gens:
                image = tuple(map(getitem, tables, gather(pattern)))
                if image not in seen:
                    seen.add(image)
                    orbit.append((image, c.permuted(perm)))
        cones.extend(c for _, c in orbit)
        if len(cones) > MAX_CHAMBERS:
            raise ValueError(
                f"the walk reached {len(cones)} chambers, above the limit of {MAX_CHAMBERS}"
            )
        todo.extend(nxt for nxt in neighbours(rep, cone) if nxt not in seen)
    return Fan(n, cones)


# -- cut orders and choice monoids -------------------------------------------


class CutOrder(NamedTuple):
    """Per-component minima and the predecessor forest of a minimal order."""

    minima: tuple[int, ...]
    pred: tuple[tuple[int, int], ...]


def cut_order_from_choice(g: Graph, f: ChoiceFunction) -> CutOrder:
    """E0 and the predecessor map of the order generated by a choice function.

    The generated preorder is minimal among cut-minimum orders exactly when
    its transitive closure is antisymmetric; a cyclic closure means the
    choice forces strictly more comparisons than necessary.
    """
    n, pairs = _choice_pairs(g, f.choices)
    closure = _closure_of_choice(n, pairs)
    if closure is None:
        raise NotMinimalOrder("choice generates a cyclic (non-minimal) preorder")
    coords = g.sorted_edge_ids()
    pos = {e: j for j, e in enumerate(coords)}
    minima = []
    pred: list[tuple[int, int]] = []
    for comp in g.blocks():
        comp_pos = [pos[e] for e in comp]
        mins = [
            j
            for j in comp_pos
            if not any(k != j and closure[k] >> j & 1 for k in comp_pos)
        ]
        assert len(mins) == 1, "minimal order must have a unique component minimum"
        minima.append(coords[mins[0]])
        for j in comp_pos:
            if j == mins[0]:
                continue
            below = [k for k in comp_pos if k != j and closure[k] >> j & 1]
            top = [k for k in below if all(closure[t] >> k & 1 for t in below)]
            assert len(top) == 1, "strict predecessors must have a unique maximum"
            pred.append((coords[j], coords[top[0]]))
    return CutOrder(tuple(sorted(minima)), tuple(sorted(pred)))


def choice_monoid(g: Graph, f: ChoiceFunction) -> SharpMonoid:
    """Monoid generated by N^E and the differences e - f(c) inside Z^E, for a
    minimal choice (NotMinimalOrder otherwise, as in cut_order_from_choice).

    Its cone is the dual of the choice cone C = {x >= 0 : x_h <= x_e for
    every pair}, which is built from its facets alone (cf. Stanley, "Two
    poset polytopes", Discrete Comput. Geom. 1986): x_h <= x_e for every
    cover h < e of the partial order the closure holds, and x_j >= 0 for
    every minimal coordinate j.  That is the same cone.  Every pair is a
    relation of the order, and every relation h < e is a chain of covers
    h = c_0 < c_1 < ... < c_k = e, whose inequalities add up to x_h <= x_e.
    Every coordinate e lies above a minimal one j, so x_j >= 0 and x_j <= x_e
    give x_e >= 0.  Conversely, every cover and unit of the list holds on C.
    """
    n, pairs = _choice_pairs(g, f.choices)
    closure = _closure_of_choice(n, pairs)
    if closure is None:
        raise NotMinimalOrder("choice generates a cyclic (non-minimal) preorder")
    # above[h]: the coordinates strictly above h; e covers h when it is
    # above h and above no other coordinate above h
    above = [row & ~(1 << h) for h, row in enumerate(closure)]
    covers = []
    for h, up in enumerate(above):
        over = 0
        for e in range(n):
            if up >> e & 1:
                over |= above[e]
        covers += [(h, e) for e in range(n) if (up & ~over) >> e & 1]
    minima = [j for j in range(n) if not any(up >> j & 1 for up in above)]
    return SharpMonoid(n, _choice_cone(n, minima, covers).dual())


# -- reports ------------------------------------------------------------------


class SmoothnessReport(NamedTuple):
    """Unimodularity verdicts aligned with the fan's cone order."""

    verdicts: tuple[bool, ...]
    smooth: bool


def smoothness_report(fan: Fan) -> SmoothnessReport:
    verdicts = tuple(is_unimodular(c) for c in fan.cones)
    return SmoothnessReport(verdicts, all(verdicts))


def factors_through(fam: RealFamily, fan: Fan) -> bool:
    """Does the family's length map send its cone into one maximal cone?

    On fan = weakly_rich_fan(g, r) this is family_is_weakly_r_rich(fam, r),
    which the factors verb runs without the fan (proof at cli._run_factors).
    """
    if fan.rank != len(fam.graph.edges):
        raise DimensionMismatch("fan rank must match the family's edge count")
    image = fam.image_cone()
    return any(c.contains_cone(image) for c in fan.cones)
