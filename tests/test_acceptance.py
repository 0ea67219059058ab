"""Acceptance gate: eleven exact-arithmetic criteria, one verdict line each.

Every comparison below is exact (integer or rational); there are no numeric
tolerances anywhere.  The whole file must run in under sixty seconds; the
final test enforces the budget.
"""

import json
import random
import time
from itertools import combinations, permutations, product

import pytest

from richfan import (
    ChoiceFunction,
    Cone,
    Fan,
    Graph,
    MonomialIdeal,
    RealFamily,
    SharpMonoid,
    TropicalCurve,
    all_choice_functions,
    choice_cone,
    choice_monoid,
    cut_order_from_choice,
    factors_through,
    family_is_weakly_r_rich,
    ideal_product_many,
    newton_subdivision,
    pullback_to_contraction,
    richness_ideal,
    smoothness_report,
    weakly_rich_fan,
)
from richfan.catalog import small_connected_graphs
from richfan.cli import main as cli_main
from richfan.cones import unit
from richfan.errors import NotMinimalOrder

_T0 = time.time()

TRIANGLE = Graph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
TWOGON = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1)])
THETA = Graph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])


@pytest.fixture
def verdict(capsys):
    """One line per criterion, printed past pytest's capture."""

    def _verdict(num: int, label: str, ok: bool) -> None:
        line = f"criterion {num:>2} [{label}]: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_criterion_01_triangle_ideal(verdict):
    expect = {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1),
        (1, 0, 2), (0, 1, 2), (1, 1, 1),
    }
    direct = set(richness_ideal(TRIANGLE, 1).generators)
    pairs = [
        MonomialIdeal.from_generators(3, [unit(3, i), unit(3, j)])
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    via_product = set(ideal_product_many(3, pairs).generators)
    verdict(1, "triangle ideal", direct == expect and via_product == expect)


def permutation_cones() -> set[Cone]:
    out = set()
    for sigma in permutations(range(3)):
        ineqs = [
            tuple(
                (1 if k == sigma[j] else 0) - (1 if k == sigma[j + 1] else 0)
                for k in range(3)
            )
            for j in range(2)
        ] + [unit(3, sigma[2])]
        out.add(Cone.from_inequalities(3, ineqs))
    return out


def brute_force_choice_fan(g: Graph) -> set[Cone]:
    """Enumerate raw choice functions and assemble their cones directly,
    bypassing the library's choice machinery."""
    cuts = g.cuts()
    ids = g.sorted_edge_ids()
    pos = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    cones = set()
    for picks in product(*cuts):
        ineqs = [unit(n, i) for i in range(n)]
        for c, chosen in zip(cuts, picks):
            for e in c:
                if e == chosen:
                    continue
                row = [0] * n
                row[pos[e]] = 1
                row[pos[chosen]] -= 1
                ineqs.append(tuple(row))
        cone = Cone.from_inequalities(n, ineqs)
        if cone.dim() == n:
            cones.add(cone)
    return cones


def test_criterion_02_triangle_fan_r1(verdict):
    fan = weakly_rich_fan(TRIANGLE, 1)
    expect = permutation_cones()
    oracle = brute_force_choice_fan(TRIANGLE)
    rep = smoothness_report(fan)
    ok = (
        len(fan.cones) == 6
        and set(fan.cones) == expect
        and oracle == expect
        and fan.is_complete_on_orthant()
        and rep.smooth
        and all(rep.verdicts)
    )
    verdict(2, "triangle fan r=1", ok)


def test_criterion_03_twogon_fan_and_slices(verdict):
    fan = weakly_rich_fan(TWOGON, 1)
    expect = Fan(
        2,
        [Cone.from_rays(2, [(1, 0), (1, 1)]), Cone.from_rays(2, [(1, 1), (0, 1)])],
    )
    tri_fan = weakly_rich_fan(TRIANGLE, 1)
    slices_ok = all(tri_fan.restrict([i]) == expect for i in range(3))
    verdict(3, "2-gon fan and coordinate slices", fan == expect and slices_ok)


def test_criterion_04_r2_complete_not_smooth(verdict):
    fan = weakly_rich_fan(TRIANGLE, 2)
    rep = smoothness_report(fan)
    ok = (
        fan.is_valid()
        and fan.is_complete_on_orthant()
        and any(len(c.rays) >= 4 for c in fan.cones)
        and not rep.smooth
    )
    verdict(4, "r=2 completeness without smoothness", ok)


def test_criterion_05_cli_exit_codes(tmp_path, verdict):
    graph = {
        "vertices": [0, 1, 2],
        "edges": [
            {"id": 0, "ends": [0, 1]},
            {"id": 1, "ends": [1, 2]},
            {"id": 2, "ends": [2, 0]},
        ],
        "monoid": {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    }
    rich = dict(graph)
    rich["lengths"] = {"0": [1, 0, 0], "1": [1, 1, 0], "2": [1, 1, 1]}
    flat = dict(graph)
    flat["lengths"] = {"0": [1, 0, 0], "1": [0, 1, 0], "2": [0, 0, 1]}
    pa = tmp_path / "nested.json"
    pb = tmp_path / "basis.json"
    pa.write_text(json.dumps(rich))
    pb.write_text(json.dumps(flat))
    code_a = cli_main(["check-weakly-rich", "--r", "1", str(pa)])
    code_b = cli_main(["check-weakly-rich", "--r", "1", str(pb)])
    verdict(5, "curve checks through the CLI", code_a == 0 and code_b == 3)


def test_criterion_06_family_factorization(verdict):
    rng = random.Random(20260821)
    graphs = [g for g in small_connected_graphs(4) if g.edges]
    fans: dict[int, Fan] = {}
    count = 0
    mismatches = 0
    attempts = 0
    while count < 200 and attempts < 20000:
        attempts += 1
        g = rng.choice(graphs)
        rank = rng.randint(1, 3)
        rays = [
            v
            for v in (
                tuple(rng.randint(0, 4) for _ in range(rank))
                for _ in range(rng.randint(1, 3))
            )
            if any(v)
        ]
        if not rays:
            continue
        sigma = Cone.from_rays(rank, rays)
        rows = {
            e: tuple(rng.randint(0, 4) for _ in range(rank))
            for e in g.sorted_edge_ids()
        }
        try:
            fam = RealFamily.build(g, sigma, rows)
        except ValueError:
            continue
        key = id(g)
        if key not in fans:
            fans[key] = weakly_rich_fan(g, 1)
        if family_is_weakly_r_rich(fam, 1) != factors_through(fam, fans[key]):
            mismatches += 1
        count += 1
    verdict(6, "family factorization", count >= 200 and mismatches == 0)


def test_criterion_07_contraction_pullback(verdict):
    mismatches = 0
    checks = 0
    for g in small_connected_graphs(5):
        ids = g.sorted_edge_ids()
        pos = {e: i for i, e in enumerate(ids)}
        for r in (1, 2):
            base = richness_ideal(g, r)
            for k in range(1, len(ids) + 1):
                for s in combinations(ids, k):
                    left = pullback_to_contraction(base, [pos[e] for e in s])
                    right = richness_ideal(g.contract(s), r)
                    if set(left.generators) != set(right.generators):
                        mismatches += 1
                    checks += 1
    verdict(
        7,
        f"contraction pullback ({checks} checks)",
        checks == 6972 and mismatches == 0,
    )


def test_criterion_08_product_subdivisions(verdict):
    rng = random.Random(8)
    mismatches = 0
    for _ in range(100):
        rank = rng.randint(1, 4)

        def rnd():
            return MonomialIdeal.from_generators(
                rank,
                [
                    tuple(rng.randint(0, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))
                ],
            )

        a, b = rnd(), rnd()
        left = newton_subdivision(ideal_product_many(rank, [a, b]))
        right = newton_subdivision(a).refine(newton_subdivision(b))
        if {c.rays for c in left.cones} != {c.rays for c in right.cones}:
            mismatches += 1
    verdict(8, "product subdivision refinement", mismatches == 0)


def minimal_choice_functions(g: Graph):
    """Subset-minimality oracle: keep the choice functions whose generated
    preorder is minimal among all generated preorders of g."""
    cuts = g.cuts()
    ids = g.sorted_edge_ids()
    cfs = list(all_choice_functions(g))
    closures = []
    for f in cfs:
        rel = {(e, e) for e in ids}
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
    return [
        f
        for i, f in enumerate(cfs)
        if not any(closures[j] < closures[i] for j in range(len(cfs)))
    ]


def test_criterion_09_choice_monoid_freeness(verdict):
    bad = 0
    checked = 0
    for g in small_connected_graphs(5):
        n = len(g.edges)
        pos = {e: i for i, e in enumerate(g.sorted_edge_ids())}
        for f in minimal_choice_functions(g):
            try:
                order = cut_order_from_choice(g, f)
            except NotMinimalOrder:
                bad += 1
                continue
            m = choice_monoid(g, f)
            expect = {unit(n, pos[e]) for e in order.minima}
            for e, parent in order.pred:
                vec = [0] * n
                vec[pos[e]] = 1
                vec[pos[parent]] -= 1
                expect.add(tuple(vec))
            ok = (
                set(m.hilbert_basis()) == expect
                and m.is_free()
                and m.rank == n
                and set(m.cone.rays) == set(choice_cone(g, f).dual().rays)
            )
            if not ok:
                bad += 1
            checked += 1
    verdict(
        9,
        f"choice monoid freeness ({checked} minimal choices)",
        checked == 646 and bad == 0,
    )


def test_criterion_10_basic_models(verdict):
    N = SharpMonoid.orthant(1)
    unit_gon = TropicalCurve.build(TWOGON, N, {0: (1,), 1: (1,)})
    double_gon = TropicalCurve.build(TWOGON, N, {0: (2,), 1: (2,)})
    theta = TropicalCurve.build(THETA, N, {0: (1,), 1: (2,), 2: (2,)})
    a = unit_gon.basic_model(1)
    b = double_gon.basic_model(1)
    c = theta.basic_model(2)
    ok = (
        a.is_basic
        and not b.is_basic
        and c.is_basic
        and c.multipliers == ((0, 1), (1, 2), (2, 2))
    )
    verdict(10, "basic models", ok)


def test_criterion_11_cut_laws(verdict):
    # cut/contraction exchange, every connected multigraph with <= 6 edges
    mismatches = 0
    for g in small_connected_graphs(6):
        all_cuts = set(g.cuts())
        ids = g.sorted_edge_ids()
        for k in range(len(ids) + 1):
            for s in combinations(ids, k):
                left = set(g.contract(s).cuts())
                right = {c for c in all_cuts if not (set(c) & set(s))}
                if left != right:
                    mismatches += 1
    # cuts sit inside one block; block pairs extend to cuts
    for g in small_connected_graphs(6):
        owner = {}
        for b in g.blocks():
            for e in b:
                owner[e] = b
        for c in g.cuts():
            if len({owner[e] for e in c}) != 1:
                mismatches += 1
        cuts = g.cuts()
        for b in g.blocks():
            if len(b) < 2:
                continue
            for pair in combinations(b, 2):
                if not any(set(pair) <= set(c) for c in cuts):
                    mismatches += 1
    # cut-based and block-based richness agree, graphs <= 5 edges
    rng = random.Random(11)
    for g in small_connected_graphs(5):
        ids = g.sorted_edge_ids()
        if not ids:
            continue
        M1 = SharpMonoid.orthant(1)
        M2 = SharpMonoid.orthant(2)
        trials = []
        for _ in range(6):
            trials.append((M1, {e: (rng.randint(1, 4),) for e in ids}))
            trials.append(
                (M2, {e: (rng.randint(0, 3), rng.randint(0, 3)) for e in ids})
            )
        for M, lens in trials:
            if any(all(t == 0 for t in v) for v in lens.values()):
                continue
            c = TropicalCurve.build(g, M, lens)
            for r in (1, 2):
                via_cuts = all(
                    M.is_r_close([c.length(e) for e in cut], r) for cut in g.cuts()
                )
                via_blocks = all(
                    M.is_r_close([c.length(e) for e in b], r) for b in g.blocks()
                )
                if not via_cuts == via_blocks == c.is_r_rich(r):
                    mismatches += 1
    verdict(11, "cut and block laws", mismatches == 0)


def test_runtime_budget(capsys):
    elapsed = time.time() - _T0
    with capsys.disabled():
        print(f"acceptance wall time: {elapsed:.1f}s (budget 60s)", flush=True)
    assert elapsed < 60.0
