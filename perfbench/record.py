"""Regenerate data/pools.json (the fixed input pools) and
data/reference.json (the digest of every operation a deck can draw).

    PYTHONPATH=src python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right: every later run
is checked against what it records.  Pools come from fixed seeds, so running
it twice on the same code gives the same files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import workloads as wl

R2_HEAVY = 50_000  # generators; r=2 ideals above this dominate the sweep


def ideal_pool() -> dict:
    """Keep the smallest heavy r=2 ideal of the census; exclude the others."""
    from richfan import richness_ideal
    from richfan.catalog import small_connected_graphs

    sizes = {
        wl.graph_key(g): len(richness_ideal(g, 2).generators)
        for g in small_connected_graphs(5, 5)
    }
    heavy = sorted((n, k) for k, n in sizes.items() if n > R2_HEAVY)
    return {"excluded_r2": [k for _, k in heavy[1:]], "excluded_sizes": [n for n, _ in heavy[1:]]}


def certify_pool() -> dict:
    from richfan import weakly_rich_fan
    from richfan.catalog import small_connected_graphs

    return {"cones": {wl.graph_key(g): len(weakly_rich_fan(g, 1).cones) for g in small_connected_graphs(6, 5)}}


def cli_pool() -> dict:
    from richfan import Cone, RealFamily, SharpMonoid, TropicalCurve, weakly_rich_fan
    from richfan.catalog import small_connected_graphs

    big = []
    for n in range(12, 19):
        for k in range(8 if n == 15 else 2):
            rng = random.Random(f"big:{n}:{k}")
            ends = [(rng.randrange(v), v) for v in range(1, n)]
            ends += [tuple(rng.sample(range(n), 2)) for _ in range(n // 2)]
            big.append(wl.make_graph(n, ends).to_obj())
    small_graphs = small_connected_graphs(5)
    small = [g.to_obj() for g in small_graphs]
    rng = random.Random("contracts")
    contracts = []
    while len(contracts) < 20:
        i = rng.randrange(len(small))
        ids = [e["id"] for e in small[i]["edges"]]
        if len(ids) >= 2:
            contracts.append([i, sorted(rng.sample(ids, rng.randint(1, len(ids) - 1)))])
    with_edges = [g for g in small_connected_graphs(4) if g.edges]
    rng = random.Random("curves")
    curves = []
    for _ in range(24):
        g = rng.choice(with_edges)
        rays = rng.choice([[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (1, 1, 0), (1, 1, 1)]])
        monoid = SharpMonoid.from_rays(3, rays)

        def member():
            while True:
                c = [rng.randint(0, 3) for _ in rays]
                if any(c):
                    return tuple(sum(ci * r[j] for ci, r in zip(c, rays)) for j in range(3))

        root = member()
        on_ray = rng.random() < 0.5
        lengths = {}
        for e in g.edge_ids:
            m = rng.randint(1, 3)
            lengths[e] = tuple(m * t for t in root) if on_ray else member()
        curves.append(TropicalCurve.build(g, monoid, lengths).to_obj())
    rng = random.Random("families")
    families = []
    while len(families) < 24:
        g = rng.choice(with_edges)
        rank = rng.randint(1, 3)
        rays = [v for v in (tuple(rng.randint(0, 4) for _ in range(rank)) for _ in range(rng.randint(1, 3))) if any(v)]
        if rays:
            rows = {e: tuple(rng.randint(0, 4) for _ in range(rank)) for e in g.sorted_edge_ids()}
            families.append(RealFamily.build(g, Cone.from_rays(rank, rays), rows).to_obj())
    fans = []
    for g in small_connected_graphs(3, 3):
        for r in (1, 2):
            obj = weakly_rich_fan(g, r).to_obj()
            if obj not in fans:
                fans.append(obj)
    triangle = weakly_rich_fan(wl.make_graph(3, [(0, 1), (1, 2), (0, 2)]), 1).to_obj()
    orthant = {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    fans.append({"rank": 3, "cones": triangle["cones"][1:]})  # incomplete
    fans.append({"rank": 3, "cones": triangle["cones"] + [orthant]})  # overlapping
    tri = small[[len(d["edges"]) for d in small].index(3)]
    curve = curves[0]
    errors = [
        {"verb": "cuts", "doc": "{nope", "args": []},
        {"verb": "blocks", "doc": {"vertices": "zap", "edges": []}, "args": []},
        {"verb": "ideal", "doc": {"vertices": [0, 1, 2], "edges": [{"id": 0, "ends": [0, 1]}]}, "args": ["--r", "1"]},
        {"verb": "contract", "doc": tri, "args": ["--contract", "99"]},
        {"verb": "check-rich", "doc": {**curve, "lengths": {k: [-1, 0, 0] for k in curve["lengths"]}}, "args": ["--r", "1"]},
        {"verb": "ideal", "doc": tri, "args": ["--r", "0"]},
        {"verb": "factors", "doc": {**families[0], "length_map": []}, "args": ["--r", "1"]},
        {"verb": "cross-section", "doc": {"rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}]}, "args": ["--format", "json"]},
        {"verb": "subdivide", "doc": {"vertices": [0, 1], "edges": [{"id": 0, "ends": [0, 1]}, {"id": 0, "ends": [0, 1]}]}, "args": ["--r", "1"]},
        {"verb": "smoothness", "doc": "[]", "args": ["--r", "1"]},
        {"verb": "verify-fan", "doc": "", "args": []},
        {"verb": "check-weakly-rich", "doc": {**curve, "monoid": {"rank": 3, "rays": [[1, 0, 0], [-1, 0, 0]]}}, "args": ["--r", "1"]},
    ]
    return {
        "big": big, "small": small, "contracts": contracts, "curves": curves,
        "families": families, "fans": fans, "errors": errors,
    }


def record_ops(ops: list[wl.Op]) -> dict[str, str]:
    return {op.key: wl.digest(op.canon(op.run())) for op in ops}


def record_cli(pool: dict) -> dict[str, str]:
    """Every candidate request, run in process on the canonical document."""
    from richfan.cli import main

    out = {}
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        for kind, reqs in wl.cli_candidates(pool).items():
            for verb, doc_name, args in reqs:
                name, idx = doc_name.split(":")
                doc = pool[name][int(idx)]
                doc = doc["doc"] if name == "errors" else doc
                path = Path(tmp) / "doc.json"
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    rc = main([verb, str(path), *args])
                res = wl.cli_result(verb, args, rc, so.getvalue(), se.getvalue(), {}, {})
                if kind == "error" and not (isinstance(res, dict) and rc in (1, 2)):
                    raise SystemExit(f"error request {doc_name} gave {res!r}")
                out[wl.request_key(verb, doc_name, args)] = wl.digest(res)
    return out


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    pools = {"ideal-sweep": ideal_pool(), "certify": certify_pool(), "cli": cli_pool()}
    (wl.HERE / "data").mkdir(exist_ok=True)
    with open(wl.HERE / "data" / "pools.json", "w") as fh:
        json.dump(pools, fh, sort_keys=True, separators=(",", ":"))
    from richfan.catalog import small_connected_graphs

    rng = random.Random("record")
    census6 = {wl.graph_key(g): g for g in small_connected_graphs(6, 5)}
    wanted = {c for counts, _ in wl.CERTIFY_STRATA["full"] for c in counts}
    certify_ops = []
    for key, cones in sorted(pools["certify"]["cones"].items()):
        if cones in wanted:
            g = census6[key]
            certify_ops += [wl.certify_op(g, wl.Relabel(g, rng), j) for j in range(wl.FAMILIES_PER_GRAPH)]
    ref = {
        "ideal-sweep": record_ops(wl.ideal_sweep(rng, "full", pools)),
        "newton-fan": record_ops(wl.newton_fan(rng, "full", pools)),
        "certify": record_ops(certify_ops),
        "cli-batch": record_cli(pools["cli"]),
    }
    with open(wl.HERE / "data" / "reference.json", "w") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
    print({k: len(v) for k, v in ref.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
