"""The four workloads, as seeded decks of operations on richfan.

A deck is a list of `Op`.  `run` does the program's work and is the only
part that is timed; `canon` turns its result into a canonical JSON value with
the seeded relabelling undone, and the digest of that value must equal the
one recorded in `data/reference.json`.  A deck depends only on the seed and
the size, never on what the program returns.

Inputs come from the fixed pools in `data/pools.json` and from richfan's own
census of small graphs; the seed picks from the pools, relabels vertex and
edge ids and shuffles the order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ID_SPACE = 10_000

WORKLOADS = ("ideal-sweep", "newton-fan", "certify", "cli-batch")


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    item: str | None = None  # operations of one item share it; latency is per item


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_json(name: str) -> dict:
    with open(HERE / "data" / name) as fh:
        return json.load(fh)


def graph_key(g) -> str:
    """Canonical-graph identity: vertex count and edge ends in edge-id order."""
    return f"{len(g.vertices)}:" + ",".join(
        f"{e.u}-{e.v}" for e in sorted(g.edges, key=lambda e: e.id)
    )


def make_graph(nv: int, ends):
    from richfan import Graph

    return Graph.build(range(nv), [(i, u, v) for i, (u, v) in enumerate(ends)])


class Relabel:
    """Fresh vertex and edge ids for a canonical graph, drawn from `rng`.

    Coordinates follow sorted edge ids, so relabelling permutes them:
    position j of the relabelled graph is canonical coordinate
    `canon_of_pos[j]`.
    """

    def __init__(self, g, rng: random.Random):
        from richfan import Graph

        ids = g.sorted_edge_ids()
        new_e = rng.sample(range(ID_SPACE), len(ids))
        new_v = rng.sample(range(ID_SPACE), len(g.vertices))
        edge = dict(zip(ids, new_e))
        vertex = dict(zip(g.vertices, new_v))
        self.graph = Graph.build(
            new_v, [(edge[e.id], vertex[e.u], vertex[e.v]) for e in g.edges]
        )
        canon = {edge[e]: k for k, e in enumerate(ids)}
        self.canon_of_pos = [canon[e] for e in sorted(new_e)]
        self.pos_of_canon = sorted(range(len(ids)), key=self.canon_of_pos.__getitem__)
        self.new_ids = new_e  # by canonical coordinate


def reorder(vecs, canon: list[int]) -> list[tuple[int, ...]]:
    """Vectors whose coordinate j is canonical coordinate canon[j], rewritten
    in canonical coordinate order, sorted."""
    order = sorted(range(len(canon)), key=canon.__getitem__)
    return sorted(tuple(v[j] for j in order) for v in vecs)


# -- ideal-sweep ---------------------------------------------------------------


def ideal_sweep(rng: random.Random, size: str, pools: dict) -> list[Op]:
    """richness_ideal at r=1,2 on the census, then every contraction check."""
    from richfan.catalog import small_connected_graphs

    skip = set(pools["ideal-sweep"]["excluded_r2"])
    pairs = [
        (g, r)
        for g in small_connected_graphs(5 if size == "full" else 3)
        for r in (1, 2)
        if not (r == 2 and graph_key(g) in skip)
    ]
    rng.shuffle(pairs)
    ops: list[Op] = []
    for g, r in pairs:
        ops.extend(ideal_ops(g, r, Relabel(g, rng)))
    return ops


def ideal_ops(g, r: int, lab: Relabel) -> list[Op]:
    """One item: the ideal of g at r, then its check against every contraction."""
    from richfan import pullback_to_contraction, richness_ideal

    h, n, state = lab.graph, len(lab.canon_of_pos), {}
    key = f"{graph_key(g)}|r{r}"

    def base():
        state["base"] = richness_ideal(h, r)
        return state["base"]

    ops = [Op(key, base, lambda i: reorder(i.generators, lab.canon_of_pos), key)]
    for k in range(1, n + 1):
        for s in combinations(range(n), k):
            drop = [lab.pos_of_canon[c] for c in s]
            ids = [lab.new_ids[c] for c in s]
            keep = [lab.canon_of_pos[j] for j in range(n) if j not in drop]

            def check(drop=drop, ids=ids):
                return (
                    pullback_to_contraction(state["base"], drop),
                    richness_ideal(h.contract(ids), r),
                )

            def canon(pair, keep=keep):
                left, right = pair
                if set(left.generators) != set(right.generators):
                    return "pullback differs from the contraction's ideal"
                return reorder(left.generators, keep)

            ops.append(Op(f"{key}|{'.'.join(map(str, s))}", check, canon, key))
    return ops


# -- newton-fan and certify --------------------------------------------------

NEWTON_GRAPHS = {
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "theta": (2, [(0, 1), (0, 1), (0, 1)]),
    "triangle+pendant": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "2-gon": (2, [(0, 1), (0, 1)]),
}
# the theta graph at r=4 (9.8 s) and the 4-cycle at r=2 (about 105 s) are
# left out to keep a round near 12 s; see README.md
NEWTON_CASES = {
    "full": [
        ("triangle", 2), ("triangle", 3), ("triangle", 4), ("theta", 2), ("theta", 3),
        ("triangle+pendant", 2), ("triangle+pendant", 3), ("2-gon", 6), ("2-gon", 12),
    ],
    "small": [("triangle", 2), ("2-gon", 6)],
}


def certified_fan(build, h) -> tuple:
    """Build a fan, then its smoothness report and completeness verdict."""
    from richfan import smoothness_report

    fan = build(h)
    return fan, smoothness_report(fan), fan.is_complete_on_orthant()


def fan_canon(lab: Relabel, fan, report, complete) -> dict:
    cones = [reorder(c.rays, lab.canon_of_pos) for c in fan.cones]
    return {
        "cones": sorted(cones),
        "smooth": report.smooth,
        "verdicts": sorted([c, v] for c, v in zip(cones, report.verdicts)),
        "complete": complete,
    }


def newton_fan(rng: random.Random, size: str, pools: dict) -> list[Op]:
    """One operation per fan: the fan with its smoothness and completeness."""
    from richfan import weakly_rich_fan

    cases = list(NEWTON_CASES[size])
    rng.shuffle(cases)
    ops: list[Op] = []
    for name, r in cases:
        lab = Relabel(make_graph(*NEWTON_GRAPHS[name]), rng)
        ops.append(
            Op(
                f"{name}|r{r}",
                lambda r=r, lab=lab: certified_fan(lambda h: weakly_rich_fan(h, r), lab.graph),
                lambda out, lab=lab: fan_canon(lab, *out),
            )
        )
    return ops


# (cone counts of the r=1 fan, graphs drawn per round, None for all of them).
# Within a class the cost still varies by 15-25%, so the 12 to 24 cone
# classes are taken whole: the work of a deck, and which graphs its median
# and p90 latencies fall on, stay the same across seeds.  Fans of 48 to 720
# cones are left out, since Fan.is_valid is quadratic (11 s at 216 cones).
CERTIFY_STRATA = {
    "full": [
        ((1,), 3), ((2,), 3), ((3,), 2), ((4,), 2), ((6,), 3), ((10,), 3),
        ((12, 14, 16, 18, 20, 22, 24), None), ((42, 44), 2),
    ],
    "small": [((1,), 1), ((2,), 1), ((6,), 1), ((24,), 1)],
}
FAMILIES_PER_GRAPH = 4


def certify(rng: random.Random, size: str, pools: dict) -> list[Op]:
    from richfan.catalog import small_connected_graphs

    census = {graph_key(g): g for g in small_connected_graphs(6, 5)}
    counts = pools["certify"]["cones"]
    picks = []
    for wanted, k in CERTIFY_STRATA[size]:
        members = sorted(key for key, c in counts.items() if c in wanted)
        picks += rng.sample(members, k or len(members))
    rng.shuffle(picks)
    return [
        certify_op(census[key], Relabel(census[key], rng), rng.randrange(FAMILIES_PER_GRAPH))
        for key in picks
    ]


def certify_op(g, lab: Relabel, family: int) -> Op:
    """One operation per graph: the r=1 fan and its certificates, the choice
    monoid of every cone, and factorization of one seeded family through the
    fan."""
    from richfan import (
        ChoiceFunction,
        Cone,
        RealFamily,
        choice_monoid,
        factors_through,
        family_is_weakly_r_rich,
        weakly_rich_fan,
    )

    key, h = graph_key(g), lab.graph
    frng = random.Random(f"{key}:{family}")
    rank = frng.randint(1, 3)
    rays = [
        v
        for v in (tuple(frng.randint(0, 4) for _ in range(rank)) for _ in range(frng.randint(1, 3)))
        if any(v)
    ] or [(1,) * rank]
    rows = {lab.new_ids[k]: tuple(frng.randint(0, 4) for _ in range(rank)) for k in range(len(lab.new_ids))}

    def run():
        fan, report, complete = certified_fan(lambda h: weakly_rich_fan(h, 1), h)
        pos = {e: j for j, e in enumerate(h.sorted_edge_ids())}
        cuts = h.cuts()
        monoids = []
        for cone in fan.cones:
            inner = [sum(col) for col in zip(*cone.rays)]
            f = ChoiceFunction.build(h, {c: min(c, key=lambda e: inner[pos[e]]) for c in cuts})
            m = choice_monoid(h, f)
            monoids.append((cone, m.is_free(), m.hilbert_basis()))
        fam = RealFamily.build(h, Cone.from_rays(rank, rays), rows)
        verdicts = [factors_through(fam, fan), family_is_weakly_r_rich(fam, 1)]
        return fan, report, complete, fan.is_valid(), monoids, verdicts

    def canon(out):
        fan, report, complete, valid, monoids, verdicts = out
        cp = lab.canon_of_pos
        return {
            **fan_canon(lab, fan, report, complete),
            "valid": valid,
            "monoids": sorted([reorder(c.rays, cp), free, reorder(hb, cp)] for c, free, hb in monoids),
            "family": verdicts,
        }

    return Op(f"{key}|family{family}", run, canon)


# -- cli-batch -----------------------------------------------------------------

# (request kind, requests per deck); 50 per deck, 5 of them error documents.
# Eleven requests enumerate the cuts of a 12 to 17 vertex graph, all eight
# 15-vertex graphs of the pool among them, so the p90 latency of two decks
# falls on the same 15-vertex cut requests for every seed rather than on
# whichever light request happened to run slowest.
CLI_DECK = {
    "full": [
        ("cuts-12", 1), ("cuts-15", 8), ("cuts-16", 1), ("cuts-17", 1), ("blocks", 3),
        ("contract", 3), ("ideal-r1", 3), ("ideal-r2", 2), ("subdivide-r1", 2),
        ("subdivide-r2", 1), ("smoothness-r1", 2), ("smoothness-r2", 1), ("check-rich", 2),
        ("check-weakly-rich", 2), ("basic-model", 2), ("factors", 3), ("verify-fan", 4),
        ("cross-section-json", 2), ("cross-section-svg", 2), ("error", 5),
    ],
    "small": [
        ("cuts-12", 1), ("blocks", 1), ("contract", 1), ("ideal-r1", 1), ("subdivide-r1", 1),
        ("smoothness-r1", 1), ("check-rich", 1), ("check-weakly-rich", 1), ("basic-model", 1),
        ("factors", 1), ("verify-fan", 1), ("cross-section-json", 1), ("cross-section-svg", 1),
        ("error", 2),
    ],
}


def _n_edges(doc) -> int:
    return len(doc["edges"])


def cli_candidates(pool: dict) -> dict[str, list[tuple[str, str, tuple[str, ...]]]]:
    """Every request a deck may draw, as (verb, document, extra arguments)."""
    big, small = pool["big"], pool["small"]

    def graphs(name, docs, ok):
        return [f"{name}:{i}" for i, d in enumerate(docs) if ok(d)]

    def each(verb, docs, *args):
        return [(verb, d, tuple(args)) for d in docs]

    small_all = graphs("small", small, lambda d: True)
    small_4 = graphs("small", small, lambda d: _n_edges(d) <= 4)
    small_3 = graphs("small", small, lambda d: _n_edges(d) <= 3)
    curves = [f"curves:{i}" for i in range(len(pool["curves"]))]
    fans = [f"fans:{i}" for i in range(len(pool["fans"]))]
    out = {
        f"cuts-{n}": each("cuts", graphs("big", big, lambda d, n=n: len(d["vertices"]) == n))
        for n in (12, 15, 16, 17)
    }
    out.update(
        {
            "blocks": each("blocks", graphs("big", big, lambda d: len(d["vertices"]) in (13, 15, 18))),
            "contract": [
                ("contract", f"small:{i}", ("--contract", ",".join(map(str, ids))))
                for i, ids in pool["contracts"]
            ],
            "ideal-r1": each("ideal", small_all, "--r", "1"),
            "ideal-r2": each("ideal", small_4, "--r", "2"),
            "subdivide-r1": each("subdivide", small_all, "--r", "1"),
            "subdivide-r2": each("subdivide", small_3, "--r", "2"),
            "smoothness-r1": each("smoothness", small_all, "--r", "1"),
            "smoothness-r2": each("smoothness", small_3, "--r", "2"),
            "check-rich": each("check-rich", curves, "--r", "1") + each("check-rich", curves, "--r", "inf"),
            "check-weakly-rich": each("check-weakly-rich", curves, "--r", "1")
            + each("check-weakly-rich", curves, "--r", "2"),
            "basic-model": each("basic-model", curves, "--r", "inf"),
            "factors": each("factors", [f"families:{i}" for i in range(len(pool["families"]))], "--r", "1"),
            "verify-fan": each("verify-fan", fans),
            "cross-section-json": each("cross-section", fans, "--format", "json"),
            "cross-section-svg": each("cross-section", fans, "--format", "svg"),
            "error": [
                (e["verb"], f"errors:{i}", tuple(e["args"])) for i, e in enumerate(pool["errors"])
            ],
        }
    )
    return out


def request_key(verb: str, doc: str, args: tuple[str, ...]) -> str:
    return " ".join((verb, doc) + tuple(args))


def _monotone(old: list[int], rng: random.Random) -> dict[int, int]:
    """Fresh ids in the same order as the old ones, so sorted outputs stay
    sorted and map back exactly."""
    return dict(zip(sorted(old), sorted(rng.sample(range(ID_SPACE), len(old)))))


def relabel_doc(doc, rng: random.Random):
    """(relabelled document, vertex map, edge map) for graph-like documents;
    fan documents get their cones and rays shuffled instead."""
    if "cones" in doc:
        cones = [{"rays": rng.sample(c["rays"], len(c["rays"]))} for c in doc["cones"]]
        return {**doc, "cones": rng.sample(cones, len(cones))}, {}, {}
    vmap = _monotone(doc["vertices"], rng)
    emap = _monotone([e["id"] for e in doc["edges"]], rng)
    out = dict(doc)
    out["vertices"] = [vmap[v] for v in doc["vertices"]]
    out["edges"] = [{"id": emap[e["id"]], "ends": [vmap[x] for x in e["ends"]]} for e in doc["edges"]]
    if "lengths" in doc:
        out["lengths"] = {str(emap[int(k)]): v for k, v in doc["lengths"].items()}
    return out, vmap, emap


def map_back(verb: str, out, vmap: dict[int, int], emap: dict[int, int]):
    """Undo a relabelling on a CLI output document."""
    vinv = {b: a for a, b in vmap.items()}
    einv = {b: a for a, b in emap.items()}
    if verb in ("cuts", "blocks"):
        return {verb: [[einv[e] for e in c] for c in out[verb]]}
    if verb == "contract":
        return {
            "vertices": [vinv[v] for v in out["vertices"]],
            "edges": [{"id": einv[e["id"]], "ends": [vinv[x] for x in e["ends"]]} for e in out["edges"]],
        }
    if verb == "basic-model":
        return {
            **out,
            "components": [[einv[e] for e in c] for c in out["components"]],
            "multipliers": {str(einv[int(k)]): v for k, v in out["multipliers"].items()},
        }
    return out


def cli_result(verb: str, args: tuple[str, ...], rc: int, stdout: str, stderr: str, vmap, emap):
    """Canonical result of one request: exit code, error class, and the
    output with ids mapped back.  Exits 1 and 2 must write exactly one JSON
    error object on stderr."""
    err = None
    if rc in (1, 2):
        lines = stderr.splitlines()
        try:
            obj = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            obj = None
        if not isinstance(obj, dict) or "error" not in obj:
            return "exit 1 or 2 without exactly one JSON error object on stderr"
        err = obj["error"]
    out = stdout
    if stdout and "svg" not in args:
        out = json.loads(stdout)
        if vmap or emap:
            out = map_back(verb, out, vmap, emap)
    return {"rc": rc, "err": err, "out": out}


def cli_batch(rng: random.Random, size: str, pools: dict, workdir: Path, trace: bool) -> list[Op]:
    """Each request a fresh interpreter running richfan.cli.main."""
    pool = pools["cli"]
    cands = cli_candidates(pool)
    reqs = []
    for kind, k in CLI_DECK[size]:
        reqs += rng.sample(cands[kind], k)
    rng.shuffle(reqs)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ops = []
    for i, (verb, doc_name, args) in enumerate(reqs):
        key = request_key(verb, doc_name, args)
        kind, idx = doc_name.split(":")
        if kind == "errors":  # sent as recorded, so the error is the recorded one
            doc, vmap, emap = pool[kind][int(idx)]["doc"], {}, {}
        else:
            doc, vmap, emap = relabel_doc(pool[kind][int(idx)], rng)
        if verb == "contract" and emap:
            args = ("--contract", ",".join(str(emap[int(e)]) for e in args[1].split(",")))
        path = workdir / f"{i}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        cmd = [sys.executable, str(HERE / "cli_request.py"), verb, str(path), *args]
        req_env = dict(env, PERFBENCH_SPANS=str(workdir / f"{i}.spans.json")) if trace else env

        def run(cmd=cmd, req_env=req_env):
            return subprocess.run(cmd, cwd=ROOT, env=req_env, capture_output=True, text=True)

        def canon(p, verb=verb, args=args, vmap=vmap, emap=emap):
            return cli_result(verb, args, p.returncode, p.stdout, p.stderr, vmap, emap)

        ops.append(Op(key, run, canon))
    return ops
