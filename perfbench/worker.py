"""One round of one workload in a fresh interpreter, so richfan's caches
start cold as they do for a user.

Prints one JSON object: set-up seconds, the summed wall and CPU seconds of
the deck's operations (checking excluded), peak RSS, per-item latencies,
failures, and with --trace the aggregated spans.  Usage:

    python3 perfbench/worker.py WORKLOAD --seed N --workdir DIR [--trace]
        [--size full|small] [--setup-only] [--reference PATH] [--spans PATH]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=str(wl.HERE / "data" / "reference.json"))
    ap.add_argument("--spans", default=None, help="write the raw spans here")
    ap.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    args = ap.parse_args()

    sys.path.insert(0, str(wl.ROOT / "src"))
    in_process = args.workload != "cli-batch"
    tracer = tracing.Tracer()
    if args.trace and in_process:
        tracer.install()
    # every round of a run draws the same deck, so traced and untraced rounds compare
    rng = random.Random(f"{args.workload}:{args.seed}")
    pools = wl.load_json("pools.json")
    with open(args.reference) as fh:
        ref = json.load(fh)[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if in_process:
        deck = getattr(wl, args.workload.replace("-", "_"))(rng, args.size, pools)
    else:
        deck = wl.cli_batch(rng, args.size, pools, workdir, args.trace)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, cpu, failures = [], 0.0, []
    for op in deck:
        c0 = cpu_seconds()
        w0 = time.perf_counter()
        try:
            raw = op.run()
            ok = True
        except Exception as e:  # an escaped exception is a failed operation
            raw, ok = repr(e), False
        latencies.append(time.perf_counter() - w0)
        cpu += cpu_seconds() - c0
        if ok:
            try:
                ok = wl.digest(op.canon(raw)) == ref.get(op.key)
            except Exception:
                ok = False
        if not ok:
            failures.append(op.key)

    per_item: dict = {}
    for i, (op, dt) in enumerate(zip(deck, latencies)):
        per_item[op.item or i] = per_item.get(op.item or i, 0.0) + dt
    out = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "cpu_s": cpu,
        "latencies": list(per_item.values()),
        "items": len(per_item),
        "attempted": len(deck),
        "failed": len(failures),
        "failures": failures[:20],
    }
    own, kids = (resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["rss_mb"] = (own if in_process else kids) / 1024
    if args.trace:
        if in_process:
            spans = tracer.spans
            out["layers"] = tracing.aggregate(spans)
            if args.spans:
                tracer.dump(args.spans)
        else:
            out["layers"], out["cli_times"] = collect_cli_spans(workdir, len(deck), args.spans)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def collect_cli_spans(workdir: Path, n: int, spans_path):
    """Merge the span files the traced requests wrote."""
    parts, imports, mains, raw = [], [], [], []
    for i in range(n):
        f = workdir / f"{i}.spans.json"
        if not f.exists():  # the request died before it could write them
            continue
        data = json.loads(f.read_text())
        parts.append(tracing.aggregate(data["spans"]))
        imports.append(data["extra"]["import_s"])
        mains.append(data["extra"]["main_s"])
        raw.append(data)
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"requests": raw}, fh, separators=(",", ":"))
    times = {"cli.import_s": median(imports) if imports else 0.0, "cli.main_s": median(mains) if mains else 0.0}
    return tracing.merge(parts), times


if __name__ == "__main__":
    sys.exit(main())
