"""richfan benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|small] [--reference PATH]

Run from the root of a checkout.  Every round runs the workload's seeded deck
in a fresh interpreter (perfbench/worker.py), so richfan's caches start cold;
rounds repeat while the next one is expected to end within --seconds.  With
--trace 0, three set-up-only probes run first and the end-to-end metrics are
medians over rounds.  With --trace 1, one traced round and at least one
untraced round run, and the per-layer metrics come from the traced one.

The full record (environment stamp, every metric including fail_frac, the
rounds) is printed on the line before the last and written to
.bench_out/<workload>-seed<N>-trace<T>.json; the last line is the result
object.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
CLI_MIN_ROUNDS = 2  # two decks of 50 requests: p90 with ten samples above it
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


def worker(args, rnd: int, *, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload,
        "--seed", str(args.seed), "--size", args.size,
        "--reference", args.reference, "--workdir", str(WORK / f"{args.workload}-{os.getpid()}-{rnd}"),
    ]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / "spans" / f"{args.workload}-seed{args.seed}-round{rnd}.json")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    if args.workload != "cli-batch":
        # one thread, as the workload asks: numpy's BLAS pool is unused by
        # richfan, and starting it made the import time swing by 2x
        env["OPENBLAS_NUM_THREADS"] = "1"
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"worker for {args.workload} round {rnd} exited {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["duration_s"] = time.perf_counter() - t0
    res["traced"] = trace
    return res


def steal_s() -> float:
    """Seconds the hypervisor ran something else on this VM's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:
        numpy_version = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "richfan").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": rev,
        "src_sha256": src.hexdigest()[:16],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--reference", default=str(HERE / "data" / "reference.json"))
    args = ap.parse_args()
    if not (ROOT / "src" / "richfan" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/richfan here; run from the root of a richfan checkout\n")
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": stamp(), "loadavg_before": os.getloadavg()}
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    steal0 = steal_s()
    start = time.perf_counter()
    deadline = start + args.seconds
    probes = [] if args.trace else [worker(args, -1 - i, setup_only=True) for i in range(SETUP_PROBES)]
    rounds: list[dict] = []
    while True:
        plain = [r for r in rounds if not r["traced"]]
        if args.trace:
            done = len(rounds) >= 2
        elif args.workload == "cli-batch":
            done = len(plain) >= CLI_MIN_ROUNDS
        else:
            done = bool(rounds)
        # start another round only while it is expected to end in time
        if done and time.perf_counter() + median(r["duration_s"] for r in rounds) > deadline:
            break
        rounds.append(worker(args, len(rounds), trace=bool(args.trace) and not rounds))
    record["loadavg_after"] = os.getloadavg()
    record["steal_s"] = steal_s() - steal0
    try:
        WORK.rmdir()
    except OSError:
        pass
    record["elapsed_s"] = time.perf_counter() - start

    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    latencies = [x for r in plain for x in r["latencies"]]
    e2e = {
        "wall_s": median(r["wall_s"] for r in plain),
        "cpu_s": median(r["cpu_s"] for r in plain),
        "items_per_s": sum(r["items"] for r in plain) / sum(r["wall_s"] for r in plain),
        "setup_s": median([p["setup_s"] for p in probes] + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
    }
    record["end_to_end"] = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    record["end_to_end"]["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    record["latency_samples"] = len(latencies)
    record["failures"] = sorted({k for r in rounds for k in r.get("failures", [])})[:50]
    record["rounds"] = [
        {k: r[k] for k in ("traced", "duration_s", "setup_s", "wall_s", "cpu_s", "attempted", "failed")}
        for r in rounds
    ]
    if args.trace:
        traced = rounds[0]
        overhead = traced["wall_s"] - e2e["wall_s"]
        record["per_layer"] = tracing.layer_metrics(traced["layers"], overhead, traced.get("cli_times", {}))
        metrics = record["per_layer"]
    else:
        metrics = {k: v for k, v in record["end_to_end"].items() if k in UNITS}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
