"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A small-size run of every workload, untraced and traced, ends with a
   result line that names every metric of BENCHMARK.json with its unit, and
   reports no failure.
2. A reference file with one digest corrupted makes the run report the
   operation as failed (fail_frac > 0, correct false).
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py exit
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_work" / "selftest"


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "small", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(p: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if p.returncode != 0:
        raise AssertionError(f"run.py exited {p.returncode}: {p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record, res = result(run(["--workload", w, "--seed", "7", "--trace", str(trace)]))
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {trace}: result keys {sorted(res)}")
            if got != want:
                problems.append(f"{w} trace {trace}: metrics differ: {sorted(set(got) ^ set(want))}")
            if not res["correct"] or res["failed"] or record["end_to_end"]["fail_frac"]["value"]:
                problems.append(f"{w} trace {trace}: failures {record['failures'][:5]}")
            print(f"{w} trace {trace}: {len(got)} metrics, {res['attempted']} operations", flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    ref = json.loads((ROOT / "perfbench" / "data" / "reference.json").read_text())
    # the small ideal-sweep deck covers every census graph with at most 3 edges
    key = next(k for k in ref["ideal-sweep"] if k.endswith("|r1") and k.count(",") == 2 and k.count("|") == 1)
    ref["ideal-sweep"][key] = "0" * 16
    bad = SCRATCH / "reference.json"
    bad.write_text(json.dumps(ref))
    record, res = result(run(["--workload", "ideal-sweep", "--seed", "7", "--trace", "0", "--reference", str(bad)]))
    frac = record["end_to_end"]["fail_frac"]["value"]
    if res["correct"] or frac <= 0 or key not in record["failures"]:
        problems.append(f"corrupted digest of {key} not detected (fail_frac {frac})")
    print(f"corrupted digest of {key}: fail_frac {frac:.6f}", flush=True)

    bare = SCRATCH / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = run(["--workload", "certify", "--seed", "7", "--trace", "0"], cwd=bare)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    print(f"bare directory: exit {p.returncode}", flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
