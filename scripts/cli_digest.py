#!/usr/bin/env python3
"""Run every CLI request the benchmark can draw and digest what came out.

Each request of perfbench's `cli_candidates` over the fixed `cli` pool runs
through `richfan.cli.main` in this process, on the canonical document (error
documents go as recorded).  The script prints the request count, the count
per exit code, and a digest: the sha256 of the reprs of
(kind, verb, document name, arguments, exit code, stdout, stderr), kinds in
sorted order, requests in `cli_candidates` order, first 16 hex digits.  Two
commits with the same digest answer every request with the same bytes.

    python scripts/cli_digest.py
"""

import collections
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from richfan.cli import main as cli_main  # noqa: E402


def main() -> None:
    pool = workloads.load_json("pools.json")["cli"]
    candidates = workloads.cli_candidates(pool)
    codes = collections.Counter()
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        for kind in sorted(candidates):
            for verb, doc_name, args in candidates[kind]:
                name, idx = doc_name.split(":")
                doc = pool[name][int(idx)]
                doc = doc["doc"] if name == "errors" else doc
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main([verb, str(path), *args])
                codes[code] += 1
                result = (kind, verb, doc_name, args, code, out.getvalue(), err.getvalue())
                h.update(repr(result).encode())
    print(f"requests {sum(codes.values())}")
    print(f"exit codes {dict(sorted(codes.items()))}")
    print(f"digest {h.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
