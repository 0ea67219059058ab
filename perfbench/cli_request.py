"""Launch one richfan CLI request, as the `richfan` entry point would.

Run with PYTHONPATH=src.  When PERFBENCH_SPANS names a file, the request is
traced: the import of richfan.cli and the call of main() are timed, spans
are recorded around richfan's public functions, and both are written there.
"""

import os
import sys
import time

t0 = time.perf_counter()
import richfan.cli  # noqa: E402

t1 = time.perf_counter()
spans_path = os.environ.get("PERFBENCH_SPANS")
tracer = None
if spans_path:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
t2 = time.perf_counter()
rc = richfan.cli.main(sys.argv[1:])
t3 = time.perf_counter()
if tracer is not None:
    tracer.dump(spans_path, {"import_s": t1 - t0, "main_s": t3 - t2})
sys.exit(rc)
