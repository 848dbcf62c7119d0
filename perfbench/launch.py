"""Run the ``freudenthal`` command line in this fresh process, optionally traced.

    python3 perfbench/launch.py - [ARGS...]           # as the console script would
    python3 perfbench/launch.py TRACE.json [ARGS...]  # traced; span summary to TRACE.json

Without ARGS the process only imports ``freudenthal.cli``.  Traced, the
package's public functions are wrapped at the names the CLI looks them up
under (see tracing.py) and ``freudenthal.cli.main`` runs inside a span.
"""

import sys
import time

t0 = time.perf_counter()
import freudenthal.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0
trace_path, argv = sys.argv[1], sys.argv[2:]
if trace_path == "-":
    sys.exit(cli.main(argv) if argv else 0)

import json  # noqa: E402

import tracing as T  # noqa: E402

tracer = T.Tracer()
tracer.install()
code = tracer.wrap(cli.main, "cli.main")(argv) if argv else 0
spans = tracer.take()
classify = T.durations(spans, "classify.classify_state")
main = T.durations(spans, "cli.main")
summary = {
    "import_s": import_s,
    "first_rank_s": (T.durations(spans, "triple.rank_margins") or [None])[0],
    "first_classify_ms": 1e3 * classify[0] if classify else None,
    "first_scan_s": sum(T.first_per_shape(spans).values()),
    "self_ms": 1e3 * sum(T.self_times(spans, "cli.main")),
    "parse_ms": 1e3 * sum(T.durations(spans, "statefile.parse_state_text")),
    "dump_ms": 1e3 * sum(T.durations(spans, "statefile.dump_state_text")),
    "apply_matrix_ms": 1e3 * sum(T.durations(spans, "fermion.apply_matrix")),
    "threads": len({s[T.THREAD] for s in spans if s[T.NAME] == "classify.classify_state"}),
    "overlap": sum(classify) / main[0] if main else None,
}
with open(trace_path, "w", encoding="utf-8") as handle:
    json.dump(summary, handle)
sys.exit(code)
