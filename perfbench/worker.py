"""In-process side of the ``ranked_sweep`` and ``general_shapes`` workloads.

    python3 perfbench/worker.py serve|setup|first|act WORKLOAD INPUTS.pkl TRACE

The inputs are made by run.py from the seed and pickled as plain numpy
cases (``cases.Case``) and SLOCC elements; this process turns them into
the package's state types.  ``serve`` is the warm process: it classifies
each input once and checks it independently, then answers ``run SECONDS``
lines on stdin by classifying whole rounds of the inputs, and ``end`` with
its summary.  ``setup`` and ``act`` are fresh processes (probes), given
the first input of every kind: ``setup`` imports the package and
classifies them, ``first`` only the first of them, and ``act`` imports the
package and applies one SLOCC element to each.  Probes print ``time.monotonic()`` stamps, which on Linux share
one clock with the parent that started them.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    mode, workload, path, trace = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
    t0 = time.perf_counter()
    import freudenthal as F  # the import is part of what a probe measures

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"freudenthal.classify", "freudenthal.embed", "freudenthal.fermion"})
    import cases as C
    import checks

    with open(path, "rb") as handle:
        given = pickle.load(handle)
    suite = checks.SUITES[workload](F, C, given["cases"], given["actions"])
    op = suite.op
    if tracer is not None:
        op = suite.traced_op(tracer)
    if mode == "serve":
        return serve(suite, op, tracer)
    if mode in ("setup", "first"):
        inputs = suite.inputs if mode == "setup" else suite.inputs[:1]
        return probe_setup(suite, inputs, op, tracer, import_s, given["index"])
    return probe_act(F, suite, tracer, given["index"])


def probe_setup(suite, inputs, op, tracer, import_s, index) -> int:
    outs = []
    for x in inputs:
        outs.append(op(x))
        if len(outs) == 1:
            t_first = time.monotonic()
    t_setup = time.monotonic()
    spans = tracer.take() if tracer else []
    problems = [index[i] for i, out in enumerate(outs) if suite.check(i, out, outs)]
    report = {"t_start": T_START, "t_first": t_first, "t_setup": t_setup, "problems": problems}
    if tracer is not None:
        report["layers"] = suite.cold_layers(spans, import_s)
    print(json.dumps(report))
    return 0


def probe_act(F, suite, tracer, index) -> int:
    moved = [F.slocc_act(state, g, system=system)
             for (system, state), g in zip(suite.inputs, suite.actions)]
    t_act = time.monotonic()
    spans = tracer.take() if tracer else []
    problems = [index[i] for i, m in enumerate(moved) if suite.check_act(i, m)]
    report = {"t_start": T_START, "t_act": t_act, "problems": problems}
    if tracer is not None:
        report["layers"] = {"fermion.apply_matrix_ms": 1e3 * sum(
            (s[2] - s[1]) * 1e-9 for s in spans if s[0] == "fermion.apply_matrix")}
    print(json.dumps(report))
    return 0


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def serve(suite, op, tracer) -> int:
    inputs = suite.inputs
    ref = []
    for x in inputs:
        try:
            ref.append(op(x))
        except Exception as exc:  # a failing operation is counted, not fatal
            ref.append(("error", repr(exc)))
    problems = {i: suite.check(i, ref[i], ref) for i in range(len(inputs))}
    bad = {i for i, p in problems.items() if p}
    if tracer is not None:
        tracer.take()  # the first pass is cold; layers describe warm rounds
    _reply({"inputs": len(inputs), "bad": sorted(bad),
            "problems": [f"{suite.cases[i].family} {suite.cases[i].kind}: {problems[i]}"
                         for i in sorted(bad)][:10]})
    latencies, slice_p50, rounds, busy, attempted, failed = [], [], [], 0.0, 0, 0
    layer_acc = {}
    clock = time.perf_counter_ns
    for line in sys.stdin:
        command = line.split()
        if command[0] == "end":
            break
        deadline = time.perf_counter() + float(command[1])
        outs, first = [], len(latencies)
        start = clock()
        while True:  # whole rounds, at least one
            r0 = clock()
            for x in inputs:
                t = clock()
                try:
                    out = op(x)
                except Exception as exc:
                    out = ("error", repr(exc))
                latencies.append(clock() - t)
                outs.append(out)
            rounds.append((clock() - r0) * 1e-9)
            if time.perf_counter() >= deadline:
                break
        busy += (clock() - start) * 1e-9
        slice_p50.append(_nearest_rank(sorted(latencies[first:]), 0.50) * 1e-6)
        n = len(inputs)
        for j, out in enumerate(outs):
            i = j % n
            if i in bad or out != ref[i]:
                failed += 1
        attempted += len(outs)
        if tracer is not None:
            suite.fold_layers(layer_acc, tracer.take(), len(outs) // n)
        _reply({"ops": len(outs)})
    latencies.sort()
    summary = {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": attempted / busy,
        "p50_ms": sum(slice_p50) / len(slice_p50),
        "tail_ms": _nearest_rank(latencies, 0.99) * 1e-6,
        "beyond_tail": len(latencies) - math.ceil(0.99 * len(latencies)),
        "batch_s": _nearest_rank(sorted(rounds), 0.50),
        "rounds": len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summary["layers"] = suite.warm_layers(layer_acc)
    _reply(summary)
    return 0


def _nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


if __name__ == "__main__":
    sys.exit(main())
