"""Benchmark of the freudenthal package: three workloads, each checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced.  Raw
samples go to ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every process it starts: with
# the default pool on a two-core machine, whole stretches of warm
# classifications ran ten times slower.
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cases as C  # noqa: E402
import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# A warm run: SLICES slices of warm rounds.  Before slice i it starts one fresh
# probe per (mode, every) entry of the workload's plan with i % every == 0.
# A general_shapes setup probe takes about 2 s (an index table per shape),
# so it runs before every third slice and cheap "first" probes time the
# first verdict in between; a ranked_sweep setup probe is about as cheap as
# its first verdict (the rank tensor build).
SLICES = 12
PROBE_PLAN = {
    "ranked_sweep": (("setup", 1), ("act", 1), ("act", 1), ("act", 1)),
    "general_shapes": (("setup", 3), ("first", 1), ("act", 1), ("act", 1)),
}

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "classify_cold_ms": "ms", "batch_s": "s", "act_cold_ms": "ms",
}
PER_LAYER = {
    "triple.rank_margins_us": "us", "triple.first_rank_s": "s", "embed.image_us": "us",
    "classify.invariant_for_us": "us", "classify.invariant_via_embedding_us": "us",
    "classify.self_us": "us", "embed.factors_across_cut_us": "us",
    "embed.merge_species_us": "us", "fermion.is_decomposable_ms": "ms",
    "fermion.pluecker_scan_ms": "ms", "embed.factors_across_cut_ms": "ms",
    "fermion.wedge_power_norm_ms": "ms", "fermion.first_scan_s": "s",
    "embed.cut_calls": "count", "embed.cut_hit_ratio": "ratio",
    "fermion.relations_per_verdict": "count", "cli.import_s": "s",
    "classify.first_classify_ms": "ms", "cli.self_ms": "ms", "statefile.parse_ms": "ms",
    "statefile.dump_ms": "ms", "fermion.apply_matrix_ms": "ms", "cli.batch_threads": "count",
    "cli.batch_overlap": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    env.pop("ENTANGLE_TOL", None)  # the package's default tolerance
    return env


def run_process(argv, scratch: Path):
    """Run one child to its end; (wall seconds, exit code, peak RSS MB, stdout)."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, errors = out.read().decode(), err.read().decode()
    if errors.strip():
        sys.stderr.write(errors)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, text


def median(values):
    return statistics.median(values) if values else 0.0


# -- the in-process workloads --------------------------------------------------------


def warm(workload, seed, seconds, trace, scratch):
    suite = checks.SUITES[workload]
    cases, actions = suite.generate(C, seed)
    first = suite.first_of_each_kind(cases)
    inputs, probe_inputs = scratch / "inputs.pkl", scratch / "probe.pkl"
    with open(inputs, "wb") as handle:
        pickle.dump({"cases": cases, "actions": actions}, handle)
    with open(probe_inputs, "wb") as handle:  # pairs are checked in the warm worker only
        pickle.dump({"index": first, "cases": [replace(cases[i], pair_of=None) for i in first],
                     "actions": [actions[i] for i in first]}, handle)
    python, worker = sys.executable, str(HERE / "worker.py")
    run_process([python, str(HERE / "launch.py"), "-"], scratch)  # compile and cache the package
    proc = subprocess.Popen([python, worker, "serve", workload, str(inputs), str(int(trace))],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)

    def reply():
        line = proc.stdout.readline()
        if not line:
            raise BenchError("the warm worker ended early")
        return json.loads(line)

    try:
        ready = reply()
        begin, probes = time.monotonic(), []
        for i in range(SLICES):
            for mode in [mode for mode, every in PROBE_PLAN[workload] if i % every == 0]:
                argv = [python, worker, mode, workload, str(probe_inputs), str(int(trace))]
                start = time.monotonic()
                wall, code, _, text = run_process(argv, scratch)
                if code != 0:
                    raise BenchError(f"{mode} probe exited with {code}")
                probes.append(dict(json.loads(text), mode=mode, spawn=start, wall=wall))
            left = begin + seconds * (i + 1) / SLICES - time.monotonic()
            proc.stdin.write(f"run {max(left, 0.0):.3f}\n")
            proc.stdin.flush()
            reply()
        proc.stdin.write("end\n")
        proc.stdin.flush()
        summary = reply()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdin.close()
        proc.wait()
    setups = [p for p in probes if p["mode"] == "setup"]
    firsts = [p for p in probes if p["mode"] in ("setup", "first")]
    acts = [p for p in probes if p["mode"] == "act"]
    metrics = {
        "setup_s": median([p["t_setup"] - p["spawn"] for p in setups]),
        "peak_rss_mb": summary["peak_rss_mb"],
        "ops_per_s": summary["ops_per_s"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "classify_cold_ms": 1e3 * median([p["t_first"] - p["spawn"] for p in firsts]),
        "batch_s": summary["batch_s"],
        "act_cold_ms": 1e3 * median([p["t_act"] - p["spawn"] for p in acts]),
    }
    layers = {}
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(summary["layers"])
        for key in setups[0]["layers"]:
            layers[key] = median([p["layers"][key] for p in setups])
        layers["fermion.apply_matrix_ms"] = median(
            [p["layers"]["fermion.apply_matrix_ms"] for p in acts])
    # A probe may only fail on inputs the warm process counts as failed.
    correct = all(set(p["problems"]) <= set(ready["bad"]) for p in firsts)
    correct = correct and not any(p["problems"] for p in acts)
    raw = {"ready": ready, "summary": summary, "probes": probes}
    return correct, summary["attempted"], summary["failed"], metrics, layers, raw


# -- the cold command-line workload ----------------------------------------------------


def _json_dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _record_problem(record, case) -> str:
    """Compare one ``classify --json`` record with the case's construction."""
    if record.get("degenerate"):
        return "flagged degenerate"
    if record["system"] != case.system:
        return f"system {record['system']}, built as {case.system}"
    return checks.ranked_problem(C, case, record["rank"], record["name"], record["cut_pattern"],
                                 {"explicit": record["invariants_report"]["tangle_abs"]})


def cli_cold(seed, seconds, trace, scratch):
    sys.path.insert(0, str(SRC))
    import freudenthal.cli as cli

    batch_dir = scratch / "batch"
    batch_dir.mkdir()
    batch = C.batch_cases(seed)
    for name, case in batch.items():
        _json_dump(batch_dir / name, C.state_file(case))
    state, matrix, vec, g = C.act_inputs(seed)
    _json_dump(scratch / "act_in.json", state)
    _json_dump(scratch / "act_g.json", matrix)
    act_out = scratch / "act_out.json"
    act_want = C.compound(g, 5) @ vec
    k, n = state["shape"]
    act_keys = list(itertools.combinations(range(1, n + 1), k))

    # Single-file results computed in this process, for comparison with the batch.
    single = {}
    for name in batch:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(["classify", "--json", str(batch_dir / name)])
        single[name] = json.loads(buffer.getvalue())
    problems = {name: _record_problem(single[name], batch[name]) for name in batch}

    def check(kind, name, text) -> str:
        """Why one process's output is wrong, or "" when it is right."""
        if kind == "import":
            return "import printed output" if text else ""
        if kind == "classify":
            if json.loads(text) != single[name]:
                return f"{name}: single-file output differs from the in-process result"
            return problems[name]
        if kind == "batch":
            records = {r.pop("file"): r for r in json.loads(text)}
            if sorted(records) != sorted(batch):
                return "batch records do not cover the directory"
            for name, record in sorted(records.items()):
                if record != single[name]:
                    return f"{name}: batch record differs from the single-file result"
                if problems[name]:
                    return problems[name]
            return ""
        out = json.loads(act_out.read_text(encoding="utf-8"))
        act_out.unlink()
        got = {tuple(e["key"]): complex(e["re"], e["im"]) for e in out["amplitudes"]}
        err = np.abs(np.array([got.get(key, 0) for key in act_keys]) - act_want).max()
        if err > 1e-9 * np.abs(act_want).max():
            return f"act output differs from the compound product by {err:.3e}"
        return ""

    def classify(system, kind):
        name = f"{system}_{kind}.json"
        return ("classify", name, ["classify", "--json", str(batch_dir / name)])

    act_argv = ["act", str(scratch / "act_in.json"), "-m", str(scratch / "act_g.json"),
                "-o", str(act_out)]
    singles = [classify(*kind) for kind in C.SINGLE_KINDS]
    # One round; the cheap processes sit between the long ones.  Four
    # single-file classifies a round keep classify_cold_ms a median of about
    # a dozen processes.
    plan = [("import", None, []), singles[0], ("act", None, act_argv), singles[1],
            ("import", None, []), singles[0],
            ("batch", None, ["classify", "--batch", str(batch_dir), "--json"]), singles[1],
            ("act", None, act_argv)]
    launcher = [sys.executable, str(HERE / "launch.py")]
    run_process(launcher + ["-"], scratch)  # compile and cache the package
    samples, traces, attempted, failed, slowest = [], [], 0, 0, []
    begin = time.monotonic()
    while True:  # whole rounds, at least one
        round_start = time.monotonic()
        slowest.append(0.0)
        for kind, name, argv in plan:
            trace_file = str(scratch / "trace.json") if trace else "-"
            wall, code, rss, text = run_process(launcher + [trace_file] + argv, scratch)
            try:
                problem = f"exit code {code}" if code else check(kind, name, text)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                problem = f"unreadable output: {exc!r}"
            attempted += 1
            failed += bool(problem)
            if problem:
                sys.stderr.write(f"{kind}: {problem}\n")
            samples.append({"kind": kind, "wall": wall, "rss_mb": rss, "ok": not problem})
            slowest[-1] = max(slowest[-1], wall)
            if trace:
                traces.append(dict(json.loads((scratch / "trace.json").read_text()), kind=kind))
        # Another round only if it should end by `seconds` plus half a round.
        now = time.monotonic()
        if now - begin + (now - round_start) / 2 > seconds:
            break

    def walls(kind):
        return [s["wall"] for s in samples if s["kind"] == kind]

    every = [s["wall"] for s in samples]
    metrics = {
        "setup_s": median(walls("import")),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "ops_per_s": len(every) / sum(every),
        "p50_ms": 1e3 * median(every),
        "tail_ms": 1e3 * median(slowest),
        "classify_cold_ms": 1e3 * median(walls("classify")),
        "batch_s": median(walls("batch")),
        "act_cold_ms": 1e3 * median(walls("act")),
    }
    layers = {}
    if trace:
        def of(kind, key):
            return median([t[key] for t in traces if t["kind"] == kind and t[key] is not None])

        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update({
            "cli.import_s": median([t["import_s"] for t in traces]),
            "triple.first_rank_s": of("classify", "first_rank_s"),
            "classify.first_classify_ms": of("classify", "first_classify_ms"),
            "fermion.first_scan_s": of("batch", "first_scan_s"),
            "cli.self_ms": of("classify", "self_ms"),
            "statefile.parse_ms": of("act", "parse_ms"),
            "statefile.dump_ms": of("act", "dump_ms"),
            "fermion.apply_matrix_ms": of("act", "apply_matrix_ms"),
            "cli.batch_threads": of("batch", "threads"),
            "cli.batch_overlap": of("batch", "overlap"),
        })
    return True, attempted, failed, metrics, layers, {"samples": samples, "traces": traces}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ranked_sweep", "general_shapes", "cli_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still stops and waits for its children (see run_process).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "freudenthal" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    scratch = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        run = cli_cold if args.workload == "cli_cold" else (
            lambda *a: warm(args.workload, *a))
        correct, attempted, failed, metrics, layers, raw = run(
            args.seed, args.seconds, bool(args.trace), scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    chosen = (layers, PER_LAYER) if args.trace else (metrics, END_TO_END)
    result = {
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": chosen[0][name], "unit": unit}
                    for name, unit in chosen[1].items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    _json_dump(results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json",
               {"args": vars(args), "result": result, "end_to_end": metrics, "raw": raw})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
