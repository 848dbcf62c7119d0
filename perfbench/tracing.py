"""Spans around the package's public functions, installed from outside.

Each wrapper replaces a function at the module name its caller looks it up
under (``freudenthal.classify.rank_margins`` is what the classifier calls),
so no file of the package changes and no private name is touched.  A span
records name, start, end, parent span and thread; ``info`` keeps what a
counter needs (the (k, n) of a scan, the verdict of a cut test).
"""

from __future__ import annotations

import importlib
import math
import statistics
import threading
import time

NAME, START, END, PARENT, THREAD, INFO = range(6)

# (module the caller looks the function up in, attribute, span name)
IMAGE_MAPS = ("three_qubit_to_freudenthal", "boson2q_to_freudenthal",
              "boson3_to_freudenthal", "qubit_fermion4_to_freudenthal", "to_freudenthal")
TARGETS = (
    [("freudenthal.classify", "rank_margins", "triple.rank_margins"),
     ("freudenthal.classify", "invariant_for", "classify.invariant_for"),
     ("freudenthal.classify", "factors_across_cut", "embed.factors_across_cut"),
     ("freudenthal.classify", "merge_species", "embed.merge_species"),
     ("freudenthal.embed", "merge_species", "embed.merge_species"),
     ("freudenthal.classify", "is_decomposable", "fermion.is_decomposable"),
     ("freudenthal.embed", "is_decomposable", "fermion.is_decomposable"),
     ("freudenthal.classify", "pluecker_scan", "fermion.pluecker_scan"),
     ("freudenthal.fermion", "pluecker_scan", "fermion.pluecker_scan"),
     ("freudenthal.classify", "wedge_power_norm", "fermion.wedge_power_norm"),
     ("freudenthal.classify", "apply_matrix", "fermion.apply_matrix"),
     ("freudenthal.cli", "classify_state", "classify.classify_state"),
     ("freudenthal.cli", "load_state_file", "statefile.load_state_file"),
     ("freudenthal.statefile", "parse_state_text", "statefile.parse_state_text"),
     ("freudenthal.cli", "dump_state_text", "statefile.dump_state_text")]
    + [("freudenthal.classify", name, "embed.image") for name in IMAGE_MAPS]
)


def _scan_shape(args, result):
    return (args[0].k, args[0].n)


def _verdict(args, result):
    return bool(result)


INFO_FNS = {"fermion.pluecker_scan": _scan_shape, "embed.factors_across_cut": _verdict}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name, info=None):
        spans, local, lock = self.spans, self._local, self._lock
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, 0, 0, stack[-1] if stack else -1, ident(), None]
            with lock:  # the batch command classifies on a thread pool
                stack.append(len(spans))
                spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info is not None:
                record[INFO] = info(args, result)
            return result

        return traced

    def install(self, modules=None):
        """Wrap every target, or those looked up in one of ``modules``."""
        for module_name, attr, name in TARGETS:
            if modules is not None and module_name not in modules:
                continue
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, INFO_FNS.get(name)))

    def take(self) -> list[list]:
        """Hand over the spans so far and start a fresh list.

        The stacks of open spans index into the list, so only call this
        between operations, when no span is open."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def durations(spans, name, parent_name=None):
    """Durations in seconds of the spans called ``name`` (optionally only
    those whose parent span is called ``parent_name``)."""
    return [
        (s[END] - s[START]) * 1e-9
        for s in spans
        if s[NAME] == name
        and (parent_name is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name))
    ]


def self_times(spans, name):
    """Duration minus the time covered by direct children, per span called ``name``."""
    child = {}
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0) + s[END] - s[START]
    return [
        (s[END] - s[START] - child.get(i, 0)) * 1e-9 for i, s in enumerate(spans) if s[NAME] == name
    ]


def first_per_shape(spans):
    """Duration of the first scan of every (k, n), in call order."""
    seen = {}
    for s in spans:
        if s[NAME] == "fermion.pluecker_scan" and s[INFO] not in seen:
            seen[s[INFO]] = (s[END] - s[START]) * 1e-9
    return seen


def relations(spans) -> int:
    """Relations a full scan evaluates, C(n, k-1) C(n, k+1), summed over scans
    (computed from each scan's shape, not counted inside the scan)."""
    return sum(
        math.comb(s[INFO][1], s[INFO][0] - 1) * math.comb(s[INFO][1], s[INFO][0] + 1)
        for s in spans
        if s[NAME] == "fermion.pluecker_scan"
    )


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0
