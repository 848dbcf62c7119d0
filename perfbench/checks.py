"""The two in-process workloads: their inputs, operation, checks and layer metrics.

A suite turns the seeded cases of ``cases.py`` into the package's own state
types, defines one operation, and checks each result against what the
case's construction implies.  Every mismatch is a failed operation.
"""

from __future__ import annotations

import itertools

import numpy as np

import tracing as T


def _close(value, expected, C) -> bool:
    if abs(expected) <= C.INV_ZERO:  # vanishes by construction
        return abs(value) <= C.INV_ZERO
    return abs(value - expected) <= C.INV_RTOL * abs(expected)


def _cuts(cuts) -> list:
    return sorted(tuple(tuple(side) for side in cut) for cut in cuts)


def _first(values):
    return values[0] if values else 0.0


def ranked_problem(C, case, rank, name, cuts, tangles, base=None) -> str:
    """Why a ranked verdict contradicts the case's construction, or "".

    ``tangles`` maps each invariant route to its value; ``base`` holds the
    same routes for the state this case is a SLOCC image of."""
    if (rank, name) != (case.rank, case.name):
        return f"verdict {rank} {name}, built as {case.rank} {case.name}"
    if _cuts(cuts) != _cuts(case.cuts):
        return f"cuts {cuts}, built with {case.cuts}"
    if _cuts(case.extra["svd_cuts"]) != _cuts(C.expected_rank_one(case)):
        return f"flattening ranks {case.extra['svd_cuts']} contradict the construction"
    expected = []
    if case.tangle is not None:
        expected.append(("determinant law", case.tangle))
    if "cayley" in case.extra:
        expected.append(("Cayley hyperdeterminant", case.extra["cayley"]))
    for route, value in (base or {}).items():
        expected.append((f"determinant law on the pair, {route}", case.law * value))
    for what, value in expected:
        for route, got in tangles.items():
            if not _close(got, value, C):
                return f"|T| {route} {got!r} vs {what} {value!r}"
    return ""


def _mismatch(got, want) -> str:
    err = float(np.abs(got - want).max())
    return "" if err <= 1e-9 * np.abs(want).max() else f"SLOCC action differs by {err:.3e}"


class Suite:
    """Inputs as (system, state) pairs, the operation on one pair, checks and layers."""

    def __init__(self, F, C, cases, actions):
        self.F, self.C = F, C
        self.cases, self.actions = cases, actions
        self.inputs = [(case.system, self.program_state(case)) for case in cases]

    @classmethod
    def generate(cls, C, seed):
        """The seeded cases and one SLOCC element per case, in plain numpy."""
        cases = cls.build_cases(C, seed)
        rng = np.random.default_rng([seed, 4])
        actions = [[C.conditioned_matrix(rng, n) for n in cls.matrix_sizes(C, case)]
                   for case in cases]
        return cases, actions

    @classmethod
    def first_of_each_kind(cls, cases) -> list[int]:
        """Index of the first case of every kind, ``first_kind`` leading and
        the others in name order, whatever the seed."""
        first = {}
        for i, case in enumerate(cases):
            first.setdefault((case.family, case.kind), i)
        order = sorted(first, key=lambda kind: (kind != cls.first_kind, kind))
        return [first[kind] for kind in order]

    def cold_layers(self, spans, import_s) -> dict:
        return {
            "triple.first_rank_s": _first(T.durations(spans, "triple.rank_margins")),
            "cli.import_s": import_s,
            "classify.first_classify_ms": 1e3 * _first(
                T.durations(spans, "classify.classify_state")),
            "fermion.first_scan_s": sum(T.first_per_shape(spans).values()),
        }

    def fold_layers(self, acc, spans, rounds) -> None:
        """Add one warm segment's spans to the running totals in ``acc``."""

        def add(key, values):
            total = acc.setdefault(key, [0.0, 0])
            total[0] += sum(values)
            total[1] += len(values)

        add("rank", T.durations(spans, "triple.rank_margins"))
        add("image", T.durations(spans, "embed.image", "classify.classify_state"))
        add("inv_for", T.durations(spans, "classify.invariant_for"))
        add("inv_emb", T.durations(spans, "classify.invariant_via_embedding"))
        add("self", T.self_times(spans, "classify.classify_state"))
        add("cut", T.durations(spans, "embed.factors_across_cut"))
        add("cut_hits", [float(s[T.INFO]) for s in spans
                         if s[T.NAME] == "embed.factors_across_cut"])
        add("merge", T.durations(spans, "embed.merge_species"))
        add("decomp", T.durations(spans, "fermion.is_decomposable"))
        add("scan", T.durations(spans, "fermion.pluecker_scan"))
        add("wedge", T.durations(spans, "fermion.wedge_power_norm"))
        add("relations", [float(T.relations(spans))])
        add("rounds", [float(rounds)])

    @staticmethod
    def warm_layers(acc) -> dict:
        """Per-layer figures of the warm rounds: ``_us`` are means per call,
        ``_ms`` are totals per verdict (per classified state)."""

        def per_call(key, scale):
            total, count = acc.get(key, [0.0, 0])
            return scale * total / count if count else 0.0

        verdicts = acc["self"][1]
        return {
            "triple.rank_margins_us": per_call("rank", 1e6),
            "embed.image_us": per_call("image", 1e6),
            "classify.invariant_for_us": per_call("inv_for", 1e6),
            "classify.invariant_via_embedding_us": per_call("inv_emb", 1e6),
            "classify.self_us": per_call("self", 1e6),
            "embed.factors_across_cut_us": per_call("cut", 1e6),
            "embed.merge_species_us": per_call("merge", 1e6),
            "fermion.is_decomposable_ms": 1e3 * acc["decomp"][0] / verdicts,
            "fermion.pluecker_scan_ms": 1e3 * acc["scan"][0] / verdicts,
            "embed.factors_across_cut_ms": 1e3 * acc["cut"][0] / verdicts,
            "fermion.wedge_power_norm_ms": 1e3 * acc["wedge"][0] / verdicts,
            "embed.cut_calls": acc["cut"][1] / acc["rounds"][0],
            "embed.cut_hit_ratio": per_call("cut_hits", 1.0),
            "fermion.relations_per_verdict": acc["relations"][0] / verdicts,
        }


class RankedSweep(Suite):
    """Seeded SLOCC images of every class of the five ranked systems, plus
    generic draws; one operation is ``classify_state`` plus
    ``invariant_via_embedding``, the work of ``freudenthal invariant``."""

    first_kind = ("qubit3", "ghz")

    @staticmethod
    def build_cases(C, seed):
        return C.ranked_cases(seed)

    def program_state(self, case):
        if case.system == "fermion":
            return self.F.FermionState(3, 6, dict(zip(self.C._TRIPLES6, case.native)))
        return case.native

    @staticmethod
    def matrix_sizes(C, case):
        return C.RANKED[case.system].sizes

    def op(self, x, classify=None, via=None):
        system, state = x
        label = (classify or self.F.classify_state)(system, state)
        embedded = (via or self.F.invariant_via_embedding)(system, state)
        return (label.rank, label.name, label.cut_pattern,
                label.invariants_report.get("tangle_abs"), embedded)

    def traced_op(self, tracer):
        classify = tracer.wrap(self.F.classify_state, "classify.classify_state")
        via = tracer.wrap(self.F.invariant_via_embedding, "classify.invariant_via_embedding")
        return lambda x: self.op(x, classify, via)

    def check(self, i, out, outs) -> str:
        if out[0] == "error":
            return f"raised {out[1]}"
        case = self.cases[i]
        base = outs[case.pair_of] if case.pair_of is not None else None
        routes = ("explicit", "embedding")
        return ranked_problem(
            self.C, case, *out[:3], dict(zip(routes, out[3:])),
            dict(zip(routes, base[3:])) if base is not None and base[0] != "error" else None)

    def check_act(self, i, moved) -> str:
        case = self.cases[i]
        want = self.C.RANKED[case.system].act(case.native, self.actions[i])
        if case.system == "fermion":
            got = np.array([moved.amplitude(key) for key in self.C._TRIPLES6])
        else:
            got = np.asarray(moved)
        return _mismatch(got, want)


class GeneralShapes(Suite):
    """multi states of 3-5 qubits and of mixed species, and fermion states
    away from (3, 6); one operation is one ``classify_state``."""

    first_kind = ("multi 4q", "ent")

    @staticmethod
    def build_cases(C, seed):
        return C.general_cases(seed)

    @staticmethod
    def _locals(species):
        return [list(itertools.combinations(range(1, n + 1), k)) for k, n in species]

    def program_state(self, case):
        F = self.F
        if case.system == "fermion":
            k, n, vec = case.native
            return F.FermionState(k, n, dict(zip(itertools.combinations(range(1, n + 1), k), vec)))
        species, tensor = case.native
        local = self._locals(species)
        amps = {tuple(local[s][i] for s, i in enumerate(idx)): complex(tensor[idx])
                for idx in np.ndindex(tensor.shape) if tensor[idx] != 0}
        return F.MultiState(F.SystemShape(species), amps)

    @staticmethod
    def matrix_sizes(C, case):
        if case.system == "fermion":
            return [case.native[1]]
        return [n for _, n in case.native[0]]

    def op(self, x, classify=None):
        label = (classify or self.F.classify_state)(*x)
        return (label.rank, label.name, label.cut_pattern,
                label.invariants_report.get("wedge_power_norm"))

    def traced_op(self, tracer):
        classify = tracer.wrap(self.F.classify_state, "classify.classify_state")
        return lambda x: self.op(x, classify)

    def check(self, i, out, outs) -> str:
        case, C = self.cases[i], self.C
        if out[0] == "error":
            return f"raised {out[1]}"
        rank, name, cuts, wedge = out
        if (rank, name) != (None, case.name):
            return f"verdict {rank} {name}, built as {case.name}"
        if _cuts(cuts) != _cuts(case.cuts):
            return f"cuts {cuts}, built with {case.cuts}"
        if case.system == "multi" and (
            _cuts(case.extra["svd_cuts"]) != _cuts(C.expected_flattening_cuts(case))
        ):
            return f"flattening ranks {case.extra['svd_cuts']} contradict the construction"
        want = case.extra["wedge"]
        if (wedge is None) != (want is None):
            return f"wedge-power invariant {wedge!r}, expected {want!r}"
        if want is not None and not _close(wedge, want, C):
            return f"wedge-power invariant {wedge!r} vs {want!r}"
        return ""

    def check_act(self, i, moved) -> str:
        case, mats = self.cases[i], self.actions[i]
        if case.system == "fermion":
            k, n, vec = case.native
            want = self.C.compound(mats[0], k) @ vec
            got = np.array([moved.amplitude(key)
                            for key in itertools.combinations(range(1, n + 1), k)])
            return _mismatch(got, want)
        species, want = case.native
        for axis, ((k, _), g) in enumerate(zip(species, mats)):
            local = g if k == 1 else self.C.compound(g, k)
            want = np.moveaxis(np.tensordot(local, want, axes=(1, axis)), 0, axis)
        local = self._locals(species)
        got = np.zeros(want.shape, dtype=complex)
        for key, value in moved.amplitudes.items():
            got[tuple(local[s].index(part) for s, part in enumerate(key))] = value
        return _mismatch(got, want)


SUITES = {"ranked_sweep": RankedSweep, "general_shapes": GeneralShapes}
