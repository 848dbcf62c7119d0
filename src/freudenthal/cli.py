"""Command-line front-end.

Subcommands::

    invariant FILE       quartic invariant along both routes (+ rank)
    classify  FILE       SLOCC class; --batch DIR classifies a directory
    pluecker  FILE       decomposability scan of the fermionic image
    rdm       FILE       one-particle reduced density matrix (+ blocks)
    act       FILE -m M  apply a SLOCC group element, print the new file
    random               draw a random state file
    selftest             run the built-in cross-check battery

Exit codes: 0 success, 2 parse error or a file that cannot be read or
written, 3 shape/validity error, 4 a numerically degenerate verdict was
escalated by --strict (``_exit_code`` maps each exception to its code).  The default
tolerance 1e-8 can be overridden per call with --tol or globally with
the ENTANGLE_TOL environment variable.  Output is deterministic for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .classify import (
    RANKED_SYSTEMS,
    SYSTEM_TABLE,
    SYSTEMS,
    DegeneracyWarning,
    _general_report,
    classify_state,
    invariant_for,
    invariant_via_embedding,
    random_state,
    slocc_act,
)
from .embed import MultiState, embedded_rdm_blocks, merge_species, rdm_direct_sum
from .fermion import (
    DEFAULT_TOL,
    FermionState,
    _relation_values,
    _violations,
    _worst_relation,
    decomposability_ratio,
    idempotency_defect,
    one_particle_rdm,
    wedge_power_norm,
)
from .statefile import StateFile, StateParseError, dump_state_text, load_state_file
from .statefile import _json_payload, _json_text
from .triple import _binary_scaled

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_DEGENERATE = 4

class _Failure(Exception):
    """Internal: abort the current command with a message and exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# The exceptions that end a command, or one file of a batch, with the exit
# code _exit_code gives them; any other is a fault of the program and
# propagates with its traceback.
_EXPECTED = (_Failure, OSError, ValueError)


def _exit_code(exc: Exception) -> int:
    """The exit code of an exception in _EXPECTED."""
    if isinstance(exc, _Failure):
        return exc.code
    if isinstance(exc, (StateParseError, OSError)):
        return EXIT_PARSE
    return EXIT_SHAPE  # ShapeError and every other ValueError


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        if args.tol <= 0:
            raise _Failure("--tol must be positive", EXIT_SHAPE)
        return args.tol
    env = os.environ.get("ENTANGLE_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise _Failure(
                f"ENTANGLE_TOL must be a number, got {env!r}", EXIT_SHAPE
            ) from None
        if value <= 0:
            raise _Failure("ENTANGLE_TOL must be positive", EXIT_SHAPE)
        return value
    return DEFAULT_TOL


def _load(path) -> StateFile:
    try:
        return load_state_file(path)
    except (OSError, ValueError) as exc:
        raise _Failure(f"{path}: {exc}", _exit_code(exc)) from None


def _complex_str(value: complex) -> str:
    return f"{value.real:+.6f}{value.imag:+.6f}j"


def _matrix_lines(matrix: np.ndarray) -> list[str]:
    return ["  ".join(_complex_str(v) for v in row) for row in matrix]


def _matrix_payload(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _emit(args, lines: list[str], payload: dict | list) -> None:
    if getattr(args, "json", False):
        # null for a non-finite number (an overflowed invariant)
        payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


def _cmd_invariant(args) -> int:
    statefile = _load(args.file)
    tol = _tolerance(args)
    system, state = statefile.system, statefile.state
    spec = SYSTEM_TABLE[system]
    lines = [f"system: {system}"]
    payload: dict = {"system": system}
    if spec.has_image(state):
        direct = invariant_for(system, state)
        embedded = invariant_via_embedding(system, state)
        # 0 when the routes give the same float, inf (past the range) included
        difference = abs(direct - embedded) if direct != embedded else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            label = classify_state(system, state, tol)
        lines += [
            f"|T| (explicit polynomial) = {direct:.6f}",
            f"|T| (embedding route)     = {embedded:.6f}",
            f"route difference          = {difference:.3e}",
            f"rank = {label.rank}",
        ]
        payload.update(
            tangle_abs=direct,
            tangle_abs_embedded=embedded,
            route_difference=difference,
            rank=label.rank,
        )
    else:
        merged = spec.fermion(state)
        lines.append(
            "no quartic invariant for this shape "
            f"(fermionic image: {merged.k} particles in {merged.n} modes)"
        )
        payload.update(fermionic_shape=[merged.k, merged.n], **_general_report(merged))
        if "wedge_power_norm" in payload:
            lines.append(f"wedge-power invariant = {payload['wedge_power_norm']:.6f}")
    _emit(args, lines, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _classification_report(statefile: StateFile, tol: float):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        label = classify_state(statefile.system, statefile.state, tol)
    degenerate = [w for w in caught if issubclass(w.category, DegeneracyWarning)]
    return label, degenerate


def _label_lines(label) -> list[str]:
    if label.rank is None:
        lines = [f"class: {label.name}"]
    else:
        lines = [f"class: {label.name} (rank {label.rank})"]
    if label.cut_pattern:
        cuts = "; ".join(
            " | ".join(" ".join(str(i) for i in side) for side in cut)
            for cut in label.cut_pattern
        )
        lines.append(f"cuts: {cuts}")
    for key in sorted(label.invariants_report):
        lines.append(f"{key} = {label.invariants_report[key]:.6f}")
    return lines


def _classify_one(path, args, tol) -> tuple[int, list[str], dict]:
    statefile = _load(path)
    label, degenerate = _classification_report(statefile, tol)
    lines = _label_lines(label)
    payload = {"system": statefile.system, **label.to_dict()}
    code = EXIT_OK
    if degenerate:
        payload["degenerate"] = True
        for entry in degenerate:
            lines.append(f"warning: {entry.message}")
        if args.strict:
            code = EXIT_DEGENERATE
    return code, lines, payload


def _cmd_classify(args) -> int:
    tol = _tolerance(args)
    if args.batch:
        directory = Path(args.batch)
        if not directory.is_dir():
            raise _Failure(f"{directory} is not a directory", EXIT_SHAPE)
        files = sorted(directory.glob("*.json"))
        if not files:
            raise _Failure(f"no .json files in {directory}", EXIT_SHAPE)
        worst = EXIT_OK
        records = []
        for path in files:
            try:
                code, lines, payload = _classify_one(path, args, tol)
            except _EXPECTED as exc:  # the file's record says why; the batch goes on
                code, lines, payload = _exit_code(exc), [f"error: {exc}"], {"error": str(exc)}
            worst = max(worst, code)
            records.append({"file": path.name, **payload})
            if not args.json:
                print(f"{path.name}: {lines[0]}")
                for line in lines[1:]:
                    print(f"  {line}")
        if args.json:
            _emit(args, [], records)
        return worst
    if not args.file:
        raise _Failure("classify needs a FILE or --batch DIR", EXIT_PARSE)
    code, lines, payload = _classify_one(args.file, args, tol)
    _emit(args, lines, payload)
    return code


# ---------------------------------------------------------------------------
# pluecker
# ---------------------------------------------------------------------------


def _cmd_pluecker(args) -> int:
    statefile = _load(args.file)
    tol = _tolerance(args)
    merged = SYSTEM_TABLE[statefile.system].fermion(statefile.state)
    if merged.is_zero():
        raise _Failure("cannot scan the zero state", EXIT_SHAPE)
    scan = _relation_values(merged)  # one product for scan and listing
    worst, pair = _worst_relation(merged, *scan)
    # The verdict is the rank test's, as in classify; on a decomposable state
    # every relation is roundoff, so the worst one's position is no witness.
    ratio = decomposability_ratio(merged, tol)
    decomposable = ratio <= 1.0
    if decomposable:
        pair = None
    lines = [
        f"fermionic image: {merged.k} particles in {merged.n} modes",
        f"max |relation| = {worst:.3e}"
        + (f" at {list(pair[0])} / {list(pair[1])}" if pair else ""),
        f"decomposability ratio = {ratio:.3e}",
        f"decomposable: {'yes' if decomposable else 'no'}",
    ]
    payload = {
        "system": statefile.system,
        "fermionic_shape": [merged.k, merged.n],
        "max_relation": worst,
        "argmax_pair": [list(pair[0]), list(pair[1])] if pair else None,
        "decomposability_ratio": ratio,
        "decomposable": decomposable,
    }
    if args.list_violations:
        cutoff, lower, upper, values = _violations(merged, *scan, tol)
        rows = zip(lower.tolist(), upper.tolist(), values.tolist())
        payload["violation_cutoff"] = cutoff
        if args.json:  # one row may be one of 6e5: build only what is printed
            payload["violations"] = [
                {"fixed": a, "moving": b, "magnitude": magnitude} for a, b, magnitude in rows
            ]
        else:
            lines.append(
                f"relations above the scan's cutoff tol*||P||^2 = {cutoff:.3e} "
                f"(the scan's own rule, not the verdict's): {len(values)}"
            )
            lines += [f"  {a} / {b}: {magnitude:.3e}" for a, b, magnitude in rows]
    _emit(args, lines, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rdm
# ---------------------------------------------------------------------------


def _cmd_rdm(args) -> int:
    statefile = _load(args.file)
    system = statefile.system
    spec = SYSTEM_TABLE[system]
    if spec.multistate is None:
        raise _Failure(
            f"system {system!r} has no fermionic one-particle reduction; "
            "the mode-occupation picture does not apply to symmetric factors",
            EXIT_SHAPE,
        )
    state = statefile.state
    if not isinstance(state, FermionState):
        state = spec.multistate(state)
    # Normalized from the state divided exactly by a power of two: the same
    # bits in the normal range, and a finite norm at any amplitude scale.
    state = state._like(_binary_scaled(state._array))
    norm = state.norm()
    if norm == 0.0:
        raise _Failure("cannot reduce the zero state", EXIT_SHAPE)
    state = (1.0 / norm) * state
    lines = []
    payload: dict = {"system": system}
    if isinstance(state, FermionState):
        rho = one_particle_rdm(state)
        defect = idempotency_defect(state)
        lines.append(f"one-particle reduced density matrix ({state.n} modes):")
        lines += _matrix_lines(rho)
        lines.append(f"idempotency defect of {state.k}*rho = {defect:.6f}")
        payload.update(
            rho=_matrix_payload(rho), idempotency_defect=defect
        )
    else:
        rho, blocks = embedded_rdm_blocks(state)
        residual = float(
            np.linalg.norm(rho - rdm_direct_sum(state.shape, blocks))
        )
        lines.append(
            f"merged one-particle reduced density matrix "
            f"({state.shape.total_modes} modes):"
        )
        lines += _matrix_lines(rho)
        payload["rho"] = _matrix_payload(rho)
        payload["species"] = []
        for index, block in enumerate(blocks, start=1):
            lines.append(f"species {index} reduced density matrix:")
            lines += _matrix_lines(block)
            payload["species"].append(_matrix_payload(block))
        lines.append(f"block direct-sum residual = {residual:.3e}")
        payload["block_residual"] = residual
    _emit(args, lines, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# act
# ---------------------------------------------------------------------------


def _parse_matrix_file(path) -> list[np.ndarray]:
    try:
        payload = _json_payload(_json_text(path))
    except (OSError, StateParseError) as exc:
        raise _Failure(f"{path}: {exc}", EXIT_PARSE) from None
    if isinstance(payload, dict):
        payload = payload.get("matrices")
    if not isinstance(payload, list):
        raise _Failure(
            f"{path}: expected a list of matrices or an object with "
            "a 'matrices' field",
            EXIT_PARSE,
        )
    matrices = []
    for m_index, rows in enumerate(payload):
        if not isinstance(rows, list) or not rows:
            raise _Failure(
                f"{path}: matrix #{m_index} must be a non-empty list of rows",
                EXIT_PARSE,
            )
        parsed_rows = []
        for row in rows:
            if not isinstance(row, list):
                raise _Failure(
                    f"{path}: matrix #{m_index} rows must be lists", EXIT_PARSE
                )
            parsed = []
            for item in row:
                if isinstance(item, (int, float)) and not isinstance(item, bool):
                    parsed.append(complex(item, 0.0))
                elif (
                    isinstance(item, list)
                    and len(item) == 2
                    and all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in item
                    )
                ):
                    parsed.append(complex(item[0], item[1]))
                else:
                    raise _Failure(
                        f"{path}: matrix #{m_index} entries must be numbers "
                        "or [re, im] pairs",
                        EXIT_PARSE,
                    )
            parsed_rows.append(parsed)
        matrices.append(np.array(parsed_rows, dtype=complex))
    return matrices


def _cmd_act(args) -> int:
    statefile = _load(args.file)
    matrices = _parse_matrix_file(args.matrix_file)
    moved = slocc_act(statefile.state, matrices, system=statefile.system)
    text = dump_state_text(StateFile(statefile.system, moved))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------


def _parse_shape_option(system: str, text):
    if text is None:
        return None
    try:
        species = []
        for chunk in text.split(";"):
            k, n = chunk.split(",")
            species.append((int(k), int(n)))
        if SYSTEM_TABLE[system].kind is MultiState:
            return tuple(species)
        (shape,) = species
        return shape
    except (ValueError, AttributeError):
        raise _Failure(
            f"malformed --shape {text!r}; use 'k,n' or 'k,n;k,n;...'",
            EXIT_PARSE,
        ) from None


def _cmd_random(args) -> int:
    shape = _parse_shape_option(args.system, args.shape)
    state = random_state(args.system, args.seed, shape=shape)
    text = dump_state_text(StateFile(args.system, state))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_checks():
    from .fermion import apply_matrix
    from .representatives import all_representatives, four_qubit_pair

    def check_representatives():
        for rep in all_representatives():
            label = classify_state(rep.system, rep.state)
            if (label.rank, label.name, label.cut_pattern) != (
                rep.expected.rank,
                rep.expected.name,
                rep.expected.cut_pattern,
            ):
                return f"{rep.system}/{rep.name} classified as {label.name}"
            if abs(label.invariants_report["tangle_abs"] - rep.expected_tangle) > 1e-9:
                return f"{rep.system}/{rep.name} invariant off"
        return None

    def check_invariant_routes():
        for system in RANKED_SYSTEMS:
            for seed in range(20):
                state = random_state(system, seed=seed)
                direct = invariant_for(system, state)
                embedded = invariant_via_embedding(system, state)
                if abs(direct - embedded) > 1e-9 * max(1.0, direct):
                    return f"{system} seed {seed}: {direct} vs {embedded}"
        return None

    def check_four_qubit_pair():
        first, second, connector = four_qubit_pair()
        moved = apply_matrix(merge_species(first), connector)
        if (moved - merge_species(second)).norm() > 1e-12:
            return "connector does not map the first image onto the second"
        one = classify_state("multi", first)
        two = classify_state("multi", second)
        if one.cut_pattern == two.cut_pattern:
            return "cut patterns unexpectedly coincide"
        return None

    def check_wedge_power_values():
        half = 1.0 / math.sqrt(2.0)
        ghz2 = FermionState(2, 4, {(1, 2): half, (3, 4): half})
        if abs(wedge_power_norm(ghz2) - 1.0) > 1e-9:
            return "pair-GHZ wedge power is not 1"
        third = 1.0 / math.sqrt(3.0)
        ghz3 = FermionState(2, 6, {(1, 2): third, (3, 4): third, (5, 6): third})
        expected = 6.0 * 3.0 ** (-1.5)
        if abs(wedge_power_norm(ghz3) - expected) > 1e-9:
            return "triple-GHZ wedge power is off"
        quad = FermionState(4, 8, {(1, 2, 3, 4): half, (5, 6, 7, 8): half})
        if abs(wedge_power_norm(quad) - 1.0) > 1e-9:
            return "quadruple-GHZ wedge power is not 1"
        w_type = FermionState(2, 4, {(1, 2): third, (1, 3): third, (1, 4): third})
        if wedge_power_norm(w_type) > 1e-12:
            return "shared-mode pair state has nonzero wedge power"
        return None

    def check_rdm_blocks():
        for seed, species in ((1, ((2, 4), (1, 3))), (2, ((1, 2), (1, 2), (1, 2)))):
            psi = random_state("multi", seed, shape=species)
            rho, blocks = embedded_rdm_blocks(psi)
            residual = np.linalg.norm(rho - rdm_direct_sum(psi.shape, blocks))
            if residual > 1e-9:
                return f"shape {species}: residual {residual}"
        return None

    return [
        ("representative matrix", check_representatives),
        ("invariant route agreement", check_invariant_routes),
        ("four-qubit split orbit", check_four_qubit_pair),
        ("wedge-power reference values", check_wedge_power_values),
        ("reduced-density block identity", check_rdm_blocks),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = check()
        if problem is None:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_SHAPE
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freudenthal",
        description="Entanglement classification via the Freudenthal "
        "triple-system embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_tol=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if with_tol:
            p.add_argument(
                "--tol",
                type=float,
                default=None,
                help="tolerance (default 1e-8, or ENTANGLE_TOL)",
            )

    p_inv = sub.add_parser("invariant", help="quartic invariant along both routes")
    p_inv.add_argument("file", help="state file")
    add_common(p_inv)
    p_inv.set_defaults(func=_cmd_invariant)

    p_cls = sub.add_parser("classify", help="SLOCC classification")
    p_cls.add_argument("file", nargs="?", help="state file")
    p_cls.add_argument("--batch", help="classify every .json file in a directory")
    p_cls.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 when a verdict is numerically degenerate",
    )
    add_common(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_plk = sub.add_parser("pluecker", help="decomposability scan")
    p_plk.add_argument("file", help="state file")
    p_plk.add_argument(
        "--list-violations",
        action="store_true",
        help="print every pair above the scan's cutoff tol*||P||^2",
    )
    add_common(p_plk)
    p_plk.set_defaults(func=_cmd_pluecker)

    p_rdm = sub.add_parser("rdm", help="one-particle reduced density matrices")
    p_rdm.add_argument("file", help="state file")
    add_common(p_rdm, with_tol=False)
    p_rdm.set_defaults(func=_cmd_rdm)

    p_act = sub.add_parser("act", help="apply a SLOCC group element")
    p_act.add_argument("file", help="state file")
    p_act.add_argument(
        "--matrix-file",
        "-m",
        required=True,
        dest="matrix_file",
        help="JSON list of matrices ([re, im] entries), one per factor",
    )
    p_act.add_argument("--output", "-o", help="write the result here")
    p_act.set_defaults(func=_cmd_act)

    p_rnd = sub.add_parser("random", help="draw a random state file")
    p_rnd.add_argument(
        "--system",
        required=True,
        choices=SYSTEMS,
    )
    p_rnd.add_argument(
        "--shape", help="'k,n' for fermion, 'k,n;k,n;...' for multi"
    )
    p_rnd.add_argument("--seed", type=int, default=0)
    p_rnd.add_argument("--output", "-o", help="write the state here")
    p_rnd.set_defaults(func=_cmd_random)

    p_self = sub.add_parser("selftest", help="run the built-in cross-checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
