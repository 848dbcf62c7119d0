"""JSON state files for every supported system.

Schema::

    {
      "system": "fermion" | "multi" | "qubit3" | "boson2q"
                | "boson3" | "qubit_fermion4",
      "shape":  [k, n]                  for "fermion"   (optional, default [3, 6])
                [[k1, n1], [k2, n2]...] for "multi"     (required)
                fixed per system        otherwise       (optional, validated)
      "amplitudes": [ {"key": ..., "re": float, "im": float}, ... ]
    }

Keys are lists: modes for fermionic states (``"2b"`` is accepted as the
barred alias of mode ``2 + n/2``), one list per species for ``multi``,
qubit bits / symmetric occupation numbers for the dense systems, and
``[bit, mode, mode]`` for ``qubit_fermion4``.  Keys given in any mode
order are folded to the canonical sorted order with the wedge sign;
entries that collapse onto the same canonical key are rejected as
duplicates.  Files written by :func:`dump_state_text` round-trip
losslessly (floats are printed shortest-round-trip).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .classify import System, lookup_system
from .embed import MultiState, SystemShape
from .fermion import FermionState, ShapeError, sort_sign

__all__ = [
    "StateFile",
    "StateParseError",
    "dump_state_text",
    "load_state_file",
    "parse_state_text",
]

State = Union[FermionState, MultiState, np.ndarray]


class StateParseError(ValueError):
    """A state file could not be parsed; ``line`` locates the offender."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}: {base}"
        return base


@dataclass(frozen=True)
class StateFile:
    """A parsed state file: the system tag and the state."""

    system: str
    state: State


def _entry_line(text: str, index: int) -> Optional[int]:
    """1-based line of the ``index``-th amplitude entry's "key" field."""
    position = -1
    for _ in range(index + 1):
        position = text.find('"key"', position + 1)
        if position < 0:
            return None
    return text.count("\n", 0, position) + 1


@contextlib.contextmanager
def _located(text: str, index: int):
    """Give a StateParseError raised while reading amplitude ``index`` that
    entry's line.  The text is scanned only on this error path, which keeps
    parsing linear in the number of amplitudes."""
    try:
        yield
    except StateParseError as exc:
        exc.line = _entry_line(text, index)
        raise


def _parse_amplitude(entry, index: int) -> complex:
    if not isinstance(entry, dict):
        raise StateParseError(f"amplitude #{index} is not an object")
    for part in ("re", "im"):
        if part not in entry:
            raise StateParseError(f"amplitude #{index} lacks '{part}'")
        if not isinstance(entry[part], (int, float)) or isinstance(entry[part], bool):
            raise StateParseError(f"amplitude #{index} has non-numeric '{part}'")
    try:
        value = complex(entry["re"], entry["im"])
    except OverflowError:  # an integer past the float range
        raise StateParseError(f"amplitude #{index} is not finite") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise StateParseError(f"amplitude #{index} is not finite")
    return value


def _parse_mode(item, n: int, index: int) -> int:
    if isinstance(item, bool):
        raise StateParseError(f"amplitude #{index}: boolean is not a mode")
    if isinstance(item, int):
        mode = item
    elif isinstance(item, str) and item.endswith("b"):
        if n % 2 != 0:
            raise StateParseError(
                f"amplitude #{index}: barred alias {item!r} needs an even "
                f"number of modes, got {n}",
            )
        try:
            base = int(item[:-1])
        except ValueError:
            raise StateParseError(
                f"amplitude #{index}: malformed barred alias {item!r}"
            ) from None
        if not 1 <= base <= n // 2:
            raise StateParseError(
                f"amplitude #{index}: barred alias {item!r} out of range"
            )
        mode = base + n // 2
    else:
        raise StateParseError(
            f"amplitude #{index}: mode must be an integer or barred alias, "
            f"got {item!r}",
        )
    if not 1 <= mode <= n:
        raise StateParseError(
            f"amplitude #{index}: mode {mode} outside 1..{n}"
        )
    return mode


def _fold_modes(modes, index: int):
    sign, ordered = sort_sign(modes)
    if sign == 0:
        raise StateParseError(f"amplitude #{index}: repeated mode in key")
    return sign, ordered


def _parse_fermion(spec: System, shape, amplitudes, text: str) -> FermionState:
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in shape)
    ):
        raise ShapeError(f"fermion shape must be [k, n], got {shape!r}")
    k, n = shape
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    amp: dict = {}
    for index, entry in enumerate(amplitudes):
        with _located(text, index):
            value = _parse_amplitude(entry, index)
            key = entry.get("key")
            if not isinstance(key, list) or len(key) != k:
                raise StateParseError(
                    f"amplitude #{index}: key must list {k} modes"
                )
            modes = [_parse_mode(item, n, index) for item in key]
            sign, ordered = _fold_modes(modes, index)
            if ordered in amp:
                raise StateParseError(
                    f"amplitude #{index}: duplicate key {list(ordered)}"
                )
            # negation, not a product with +-1, keeps signed zeros
            amp[ordered] = value if sign > 0 else -value
    return FermionState(k, n, amp)


def _parse_multi(spec: System, shape, amplitudes, text: str) -> MultiState:
    if not isinstance(shape, list) or not all(
        isinstance(s, list)
        and len(s) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in s)
        for s in shape
    ):
        raise ShapeError(f"multi shape must be [[k, n], ...], got {shape!r}")
    sys_shape = SystemShape(tuple((k, n) for k, n in shape))
    amp: dict = {}
    for index, entry in enumerate(amplitudes):
        with _located(text, index):
            value = _parse_amplitude(entry, index)
            key = entry.get("key")
            if not isinstance(key, list) or len(key) != sys_shape.num_species:
                raise StateParseError(
                    f"amplitude #{index}: key must list one mode list per "
                    f"species ({sys_shape.num_species})",
                )
            folded = []
            total_sign = 1
            for species, part in enumerate(key):
                k_i, n_i = sys_shape.species[species]
                if not isinstance(part, list) or len(part) != k_i:
                    raise StateParseError(
                        f"amplitude #{index}: species {species + 1} needs "
                        f"{k_i} mode(s)",
                    )
                modes = [_parse_mode(item, n_i, index) for item in part]
                sign, ordered = _fold_modes(modes, index)
                total_sign *= sign
                folded.append(ordered)
            multi_key = tuple(folded)
            if multi_key in amp:
                raise StateParseError(
                    f"amplitude #{index}: duplicate key "
                    f"{[list(part) for part in multi_key]}",
                )
            amp[multi_key] = value if total_sign > 0 else -value
    return MultiState(sys_shape, amp)


def _parse_dense(spec: System, shape, amplitudes, text: str) -> np.ndarray:
    expected = spec.shapes[0]
    if not isinstance(shape, list) or tuple(shape) != expected:
        raise ShapeError(
            f"system {spec.name!r} has fixed shape {list(expected)}, got {shape!r}"
        )
    arr = np.zeros(expected, dtype=complex)
    keys = _file_keys(spec)
    seen: set = set()
    for index, entry in enumerate(amplitudes):
        with _located(text, index):
            value = _parse_amplitude(entry, index)
            key = entry.get("key")
            if not isinstance(key, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in key
            ):
                raise StateParseError(
                    f"amplitude #{index}: key must be a list of integers"
                )
            if tuple(key) not in keys:
                raise StateParseError(
                    f"amplitude #{index}: {key} is not a {spec.name} key "
                    f"(keys index shape {list(spec.shapes[-1])})",
                )
            slot, sign = keys[tuple(key)]
            if slot in seen:
                raise StateParseError(f"amplitude #{index}: duplicate key {key}")
            seen.add(slot)
            arr[slot] = value if sign > 0 else -value
    return arr


_PARSERS = {FermionState: _parse_fermion, MultiState: _parse_multi, np.ndarray: _parse_dense}


def parse_state_text(text: str) -> StateFile:
    """Parse a state file from its JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(payload, dict):
        raise StateParseError("state file must be a JSON object")
    spec = lookup_system(payload.get("system"))
    amplitudes = payload.get("amplitudes")
    if not isinstance(amplitudes, list):
        raise StateParseError("'amplitudes' must be a list")
    shape = payload.get("shape")
    if shape is None:
        if not spec.shapes:
            raise ShapeError(f"system {spec.name!r} requires an explicit shape")
        shape = list(spec.shapes[0])
    state = _PARSERS[spec.kind](spec, shape, amplitudes, text)
    return StateFile(system=spec.name, state=state)


def load_state_file(path) -> StateFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_state_text(handle.read())


def _file_keys(spec: System) -> dict:
    """State-file key -> (canonical slot, sign); plain indices by default."""
    return spec.file_keys or {idx: (idx, 1) for idx in np.ndindex(spec.shapes[0])}


def dump_state_text(statefile: StateFile) -> str:
    """Serialize to the JSON schema; inverse of :func:`parse_state_text`."""
    spec = lookup_system(statefile.system)
    state = spec.native(statefile.state)
    payload: dict = {"system": spec.name}
    entries = []
    if spec.kind is FermionState:  # amplitudes come in key order
        payload["shape"] = [state.k, state.n]
        for key, value in state.amplitudes.items():
            entries.append((list(key), value))
    elif spec.kind is MultiState:
        payload["shape"] = [list(s) for s in state.shape.species]
        for key, value in state.amplitudes.items():
            entries.append(([list(part) for part in key], value))
    else:
        payload["shape"] = list(spec.shapes[0])
        for key, (slot, sign) in _file_keys(spec).items():
            if sign > 0 and state[slot] != 0:
                entries.append((list(key), state[slot]))
    payload["amplitudes"] = [
        {"key": key, "re": float(value.real), "im": float(value.imag)}
        for key, value in entries
    ]
    return json.dumps(payload, indent=2) + "\n"
