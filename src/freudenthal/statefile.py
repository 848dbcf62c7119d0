"""JSON state files for every supported system.

Schema::

    {
      "system": "fermion" | "multi" | "qubit3" | "boson2q"
                | "boson3" | "qubit_fermion4",
      "shape":  [k, n]                  for "fermion"   (optional, default [3, 6])
                [[k1, n1], [k2, n2]...] for "multi"     (required)
                fixed per system        otherwise       (optional, validated)
      "check_norm": true | false        (optional, default true)
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

from .embed import MultiState, SystemShape
from .fermion import FermionState, ShapeError, sort_sign

__all__ = [
    "StateFile",
    "StateParseError",
    "dump_state_text",
    "load_state_file",
    "parse_state_text",
]

_DENSE_SHAPES = {
    "qubit3": (2, 2, 2),
    "boson2q": (2, 3),
    "boson3": (4,),
    "qubit_fermion4": (2, 6),
}

_SYSTEMS = ("fermion", "multi") + tuple(_DENSE_SHAPES)

_PAIR_SLOTS_4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX_4 = {pair: column for column, pair in enumerate(_PAIR_SLOTS_4)}

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
    """A parsed state file: the system tag, the state, and its options."""

    system: str
    state: State
    check_norm: bool = True


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


def _parse_fermion(shape, amplitudes, text: str) -> FermionState:
    if shape is None:
        shape = [3, 6]
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


def _parse_multi(shape, amplitudes, text: str) -> MultiState:
    if shape is None:
        raise ShapeError("system 'multi' requires an explicit shape")
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


def _parse_dense(system: str, shape, amplitudes, text: str) -> np.ndarray:
    expected = _DENSE_SHAPES[system]
    if shape is not None and (not isinstance(shape, list) or tuple(shape) != expected):
        raise ShapeError(
            f"system {system!r} has fixed shape {list(expected)}, got {shape!r}"
        )
    arr = np.zeros(expected, dtype=complex)
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
            if system == "qubit_fermion4":
                if len(key) != 3:
                    raise StateParseError(
                        f"amplitude #{index}: key must be [bit, mode, mode]"
                    )
                bit, a, b = key
                if bit not in (0, 1):
                    raise StateParseError(
                        f"amplitude #{index}: qubit bit must be 0 or 1"
                    )
                if not (0 <= a <= 3 and 0 <= b <= 3):
                    raise StateParseError(
                        f"amplitude #{index}: fermionic modes must lie in 0..3"
                    )
                if a == b:
                    raise StateParseError(
                        f"amplitude #{index}: repeated mode in key"
                    )
                if a > b:
                    a, b, value = b, a, -value
                slot = (bit, _PAIR_INDEX_4[(a, b)])
                if slot in seen:
                    raise StateParseError(
                        f"amplitude #{index}: duplicate key {key}"
                    )
                seen.add(slot)
                arr[slot] = value
                continue
            if len(key) != len(expected):
                raise StateParseError(
                    f"amplitude #{index}: key must have {len(expected)} "
                    f"entries for {system}",
                )
            if not all(0 <= v < bound for v, bound in zip(key, expected)):
                raise StateParseError(
                    f"amplitude #{index}: key {key} out of range for "
                    f"shape {list(expected)}",
                )
            slot = tuple(key)
            if slot in seen:
                raise StateParseError(f"amplitude #{index}: duplicate key {key}")
            seen.add(slot)
            arr[slot] = value
    return arr


def parse_state_text(text: str) -> StateFile:
    """Parse a state file from its JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(payload, dict):
        raise StateParseError("state file must be a JSON object")
    system = payload.get("system")
    if system not in _SYSTEMS:
        raise ShapeError(
            f"unknown system {system!r}; expected one of {list(_SYSTEMS)}"
        )
    check_norm = payload.get("check_norm", True)
    if not isinstance(check_norm, bool):
        raise StateParseError("'check_norm' must be a boolean")
    amplitudes = payload.get("amplitudes")
    if not isinstance(amplitudes, list):
        raise StateParseError("'amplitudes' must be a list")
    shape = payload.get("shape")
    if system == "fermion":
        state: State = _parse_fermion(shape, amplitudes, text)
    elif system == "multi":
        state = _parse_multi(shape, amplitudes, text)
    else:
        state = _parse_dense(system, shape, amplitudes, text)
    return StateFile(system=system, state=state, check_norm=check_norm)


def load_state_file(path) -> StateFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_state_text(handle.read())


def _dense_entries(system: str, arr: np.ndarray):
    if system == "qubit_fermion4":
        for bit in range(2):
            for column, (a, b) in enumerate(_PAIR_SLOTS_4):
                value = arr[bit, column]
                if value != 0:
                    yield [bit, a, b], value
        return
    for slot in np.ndindex(arr.shape):
        value = arr[slot]
        if value != 0:
            yield [int(v) for v in slot], value


def dump_state_text(statefile: StateFile) -> str:
    """Serialize to the JSON schema; inverse of :func:`parse_state_text`."""
    system = statefile.system
    state = statefile.state
    payload: dict = {"system": system}
    entries = []
    if system == "fermion":
        assert isinstance(state, FermionState)
        payload["shape"] = [state.k, state.n]
        for key in sorted(state.amplitudes):
            entries.append((list(key), state.amplitudes[key]))
    elif system == "multi":
        assert isinstance(state, MultiState)
        payload["shape"] = [list(s) for s in state.shape.species]
        for key in sorted(state.amplitudes):
            entries.append(([list(part) for part in key], state.amplitudes[key]))
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.shape != _DENSE_SHAPES[system]:
            raise ShapeError(
                f"system {system!r} expects shape {_DENSE_SHAPES[system]}, "
                f"got {arr.shape}"
            )
        payload["shape"] = list(_DENSE_SHAPES[system])
        entries.extend(_dense_entries(system, arr))
    if not statefile.check_norm:
        payload["check_norm"] = False
    payload["amplitudes"] = [
        {"key": key, "re": float(value.real), "im": float(value.imag)}
        for key, value in entries
    ]
    return json.dumps(payload, indent=2) + "\n"
