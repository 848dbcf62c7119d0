"""SLOCC classification for Freudenthal-aligned quantum systems.

Five concrete systems share one quartic invariant through their common
image inside the triple system built on the 3x3 complex Jordan algebra.
``SYSTEM_TABLE`` holds one :class:`System` record of facts per name, in
this order:

==================  =======================  =========================  ================
system identifier   native state             Hilbert space              SLOCC group
==================  =======================  =========================  ================
``fermion``         ``FermionState`` (3, 6)  third wedge power of C^6   GL(6)
``multi``           ``MultiState``           (x)_i wedge^k_i C^n_i      (x)_i GL(n_i)
``qubit3``          (2, 2, 2) array          C^2 (x) C^2 (x) C^2        GL(2)^3
``boson2q``         (2, 3) array             C^2 (x) Sym^2 C^2          GL(2) x GL(2)
``boson3``          (4,) array               Sym^3 C^2                  GL(2)
``qubit_fermion4``  (2, 6) or (2, 4, 4)      C^2 (x) wedge^2 C^4        GL(2) x GL(4)
==================  =======================  =========================  ================

Every system but ``multi`` has a Freudenthal image (``fermion`` only at
three particles in six modes, its default shape).  Each state embeds as
a four-by-"cubic Jordan algebra" vector whose rank
(1 to 4) is a complete SLOCC invariant: rank 4 is the GHZ class (quartic
invariant nonzero), rank 3 the W class, rank 2 biseparable, rank 1
separable.  Rank-2 states of systems with distinguishable factors are
refined further by testing which bipartitions of the factors the state
actually splits across, since one fermionic rank-2 orbit can intersect a
subspace in several inequivalent classes.

States of other shapes (``fermion`` with a different (k, n), or ``multi``
for arbitrary species lists) fall back to rank-free verdicts driven by
the decomposability criterion: separable, biseparable with the factoring
cuts listed, or entangled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .embed import (
    _BOSON2Q_WEIGHTS,
    _BOSON3_WEIGHTS,
    _PAIR_INDEX,
    _PAIR_SLOTS,
    MultiState,
    SystemShape,
    _flattening,
    _is_rank_one,
    _unpack_antisymmetric_pair,
    bipartitions,
    boson2q_to_freudenthal,
    boson2q_to_three_qubit,
    boson3_to_boson2q,
    boson3_to_freudenthal,
    factors_across_cut,
    merge_species,
    multistate_from_tensor,
    pack_antisymmetric_pair,
    qubit_fermion4_to_fermion,
    qubit_fermion4_to_freudenthal,
    three_qubit_to_fermion,
    three_qubit_to_freudenthal,
)
from .fermion import (
    DEFAULT_TOL,
    FermionState,
    ShapeError,
    _compound_columns,
    _dimension,
    apply_matrix,
    decomposability_ratio,
    is_decomposable,
    pluecker_scan,  # noqa: F401  (perfbench/tracing.py wraps it here)
    to_freudenthal,
    wedge_power_norm,
)
from .triple import (
    FreudenthalVector,
    _binary_scaled,
    _exact_quartic,
    quartic_form,
    quartic_tangle,
    rank_margins,
)

__all__ = [
    "RANKED_SYSTEMS",
    "SYSTEMS",
    "SYSTEM_TABLE",
    "ClassLabel",
    "DegeneracyWarning",
    "GroupElement",
    "System",
    "classify_state",
    "invariant_for",
    "invariant_via_embedding",
    "lookup_system",
    "random_group_element",
    "random_state",
    "slocc_act",
    "three_tangle",
]

_RANK_NAMES = {4: "GHZ", 3: "W", 2: "biseparable", 1: "separable"}

_SINGULAR_TOL = 1e-12


class DegeneracyWarning(UserWarning):
    """A classification decision fell within a factor of ten of its tolerance."""


Cut = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class System:
    """What the classifier, the CLI and state files know about one system.

    ``kind`` is the native state type; ``shapes`` the accepted array
    shapes, canonical first (for ``fermion`` the default (k, n), the one
    with a Freudenthal image; ``multi`` must always be given a shape);
    ``canonical`` maps the others to the canonical one, whose norm weights
    are ``weights`` (``None`` for the Euclidean norm).  ``matrix_sizes``
    maps a shape to the SLOCC matrix sizes, which ``act`` applies.  The
    maps take a native state: ``fermion`` to its fermionic image,
    ``multistate`` to a ``MultiState`` (``None`` for the bosons),
    ``freudenthal`` to its triple-system image.  ``tangle`` is the explicit
    polynomial of a canonical array, which ``invariant_for`` evaluates
    exactly rescaled (``None`` for ``fermion``, whose amplitudes are its
    coordinates), and ``embedded_tangle`` the embedding route.  A rank-two
    image is named ``rank_two`` and split by ``cuts``; states without an
    image are classified by ``general`` and drawn by ``draw``.
    ``file_keys`` maps the state-file keys of a dense system to (canonical
    slot, sign); ``None`` means the keys are the array indices.
    """

    name: str
    kind: type
    shapes: tuple[tuple[int, ...], ...]
    matrix_sizes: Callable[[Any], tuple[int, ...]]
    act: Callable[[Any, Sequence[np.ndarray]], Any]
    fermion: Callable[[Any], FermionState]
    multistate: Optional[Callable[[Any], MultiState]] = None
    freudenthal: Optional[Callable[[Any], FreudenthalVector]] = None
    tangle: Optional[Callable[[np.ndarray], float]] = None
    embedded_tangle: Optional[Callable[[Any], float]] = None
    rank_two: str = "biseparable"
    cuts: Optional[Callable[["System", Any, float], tuple[Cut, ...]]] = None
    canonical: Optional[Callable[[np.ndarray], np.ndarray]] = None
    weights: Optional[np.ndarray] = None
    general: Optional[Callable[[Any, float], "ClassLabel"]] = None
    draw: Optional[Callable[[np.random.Generator, Any], Any]] = None
    file_keys: Optional[Mapping[tuple[int, ...], tuple[tuple[int, ...], int]]] = None

    def native(self, state):
        """Check that ``state`` is a native state of this system and return
        it in canonical form."""
        if self.kind is not np.ndarray:
            if not isinstance(state, self.kind):
                raise ShapeError(
                    f"system {self.name!r} expects a {self.kind.__name__}"
                )
            return state
        arr = np.asarray(state, dtype=complex)
        if arr.shape not in self.shapes:
            raise ShapeError(
                f"system {self.name!r} expects amplitudes of shape "
                f"{' or '.join(map(str, self.shapes))}, got {arr.shape}"
            )
        return arr if self.canonical is None else self.canonical(arr)

    def has_image(self, state) -> bool:
        """True when the rank of the Freudenthal image classifies ``state``."""
        return self.freudenthal is not None and state.shape in self.shapes

    def shape_or_default(self, shape):
        """``shape`` (for a dense system one of ``shapes``), or the default
        one when it is ``None``."""
        if shape is not None:
            if self.kind is np.ndarray and tuple(shape) not in self.shapes:
                raise ShapeError(f"system {self.name!r} has no shape {tuple(shape)}")
            return shape
        if not self.shapes:
            raise ShapeError(f"system {self.name!r} needs an explicit species shape")
        return self.shapes[0]

    def norm_sq(self, arr: np.ndarray) -> float:
        """Squared norm of a canonical dense state in its convention."""
        if self.weights is None:
            return float(np.linalg.norm(arr)) ** 2
        return float(np.sum(self.weights * np.abs(arr) ** 2))


def lookup_system(name) -> System:
    """The record of a system name; unknown names raise ``ShapeError``."""
    spec = SYSTEM_TABLE.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ShapeError(f"unknown system {name!r}; expected one of {SYSTEMS}")
    return spec


@dataclass(frozen=True)
class ClassLabel:
    """Outcome of a SLOCC classification.

    ``rank`` is the Freudenthal rank (1..4) for the five concrete systems
    and ``None`` for general shapes, where only decomposability-based
    verdicts are available.  ``name`` is one of ``separable``,
    ``biseparable``, ``W``, ``GHZ`` or — for general shapes that neither
    separate fully nor across any bipartition — ``entangled``.
    ``cut_pattern`` lists the bipartitions of distinguishable factors the
    state splits across; it is nonempty only for biseparable states of
    systems that have such factors.  ``invariants_report`` carries the
    numeric invariants that applied (absolute quartic invariant, and the
    wedge-power invariant when the shape admits one); it does not take
    part in equality comparisons.
    """

    rank: Optional[int]
    name: str
    cut_pattern: tuple[Cut, ...] = ()
    invariants_report: Mapping[str, float] = field(
        default_factory=dict, compare=False
    )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "name": self.name,
            "cut_pattern": [
                [list(side) for side in cut] for cut in self.cut_pattern
            ],
            "invariants_report": dict(self.invariants_report),
        }


class GroupElement:
    """An invertible matrix per distinguishable factor of a system.

    A single matrix acts on a plain fermionic state through its k-fold
    compound; for composite systems each matrix acts on its own factor
    (bosonic factors receive one matrix applied to every symmetric slot).
    """

    __slots__ = ("matrices", "determinants")

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats = []
        dets = []
        for m in matrices:
            arr = np.asarray(m, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"group element matrices must be square, got {arr.shape}")
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("group element matrix has non-finite entries")
            det = complex(np.linalg.det(arr))
            if abs(det) <= _SINGULAR_TOL:
                raise ValueError("group element matrix is singular")
            mats.append(arr)
            dets.append(det)
        if not mats:
            raise ValueError("group element needs at least one matrix")
        self.matrices = tuple(mats)
        self.determinants = tuple(dets)

    def __repr__(self) -> str:
        sizes = "x".join(str(m.shape[0]) for m in self.matrices)
        return f"GroupElement(sizes={sizes})"


# ---------------------------------------------------------------------------
# Explicit quartic invariants, one polynomial per system.
# ---------------------------------------------------------------------------


def three_tangle(amplitudes: np.ndarray) -> float:
    """Absolute three-tangle of a two-by-two-by-two amplitude tensor.

    Evaluates the degree-4 polynomial directly in the eight amplitudes
    (indexed decimally: a[i,j,k] -> a_{4i+2j+k}), rescaled exactly like every
    quartic here (``invariant_for``); the Freudenthal route computes the same
    number through the embedded coordinates.
    """
    arr = np.asarray(amplitudes, dtype=complex)
    if arr.shape != (2, 2, 2):
        raise ShapeError(f"expected shape (2, 2, 2), got {arr.shape}")
    return _exact_quartic(_three_tangle, arr)


def _three_tangle(arr: np.ndarray) -> float:
    a = arr.reshape(8)
    t = 4.0 * (
        (a[0] * a[7]) ** 2
        + (a[1] * a[6]) ** 2
        + (a[2] * a[5]) ** 2
        + (a[3] * a[4]) ** 2
    )
    t -= 8.0 * (
        a[0] * a[7] * a[1] * a[6]
        + a[0] * a[7] * a[2] * a[5]
        + a[0] * a[7] * a[3] * a[4]
        + a[1] * a[6] * a[2] * a[5]
        + a[1] * a[6] * a[3] * a[4]
        + a[2] * a[5] * a[3] * a[4]
    )
    t += 16.0 * (a[0] * a[3] * a[5] * a[6] + a[7] * a[4] * a[2] * a[1])
    return abs(t)


def _boson2q_tangle(b: np.ndarray) -> float:
    t = 4.0 * (b[0, 0] ** 2 * b[1, 2] ** 2 + b[0, 2] ** 2 * b[1, 0] ** 2)
    t += 16.0 * (
        b[1, 1] ** 2 * b[0, 0] * b[0, 2] + b[0, 1] ** 2 * b[1, 0] * b[1, 2]
    )
    t -= 8.0 * b[0, 0] * b[0, 2] * b[1, 0] * b[1, 2]
    t -= 16.0 * (
        b[0, 1] * b[0, 2] * b[1, 0] * b[1, 1]
        + b[0, 0] * b[0, 1] * b[1, 1] * b[1, 2]
    )
    return abs(t)


def _boson3_tangle(c: np.ndarray) -> float:
    t = (
        4.0 * c[0] ** 2 * c[3] ** 2
        - 12.0 * c[1] ** 2 * c[2] ** 2
        - 24.0 * c[0] * c[1] * c[2] * c[3]
        + 16.0 * (c[0] * c[2] ** 3 + c[3] * c[1] ** 3)
    )
    return abs(t)


def _qubit_fermion4_tangle(packed: np.ndarray) -> float:
    rows = packed.tolist()  # Python complex arithmetic beats numpy scalars

    def d(i: int, j: int, k: int) -> complex:
        if j < k:
            return rows[i][_PAIR_INDEX[(j, k)]]
        return -rows[i][_PAIR_INDEX[(k, j)]]

    t = 4.0 * (
        (d(0, 2, 3) * d(1, 0, 1)) ** 2
        + (d(0, 2, 1) * d(1, 0, 3)) ** 2
        + (d(0, 0, 2) * d(1, 1, 3)) ** 2
        + (d(0, 3, 1) * d(1, 2, 0)) ** 2
        + (d(0, 0, 3) * d(1, 2, 1)) ** 2
        + (d(0, 0, 1) * d(1, 2, 3)) ** 2
    )
    t += 8.0 * (
        d(0, 0, 2) * d(0, 2, 1) * d(1, 0, 3) * d(1, 1, 3)
        + d(0, 2, 1) * d(0, 3, 1) * d(1, 0, 3) * d(1, 2, 0)
        + d(0, 0, 2) * d(0, 0, 3) * d(1, 1, 3) * d(1, 2, 1)
        + d(0, 0, 3) * d(0, 3, 1) * d(1, 2, 0) * d(1, 2, 1)
    )
    t += 16.0 * (
        d(0, 0, 3) * d(0, 2, 1) * d(1, 1, 3) * d(1, 2, 0)
        + d(0, 0, 1) * d(0, 2, 3) * d(1, 0, 3) * d(1, 2, 1)
        + d(0, 0, 2) * d(0, 3, 1) * d(1, 0, 3) * d(1, 2, 1)
        + d(0, 0, 3) * d(0, 2, 1) * d(1, 0, 1) * d(1, 2, 3)
    )
    t -= 16.0 * (
        d(0, 0, 1) * d(0, 2, 3) * d(1, 1, 3) * d(1, 2, 0)
        + d(0, 0, 2) * d(0, 3, 1) * d(1, 0, 1) * d(1, 2, 3)
    )
    t -= 8.0 * (
        d(0, 2, 1) * d(0, 2, 3) * d(1, 0, 1) * d(1, 0, 3)
        + d(0, 0, 2) * d(0, 2, 3) * d(1, 0, 1) * d(1, 1, 3)
        + d(0, 2, 3) * d(0, 3, 1) * d(1, 0, 1) * d(1, 2, 0)
        + d(0, 0, 2) * d(0, 3, 1) * d(1, 1, 3) * d(1, 2, 0)
        + d(0, 0, 3) * d(0, 2, 3) * d(1, 0, 1) * d(1, 2, 1)
        + d(0, 0, 3) * d(0, 2, 1) * d(1, 0, 3) * d(1, 2, 1)
        + d(0, 0, 1) * d(0, 2, 3) * d(1, 0, 1) * d(1, 2, 3)
        + d(0, 0, 1) * d(0, 2, 1) * d(1, 0, 3) * d(1, 2, 3)
        + d(0, 0, 1) * d(0, 0, 2) * d(1, 1, 3) * d(1, 2, 3)
        + d(0, 0, 1) * d(0, 3, 1) * d(1, 2, 0) * d(1, 2, 3)
        + d(0, 0, 1) * d(0, 0, 3) * d(1, 2, 1) * d(1, 2, 3)
    )
    return abs(t)


def invariant_for(system: str, state) -> float:
    """Absolute quartic invariant from the system's explicit polynomial.

    Every value here comes from a direct transcription in the native
    amplitudes; ``invariant_via_embedding`` computes the same quantity
    along an independent route for cross-checking.  Each polynomial, like
    ``quartic_form`` on the other route, is evaluated on the amplitudes
    divided exactly by a power of two and multiplied back
    (``_exact_quartic``): 0 where it vanishes and inf past the float range
    at any scale, never nan.
    """
    spec = lookup_system(system)
    if spec.freudenthal is None:
        raise ShapeError(f"no explicit quartic invariant for system {system!r}")
    state = spec.native(state)
    if spec.tangle is None:
        return _abs_tangle(spec.freudenthal(state))
    return _exact_quartic(spec.tangle, state)


def invariant_via_embedding(system: str, state) -> float:
    """Absolute quartic invariant along the embedding route.

    Qubit-containing systems are pushed all the way into the three-in-six
    fermionic picture before the coordinates are read off; the bosonic
    systems use their coordinate maps directly.  The plain fermionic
    system takes the doubled-quartic-form route through the Jordan-algebra
    machinery, which must agree with its coordinate transcription.
    """
    spec = lookup_system(system)
    if spec.embedded_tangle is None:
        raise ShapeError(f"no embedding-route invariant for system {system!r}")
    return spec.embedded_tangle(spec.native(state))


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def _warn_if_close(ratios, what: str) -> None:
    for ratio in ratios:
        if 0.1 < ratio < 10.0:
            warnings.warn(
                f"{what}: decisive quantity within a factor of 10 of the "
                f"tolerance threshold (ratio {ratio:.3e}); the verdict is "
                "numerically fragile",
                DegeneracyWarning,
                stacklevel=3,
            )
            return


def _tensor_cuts(spec: System, arr: np.ndarray, tol: float) -> tuple[Cut, ...]:
    """The bipartitions of the factors (axes of the canonical array) whose
    flattening passes _is_rank_one against tol times the squared norm in
    the system's convention, on the array exactly rescaled by _binary_scaled."""
    arr = _binary_scaled(arr)
    cutoff = tol * spec.norm_sq(arr)
    return tuple(
        (left, right)
        for left, right in bipartitions(arr.ndim)
        if _is_rank_one(_flattening(arr, left, right), cutoff)
    )


def _classify_ranked(spec: System, state, tol: float) -> ClassLabel:
    x = spec.freudenthal(state)
    if not x.coefficients().any():
        raise ValueError("cannot classify the zero state")
    r, ratios = rank_margins(x, tol)
    _warn_if_close(ratios, f"rank test for system {spec.name!r}")
    name = spec.rank_two if r == 2 else _RANK_NAMES[r]
    cuts: tuple[Cut, ...] = ()
    if name == "biseparable" and spec.cuts is not None:
        cuts = spec.cuts(spec, state, tol)
    if spec.tangle is None:  # invariant_for would rebuild this same image
        tangle = _abs_tangle(x)
    else:
        tangle = invariant_for(spec.name, state)
    report = {"tangle_abs": tangle}
    return ClassLabel(rank=r, name=name, cut_pattern=cuts, invariants_report=report)


def _general_report(merged: FermionState) -> dict:
    """``wedge_power_norm`` where it is defined and within its table budget."""
    try:
        return {"wedge_power_norm": wedge_power_norm(merged)}
    except ShapeError:
        return {}


def _classify_fermion_general(state: FermionState, tol: float) -> ClassLabel:
    if state.is_zero():
        raise ValueError("cannot classify the zero state")
    ratio = decomposability_ratio(state, tol)
    _warn_if_close([ratio], f"decomposability test for shape ({state.k}, {state.n})")
    name = "separable" if ratio <= 1.0 else "entangled"
    return ClassLabel(
        rank=None, name=name, cut_pattern=(), invariants_report=_general_report(state)
    )


def _classify_multi(psi: MultiState, tol: float) -> ClassLabel:
    if psi.is_zero():
        raise ValueError("cannot classify the zero state")
    merged = merge_species(psi)
    report = _general_report(merged)
    if is_decomposable(merged, tol=tol):
        return ClassLabel(rank=None, name="separable", invariants_report=report)
    cuts = tuple(
        bp for bp in bipartitions(psi.shape.num_species) if factors_across_cut(psi, bp[0], tol)
    )
    if cuts:
        return ClassLabel(
            rank=None, name="biseparable", cut_pattern=cuts, invariants_report=report
        )
    return ClassLabel(rank=None, name="entangled", invariants_report=report)


def classify_state(system: str, state, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Classify a state of the given system up to SLOCC equivalence.

    The five concrete systems go through the Freudenthal rank; general
    shapes (``multi``, or ``fermion`` away from three particles in six
    modes) receive decomposability-based verdicts with ``rank=None``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    spec = lookup_system(system)
    state = spec.native(state)
    if spec.has_image(state):
        return _classify_ranked(spec, state, tol)
    return spec.general(state, tol)


# ---------------------------------------------------------------------------
# Group actions.
# ---------------------------------------------------------------------------


def _act_on_species(psi: MultiState, species_index: int, matrix: np.ndarray) -> MultiState:
    """The compound of ``matrix`` on the axis of one species: each slice of
    the tensor along that axis is one column of _compound_columns."""
    tensor = np.moveaxis(psi._array, species_index, 0)
    columns = tensor.reshape(len(tensor), -1)
    moved = _compound_columns(matrix, columns, psi.shape.species[species_index][0])
    return MultiState._wrap(psi.shape, np.moveaxis(moved.reshape(tensor.shape), 0, species_index))


def _act_multi(psi: MultiState, mats: Sequence[np.ndarray]) -> MultiState:
    for index, matrix in enumerate(mats):
        psi = _act_on_species(psi, index, matrix)
    return psi


def _act_boson2q(b: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    g_qubit, g_boson = mats
    tensor = boson2q_to_three_qubit(b)
    moved = np.einsum("ia,jb,kc,abc->ijk", g_qubit, g_boson, g_boson, tensor)
    out = np.empty((2, 3), dtype=complex)
    out[:, 0] = moved[:, 0, 0]
    out[:, 1] = 0.5 * (moved[:, 0, 1] + moved[:, 1, 0])
    out[:, 2] = moved[:, 1, 1]
    return out


def _act_boson3(c: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    (g,) = mats
    tensor = boson2q_to_three_qubit(boson3_to_boson2q(c))
    moved = np.einsum("ia,jb,kc,abc->ijk", g, g, g, tensor)
    out = np.empty(4, dtype=complex)
    out[0] = moved[0, 0, 0]
    out[1] = (moved[1, 0, 0] + moved[0, 1, 0] + moved[0, 0, 1]) / 3.0
    out[2] = (moved[0, 1, 1] + moved[1, 0, 1] + moved[1, 1, 0]) / 3.0
    out[3] = moved[1, 1, 1]
    return out


def _act_qubit_fermion4(d: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The action on packed pairs; a full 2x4x4 input gets a 2x4x4 result."""
    g_qubit, g_modes = mats
    moved = g_qubit @ _compound_columns(g_modes, pack_antisymmetric_pair(d).T, 2).T
    return moved if d.shape == moved.shape else _unpack_antisymmetric_pair(moved)


def slocc_act(state, element, system: Optional[str] = None):
    """Apply a SLOCC group element; the result has the input's format.

    Dispatch is by state type and array shape; ``system`` is an optional
    consistency tag.  Plain fermionic states take one matrix, composite
    states one matrix per distinguishable factor, bosonic factors a
    single matrix reused on every symmetric slot.
    """
    if not isinstance(element, GroupElement):
        element = GroupElement(element)
    if not isinstance(state, (FermionState, MultiState)):
        state = np.asarray(state, dtype=complex)
    spec = next(
        (
            s
            for s in SYSTEM_TABLE.values()
            if isinstance(state, s.kind)
            and (s.kind is not np.ndarray or state.shape in s.shapes)
        ),
        None,
    )
    if spec is None:
        raise ShapeError(f"no system has amplitude shape {state.shape}")
    if system not in (None, spec.name):
        raise ShapeError(f"{spec.name} input contradicts system {system!r}")
    sizes = spec.matrix_sizes(state.shape)
    got = tuple(m.shape[0] for m in element.matrices)
    if got != sizes:
        raise ShapeError(
            f"system {spec.name!r} acts by matrices of sizes {sizes}, got {got}"
        )
    return spec.act(state, element.matrices)


def random_group_element(
    system: str,
    seed,
    shape=None,
    unit_determinant: bool = False,
) -> GroupElement:
    """Draw an invertible element of the system's SLOCC group.

    Entries are i.i.d. complex standard normal (almost surely invertible;
    singular draws are rejected and redrawn).  With ``unit_determinant``
    each matrix is rescaled onto its special linear group.
    """
    spec = lookup_system(system)
    sizes = spec.matrix_sizes(spec.shape_or_default(shape))
    rng = np.random.default_rng(seed)
    mats = []
    for n in sizes:
        while True:
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            det = complex(np.linalg.det(m))
            if abs(det) > _SINGULAR_TOL:
                break
        if unit_determinant:
            m = m / det ** (1.0 / n)
        mats.append(m)
    return GroupElement(mats)


# ---------------------------------------------------------------------------
# Random states.
# ---------------------------------------------------------------------------


def _as_system_shape(shape) -> SystemShape:
    return shape if isinstance(shape, SystemShape) else SystemShape(tuple(shape))


def _normal_pairs(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """complex(rng.normal(), rng.normal()) for each entry, in C order."""
    return rng.normal(size=dims + (2,)).view(complex)[..., 0]


def _draw_fermion(rng: np.random.Generator, shape) -> FermionState:
    k, n = int(shape[0]), int(shape[1])
    return FermionState._wrap(k, n, _normal_pairs(rng, (_dimension(k, n),)), 0.0)


def _draw_multi(rng: np.random.Generator, shape) -> MultiState:
    sys_shape = _as_system_shape(shape)
    return MultiState._wrap(sys_shape, _normal_pairs(rng, sys_shape.dims))


def random_state(system: str, seed, shape=None):
    """Draw a random state of the system, normalized in its convention.

    Amplitudes are i.i.d. complex standard normal; bosonic systems are
    normalized in their weighted (symmetric-monomial) norms, everything
    else in the plain Euclidean norm.  Deterministic in ``seed``.
    """
    spec = lookup_system(system)
    shape = spec.shape_or_default(shape)
    rng = np.random.default_rng(seed)
    if spec.draw is not None:
        psi = spec.draw(rng, shape)
        return (1.0 / psi.norm()) * psi
    size = spec.shapes[0]
    arr = rng.normal(size=size) + 1j * rng.normal(size=size)
    arr /= np.linalg.norm(arr) if spec.weights is None else math.sqrt(spec.norm_sq(arr))
    if tuple(shape) == size:
        return arr
    assert tuple(shape) == (2, 4, 4), "only qubit_fermion4 has a second dense shape"
    return _unpack_antisymmetric_pair(arr)


# ---------------------------------------------------------------------------
# The system table.  The Freudenthal images, apply_matrix and merge_species
# are looked up by name when called (hence the lambdas), so that a wrapper
# installed on this module's attribute sees every call.
# ---------------------------------------------------------------------------


def _abs_tangle(x: FreudenthalVector) -> float:
    return abs(quartic_tangle(x))


SYSTEM_TABLE: Mapping[str, System] = {
    spec.name: spec
    for spec in (
        System(
            "fermion", FermionState, ((3, 6),),
            matrix_sizes=lambda shape: (int(shape[1]),),
            act=lambda state, mats: apply_matrix(state, mats[0]),
            fermion=lambda state: state,
            multistate=lambda state: MultiState._wrap(SystemShape((state.shape,)), state._array),
            freudenthal=lambda state: to_freudenthal(state),
            embedded_tangle=lambda state: 2.0 * abs(quartic_form(to_freudenthal(state))),
            general=_classify_fermion_general,
            draw=_draw_fermion,
        ),
        System(
            "multi", MultiState, (),
            matrix_sizes=lambda shape: tuple(n for _, n in _as_system_shape(shape).species),
            act=_act_multi,
            fermion=lambda psi: merge_species(psi),
            multistate=lambda psi: psi,
            general=_classify_multi,
            draw=_draw_multi,
        ),
        System(
            "qubit3", np.ndarray, ((2, 2, 2),),
            matrix_sizes=lambda shape: (2, 2, 2),
            act=lambda a, mats: np.einsum("ia,jb,kc,abc->ijk", *mats, a),
            fermion=three_qubit_to_fermion,
            multistate=multistate_from_tensor,
            freudenthal=lambda a: three_qubit_to_freudenthal(a),
            tangle=_three_tangle,
            embedded_tangle=lambda a: _abs_tangle(to_freudenthal(three_qubit_to_fermion(a))),
            cuts=_tensor_cuts,
        ),
        System(
            "boson2q", np.ndarray, ((2, 3),),
            weights=_BOSON2Q_WEIGHTS,
            matrix_sizes=lambda shape: (2, 2),
            act=_act_boson2q,
            fermion=lambda b: three_qubit_to_fermion(boson2q_to_three_qubit(b)),
            freudenthal=lambda b: boson2q_to_freudenthal(b, check_norm=False),
            tangle=_boson2q_tangle,
            embedded_tangle=lambda b: _abs_tangle(boson2q_to_freudenthal(b, check_norm=False)),
            cuts=_tensor_cuts,
        ),
        System(
            "boson3", np.ndarray, ((4,),),
            weights=_BOSON3_WEIGHTS,
            matrix_sizes=lambda shape: (2,),
            act=_act_boson3,
            fermion=lambda c: three_qubit_to_fermion(
                boson2q_to_three_qubit(boson3_to_boson2q(c))
            ),
            freudenthal=lambda c: boson3_to_freudenthal(c, check_norm=False),
            tangle=_boson3_tangle,
            embedded_tangle=lambda c: _abs_tangle(boson3_to_freudenthal(c, check_norm=False)),
            # The symmetric three-boson subspace has no biseparable orbit:
            # its rank-two conditions already force a product state.
            rank_two="separable",
        ),
        System(
            "qubit_fermion4", np.ndarray, ((2, 6), (2, 4, 4)),
            canonical=pack_antisymmetric_pair,
            matrix_sizes=lambda shape: (2, 4),
            act=_act_qubit_fermion4,
            fermion=qubit_fermion4_to_fermion,
            # The packed columns are the lex-ordered pairs of the four modes.
            multistate=lambda d: MultiState._wrap(SystemShape(((1, 2), (2, 4))), d),
            freudenthal=lambda d: qubit_fermion4_to_freudenthal(d),
            tangle=_qubit_fermion4_tangle,
            embedded_tangle=lambda d: _abs_tangle(
                to_freudenthal(qubit_fermion4_to_fermion(d))
            ),
            cuts=_tensor_cuts,
            # [bit, a, b] names the pair (a, b) of modes 0..3 and [bit, b, a]
            # the same slot with the wedge sign.
            file_keys={
                (bit, *pair[::sign]): ((bit, column), sign)
                for bit in range(2)
                for column, pair in enumerate(_PAIR_SLOTS)
                for sign in (1, -1)
            },
        ),
    )
}

#: System identifiers accepted throughout this module and by the CLI.
SYSTEMS = tuple(SYSTEM_TABLE)

#: Systems classified through the rank of their Freudenthal image.
RANKED_SYSTEMS = tuple(s.name for s in SYSTEM_TABLE.values() if s.freudenthal)
