"""SLOCC classification for Freudenthal-aligned quantum systems.

Five concrete systems share one quartic invariant through their common
image inside the triple system built on the 3x3 complex Jordan algebra:

======================  ==========================  ====================
system identifier       Hilbert space               SLOCC group
======================  ==========================  ====================
``fermion`` (3 in 6)    third wedge power of C^6    GL(6)
``qubit_fermion4``      C^2 (x) wedge^2 C^4         GL(2) x GL(4)
``qubit3``              C^2 (x) C^2 (x) C^2         GL(2)^3
``boson2q``             C^2 (x) Sym^2 C^2           GL(2) x GL(2)
``boson3``              Sym^3 C^2                   GL(2)
======================  ==========================  ====================

Each state embeds as a four-by-"cubic Jordan algebra" vector whose rank
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

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .embed import (
    MultiState,
    SystemShape,
    bipartitions,
    boson2q_to_freudenthal,
    boson3_to_freudenthal,
    factors_across_cut,
    merge_species,
    multistate_from_tensor,
    pack_antisymmetric_pair,
    qubit_fermion4_to_fermion,
    qubit_fermion4_to_freudenthal,
    separability_via_embedding,
    three_qubit_to_fermion,
    three_qubit_to_freudenthal,
)
from .fermion import (
    DEFAULT_TOL,
    FermionState,
    ShapeError,
    _compound_columns,
    apply_matrix,
    is_decomposable,
    pluecker_scan,
    to_freudenthal,
    wedge_power_norm,
)
from .triple import FreudenthalVector, quartic_form, quartic_tangle, rank_margins

__all__ = [
    "SYSTEMS",
    "ClassLabel",
    "DegeneracyWarning",
    "GroupElement",
    "classify_state",
    "invariant_for",
    "invariant_via_embedding",
    "random_group_element",
    "random_state",
    "slocc_act",
    "three_tangle",
]

#: System identifiers accepted throughout this module and by the CLI.
SYSTEMS = ("fermion", "multi", "qubit3", "boson2q", "boson3", "qubit_fermion4")

#: Systems classified through the rank of their Freudenthal image.
RANKED_SYSTEMS = ("fermion", "qubit3", "boson2q", "boson3", "qubit_fermion4")

_RANK_NAMES = {4: "GHZ", 3: "W", 2: "biseparable", 1: "separable"}

#: Weights of the symmetric-monomial basis in each bosonic norm convention.
_BOSON2Q_WEIGHTS = np.array([1.0, 2.0, 1.0])
_BOSON3_WEIGHTS = np.array([1.0, 3.0, 3.0, 1.0])

_SINGULAR_TOL = 1e-12


class DegeneracyWarning(UserWarning):
    """A classification decision fell within a factor of ten of its tolerance."""


Cut = tuple[tuple[int, ...], tuple[int, ...]]


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
    (indexed decimally: a[i,j,k] -> a_{4i+2j+k}); the Freudenthal route
    computes the same number through the embedded coordinates.
    """
    arr = np.asarray(amplitudes, dtype=complex)
    if arr.shape != (2, 2, 2):
        raise ShapeError(f"expected shape (2, 2, 2), got {arr.shape}")
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


_PAIR_COLUMN = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}


def _qubit_fermion4_tangle(packed: np.ndarray) -> float:
    def d(i: int, j: int, k: int) -> complex:
        if j < k:
            return packed[i, _PAIR_COLUMN[(j, k)]]
        return -packed[i, _PAIR_COLUMN[(k, j)]]

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


def _as_system_array(system: str, state) -> np.ndarray:
    """Validate and normalize the dense array forms of the sub-systems."""
    arr = np.asarray(state, dtype=complex)
    expected = {
        "qubit3": ((2, 2, 2),),
        "boson2q": ((2, 3),),
        "boson3": ((4,),),
        "qubit_fermion4": ((2, 6), (2, 4, 4)),
    }[system]
    if arr.shape not in expected:
        raise ShapeError(
            f"system {system!r} expects amplitudes of shape "
            f"{' or '.join(map(str, expected))}, got {arr.shape}"
        )
    if system == "qubit_fermion4" and arr.shape == (2, 4, 4):
        arr = pack_antisymmetric_pair(arr)
    return arr


def invariant_for(system: str, state) -> float:
    """Absolute quartic invariant from the system's explicit polynomial.

    Every value here comes from a direct transcription in the native
    amplitudes; ``invariant_via_embedding`` computes the same quantity
    along an independent route for cross-checking.
    """
    if system == "fermion":
        if not isinstance(state, FermionState):
            raise ShapeError("system 'fermion' expects a FermionState")
        return abs(quartic_tangle(to_freudenthal(state)))
    if system == "qubit3":
        return three_tangle(state)
    if system == "boson2q":
        return _boson2q_tangle(_as_system_array(system, state))
    if system == "boson3":
        return _boson3_tangle(_as_system_array(system, state))
    if system == "qubit_fermion4":
        return _qubit_fermion4_tangle(_as_system_array(system, state))
    raise ShapeError(f"no explicit quartic invariant for system {system!r}")


def invariant_via_embedding(system: str, state) -> float:
    """Absolute quartic invariant along the embedding route.

    Qubit-containing systems are pushed all the way into the three-in-six
    fermionic picture before the coordinates are read off; the bosonic
    systems use their coordinate maps directly.  The plain fermionic
    system takes the doubled-quartic-form route through the Jordan-algebra
    machinery, which must agree with its coordinate transcription.
    """
    if system == "fermion":
        if not isinstance(state, FermionState):
            raise ShapeError("system 'fermion' expects a FermionState")
        return 2.0 * abs(quartic_form(to_freudenthal(state)))
    if system == "qubit3":
        arr = _as_system_array(system, np.asarray(state, dtype=complex))
        return abs(quartic_tangle(to_freudenthal(three_qubit_to_fermion(arr))))
    if system == "boson2q":
        arr = _as_system_array(system, state)
        return abs(quartic_tangle(boson2q_to_freudenthal(arr, check_norm=False)))
    if system == "boson3":
        arr = _as_system_array(system, state)
        return abs(quartic_tangle(boson3_to_freudenthal(arr, check_norm=False)))
    if system == "qubit_fermion4":
        arr = _as_system_array(system, state)
        return abs(quartic_tangle(to_freudenthal(qubit_fermion4_to_fermion(arr))))
    raise ShapeError(f"no embedding-route invariant for system {system!r}")


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def _freudenthal_image(system: str, state) -> FreudenthalVector:
    if system == "fermion":
        return to_freudenthal(state)
    arr = _as_system_array(system, state)
    if system == "qubit3":
        return three_qubit_to_freudenthal(arr)
    if system == "boson2q":
        return boson2q_to_freudenthal(arr, check_norm=False)
    if system == "boson3":
        return boson3_to_freudenthal(arr, check_norm=False)
    return qubit_fermion4_to_freudenthal(arr)


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


def _matrix_splits(matrix: np.ndarray, scale_sq: float, tol: float) -> bool:
    """True when a factor-by-rest amplitude matrix has rank one."""
    rows, cols = matrix.shape
    worst = 0.0
    for r in range(rows):
        for s in range(r + 1, rows):
            minors = matrix[r, :, None] * matrix[s, None, :]
            worst = max(worst, float(np.abs(minors - minors.T).max()))
    return worst <= tol * scale_sq


def _ranked_cut_pattern(system: str, arr, tol: float) -> tuple[Cut, ...]:
    if system == "qubit3":
        psi = multistate_from_tensor(arr)
        return tuple(
            bp for bp in bipartitions(3) if factors_across_cut(psi, bp[0], tol=tol)
        )
    if system == "boson2q":
        scale = float(np.sum(_BOSON2Q_WEIGHTS * np.abs(arr) ** 2))
        if _matrix_splits(arr, scale, tol):
            return (((1,), (2,)),)
        return ()
    if system == "qubit_fermion4":
        scale = float(np.linalg.norm(arr)) ** 2
        if _matrix_splits(arr, scale, tol):
            return (((1,), (2,)),)
        return ()
    # Indistinguishable constituents: no bipartition of factors exists.
    return ()


def _classify_ranked(system: str, state, tol: float) -> ClassLabel:
    x = _freudenthal_image(system, state)
    if x.norm() == 0.0:
        raise ValueError("cannot classify the zero state")
    r, ratios = rank_margins(x, tol)
    _warn_if_close(ratios, f"rank test for system {system!r}")
    name = _RANK_NAMES[r]
    if system == "boson3" and r == 2:
        # The symmetric three-boson subspace has no biseparable orbit:
        # its rank-two conditions already force a product state.
        name = "separable"
    cuts: tuple[Cut, ...] = ()
    if name == "biseparable":
        arr = state if system == "fermion" else _as_system_array(system, state)
        cuts = _ranked_cut_pattern(system, arr, tol)
    if system == "fermion":  # invariant_for would rebuild this same image
        tangle = abs(quartic_tangle(x))
    else:
        tangle = invariant_for(system, state)
    report = {"tangle_abs": tangle}
    return ClassLabel(rank=r, name=name, cut_pattern=cuts, invariants_report=report)


def _general_report(merged: FermionState) -> dict:
    report: dict = {}
    if merged.k % 2 == 0 and merged.n % merged.k == 0:
        report["wedge_power_norm"] = wedge_power_norm(merged)
    return report


def _classify_fermion_general(state: FermionState, tol: float) -> ClassLabel:
    if state.is_zero():
        raise ValueError("cannot classify the zero state")
    worst, _ = pluecker_scan(state)
    ratio = worst / (tol * state.norm() ** 2)
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
    n_species = psi.shape.num_species
    cuts = tuple(
        bp
        for bp in bipartitions(n_species)
        if factors_across_cut(psi, bp[0], tol=tol)
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
    if system not in SYSTEMS:
        raise ShapeError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if system == "multi":
        if not isinstance(state, MultiState):
            raise ShapeError("system 'multi' expects a MultiState")
        return _classify_multi(state, tol)
    if system == "fermion":
        if not isinstance(state, FermionState):
            raise ShapeError("system 'fermion' expects a FermionState")
        if (state.k, state.n) == (3, 6):
            return _classify_ranked(system, state, tol)
        return _classify_fermion_general(state, tol)
    return _classify_ranked(system, state, tol)


# ---------------------------------------------------------------------------
# Group actions.
# ---------------------------------------------------------------------------


def _act_on_species(psi: MultiState, species_index: int, matrix: np.ndarray) -> MultiState:
    shape = psi.shape
    k_i, n_i = shape.species[species_index]
    if matrix.shape != (n_i, n_i):
        raise ShapeError(
            f"species {species_index + 1} needs a {n_i}x{n_i} matrix, "
            f"got {matrix.shape}"
        )
    local = shape.local_keys(species_index + 1)
    position = {key: j for j, key in enumerate(local)}
    contexts: dict = {}
    for key, value in psi.amplitudes.items():
        ctx = key[:species_index] + key[species_index + 1 :]
        vec = contexts.setdefault(ctx, np.zeros(len(local), dtype=complex))
        vec[position[key[species_index]]] += value
    columns = np.array(list(contexts.values())).reshape(len(contexts), len(local))
    moved = _compound_columns(matrix, columns.T, k_i)
    amp: dict = {}
    for ctx, out in zip(contexts, moved.T):
        for j, value in enumerate(out):
            if value != 0:
                amp[ctx[:species_index] + (local[j],) + ctx[species_index:]] = value
    return MultiState(shape, amp)


def _act_boson2q(b: np.ndarray, g_qubit: np.ndarray, g_boson: np.ndarray) -> np.ndarray:
    tensor = np.empty((2, 2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            tensor[:, j, k] = b[:, j + k]
    moved = np.einsum("ia,jb,kc,abc->ijk", g_qubit, g_boson, g_boson, tensor)
    out = np.empty((2, 3), dtype=complex)
    out[:, 0] = moved[:, 0, 0]
    out[:, 1] = 0.5 * (moved[:, 0, 1] + moved[:, 1, 0])
    out[:, 2] = moved[:, 1, 1]
    return out


def _act_boson3(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    tensor = np.empty((2, 2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            for l in range(2):
                tensor[j, k, l] = c[j + k + l]
    moved = np.einsum("ia,jb,kc,abc->ijk", g, g, g, tensor)
    out = np.empty(4, dtype=complex)
    out[0] = moved[0, 0, 0]
    out[1] = (moved[1, 0, 0] + moved[0, 1, 0] + moved[0, 0, 1]) / 3.0
    out[2] = (moved[0, 1, 1] + moved[1, 0, 1] + moved[1, 1, 0]) / 3.0
    out[3] = moved[1, 1, 1]
    return out


def slocc_act(state, element, system: Optional[str] = None):
    """Apply a SLOCC group element; the result has the input's format.

    Dispatch is by state type and array shape; ``system`` is an optional
    consistency tag.  Plain fermionic states take one matrix, composite
    states one matrix per distinguishable factor, bosonic factors a
    single matrix reused on every symmetric slot.
    """
    if not isinstance(element, GroupElement):
        element = GroupElement(element)
    mats = element.matrices

    def need(count: int, kind: str):
        if len(mats) != count:
            raise ShapeError(f"{kind} takes {count} matrix(es), got {len(mats)}")

    if isinstance(state, FermionState):
        if system not in (None, "fermion"):
            raise ShapeError(f"FermionState input contradicts system {system!r}")
        need(1, "a fermionic state")
        return apply_matrix(state, mats[0])
    if isinstance(state, MultiState):
        if system not in (None, "multi"):
            raise ShapeError(f"MultiState input contradicts system {system!r}")
        need(state.shape.num_species, "a multi-species state")
        current = state
        for index, matrix in enumerate(mats):
            current = _act_on_species(current, index, matrix)
        return current

    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2, 2, 2):
        inferred = "qubit3"
    elif arr.shape == (2, 3):
        inferred = "boson2q"
    elif arr.shape == (4,):
        inferred = "boson3"
    elif arr.shape in ((2, 6), (2, 4, 4)):
        inferred = "qubit_fermion4"
    else:
        raise ShapeError(f"no system has amplitude shape {arr.shape}")
    if system not in (None, inferred):
        raise ShapeError(f"shape {arr.shape} contradicts system {system!r}")

    if inferred == "qubit3":
        need(3, "a three-qubit state")
        return np.einsum("ia,jb,kc,abc->ijk", mats[0], mats[1], mats[2], arr)
    if inferred == "boson2q":
        need(2, "a qubit + two-boson state")
        if mats[0].shape != (2, 2) or mats[1].shape != (2, 2):
            raise ShapeError("qubit + two-boson actions use two 2x2 matrices")
        return _act_boson2q(arr, mats[0], mats[1])
    if inferred == "boson3":
        need(1, "a three-boson state")
        if mats[0].shape != (2, 2):
            raise ShapeError("three-boson actions use one 2x2 matrix")
        return _act_boson3(arr, mats[0])
    need(2, "a qubit + two-fermion state")
    if mats[0].shape != (2, 2) or mats[1].shape != (4, 4):
        raise ShapeError("qubit + two-fermion actions use a 2x2 and a 4x4 matrix")
    packed = pack_antisymmetric_pair(arr)
    moved = mats[0] @ _compound_columns(mats[1], packed.T, 2).T
    if arr.shape == (2, 4, 4):
        full = np.zeros((2, 4, 4), dtype=complex)
        for (j, k), column in _PAIR_COLUMN.items():
            full[:, j, k] = moved[:, column]
            full[:, k, j] = -moved[:, column]
        return full
    return moved


def _matrix_sizes(system: str, shape=None) -> tuple[int, ...]:
    if system == "fermion":
        n = 6 if shape is None else int(shape[1])
        return (n,)
    if system == "multi":
        if shape is None:
            raise ShapeError("system 'multi' needs an explicit species shape")
        species = shape.species if isinstance(shape, SystemShape) else tuple(shape)
        return tuple(int(n) for _, n in species)
    return {
        "qubit3": (2, 2, 2),
        "boson2q": (2, 2),
        "boson3": (2,),
        "qubit_fermion4": (2, 4),
    }[system]


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
    if system not in SYSTEMS:
        raise ShapeError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    rng = np.random.default_rng(seed)
    mats = []
    for n in _matrix_sizes(system, shape):
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


def random_state(system: str, seed, shape=None):
    """Draw a random state of the system, normalized in its convention.

    Amplitudes are i.i.d. complex standard normal; bosonic systems are
    normalized in their weighted (symmetric-monomial) norms, everything
    else in the plain Euclidean norm.  Deterministic in ``seed``.
    """
    if system not in SYSTEMS:
        raise ShapeError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if system == "qubit3":
        arr = draw((2, 2, 2))
        return arr / np.linalg.norm(arr)
    if system == "boson2q":
        arr = draw((2, 3))
        return arr / math.sqrt(float(np.sum(_BOSON2Q_WEIGHTS * np.abs(arr) ** 2)))
    if system == "boson3":
        arr = draw(4)
        return arr / math.sqrt(float(np.sum(_BOSON3_WEIGHTS * np.abs(arr) ** 2)))
    if system == "qubit_fermion4":
        arr = draw((2, 6))
        return arr / np.linalg.norm(arr)
    if system == "fermion":
        k, n = (3, 6) if shape is None else (int(shape[0]), int(shape[1]))
        amp = {
            key: complex(rng.normal(), rng.normal())
            for key in itertools.combinations(range(1, n + 1), k)
        }
        psi = FermionState(k, n, amp)
        return (1.0 / psi.norm()) * psi
    # system == "multi"
    if shape is None:
        raise ShapeError("system 'multi' needs an explicit species shape")
    sys_shape = shape if isinstance(shape, SystemShape) else SystemShape(tuple(shape))
    keys = itertools.product(
        *(sys_shape.local_keys(i) for i in range(1, sys_shape.num_species + 1))
    )
    amp = {key: complex(rng.normal(), rng.normal()) for key in keys}
    psi = MultiState(sys_shape, amp)
    return (1.0 / psi.norm()) * psi
