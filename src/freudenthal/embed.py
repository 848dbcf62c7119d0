"""Embeddings of composite quantum systems into a single fermionic state.

Two layers live here.

The general layer handles any mixture of fermionic species: ``MultiState``
stores a state of N species (k_i particles in n_i modes each) as one
read-only complex tensor, axis i over the C(n_i, k_i) lex-ordered local
keys of species i, and ``merge_species`` maps it isometrically into the
(sum k_i)-th wedge power of the direct-sum mode space by shifting each
species' modes past the previous blocks, one scatter of the tensor.  A
state is a tensor product of per-species decomposable factors exactly
when its merged image is decomposable (by the rank of its lift, or the
paper's Plücker relations): ``separability_via_embedding``.  That test
needs no merged state: a one-body operator between two species changes
both species' particle numbers, so the merged occupation matrix, and with
it M^H M for the merged lift M, is block-diagonal by species, and the
merged lift's singular values are the union of each species' own lift
spectrum on the native tensor (``_union_ratio``, which the classifier
uses).  One kernel, ``_spectra``, takes the singular values of a list of
matrices with one stacked SVD per shape; the rank-one test of each
flattening of the dense tensor is read off them, for every one-vs-rest
cut of all-qubit shapes (``qubit_separability_direct``), any grouping of
the species (``factors_across_cut``) and the classifier's cut scan, at
most MAX_CUTS cuts.  The one-particle reduced density matrix of the
merged state is the weighted direct sum of the per-species ones
(``embedded_rdm_blocks`` / ``rdm_direct_sum``).

The specific layer maps the four distinguishable-constituent systems tied
to the triple-system classification — three qubits, a qubit with two
bosonic qubits, three bosonic qubits, and a qubit with two fermions in
four modes — onto triple-system coordinates over the 3 x 3 matrices and
(where meaningful) onto three-fermion states, together with the inclusion
maps of the subspace chain

    boson3 -> boson2q -> three qubits -> qubit + fermion pair.

Each of these maps is one signed gather (``fermion._signed_table``):
every native amplitude lands, with a sign, in one of the 20 coordinates
or one of the 20 three-fermion amplitudes, and one finiteness check covers
the result.  Bosonic amplitudes are occupation coefficients with weighted
norms (a doubled weight on the mixed two-boson slot; weight three on the
single- and double-excitation slots of three bosons); the maps warn, but
do not fail, when asked to check the norm of unnormalized input.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fermion import (
    DEFAULT_TOL,
    NORM_CHECK_TOL,
    FermionState,
    ShapeError,
    _combos,
    _dimension,
    _key_index,
    _key_position,
    _ArrayState,
    _lex_rank,
    _lift,
    _rdm_numerator,
    _signed_gather,
    _signed_table,
    _store,
    _wedge_table,
    is_decomposable,
    one_particle_rdm,
    sort_sign,
)
from .jordan import AlgebraKind
from .triple import FreudenthalVector, _binary_scaled

__all__ = [
    "MAX_CUTS",
    "SystemShape",
    "MultiState",
    "NormalizationWarning",
    "merge_species",
    "multistate_from_tensor",
    "tensor_from_multistate",
    "separability_via_embedding",
    "qubit_separability_direct",
    "species_rdm",
    "embedded_rdm_blocks",
    "rdm_direct_sum",
    "factors_across_cut",
    "bipartitions",
    "three_qubit_to_freudenthal",
    "three_qubit_to_fermion",
    "boson2q_to_freudenthal",
    "boson3_to_freudenthal",
    "qubit_fermion4_to_freudenthal",
    "qubit_fermion4_to_fermion",
    "pack_antisymmetric_pair",
    "boson3_to_boson2q",
    "boson2q_to_three_qubit",
    "three_qubit_to_qubit_fermion4",
]

LocalKey = tuple[int, ...]
MultiKey = tuple[LocalKey, ...]
Cut = tuple[tuple[int, ...], tuple[int, ...]]

# Most bipartitions a cut scan may test: N species have 2^(N-1) - 1, so
# twelve species (2047 cuts) fit and thirteen do not.  Species of shape
# (1, 1) have dimension 1 and pass MAX_DIMENSION at any count; this bounds
# their scan.
MAX_CUTS = 2**11 - 1


class NormalizationWarning(UserWarning):
    """Input expected to be normalized under its weighted convention is not."""


@dataclass(frozen=True)
class SystemShape:
    """Species list for a composite fermionic system: (k_i, n_i) per species.
    The merged wedge power, of dimension C(sum n_i, sum k_i), may not exceed
    MAX_DIMENSION (ShapeError)."""

    species: tuple[tuple[int, int], ...]

    def __post_init__(self):
        species = tuple((int(k), int(n)) for k, n in self.species)
        if not species:
            raise ShapeError("shape needs at least one species")
        for k, n in species:
            if k < 1 or n < k:
                raise ShapeError(f"invalid species shape (k={k}, n={n})")
        object.__setattr__(self, "species", species)
        _dimension(self.total_particles, self.total_modes)

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def total_particles(self) -> int:
        return sum(k for k, _ in self.species)

    @property
    def total_modes(self) -> int:
        return sum(n for _, n in self.species)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for _, n in self.species:
            out.append(acc)
            acc += n
        return tuple(out)

    def local_keys(self, species: int) -> list[LocalKey]:
        """All sorted k_i-subsets of the given species' modes (1-based index)."""
        k, n = self.species[species - 1]
        return list(itertools.combinations(range(1, n + 1), k))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(math.comb(n, k) for k, n in self.species)


class MultiState(_ArrayState):
    """Immutable state of several fermionic species: one read-only complex
    tensor, axis i over the lex-ordered local keys of species i.

    Amplitudes are keyed by one sorted mode tuple per species, each local
    and 1-based; the key ((1,), (2, 3)) means the first species' particle
    in its mode 1 and the second species' pair in its modes 2 and 3.
    """

    __slots__ = ("shape", "_array")

    def __init__(self, shape: SystemShape, amplitudes: Mapping[MultiKey, complex]):
        if not isinstance(shape, SystemShape):
            shape = SystemShape(tuple(shape))
        array = np.zeros(shape.dims, dtype=complex)
        for key, value in amplitudes.items():
            if len(key) != shape.num_species:
                raise ShapeError(f"key {key} has {len(key)} parts, expected "
                                 f"{shape.num_species}")
            array[tuple(
                _key_position(part, k, n) for part, (k, n) in zip(key, shape.species)
            )] = complex(value)
        self._fill(shape, array)

    def _fill(self, shape: SystemShape, array: np.ndarray) -> "MultiState":
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_array", _store(array))
        return self

    @classmethod
    def _wrap(cls, shape: SystemShape, array: np.ndarray) -> "MultiState":
        """The state with amplitude tensor ``array`` (of shape ``shape.dims``),
        stored by fermion._store."""
        return object.__new__(cls)._fill(shape, array)

    def _like(self, array: np.ndarray) -> "MultiState":
        return MultiState._wrap(self.shape, array)

    @classmethod
    def from_terms(
        cls,
        shape: SystemShape | Sequence[tuple[int, int]],
        terms: Iterable[tuple[Sequence[Sequence[int]], complex]],
    ) -> "MultiState":
        """Build from terms whose per-species mode sequences may be unsorted;
        parity signs fold in per species and repeated terms accumulate."""
        amp: dict[MultiKey, complex] = {}
        for parts, value in terms:
            sign = 1
            key = []
            for part in parts:
                s, sorted_part = sort_sign(tuple(part))
                sign *= s
                key.append(sorted_part)
            if sign == 0:
                continue
            key = tuple(key)
            amp[key] = amp.get(key, 0.0) + sign * complex(value)
        return cls(shape, amp)

    @property
    def amplitudes(self) -> Mapping[MultiKey, complex]:
        """The nonzero amplitudes in key order, as a read-only mapping built
        on each access."""
        nonzero = np.nonzero(self._array)
        parts = [
            map(tuple, (_combos(n, k)[i] + 1).tolist())
            for (k, n), i in zip(self.shape.species, nonzero)
        ]
        return MappingProxyType(dict(zip(zip(*parts), self._array[nonzero].tolist())))

    def amplitude(self, key: Sequence[Sequence[int]]) -> complex:
        if len(key) != self.shape.num_species:
            return 0.0
        sign = 1
        index = []
        for part, (k, n) in zip(key, self.shape.species):
            s, sorted_part = sort_sign(tuple(part))
            sign *= s
            index.append(_key_index(k, n).get(sorted_part))
        if sign == 0 or None in index:
            return 0.0
        return sign * complex(self._array[tuple(index)])

    def __repr__(self) -> str:
        parts = ", ".join(f"{key}: {value:.6g}" for key, value in self.amplitudes.items())
        return f"MultiState(shape={self.shape.species}, {{{parts}}})"


# -- the merging isometries ----------------------------------------------------


@lru_cache(maxsize=32)
def _merge_index(shape: SystemShape) -> np.ndarray:
    """Lex index in the merged wedge power of each entry (in C order) of a
    species tensor: the entry's local keys, shifted past the preceding
    blocks, concatenate to its merged key, already sorted."""
    local = np.indices(shape.dims).reshape(shape.num_species, -1)
    keys = np.concatenate(
        [
            _combos(n, k)[i] + offset
            for (k, n), offset, i in zip(shape.species, shape.offsets, local)
        ],
        axis=1,
    )
    index = _lex_rank(keys, shape.total_modes)
    index.setflags(write=False)
    return index


def merge_species(psi: MultiState) -> FermionState:
    """Map each key (S_1, ..., S_N) to the union of the S_i shifted past the
    preceding species' blocks, keeping the amplitude.  Blocks are disjoint
    and ordered, so the global key is already sorted and no parity signs
    arise; the map is linear and norm-preserving, one scatter of the
    tensor through _merge_index."""
    shape = psi.shape
    array = np.zeros(math.comb(shape.total_modes, shape.total_particles), dtype=complex)
    array[_merge_index(shape)] = psi._array.reshape(-1)
    return FermionState._wrap(shape.total_particles, shape.total_modes, array)


def multistate_from_tensor(tensor: np.ndarray) -> MultiState:
    """All-qudit MultiState from a dense amplitude tensor (one axis per
    qudit, 0-based states)."""
    tensor = np.asarray(tensor, dtype=complex)
    if tensor.ndim == 0:
        raise ShapeError("tensor must have at least one axis")
    return MultiState._wrap(SystemShape(tuple((1, n) for n in tensor.shape)), tensor)


def tensor_from_multistate(psi: MultiState) -> np.ndarray:
    """The state's read-only amplitude tensor: axis i runs over the
    C(n_i, k_i) lex-ordered local keys of species i, so it inverts
    multistate_from_tensor on all-qudit shapes."""
    return psi._array


# -- separability --------------------------------------------------------------


def separability_via_embedding(psi: MultiState, tol: float = DEFAULT_TOL) -> bool:
    """True iff psi is a tensor product of per-species decomposable factors:
    ``is_decomposable`` (lift rank) of the merged fermionic image."""
    if psi.is_zero():
        raise ValueError("zero state has no separability verdict")
    return is_decomposable(merge_species(psi), tol)


def _spectra(matrices: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The singular values, descending, of each matrix: each is oriented
    with rows <= columns, and those of one shape share one stacked
    ``np.linalg.svd(..., compute_uv=False)``.  Every rank-one test of a cut
    and every species' lift spectrum in ``_union_ratio`` is read from here."""
    groups: dict[tuple[int, ...], tuple[list[int], list[np.ndarray]]] = {}
    for i, m in enumerate(matrices):
        if m.shape[0] > m.shape[1]:
            m = m.T
        members, stack = groups.setdefault(m.shape, ([], []))
        members.append(i)
        stack.append(m)
    out: list[np.ndarray] = [None] * len(matrices)
    for members, stack in groups.values():
        for i, sing in zip(members, np.linalg.svd(np.array(stack), compute_uv=False)):
            out[i] = sing
    return out


def _is_rank_one(sing: np.ndarray, cutoff: float) -> bool:
    """Rank-one test of a d_L x d_R flattening from its singular values
    (``_spectra``): sigma_1 sigma_2 <= cutoff (true when min(d_L, d_R) < 2).
    The 2 x 2 minors are the entries of the second compound, whose norm is
    sigma_1 sigma_2, so max|2x2 minor| <= sigma_1 sigma_2 <=
    sqrt(C(d_L, 2) C(d_R, 2)) max|2x2 minor|: against tol * ||psi||^2 this
    is never looser than the minors' (Plücker) test."""
    return len(sing) < 2 or bool(sing[0] * sing[1] <= cutoff)


def _factoring(
    tensor: np.ndarray,
    cuts: Sequence[Cut],
    cutoff: float,
    known: Mapping[Cut, np.ndarray] | None = None,
) -> tuple[Cut, ...]:
    """The cuts (left, right), in the order of ``cuts``, across which
    ``tensor`` has rank one by _is_rank_one: each flattening's spectrum is
    taken from ``known`` where it is there and from one _spectra call
    otherwise."""
    spectra = dict(known or {})
    missing = [cut for cut in cuts if cut not in spectra]
    spectra.update(zip(missing, _spectra([_flattening(tensor, *cut) for cut in missing])))
    return tuple(cut for cut in cuts if _is_rank_one(spectra[cut], cutoff))


def _cutoff(tensor: np.ndarray, tol: float) -> float:
    """tol * ||tensor||^2, the threshold of every cut test of a tensor."""
    return tol * np.vdot(tensor, tensor).real


def qubit_separability_direct(psi: MultiState, tol: float = DEFAULT_TOL) -> bool:
    """Separability for all-qubit shapes straight from the amplitudes: every
    one-vs-rest flattening (qubit j against the rest) passes _is_rank_one
    against tol * ||psi||^2, on psi divided exactly by a power of two
    (``triple._binary_scaled``).  Must agree with the embedding route."""
    if any(sp != (1, 2) for sp in psi.shape.species):
        raise ShapeError("the direct criterion applies to qubit shapes only")
    if psi.is_zero():
        raise ValueError("zero state has no separability verdict")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    tensor = _binary_scaled(psi._array)
    species = range(1, tensor.ndim + 1)
    cuts = [((j,), tuple(i for i in species if i != j)) for j in species]
    return len(_factoring(tensor, cuts, _cutoff(tensor, tol))) == len(cuts)


def bipartitions(num_species: int) -> list[Cut]:
    """All proper two-block partitions of species 1..N, each as
    (smaller-or-lexicographically-first side, complement): 2^(N-1) - 1 of
    them, at most MAX_CUTS (ShapeError before any is built)."""
    return list(_cut_list(num_species))


@lru_cache(maxsize=None)
def _cut_list(num_species: int) -> tuple[Cut, ...]:
    """bipartitions(num_species) as a tuple, built once per species count."""
    count = 2 ** (num_species - 1) - 1
    if count > MAX_CUTS:
        raise ShapeError(
            f"{num_species} species have {count} bipartitions, "
            f"more than MAX_CUTS = {MAX_CUTS}"
        )
    species = tuple(range(1, num_species + 1))
    out = []
    for size in range(1, num_species // 2 + 1):
        for left in itertools.combinations(species, size):
            right = tuple(m for m in species if m not in left)
            if len(left) == len(right) and left > right:
                continue
            out.append((left, right))
    return tuple(out)


def factors_across_cut(
    psi: MultiState, left: Sequence[int], tol: float = DEFAULT_TOL
) -> bool:
    """True iff psi factors as (state of the `left` species) tensor (state
    of the rest), with both factors arbitrary — entangled factors allowed:
    the flattening with the `left` axes as rows passes _is_rank_one
    against tol * ||psi||^2, on psi divided exactly by a power of two."""
    if psi.is_zero():
        raise ValueError("zero state has no factorization verdict")
    left = tuple(sorted(set(int(i) for i in left)))
    all_species = range(1, psi.shape.num_species + 1)
    if not left or any(i not in all_species for i in left):
        raise ShapeError(f"cut {left} is not a nonempty proper subset of "
                         f"species 1..{psi.shape.num_species}")
    right = tuple(i for i in all_species if i not in left)
    if not right:
        raise ShapeError("cut must leave at least one species on each side")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    tensor = _binary_scaled(psi._array)
    return bool(_factoring(tensor, [(left, right)], _cutoff(tensor, tol)))


def _flattening(
    tensor: np.ndarray, left: tuple[int, ...], right: tuple[int, ...]
) -> np.ndarray:
    """The matrix of a dense tensor with the (1-based) ``left`` axes as
    rows and the ``right`` axes as columns."""
    rows = math.prod(tensor.shape[i - 1] for i in left)
    return tensor.transpose([i - 1 for i in left + right]).reshape(rows, -1)


# -- the merged test on the native tensor --------------------------------------


@dataclass(frozen=True)
class _SpeciesPlan:
    """How the merged decomposability test and the cut scan read the native
    tensor of one shape.  ``holes``: the merged test reads the Hodge dual
    (N < 2K < 2N), so every species axis is reversed; ``degree`` is the
    degree j of the form it decides (K, or N - K on holes) and ``degrees``
    the j_i per species; ``cuts`` are the bipartitions; ``own`` maps each
    cut with a species of j_i = 1 alone on one side to that species' axis,
    whose lift is the transposed flattening of the cut; ``wedge`` says
    whether ``wedge_power_norm`` applies (K even, N % K == 0)."""

    species: tuple[tuple[int, int], ...]
    holes: bool
    degree: int
    degrees: tuple[int, ...]
    cuts: tuple[Cut, ...]
    own: tuple[tuple[Cut, int], ...]
    wedge: bool


@lru_cache(maxsize=32)
def _species_plan(shape: SystemShape) -> _SpeciesPlan:
    k, n = shape.total_particles, shape.total_modes
    holes = n < 2 * k < 2 * n
    degrees = tuple(n_i - k_i if holes else k_i for k_i, n_i in shape.species)
    cuts = _cut_list(shape.num_species)
    own: dict[Cut, int] = {}
    for cut in cuts:
        for side in cut:
            if len(side) == 1 and degrees[side[0] - 1] == 1:
                own.setdefault(cut, side[0] - 1)
    return _SpeciesPlan(
        shape.species, holes, n - k if holes else k, degrees, cuts,
        tuple(own.items()), k % 2 == 0 and n % k == 0,
    )


def _union_ratio(
    tensor: np.ndarray, plan: _SpeciesPlan, tol: float
) -> tuple[float, dict[Cut, np.ndarray]]:
    """``decomposability_ratio`` of the merged image of the nonzero species
    tensor ``tensor``, without building it, and the spectra of the cuts in
    ``plan.own``.  By the block-diagonal argument of the module docstring
    the merged lift's singular values are the union of the species' own
    lifts' (``fermion._lift`` of species axis i, the other axes as extra
    rows: C(n_i, j_i - 1) R_i x n_i), all from one _spectra call.  The
    merged Hodge dual is the merge of the species' duals, each axis
    reversed.  A species with j_i = 0 contributes n_i zeros, and one with
    j_i = 1 has the transposed (i | rest) flattening as its lift.  The ratio
    is s_j / (tol s_0) over the sorted union, zero-padded to N values."""
    if plan.holes:
        tensor = tensor[(slice(None, None, -1),) * tensor.ndim]
    axes, matrices = [], []
    for axis, (j, (_, n)) in enumerate(zip(plan.degrees, plan.species)):
        if j == 0:
            continue
        rest = tuple(i for i in range(1, tensor.ndim + 1) if i != axis + 1)
        columns = _flattening(tensor, (axis + 1,), rest)
        if j > 1:
            columns = _lift(columns, j, n).transpose(0, 2, 1).reshape(-1, n)
        axes.append(axis)
        matrices.append(columns)
    spectra = dict(zip(axes, _spectra(matrices)))
    union = np.sort(np.concatenate(list(spectra.values())))[::-1]
    j = plan.degree
    ratio = float(union[j] / (tol * union[0])) if len(union) > j else 0.0
    return ratio, {cut: spectra[axis] for cut, axis in plan.own}


# -- reduced density matrices --------------------------------------------------


def species_rdm(psi: MultiState, species: int) -> np.ndarray:
    """One-particle reduced density matrix of the given species (1-based):
    the other species are traced out first, then all but one particle of
    the chosen species, one lift of the tensor with that species' axis in
    front.  Trace 1; requires a normalized state."""
    if not 1 <= species <= psi.shape.num_species:
        raise ShapeError(f"no species {species} in shape {psi.shape.species}")
    if abs(psi.norm() - 1.0) > NORM_CHECK_TOL:
        raise ValueError("reduced density matrix requires a normalized state")
    k_i, n_i = psi.shape.species[species - 1]
    columns = np.moveaxis(psi._array, species - 1, 0).reshape(math.comb(n_i, k_i), -1)
    return _rdm_numerator(columns, k_i, n_i) / k_i


def embedded_rdm_blocks(
    psi: MultiState,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The one-particle reduced density matrix of the merged fermionic
    image, alongside the per-species ones computed by direct partial
    trace.  The former equals the direct sum of the latter weighted by
    k_i / k — the identity rdm_direct_sum assembles."""
    rho = one_particle_rdm(merge_species(psi))
    blocks = [
        species_rdm(psi, i) for i in range(1, psi.shape.num_species + 1)
    ]
    return rho, blocks


def rdm_direct_sum(shape: SystemShape, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble the block-diagonal matrix with species block i scaled by
    k_i / k."""
    if len(blocks) != shape.num_species:
        raise ShapeError(f"expected {shape.num_species} blocks, got {len(blocks)}")
    k = shape.total_particles
    out = np.zeros((shape.total_modes, shape.total_modes), dtype=complex)
    for (k_i, n_i), offset, block in zip(shape.species, shape.offsets, blocks):
        block = np.asarray(block, dtype=complex)
        if block.shape != (n_i, n_i):
            raise ShapeError(f"block shape {block.shape} does not match "
                             f"species modes {n_i}")
        out[offset : offset + n_i, offset : offset + n_i] = (k_i / k) * block
    return out


# -- the four triple-system coordinate maps ------------------------------------
#
# Mode conventions for the three-fermion images: a qubit at chain position
# p occupies modes (p, p + 3); the four fermion modes of the qubit+pair
# system sit at (2, 3, 5, 6).

_FERMION4_MODES = (2, 3, 5, 6)
_PAIR_SLOTS = tuple(itertools.combinations(range(4), 2))
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIR_SLOTS)}
_PAIR_FLAT = np.array([4 * j + k for j, k in _PAIR_SLOTS])  # in a flat 4 x 4 block
# Norm weights of the canonical bosonic arrays (rows of (2, 3) broadcast).
_BOSON2Q_WEIGHTS = np.array([1.0, 2.0, 1.0])
_BOSON3_WEIGHTS = np.array([1.0, 3.0, 3.0, 1.0])


def _diagonal_table(size: int, slot) -> np.ndarray:
    """Image table of a system whose three-qubit basis state (i, j, k) sits
    at flat position slot(i, j, k): |000> and |111> fill alpha and beta, the
    state with qubit p alone at 0 (alone at 1) the diagonal entry p of A (B)."""
    entries = {0: (slot(0, 0, 0), 1), 1: (slot(1, 1, 1), 1)}
    for p, bits in enumerate(((0, 1, 1), (1, 0, 1), (1, 1, 0))):
        entries[2 + 4 * p] = (slot(*bits), 1)
        entries[11 + 4 * p] = (slot(*(1 - bit for bit in bits)), 1)
    return _signed_table(size, entries)


_QUBIT3_TABLE = _diagonal_table(8, lambda i, j, k: 4 * i + 2 * j + k)
# The bosonic amplitudes count excitations: b[i, j + k] and c[i + j + k].
_BOSON2Q_TABLE = _diagonal_table(6, lambda i, j, k: 3 * i + j + k)
_BOSON3_TABLE = _diagonal_table(4, lambda i, j, k: i + j + k)
# Coordinate c <- the amplitude of qubit state i with the fermion pair (j, k),
# read from the packed slot of the sorted pair with the wedge sign; the
# matrix slots are block diagonal (1 + 2).
_QF4_TABLE = _signed_table(12, {
    c: (6 * i + _PAIR_INDEX[min(j, k), max(j, k)], 1 if j < k else -1)
    for c, (i, j, k) in {0: (0, 0, 1), 1: (1, 2, 3), 2: (0, 2, 3), 6: (1, 0, 3),
                         7: (1, 2, 0), 9: (1, 1, 3), 10: (1, 2, 1), 11: (1, 0, 1),
                         15: (0, 2, 1), 16: (0, 0, 2), 18: (0, 3, 1), 19: (0, 0, 3)}.items()
})
# The images in the dense (3, 6) amplitudes, in the mode conventions above.
_QUBIT3_FERMION_TABLE = _wedge_table(
    8, [(1 + 3 * i, 2 + 3 * j, 3 + 3 * k) for i, j, k in np.ndindex(2, 2, 2)])
_QF4_FERMION_TABLE = _wedge_table(12, [
    (1 + 3 * i, _FERMION4_MODES[j], _FERMION4_MODES[k])
    for i in range(2) for j, k in _PAIR_SLOTS
])


def _image(flat: np.ndarray, table: np.ndarray) -> FreudenthalVector:
    return FreudenthalVector._trusted(AlgebraKind.J3, _signed_gather(flat, table))


def _as_qubit_cube(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2, 2):
        raise ShapeError(f"expected a 2x2x2 amplitude array, got {a.shape}")
    return a


def three_qubit_to_freudenthal(a: np.ndarray) -> FreudenthalVector:
    """Triple-system coordinates of a three-qubit state: the all-zeros and
    all-ones amplitudes fill the scalar slots, the weight-two and
    weight-one amplitudes the two diagonal matrix slots."""
    return _image(_as_qubit_cube(a), _QUBIT3_TABLE)


def three_qubit_to_fermion(a: np.ndarray) -> FermionState:
    """Three-fermion image of a three-qubit state: qubit p in state s
    occupies mode p + 3s, so basis states map to wedge triples with
    parity folded into sorted keys."""
    dense = _signed_gather(_as_qubit_cube(a), _QUBIT3_FERMION_TABLE)
    return FermionState._wrap(3, 6, dense)


def _check_weighted_norm(arr: np.ndarray, weights: np.ndarray, what: str) -> None:
    value = float(np.sum(weights * np.abs(arr) ** 2))
    if abs(value - 1.0) > NORM_CHECK_TOL:
        warnings.warn(
            f"{what} has weighted norm {value:.6g}, expected 1",
            NormalizationWarning,
            stacklevel=3,
        )


def boson2q_to_freudenthal(
    b: np.ndarray, check_norm: bool = True
) -> FreudenthalVector:
    """Triple-system coordinates of a qubit with two bosonic qubits.
    b[i, j] is the amplitude for qubit state i with j bosons excited; the
    mixed occupation j=1 carries weight two in the norm."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (2, 3):
        raise ShapeError(f"expected a 2x3 amplitude array, got {b.shape}")
    if check_norm:
        _check_weighted_norm(b, _BOSON2Q_WEIGHTS, "qubit + two-boson state")
    return _image(b, _BOSON2Q_TABLE)


def boson3_to_freudenthal(
    c: np.ndarray, check_norm: bool = True
) -> FreudenthalVector:
    """Triple-system coordinates of three bosonic qubits.  c[w] is the
    amplitude for w excitations; w = 1, 2 carry weight three in the norm.
    The matrix slots are scalar multiples of the identity."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (4,):
        raise ShapeError(f"expected 4 amplitudes, got shape {c.shape}")
    if check_norm:
        _check_weighted_norm(c, _BOSON3_WEIGHTS, "three-boson state")
    return _image(c, _BOSON3_TABLE)


def pack_antisymmetric_pair(d: np.ndarray) -> np.ndarray:
    """Canonical 2x6 form of qubit + fermion-pair amplitudes: columns are
    the ordered mode pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
    Accepts either that form or a full 2x4x4 array antisymmetric in the
    pair indices: rejected when |d + d^T| exceeds 1e-12 times the largest
    |d| anywhere, a test of degree 0."""
    d = np.asarray(d, dtype=complex)
    if d.shape == (2, 6):
        return d.copy()
    if d.shape != (2, 4, 4):
        raise ShapeError(
            f"expected a 2x6 or antisymmetric 2x4x4 array, got {d.shape}"
        )
    if np.abs(d + d.transpose(0, 2, 1)).max() > 1e-12 * np.abs(d).max():
        raise ValueError("pair amplitudes must be antisymmetric in the two "
                         "fermion indices")
    return d.reshape(2, 16)[:, _PAIR_FLAT]


def _unpack_antisymmetric_pair(packed: np.ndarray) -> np.ndarray:
    """The full antisymmetric 2x4x4 form of a packed 2x6 array."""
    full = np.zeros((2, 16), dtype=complex)
    full[:, _PAIR_FLAT] = packed
    full = full.reshape(2, 4, 4)
    return full - full.transpose(0, 2, 1)


def qubit_fermion4_to_freudenthal(d: np.ndarray) -> FreudenthalVector:
    """Triple-system coordinates of a qubit with two fermions in four
    modes.  The matrix slots are block diagonal (1 + 2), with the
    off-diagonal block entries read with the wedge sign of their pair."""
    return _image(pack_antisymmetric_pair(d), _QF4_TABLE)


def qubit_fermion4_to_fermion(d: np.ndarray) -> FermionState:
    """Three-fermion image of a qubit + fermion pair: qubit states go to
    modes 1 and 4, the four fermion modes to 2, 3, 5, 6."""
    dense = _signed_gather(pack_antisymmetric_pair(d), _QF4_FERMION_TABLE)
    return FermionState._wrap(3, 6, dense)


# -- the subspace chain ----------------------------------------------------------


def boson3_to_boson2q(c: np.ndarray) -> np.ndarray:
    """Inclusion of three bosonic qubits into qubit + two bosonic qubits:
    singling out one boson leaves b[i, j] = c[i + j]."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (4,):
        raise ShapeError(f"expected 4 amplitudes, got shape {c.shape}")
    return np.array([[c[0], c[1], c[2]], [c[1], c[2], c[3]]])


def boson2q_to_three_qubit(b: np.ndarray) -> np.ndarray:
    """Inclusion of qubit + two bosonic qubits into three qubits:
    a[i, j, k] = b[i, j + k] (the bosonic amplitudes are symmetric in the
    last two slots by construction)."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (2, 3):
        raise ShapeError(f"expected a 2x3 amplitude array, got {b.shape}")
    return b.take([[0, 1], [1, 2]], axis=1)  # C order: einsum rounds by layout


def three_qubit_to_qubit_fermion4(a: np.ndarray) -> np.ndarray:
    """Inclusion of three qubits into qubit + fermion pair: the second
    qubit's states become fermion modes 0 and 2, the third qubit's modes
    1 and 3, with the parity sign folded when the resulting pair is out
    of order."""
    a = _as_qubit_cube(a)
    packed = np.zeros((2, 6), dtype=complex)
    for j, k in np.ndindex(2, 2):
        mj, mk = 2 * j, 2 * k + 1
        sign = 1 if mj < mk else -1
        packed[:, _PAIR_INDEX[min(mj, mk), max(mj, mk)]] = sign * a[:, j, k]
    return packed
