"""Sparse exterior algebra for states of k fermions in n modes.

A state P in the k-th wedge power of C^n is stored as a dict from strictly
increasing mode tuples (1-based) to complex amplitudes over the normalized
wedge basis e_{i_1} ^ ... ^ e_{i_k}.  On top of the wedge arithmetic this
module provides

  * decomposability P = v_1 ^ ... ^ v_k, decided by the kernel rank of
    v -> v ^ P, and the equivalent quadratic Plücker relations, which give
    the witnesses and the independent cross-check,
  * the wedge-power invariant ||P ^ ... ^ P|| (d factors, for k even and
    n = d k), which vanishes on W-type states and not on GHZ-type ones,
  * the one-particle reduced density matrix rho with Tr rho = 1, and the
    idempotency defect of gamma = k rho (zero exactly on decomposable
    states),
  * the k-fold compound action of an n x n matrix, computed as iterated
    interior products of P by the matrix rows (Cauchy-Binet), and
  * for (k, n) = (3, 6) the coordinate bijection onto the Freudenthal
    triple system over the 3 x 3 matrix algebra, with modes 4, 5, 6
    playing the role of the barred partners of modes 1, 2, 3: one signed
    gather (``_signed_table``, ``_signed_gather``) from the dense amplitude
    vector to the 20 coordinates, and its inverse.

States are immutable; all functions are pure.  Amplitudes with magnitude
at most PRUNE_TOL are dropped after arithmetic.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jordan import AlgebraKind
from .triple import FreudenthalVector

__all__ = [
    "FermionState",
    "ShapeError",
    "PRUNE_TOL",
    "wedge",
    "wedge_of_vectors",
    "pluecker_relation",
    "pluecker_scan",
    "pluecker_violations",
    "is_decomposable",
    "wedge_power_norm",
    "one_particle_rdm",
    "idempotency_defect",
    "to_freudenthal",
    "from_freudenthal",
    "apply_matrix",
]

PRUNE_TOL = 1e-14
DEFAULT_TOL = 1e-8

Key = tuple[int, ...]


class ShapeError(ValueError):
    """Raised when a state or operand has the wrong shape for an operation."""


def sort_sign(seq: Sequence[int]) -> tuple[int, Key]:
    """Parity sign and sorted tuple for a mode sequence; sign 0 on repeats."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return 0, tuple(lst)
    return sign, tuple(lst)


class FermionState:
    """Immutable sparse element of the k-th wedge power of C^n."""

    __slots__ = ("k", "n", "_amp")

    def __init__(self, k: int, n: int, amplitudes: Mapping[Key, complex]):
        if not (isinstance(k, int) and isinstance(n, int)) or k < 1 or n < k:
            raise ShapeError(f"invalid shape k={k}, n={n}")
        amp: dict[Key, complex] = {}
        for key, value in amplitudes.items():
            key = tuple(int(m) for m in key)
            if len(key) != k:
                raise ShapeError(f"key {key} has length {len(key)}, expected {k}")
            if any(m < 1 or m > n for m in key):
                raise ShapeError(f"key {key} outside modes 1..{n}")
            if any(key[i] >= key[i + 1] for i in range(k - 1)):
                raise ShapeError(
                    f"key {key} is not strictly increasing; use from_terms for "
                    "unsorted mode sequences"
                )
            value = complex(value)
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise ValueError(f"non-finite amplitude at {key}")
            if value != 0.0:
                amp[key] = value
        self._fill(k, n, amp)

    def _fill(self, k: int, n: int, amp: dict[Key, complex]) -> "FermionState":
        for name, value in (("k", k), ("n", n), ("_amp", amp)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _trusted(cls, k: int, n: int, amp: dict[Key, complex]) -> "FermionState":
        """``amp`` unchecked: sorted in-range keys, finite nonzero values."""
        return object.__new__(cls)._fill(k, n, amp)

    def __setattr__(self, name, value):
        raise AttributeError("FermionState is immutable")

    @classmethod
    def from_terms(
        cls, k: int, n: int, terms: Iterable[tuple[Sequence[int], complex]]
    ) -> "FermionState":
        """Build from (mode sequence, amplitude) terms in any mode order;
        parity signs are folded in and repeated terms accumulate."""
        amp: dict[Key, complex] = {}
        for seq, value in terms:
            sign, key = sort_sign(seq)
            if sign == 0:
                continue
            amp[key] = amp.get(key, 0.0) + sign * complex(value)
        return cls(k, n, amp)

    @property
    def amplitudes(self) -> Mapping[Key, complex]:
        return MappingProxyType(self._amp)

    @property
    def shape(self) -> tuple[int, int]:
        """(k, n), the shape a state file or ``random_state`` names."""
        return (self.k, self.n)

    def amplitude(self, seq: Sequence[int]) -> complex:
        """Signed amplitude for an arbitrary-order mode sequence."""
        sign, key = sort_sign(seq)
        if sign == 0:
            return 0.0
        return sign * self._amp.get(key, 0.0)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self._amp.values())))

    def is_zero(self) -> bool:
        return not self._amp

    def prune(self, cutoff: float = PRUNE_TOL) -> "FermionState":
        return FermionState(
            self.k,
            self.n,
            {k: v for k, v in self._amp.items() if abs(v) > cutoff},
        )

    def __add__(self, other: "FermionState") -> "FermionState":
        if not isinstance(other, FermionState):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            raise ShapeError("states live in different wedge powers")
        amp = dict(self._amp)
        for key, value in other._amp.items():
            amp[key] = amp.get(key, 0.0) + value
        return FermionState(self.k, self.n, amp)

    def __sub__(self, other: "FermionState") -> "FermionState":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FermionState":
        s = complex(scalar)
        return FermionState(self.k, self.n, {k: s * v for k, v in self._amp.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{key}: {value:.6g}" for key, value in sorted(self._amp.items())
        )
        return f"FermionState(k={self.k}, n={self.n}, {{{parts}}})"


# -- dense index tables --------------------------------------------------------


@lru_cache(maxsize=32)
def _combos(n: int, j: int) -> np.ndarray:
    """The j-subsets of the 0-based modes range(n), one per row, in lex order."""
    out = np.array(list(itertools.combinations(range(n), j)), dtype=np.intp)
    out = out.reshape(math.comb(n, j), j)
    out.setflags(write=False)
    return out


def _lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Lex index among the j-subsets of range(n) of each sorted 0-based
    subset along the last axis: C(n, j) - 1 - sum_i C(n - 1 - s_i, j - i)."""
    j = subsets.shape[-1]
    binom = np.array([[math.comb(r, c) for c in range(j + 1)] for r in range(n)])
    return math.comb(n, j) - 1 - binom[n - 1 - subsets, np.arange(j, 0, -1)].sum(-1)


@lru_cache(maxsize=32)
def _shuffle_table(j: int, l: int, n: int) -> tuple[np.ndarray, ...]:
    """Index table of the exterior product of a j-form and an l-form on C^n.

    Row r is the r-th (j+l)-subset K in lex order; column c splits K into
    J = K at the c-th j-subset of positions and R = the rest, and holds the
    lex indices of J and R and the sign of e_J ^ e_R = sign * e_K, which is
    (-1)^sum_i (p_i - i) for the positions p_0 < ... < p_{j-1} of J."""
    positions = _combos(j + l, j)
    upper = _combos(n, j + l)
    first = _lex_rank(upper[:, positions], n)
    # Complements of the lex-ordered j-subsets are the l-subsets, reversed.
    second = _lex_rank(upper[:, _combos(j + l, l)[::-1]], n)
    crossings = positions.sum(axis=1) - j * (j - 1) // 2
    sign = (1 - 2 * (crossings % 2)).astype(np.int8)
    for table in (first, second, sign):
        table.setflags(write=False)
    return first, second, sign


def _lift(columns: np.ndarray, j: int, n: int) -> np.ndarray:
    """M[L, t] = (-1)^#{s in L : s < t} Y[L u {t}], zero for t in L, for the
    j-forms Y in ``columns`` (shape (C(n, j), ...)); L runs over the
    (j-1)-subsets.  The interior product iota_v Y is M @ v."""
    mode, rest, sign = _shuffle_table(1, j - 1, n)
    out = np.zeros((math.comb(n, j - 1), n) + columns.shape[1:], dtype=complex)
    sign = sign.reshape(sign.shape + (1,) * (columns.ndim - 1))
    out[rest, mode] = sign * columns[:, None]
    return out


@lru_cache(maxsize=32)
def _key_index(k: int, n: int) -> dict[Key, int]:
    return {
        key: i for i, key in enumerate(itertools.combinations(range(1, n + 1), k))
    }


def _dense_vector(P: FermionState) -> np.ndarray:
    """Amplitudes over the lex-ordered keys of P's shape."""
    index = _key_index(P.k, P.n)
    vec = np.zeros(len(index), dtype=complex)
    for key, value in P._amp.items():
        vec[index[key]] = value
    return vec


def _from_dense(
    k: int, n: int, vec: np.ndarray, cutoff: float = PRUNE_TOL
) -> FermionState:
    """Inverse of _dense_vector, dropping amplitudes at most ``cutoff``;
    every amplitude, dropped or not, must be finite."""
    if not np.isfinite(vec).all():
        raise ValueError("non-finite amplitude")
    kept = np.flatnonzero(np.abs(vec) > cutoff)
    keys = map(tuple, (_combos(n, k)[kept] + 1).tolist())
    return FermionState._trusted(k, n, dict(zip(keys, vec[kept].tolist())))


def wedge(u: FermionState, v: FermionState) -> FermionState:
    """Exterior product; result lives in the (k_u + k_v)-th wedge power."""
    if u.n != v.n:
        raise ShapeError("operands have different mode counts")
    k = u.k + v.k
    if k > u.n:
        raise ShapeError(f"wedge degree {k} exceeds mode count {u.n}")
    first, second, sign = _shuffle_table(u.k, v.k, u.n)
    out = (sign * _dense_vector(u)[first] * _dense_vector(v)[second]).sum(axis=1)
    return _from_dense(k, u.n, out)


def wedge_of_vectors(vectors: np.ndarray) -> FermionState:
    """Decomposable state v_1 ^ ... ^ v_k from the rows of a k x n array."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 2:
        raise ShapeError("expected a k x n array of row vectors")
    k, n = vectors.shape
    state = FermionState(1, n, {(m + 1,): vectors[0, m] for m in range(n)})
    for row in vectors[1:]:
        state = wedge(state, FermionState(1, n, {(m + 1,): row[m] for m in range(n)}))
    return state


# -- Plücker relations ---------------------------------------------------------


def pluecker_relation(P: FermionState, a: Sequence[int], b: Sequence[int]) -> complex:
    """The quadratic relation indexed by a (k-1)-subset and a (k+1)-subset:

        sum_j (-1)^(j-1) P[a, b_j] P[b \\ b_j]

    with signed amplitude lookups resolving unsorted or repeated indices."""
    a = tuple(int(m) for m in a)
    b = tuple(int(m) for m in b)
    if len(a) != P.k - 1 or len(b) != P.k + 1:
        raise ShapeError(
            f"index sets must have sizes {P.k - 1} and {P.k + 1}, "
            f"got {len(a)} and {len(b)}"
        )
    total = 0.0 + 0.0j
    for j, bj in enumerate(b):
        first = P.amplitude(a + (bj,))
        if first == 0.0:
            continue
        second = P.amplitude(b[:j] + b[j + 1 :])
        total += (-1) ** j * first * second
    return total


@lru_cache(maxsize=16)
def _scan_tables(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed index tables for the full relation scan at shape (k, n).

    Row r = a * C(n, k+1) + b pairs the a-th (k-1)-subset A with the b-th
    (k+1)-subset B (lex order, see _witness); summand j contributes
    sign[r, j] * P[first[r, j]] * P[second[r, j]] against a dense amplitude
    vector padded with a zero in slot 0 (used for summands killed by a
    repeated index).  Two shuffle tables give the terms: e_A ^ e_t =
    parity * e_{A u t} and e_{B_j} ^ e_{B \\ B_j} = (-1)^j e_B."""
    lower, single, parity = _shuffle_table(k - 1, 1, n)
    insert = np.zeros((math.comb(n, k - 1), n), dtype=np.intp)
    insert[lower, single] = np.arange(1, len(lower) + 1)[:, None]
    signed = np.zeros((math.comb(n, k - 1), n), dtype=np.int8)
    signed[lower, single] = parity
    mode, rest, alternating = _shuffle_table(1, k, n)
    first = insert[:, mode].reshape(-1, k + 1)
    second = np.where(insert[:, mode] != 0, rest + 1, 0).reshape(-1, k + 1)
    sign = (signed[:, mode] * alternating).reshape(-1, k + 1)
    for table in (first, second, sign):
        table.setflags(write=False)
    return first, second, sign


def _witness(k: int, n: int, r: int) -> tuple[Key, Key]:
    """The 1-based index pair (A, B) of relation row r of _scan_tables."""
    a, b = divmod(int(r), math.comb(n, k + 1))
    lower, upper = _combos(n, k - 1)[a].tolist(), _combos(n, k + 1)[b].tolist()
    return tuple(m + 1 for m in lower), tuple(m + 1 for m in upper)


def _relation_values(P: FermionState) -> np.ndarray:
    """All relation values at once via the cached tables."""
    first, second, sign = _scan_tables(P.k, P.n)
    vec = np.concatenate(([0.0], _dense_vector(P)))
    return (sign * vec[first] * vec[second]).sum(axis=1)


def pluecker_scan(P: FermionState) -> tuple[float, tuple[Key, Key] | None]:
    """Largest |relation| over all index pairs and one maximizing pair."""
    values = _relation_values(P)
    if not values.size:
        return 0.0, None
    magnitudes = np.abs(values)
    r = int(np.argmax(magnitudes))
    return float(magnitudes[r]), _witness(P.k, P.n, r)


def pluecker_violations(
    P: FermionState, tol: float = DEFAULT_TOL
) -> list[tuple[Key, Key, float]]:
    """All index pairs whose |relation| exceeds tol * ||P||^2, sorted by
    decreasing magnitude."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cutoff = tol * P.norm() ** 2
    magnitudes = np.abs(_relation_values(P))
    out = [
        (*_witness(P.k, P.n, r), float(magnitudes[r]))
        for r in np.flatnonzero(magnitudes > cutoff)
    ]
    out.sort(key=lambda t: -t[2])
    return out


def is_decomposable(P: FermionState, tol: float = DEFAULT_TOL) -> bool:
    """True when P = v_1 ^ ... ^ v_k, i.e. when the kernel of v -> v ^ P (the
    n x C(n, k+1) matrix M with rows e_t ^ P, e_t ^ e_L = sign * e_K) has
    dimension >= k (Griffiths-Harris, *Principles of Algebraic Geometry*,
    1.5); its rank counts the singular values above tol * sigma_max.  Each
    amplitude fills the n - k rows of the modes outside its key, so
    ||M||_F^2 = (n - k) ||P||^2 and sigma_max is in [||P|| sqrt((n - k) / n),
    ||P||]: the threshold scales with the norm.  See also ``pluecker_scan``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if P.is_zero():
        raise ValueError("zero state has no decomposability verdict")
    mode, rest, sign = _shuffle_table(1, P.k, P.n)
    mat = np.zeros((P.n, len(mode)), dtype=complex)
    mat[mode, np.arange(len(mode))[:, None]] = sign * _dense_vector(P)[rest]
    sing = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sing > tol * sing[0])) if sing.size else 0
    return P.n - rank >= P.k


# -- wedge-power invariant -----------------------------------------------------


def wedge_power_norm(P: FermionState) -> float:
    """Norm of the d-fold wedge power P ^ ... ^ P for k even and n = d k.

    The power is a multiple of the top form, so this is one scalar's
    magnitude; it vanishes on W-type states and equals d! d^(-d/2) on the
    d-level GHZ images.
    """
    if P.k % 2 != 0:
        raise ShapeError("wedge powers of odd-degree states anticommute to zero")
    if P.n % P.k != 0:
        raise ShapeError(f"mode count {P.n} is not a multiple of the degree {P.k}")
    d = P.n // P.k
    power = P
    for _ in range(d - 1):
        power = wedge(power, P)
    top = tuple(range(1, P.n + 1))
    return abs(power._amp.get(top, 0.0))


# -- one-particle reduced density matrix --------------------------------------


def _rdm_numerator(P: FermionState) -> np.ndarray:
    """Unnormalized accumulation sum_S eps_a eps_b P[S + a] conj(P[S + b])
    over (k-1)-subsets S, where eps_a = (-1)^#{s in S : s < a} is the parity
    of moving mode a to the front of the sorted key: M^T conj(M) for the
    lift M of P."""
    lifted = _lift(_dense_vector(P), P.k, P.n)
    return lifted.T @ lifted.conj()


def one_particle_rdm(P: FermionState) -> np.ndarray:
    """rho with entries rho[a-1, b-1] = (1/k) sum_S eps_a eps_b
    P[S + a] conj(P[S + b]) over (k-1)-subsets S avoiding a and b.
    Hermitian, positive semidefinite, trace 1; requires ||P|| = 1."""
    if abs(P.norm() - 1.0) > 1e-6:
        raise ValueError("reduced density matrix requires a normalized state")
    return _rdm_numerator(P) / P.k


def idempotency_defect(P: FermionState) -> float:
    """Frobenius norm of gamma^2 - gamma for gamma = k rho; zero exactly
    when P is decomposable (gamma is then the projector onto the occupied
    k-plane)."""
    gamma = P.k * one_particle_rdm(P)
    return float(np.linalg.norm(gamma @ gamma - gamma))


# -- coordinates on the Freudenthal triple system ------------------------------

# Column pairs follow the cyclic convention: entry (i, j) of the first
# matrix pairs unbarred mode i with the barred pair omitting j, and entry
# (i, j) of the second pairs barred mode i with the unbarred pair omitting
# j.  Barred modes are 4, 5, 6.
_BARRED_PAIRS = ((5, 6), (6, 4), (4, 5))
_UNBARRED_PAIRS = ((2, 3), (3, 1), (1, 2))


def _signed_table(size: int, entries) -> np.ndarray:
    """Index of a signed gather from a flat array of ``size`` entries into 20
    slots (the triple-system coordinates over M_3(C), or the dense (3, 6)
    amplitudes).  ``entries`` maps a slot to (flat position p, sign +-1);
    _signed_gather reads [flat, -flat, 0], so the slot gets p, size + p for
    sign -1, or 2 size when it is not in ``entries``."""
    index = np.full(20, 2 * size, dtype=np.intp)
    for slot, (p, sign) in entries.items():
        index[slot] = p if sign > 0 else size + p
    index.setflags(write=False)
    return index


def _signed_gather(flat: np.ndarray, index: np.ndarray) -> np.ndarray:
    flat = flat.reshape(-1)
    return np.concatenate((flat, -flat, np.zeros(1)))[index]


def _wedge_table(size: int, triples) -> np.ndarray:
    """Table onto the dense (3, 6) amplitudes from a flat array of ``size``
    entries, entry p carrying the mode triple triples[p], parity folded."""
    signed = map(sort_sign, triples)
    return _signed_table(size, {_key_index(3, 6)[key]: (p, s) for p, (s, key) in enumerate(signed)})


# Coordinate c of to_freudenthal reads the signed amplitude of triple c.
_COORDINATE_TRIPLES = (
    [(1, 2, 3), (4, 5, 6)]
    + [(i + 1,) + pair for i in range(3) for pair in _BARRED_PAIRS]
    + [(i + 4,) + pair for i in range(3) for pair in _UNBARRED_PAIRS]
)
_DENSE_TABLE = _wedge_table(20, _COORDINATE_TRIPLES)
# The map is a signed permutation: coordinate c reads dense slot p wherever
# _DENSE_TABLE[p] is c (same sign) or 20 + c (negated).
_COORDINATE_TABLE = _signed_table(
    20, {int(i) % 20: (p, 1 if i < 20 else -1) for p, i in enumerate(_DENSE_TABLE)}
)


def to_freudenthal(P: FermionState) -> FreudenthalVector:
    """Coordinate bijection from three fermions in six modes onto the
    triple system over 3 x 3 matrices: one signed gather from the dense
    amplitudes absorbs all parity bookkeeping."""
    if P.shape != (3, 6):
        raise ShapeError(f"triple-system coordinates require (k, n) = (3, 6), got {P.shape}")
    coords = _signed_gather(_dense_vector(P), _COORDINATE_TABLE)
    return FreudenthalVector._trusted(AlgebraKind.J3, coords)


def from_freudenthal(x: FreudenthalVector) -> FermionState:
    """Inverse of to_freudenthal, the inverse signed gather (the matrix
    slots are read over M_3(C))."""
    dense = _signed_gather(x.embed().coefficients(), _DENSE_TABLE)
    return _from_dense(3, 6, dense, cutoff=0.0)


# -- compound (SLOCC) action ---------------------------------------------------


def _compound_columns(g: np.ndarray, columns: np.ndarray, k: int) -> np.ndarray:
    """The k-fold compound of the n x n matrix g applied to each column of
    ``columns``, a (C(n, k), B) array of amplitudes over the lex-ordered
    k-subsets, by the iterated interior products described in apply_matrix."""
    n = g.shape[0]
    level = columns[:, None, :]  # level[S, A, c] = (Y_A)_S for column c
    for m in range(1, k + 1):
        lifted = _lift(level, k - m + 1, n)
        prefixes = _combos(n, m)
        parent = _lex_rank(prefixes[:, :-1], n)
        level = np.einsum("ltab,at->lab", lifted[:, :, parent], g[prefixes[:, -1]])
    return level[0]


def apply_matrix(P: FermionState, g: np.ndarray) -> FermionState:
    """Action of g in GL(n, C) through its k-fold compound:
    P'_K = sum_J det g[K, J] P_J.

    By Cauchy-Binet this is the pairing <g_{K_1} ^ ... ^ g_{K_k}, P> with
    the rows g_i of g as covectors, i.e. iterated interior products
    Y_{A u {b}} = iota_{g_b} Y_A over sorted prefixes A of K (b > max A),
    starting from Y_{} = P.  Level m is a C(n, m) x C(n, k - m) array.  Each
    level lifts Y_A to M[L, t] = +-Y_A[L u {t}] through a cached shuffle
    table and contracts t with row b of g: C(n, m) C(n, k - m) n complex
    multiply-adds, about 5e5 in all at (k, n) = (5, 12), against the
    C(n, k)^2 = 627 264 k x k determinants of the minor expansion."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (P.n, P.n):
        raise ShapeError(f"matrix must be {P.n} x {P.n}, got {g.shape}")
    if not np.all(np.isfinite(g.view(np.float64))):
        raise ValueError("non-finite matrix entry")
    out = _compound_columns(g, _dense_vector(P)[:, None], P.k)[:, 0]
    return _from_dense(P.k, P.n, out)
