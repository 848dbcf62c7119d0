"""Exterior algebra for states of k fermions in n modes.

A state P in the k-th wedge power of C^n is stored as one read-only complex
array over the C(n, k) strictly increasing mode tuples (1-based) in lex
order, the amplitudes over the normalized wedge basis
e_{i_1} ^ ... ^ e_{i_k}; ``amplitudes`` lists the nonzero ones as a
mapping.  Every kernel below reads that array.  On top of the wedge
arithmetic this module provides

  * decomposability P = v_1 ^ ... ^ v_k, decided by the rank of the lift
    M[L, t] = +-P[L u {t}], and the equivalent quadratic Plücker relations,
    which give the witnesses and the independent cross-check,
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
    gather (``_signed_table``, ``_signed_gather``) from the amplitude
    array to the 20 coordinates, and its inverse.

States are immutable; all functions are pure.  ``wedge`` and
``apply_matrix`` set amplitudes of magnitude at most PRUNE_TOL to zero.
A state whose C(n, k) exceeds MAX_DIMENSION is not built, nor is an index
table past MAX_TABLE_ENTRIES (ShapeError); only tables of at most
MAX_DIMENSION entries stay cached between calls.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jordan import AlgebraKind
from .triple import FreudenthalVector

__all__ = [
    "FermionState",
    "ShapeError",
    "PRUNE_TOL",
    "MAX_DIMENSION",
    "MAX_TABLE_ENTRIES",
    "wedge",
    "wedge_of_vectors",
    "pluecker_relation",
    "pluecker_scan",
    "pluecker_violations",
    "decomposability_ratio",
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
NORM_CHECK_TOL = 1e-6
# Largest amplitude array a state may be built or drawn with: C(n, k) for a
# fermionic state, C(sum n_i, sum k_i) for the merged image of a
# multi-species one.  Nine qubits merge to C(18, 9) = 48 620 and fit; ten do
# not.
MAX_DIMENSION = 1 << 16
# Largest index table that _scan_tables or the wedge-power chain may build:
# the scan of six qubits' (6, 12) image, 4.4e6 entries, fits; the (4, 20)
# chain, 6.2e7, does not.  Tables past MAX_DIMENSION entries are not cached.
MAX_TABLE_ENTRIES = 128 * MAX_DIMENSION

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


def _dimension(k: int, n: int) -> int:
    """C(n, k), the length of the amplitude array of shape (k, n);
    ShapeError for an invalid shape or one past MAX_DIMENSION."""
    if not (isinstance(k, int) and isinstance(n, int)) or k < 1 or n < k:
        raise ShapeError(f"invalid shape k={k}, n={n}")
    if math.comb(n, k) > MAX_DIMENSION:
        raise ShapeError(
            f"shape ({k}, {n}) has C({n}, {k}) = {math.comb(n, k)} amplitudes, "
            f"more than MAX_DIMENSION = {MAX_DIMENSION}"
        )
    return math.comb(n, k)


def _check_table(entries: int, what: str) -> None:
    """ShapeError when an index table for ``what`` would have more than
    MAX_TABLE_ENTRIES entries."""
    if entries > MAX_TABLE_ENTRIES:
        raise ShapeError(
            f"{what} needs an index table of {entries} entries, "
            f"more than MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
        )


def _store(array: np.ndarray, cutoff: float) -> np.ndarray:
    """A read-only copy of an amplitude array with the entries of magnitude
    at most ``cutoff`` (and signed zeros) set to zero; every entry, dropped
    or not, must be finite."""
    if not np.isfinite(array).all():
        raise ValueError("non-finite amplitude")
    array = np.where(np.abs(array) > cutoff, array, 0)
    array.setflags(write=False)
    return array


class _ArrayState:
    """The arithmetic of FermionState and embed.MultiState, which each hold
    one read-only amplitude array ``_array`` and wrap a new array of their
    own shape with ``_like``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def norm(self) -> float:
        """Euclidean norm from Python's complex abs, summed in key order
        (np.abs and np.linalg.norm round differently): random_state divides
        by it, so every bit of a drawn state depends on it."""
        return math.sqrt(sum(abs(v) ** 2 for v in self._array.ravel().tolist()))

    def is_zero(self) -> bool:
        return not self._array.any()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError("states have different shapes")
        return self._like(self._array + other._array)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar: complex):
        return self._like(complex(scalar) * self._array)

    __rmul__ = __mul__


class FermionState(_ArrayState):
    """Immutable element of the k-th wedge power of C^n: one read-only
    complex array over the lex-ordered keys."""

    __slots__ = ("k", "n", "_array")

    def __init__(self, k: int, n: int, amplitudes: Mapping[Key, complex]):
        array = np.zeros(_dimension(k, n), dtype=complex)
        for key, value in amplitudes.items():
            array[_key_position(key, k, n)] = complex(value)
        self._fill(k, n, array, 0.0)

    def _fill(self, k: int, n: int, array: np.ndarray, cutoff: float) -> "FermionState":
        for name, value in (("k", k), ("n", n), ("_array", _store(array, cutoff))):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _wrap(
        cls, k: int, n: int, array: np.ndarray, cutoff: float = PRUNE_TOL
    ) -> "FermionState":
        """The state with amplitude array ``array`` over the lex-ordered keys
        of a valid shape (k, n), stored by _store."""
        return object.__new__(cls)._fill(k, n, array, cutoff)

    def _like(self, array: np.ndarray) -> "FermionState":
        return FermionState._wrap(self.k, self.n, array, 0.0)

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
        """The nonzero amplitudes in key order, as a read-only mapping built
        on each access."""
        kept = np.flatnonzero(self._array)
        keys = map(tuple, (_combos(self.n, self.k)[kept] + 1).tolist())
        return MappingProxyType(dict(zip(keys, self._array[kept].tolist())))

    @property
    def shape(self) -> tuple[int, int]:
        """(k, n), the shape a state file or ``random_state`` names."""
        return (self.k, self.n)

    def amplitude(self, seq: Sequence[int]) -> complex:
        """Signed amplitude for an arbitrary-order mode sequence."""
        sign, key = sort_sign(seq)
        index = _key_index(self.k, self.n).get(key) if sign else None
        return 0.0 if index is None else sign * complex(self._array[index])

    def __repr__(self) -> str:
        parts = ", ".join(f"{key}: {value:.6g}" for key, value in self.amplitudes.items())
        return f"FermionState(k={self.k}, n={self.n}, {{{parts}}})"


# -- dense index tables --------------------------------------------------------


def _cache_small(entries):
    """``lru_cache`` for an index-table builder that keeps only tables of at
    most MAX_DIMENSION entries; ``entries(*args)`` is the size of the table
    a call builds.  Larger tables are built on every call and freed after
    it, so a long-lived process does not hold them."""

    def decorate(build):
        cached = lru_cache(maxsize=32)(build)

        @wraps(build)
        def table(*args):
            return (cached if entries(*args) <= MAX_DIMENSION else build)(*args)

        table.cache_clear, table.cache_info = cached.cache_clear, cached.cache_info
        return table

    return decorate


@lru_cache(maxsize=32)
def _combos(n: int, j: int) -> np.ndarray:
    """The j-subsets of the 0-based modes range(n), one per row, in lex order."""
    out = np.array(list(itertools.combinations(range(n), j)), dtype=np.intp)
    out = out.reshape(math.comb(n, j), j)
    out.setflags(write=False)
    return out


def _lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Lex index among the j-subsets of range(n) of each sorted 0-based
    subset along the last axis: C(n, j) - 1 - sum_i C(n - 1 - s_i, j - i),
    summed one position at a time to keep the temporaries at the result's
    size.  The result has the memory layout of ``subsets[..., 0]``: ``wedge``
    sums along rows of these tables, and numpy's summation order follows it."""
    j = subsets.shape[-1]
    if j == 0:
        return np.zeros(subsets.shape[:-1], dtype=np.intp)
    rank = np.full_like(subsets[..., 0], math.comb(n, j) - 1)
    for i in range(j):
        rank -= np.array([math.comb(r, j - i) for r in range(n)])[n - 1 - subsets[..., i]]
    return rank


@_cache_small(lambda j, l, n: math.comb(n, j + l) * math.comb(j + l, j))
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


def _key_position(key: Sequence[int], k: int, n: int) -> int:
    """Lex index of a key given as a sorted k-subset of modes 1..n;
    ShapeError for any other key."""
    key = tuple(int(m) for m in key)
    position = _key_index(k, n).get(key)
    if position is None:
        raise ShapeError(
            f"key {key} is not a strictly increasing {k}-subset of modes 1..{n}; "
            "use from_terms for unsorted mode sequences"
        )
    return position


def wedge(u: FermionState, v: FermionState) -> FermionState:
    """Exterior product; result lives in the (k_u + k_v)-th wedge power."""
    if u.n != v.n:
        raise ShapeError("operands have different mode counts")
    k = u.k + v.k
    if k > u.n:
        raise ShapeError(f"wedge degree {k} exceeds mode count {u.n}")
    first, second, sign = _shuffle_table(u.k, v.k, u.n)
    out = (sign * u._array[first] * v._array[second]).sum(axis=1)
    return FermionState._wrap(k, u.n, out)


def wedge_of_vectors(vectors: np.ndarray) -> FermionState:
    """v_1 ^ ... ^ v_k for the rows of a k x n array V: amplitude K is det V[:, K]."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 2:
        raise ShapeError("expected a k x n array of row vectors")
    k, n = vectors.shape
    _dimension(k, n)
    minors = np.linalg.det(np.moveaxis(vectors[:, _combos(n, k)], 1, 0))
    return FermionState._wrap(k, n, minors)


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


@_cache_small(lambda k, n: math.comb(n, k - 1) * math.comb(n, k + 1) * (k + 1))
def _scan_tables(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed index tables for the full relation scan at shape (k, n).

    Row r = a * C(n, k+1) + b pairs the a-th (k-1)-subset A with the b-th
    (k+1)-subset B (lex order, see _witness); summand j contributes
    sign[r, j] * P[first[r, j]] * P[second[r, j]] against a dense amplitude
    vector padded with a zero in slot 0 (used for summands killed by a
    repeated index).  Two shuffle tables give the terms: e_A ^ e_t =
    parity * e_{A u t} and e_{B_j} ^ e_{B \\ B_j} = (-1)^j e_B."""
    _check_table(
        math.comb(n, k - 1) * math.comb(n, k + 1) * (k + 1),
        f"the Plücker scan at shape ({k}, {n})",
    )
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
    """All relation values at once via the index tables."""
    first, second, sign = _scan_tables(P.k, P.n)
    vec = np.concatenate(([0.0], P._array))
    return (sign * vec[first] * vec[second]).sum(axis=1)


def _worst_relation(
    P: FermionState, values: np.ndarray
) -> tuple[float, tuple[Key, Key] | None]:
    if not values.size:
        return 0.0, None
    magnitudes = np.abs(values)
    r = int(np.argmax(magnitudes))
    return float(magnitudes[r]), _witness(P.k, P.n, r)


def _violation_cutoff(P: FermionState, tol: float) -> float:
    """The scan's own rule: a relation violates when |relation| > tol ||P||^2."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol * P.norm() ** 2


def _violations(
    P: FermionState, values: np.ndarray, cutoff: float
) -> list[tuple[Key, Key, float]]:
    magnitudes = np.abs(values)
    out = [
        (*_witness(P.k, P.n, r), float(magnitudes[r]))
        for r in np.flatnonzero(magnitudes > cutoff)
    ]
    out.sort(key=lambda t: -t[2])
    return out


def pluecker_scan(P: FermionState) -> tuple[float, tuple[Key, Key] | None]:
    """Largest |relation| over all index pairs and one maximizing pair."""
    return _worst_relation(P, _relation_values(P))


def pluecker_violations(
    P: FermionState, tol: float = DEFAULT_TOL
) -> list[tuple[Key, Key, float]]:
    """All index pairs whose |relation| exceeds tol * ||P||^2, sorted by
    decreasing magnitude.  This is the scan's own rule; the decomposability
    verdict is ``decomposability_ratio``'s."""
    cutoff = _violation_cutoff(P, tol)
    return _violations(P, _relation_values(P), cutoff)


def decomposability_ratio(P: FermionState, tol: float = DEFAULT_TOL) -> float:
    """The margin s_j / (tol s_0) of the rank test, for the singular values
    s_0 >= s_1 >= ... of the C(n, j-1) x n lift M of Q (``_lift``): Q = P
    and j = k, or, for n/2 < k < n, the Hodge dual Q = *P and j = n - k.
    M^T conj(M) = ||P||^2 gamma for Q's occupation matrix gamma = k rho,
    with eigenvalues in [0, 1] summing to j, and a rank-j projector exactly
    when Q, and so P, is decomposable (Coleman, Rev. Mod. Phys. 35, 668
    (1963)).  So P is decomposable when the ratio is at most 1, and the
    threshold scales with s_0 in [||P|| sqrt(j / n), ||P||].  The ratio is 0
    when M has at most j singular values (k = 1, k = n).  *P[K^c] = +-P[K]
    with signs (-1)^(sum K) up to one global sign, a diagonal unitary that
    leaves the singular values alone: Q is P's array reversed (K^c order)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if P.is_zero():
        raise ValueError("zero state has no decomposability verdict")
    j, form = P.k, P._array
    if P.n < 2 * P.k < 2 * P.n:
        j, form = P.n - P.k, form[::-1]
    sing = np.linalg.svd(_lift(form, j, P.n), compute_uv=False)
    return float(sing[j] / (tol * sing[0])) if len(sing) > j else 0.0


def is_decomposable(P: FermionState, tol: float = DEFAULT_TOL) -> bool:
    """True when P = v_1 ^ ... ^ v_k: ``decomposability_ratio`` is at most 1.
    See also ``pluecker_scan``."""
    return decomposability_ratio(P, tol) <= 1.0


# -- wedge-power invariant -----------------------------------------------------


def wedge_power_norm(P: FermionState) -> float:
    """Norm of the d-fold wedge power P ^ ... ^ P for k even and n = d k.

    The power is a multiple of the top form, so this is one scalar's
    magnitude; it vanishes on W-type states and equals d! d^(-d/2) on the
    d-level GHZ images.  For k = 2 it is d! |Pf A| = d! sqrt|det A| for
    A[i, j] = P[i, j] = -A[j, i], in log space (inf past the float range);
    for k >= 4, the top amplitude of the chain P ^ P ^ ... ^ P.
    """
    if P.k % 2 != 0:
        raise ShapeError("wedge powers of odd-degree states anticommute to zero")
    if P.n % P.k != 0:
        raise ShapeError(f"mode count {P.n} is not a multiple of the degree {P.k}")
    d = P.n // P.k
    if P.k == 2:
        skew = np.zeros((P.n, P.n), dtype=complex)
        skew[tuple(_combos(P.n, 2).T)] = P._array
        logdet = np.linalg.slogdet(skew - skew.T)[1]  # -inf when singular
        with np.errstate(over="ignore"):
            return float(np.exp(math.lgamma(d + 1) + 0.5 * logdet))
    _check_table(
        max(math.comb(P.n, m * P.k) * math.comb(m * P.k, P.k) for m in range(2, d + 1)),
        f"the wedge power at shape ({P.k}, {P.n})",
    )
    power = P
    for _ in range(d - 1):
        power = wedge(power, P)
    return abs(complex(power._array[0]))  # the top form's one amplitude


# -- one-particle reduced density matrix --------------------------------------


def _rdm_numerator(columns: np.ndarray, k: int, n: int) -> np.ndarray:
    """Unnormalized accumulation sum_S eps_a eps_b Y[S + a] conj(Y[S + b])
    over (k-1)-subsets S and the k-forms Y in ``columns`` (shape
    (C(n, k), ...)), where eps_a = (-1)^#{s in S : s < a} is the parity of
    moving mode a to the front of the sorted key: M^T conj(M) for the lifts
    M of the columns, stacked."""
    lifted = np.moveaxis(_lift(columns, k, n), 1, -1).reshape(-1, n)
    return lifted.T @ lifted.conj()


def one_particle_rdm(P: FermionState) -> np.ndarray:
    """rho with entries rho[a-1, b-1] = (1/k) sum_S eps_a eps_b
    P[S + a] conj(P[S + b]) over (k-1)-subsets S avoiding a and b.
    Hermitian, positive semidefinite, trace 1; requires ||P|| = 1."""
    if abs(P.norm() - 1.0) > NORM_CHECK_TOL:
        raise ValueError("reduced density matrix requires a normalized state")
    return _rdm_numerator(P._array, P.k, P.n) / P.k


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
    coords = _signed_gather(P._array, _COORDINATE_TABLE)
    return FreudenthalVector._trusted(AlgebraKind.J3, coords)


def from_freudenthal(x: FreudenthalVector) -> FermionState:
    """Inverse of to_freudenthal, the inverse signed gather (the matrix
    slots are read over M_3(C))."""
    dense = _signed_gather(x.embed().coefficients(), _DENSE_TABLE)
    return FermionState._wrap(3, 6, dense, cutoff=0.0)


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
    out = _compound_columns(g, P._array[:, None], P.k)[:, 0]
    return FermionState._wrap(P.k, P.n, out)
