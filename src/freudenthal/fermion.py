"""Sparse exterior algebra for states of k fermions in n modes.

A state P in the k-th wedge power of C^n is stored as a dict from strictly
increasing mode tuples (1-based) to complex amplitudes over the normalized
wedge basis e_{i_1} ^ ... ^ e_{i_k}.  On top of the wedge arithmetic this
module provides

  * the quadratic Plücker relations, whose simultaneous vanishing is
    equivalent to decomposability P = v_1 ^ ... ^ v_k, plus an independent
    kernel-dimension oracle for cross-checking,
  * the wedge-power invariant ||P ^ ... ^ P|| (d factors, for k even and
    n = d k), which vanishes on W-type states and not on GHZ-type ones,
  * the one-particle reduced density matrix rho with Tr rho = 1, and the
    idempotency defect of gamma = k rho (zero exactly on decomposable
    states),
  * the k-fold compound action of an n x n matrix (minor expansion), and
  * for (k, n) = (3, 6) the coordinate bijection onto the Freudenthal
    triple system over the 3 x 3 matrix algebra, with modes 4, 5, 6
    playing the role of the barred partners of modes 1, 2, 3.

States are immutable; all functions are pure.  Amplitudes with magnitude
at most PRUNE_TOL are dropped after arithmetic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jordan import AlgebraKind, JordanElement, j3
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
    "decomposability_oracle",
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


def _merge_sign(a: Key, b: Key) -> tuple[int, Key] | None:
    """Merge two sorted disjoint keys; None if they overlap.  The sign is
    the parity of interleaving b into a (crossings counted pairwise)."""
    out = []
    i = j = 0
    crossings = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            crossings += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if crossings % 2 else 1), tuple(out)


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
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_amp", amp)

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


def wedge(u: FermionState, v: FermionState) -> FermionState:
    """Exterior product; result lives in the (k_u + k_v)-th wedge power."""
    if u.n != v.n:
        raise ShapeError("operands have different mode counts")
    k = u.k + v.k
    if k > u.n:
        raise ShapeError(f"wedge degree {k} exceeds mode count {u.n}")
    amp: dict[Key, complex] = {}
    for ka, va in u._amp.items():
        for kb, vb in v._amp.items():
            merged = _merge_sign(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            amp[key] = amp.get(key, 0.0) + sign * va * vb
    out = {key: val for key, val in amp.items() if abs(val) > PRUNE_TOL}
    return FermionState(k, u.n, out)


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


@lru_cache(maxsize=32)
def _key_index(k: int, n: int) -> dict[Key, int]:
    return {
        key: i for i, key in enumerate(itertools.combinations(range(1, n + 1), k))
    }


@lru_cache(maxsize=16)
def _scan_tables(k: int, n: int):
    """Precomputed index tables for the full relation scan at shape (k, n).

    Row r describes the pair (A_r, B_r); summand j contributes
    sign[r, j] * P[first[r, j]] * P[second[r, j]] against a dense amplitude
    vector padded with a zero in slot 0 (used for summands killed by a
    repeated index)."""
    index = _key_index(k, n)
    pairs: list[tuple[Key, Key]] = []
    first, second, sign = [], [], []
    for a in itertools.combinations(range(1, n + 1), k - 1):
        for b in itertools.combinations(range(1, n + 1), k + 1):
            row_f, row_s, row_sign = [], [], []
            for j, bj in enumerate(b):
                parity, key = sort_sign(a + (bj,))
                if parity == 0:
                    row_f.append(0)
                    row_s.append(0)
                    row_sign.append(0)
                else:
                    row_f.append(index[key] + 1)
                    row_s.append(index[b[:j] + b[j + 1 :]] + 1)
                    row_sign.append(parity * (-1) ** j)
            pairs.append((a, b))
            first.append(row_f)
            second.append(row_s)
            sign.append(row_sign)
    return (
        pairs,
        np.array(first, dtype=np.intp),
        np.array(second, dtype=np.intp),
        np.array(sign, dtype=np.int8),
    )


def _padded_vector(P: FermionState) -> np.ndarray:
    index = _key_index(P.k, P.n)
    vec = np.zeros(len(index) + 1, dtype=complex)
    for key, value in P._amp.items():
        vec[index[key] + 1] = value
    return vec


def _relation_values(P: FermionState) -> tuple[list, np.ndarray]:
    """All relation values at once via the cached tables."""
    pairs, first, second, sign = _scan_tables(P.k, P.n)
    vec = _padded_vector(P)
    return pairs, (sign * vec[first] * vec[second]).sum(axis=1)


def pluecker_scan(P: FermionState) -> tuple[float, tuple[Key, Key] | None]:
    """Largest |relation| over all index pairs and one maximizing pair."""
    pairs, values = _relation_values(P)
    if not pairs:
        return 0.0, None
    magnitudes = np.abs(values)
    r = int(np.argmax(magnitudes))
    return float(magnitudes[r]), pairs[r]


def pluecker_violations(
    P: FermionState, tol: float = DEFAULT_TOL
) -> list[tuple[Key, Key, float]]:
    """All index pairs whose |relation| exceeds tol * ||P||^2, sorted by
    decreasing magnitude."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cutoff = tol * P.norm() ** 2
    pairs, values = _relation_values(P)
    magnitudes = np.abs(values)
    out = [
        (pairs[r][0], pairs[r][1], float(magnitudes[r]))
        for r in np.flatnonzero(magnitudes > cutoff)
    ]
    out.sort(key=lambda t: -t[2])
    return out


def is_decomposable(P: FermionState, tol: float = DEFAULT_TOL) -> bool:
    """True when every Plücker relation vanishes within tol * ||P||^2."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if P.is_zero():
        raise ValueError("zero state has no decomposability verdict")
    best, _ = pluecker_scan(P)
    return best <= tol * P.norm() ** 2


def decomposability_oracle(P: FermionState, tol: float = DEFAULT_TOL) -> bool:
    """Independent check: P is decomposable iff the kernel of v -> v ^ P
    has dimension >= k.  Rank is counted from singular values above
    tol * sigma_max."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if P.is_zero():
        raise ValueError("zero state has no decomposability verdict")
    if P.k == P.n:
        return True
    cols = {
        key: idx
        for idx, key in enumerate(
            itertools.combinations(range(1, P.n + 1), P.k + 1)
        )
    }
    mat = np.zeros((P.n, len(cols)), dtype=complex)
    for key, value in P._amp.items():
        for m in range(1, P.n + 1):
            merged = _merge_sign((m,), key)
            if merged is None:
                continue
            sign, new_key = merged
            mat[m - 1, cols[new_key]] += sign * value
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


def _rdm_numerator(amp: Mapping[Key, complex], n: int) -> np.ndarray:
    """Unnormalized accumulation sum_S eps_a eps_b P[S + a] conj(P[S + b])
    over (k-1)-subsets S, where eps is the parity of moving the
    distinguished mode to the front of the sorted key."""
    rho = np.zeros((n, n), dtype=complex)
    for key, value in amp.items():
        for pos_a, a in enumerate(key):
            rest = key[:pos_a] + key[pos_a + 1 :]
            sign_a = -1 if pos_a % 2 else 1
            for b in range(1, n + 1):
                merged = _merge_sign((b,), rest)
                if merged is None:
                    continue
                _, partner = merged
                other = amp.get(partner)
                if other is None:
                    continue
                pos_b = partner.index(b)
                sign_b = -1 if pos_b % 2 else 1
                rho[a - 1, b - 1] += sign_a * sign_b * value * np.conj(other)
    return rho


def one_particle_rdm(P: FermionState) -> np.ndarray:
    """rho with entries rho[a-1, b-1] = (1/k) sum_S eps_a eps_b
    P[S + a] conj(P[S + b]) over (k-1)-subsets S avoiding a and b.
    Hermitian, positive semidefinite, trace 1; requires ||P|| = 1."""
    if abs(P.norm() - 1.0) > 1e-6:
        raise ValueError("reduced density matrix requires a normalized state")
    return _rdm_numerator(P._amp, P.n) / P.k


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


def _require_three_six(P: FermionState) -> None:
    if (P.k, P.n) != (3, 6):
        raise ShapeError(
            f"triple-system coordinates require (k, n) = (3, 6), got ({P.k}, {P.n})"
        )


def to_freudenthal(P: FermionState) -> FreudenthalVector:
    """Coordinate bijection from three fermions in six modes onto the
    triple system over 3 x 3 matrices; signed lookups absorb all parity
    bookkeeping."""
    _require_three_six(P)
    a = np.empty((3, 3), dtype=complex)
    b = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            a[i, j] = P.amplitude((i + 1,) + _BARRED_PAIRS[j])
            b[i, j] = P.amplitude((i + 4,) + _UNBARRED_PAIRS[j])
    return FreudenthalVector(
        P.amplitude((1, 2, 3)), P.amplitude((4, 5, 6)), j3(a), j3(b)
    )


def from_freudenthal(x: FreudenthalVector) -> FermionState:
    """Inverse of to_freudenthal (the matrix slots must be over M_3(C))."""
    if x.kind is not AlgebraKind.J3:
        x = x.embed()
    terms: list[tuple[Sequence[int], complex]] = [
        ((1, 2, 3), x.alpha),
        ((4, 5, 6), x.beta),
    ]
    a, b = x.a.matrix, x.b.matrix
    for i in range(3):
        for j in range(3):
            terms.append(((i + 1,) + _BARRED_PAIRS[j], a[i, j]))
            terms.append(((i + 4,) + _UNBARRED_PAIRS[j], b[i, j]))
    return FermionState.from_terms(3, 6, terms)


# -- compound (SLOCC) action ---------------------------------------------------


def apply_matrix(P: FermionState, g: np.ndarray) -> FermionState:
    """Action of g in GL(n, C) through its k-fold compound: each key J of
    the input scatters to all keys K with weight det g[K, J]."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (P.n, P.n):
        raise ShapeError(f"matrix must be {P.n} x {P.n}, got {g.shape}")
    if not np.all(np.isfinite(g.view(np.float64))):
        raise ValueError("non-finite matrix entry")
    out_keys = list(itertools.combinations(range(P.n), P.k))
    rows = np.array(out_keys)  # (C, k) of 0-based modes
    amp: dict[Key, complex] = {}
    for key, value in P._amp.items():
        cols = g[:, [m - 1 for m in key]]  # (n, k)
        minors = np.linalg.det(cols[rows])  # (C,)
        for out_key, minor in zip(out_keys, minors):
            if minor == 0.0:
                continue
            shifted = tuple(m + 1 for m in out_key)
            amp[shifted] = amp.get(shifted, 0.0) + minor * value
    out = {key: val for key, val in amp.items() if abs(val) > PRUNE_TOL}
    return FermionState(P.k, P.n, out)
