"""Freudenthal triple systems M(J) = C + C + J + J over a cubic Jordan
algebra J.

The system carries a symplectic form

    {x, y} = alpha delta - beta gamma + (A, D) - (B, C),

a quartic form

    q(x) = 2((A,B) - alpha beta)^2 - 8(A#, B#) + 8 alpha N(A) + 8 beta N(B),

and a triple product T defined implicitly by {T(x,y,z), w} = q(x,y,z,w),
where q(x,y,z,w) is the full polarization of q.  The cubic T(x,x,x) has a
closed form in the Jordan operations (sharp, norm, trace form and the cross
product A x B = [(A+B)# - A# - B#] / 2), evaluated on stacks of coordinate
vectors; the trilinear T(x,y,z) is its polarization.  A second
normalization of the quartic, quartic_tangle = 2 q, is the one whose
absolute value acts as the tripartite entanglement measure (1 on the
canonical GHZ vector).

Vectors stratify into ranks 0..4 by the vanishing pattern of q, T(x,x,x)
and the linear map y -> 3 T(x,x,y) - {x,y} x; the rank is the SLOCC class.
The map vanishes exactly on the strictly regular vectors, A# = beta B,
B# = alpha A and AB = BA = alpha beta 1 in M_3(C) (Krutelevich, J. Algebra
314 (2007); Borsten, Dahanayake, Duff, Ebrahim, Rubens, Phys. Rep. 471
(2009), arXiv:0809.4685), so the rank test checks those instead, and only
after q and T(x,x,x) have both vanished.

Everything here is immutable and pure; a vector keeps its flat coordinate
array once built, and the coordinate basis of each system is cached per
process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .jordan import (
    AlgebraKind,
    JordanElement,
    KindMismatch,
    _J3_COORDS,
    _cross_vec,
    _sharp_vec,
    _trace_vec,
    embed_in_j3,
    zero,
)

__all__ = [
    "FreudenthalVector",
    "fvector",
    "zero_vector",
    "triple_basis",
    "skew_form",
    "quartic_form",
    "quartic_tangle",
    "quartic_form_linearized",
    "triple_product",
    "rank",
    "rank_margins",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FreudenthalVector:
    """Element (alpha, beta, A, B) of M(J); A and B share one algebra.
    Its flat coordinates are built once and kept, read-only."""

    alpha: complex
    beta: complex
    a: JordanElement
    b: JordanElement
    _coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.a.kind is not self.b.kind:
            raise KindMismatch("both Jordan slots must use the same algebra")
        alpha, beta = complex(self.alpha), complex(self.beta)
        if not np.isfinite([alpha, beta]).all():
            raise ValueError("non-finite scalar slot")
        vec = np.concatenate(([alpha, beta], self.a.coeffs, self.b.coeffs))
        vec.flags.writeable = False
        vars(self).update(alpha=alpha, beta=beta, _coeffs=vec)

    @classmethod
    def _trusted(cls, kind: AlgebraKind, vec: np.ndarray) -> "FreudenthalVector":
        """The vector on the fresh (2 + 2d,) complex coordinate array ``vec``,
        kept read-only with the slots as views: one finiteness check, no copy."""
        if not np.isfinite(vec).all():
            raise ValueError("non-finite coordinate")
        vec.flags.writeable = False
        d, out = kind.dimension, object.__new__(cls)
        a, b = (JordanElement._trusted(kind, v) for v in (vec[2 : 2 + d], vec[2 + d :]))
        vars(out).update(alpha=complex(vec[0]), beta=complex(vec[1]), a=a, b=b, _coeffs=vec)
        return out

    @property
    def kind(self) -> AlgebraKind:
        return self.a.kind

    @property
    def dimension(self) -> int:
        return 2 + 2 * self.kind.dimension

    def coefficients(self) -> np.ndarray:
        """Flat coordinates (alpha, beta, A-coefficients, B-coefficients),
        read-only."""
        return self._coeffs

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients()))

    def embed(self) -> "FreudenthalVector":
        """The same vector over M_3(C), via the Jordan subalgebra chain."""
        if self.kind is AlgebraKind.J3:
            return self
        return FreudenthalVector(
            self.alpha, self.beta, embed_in_j3(self.a), embed_in_j3(self.b)
        )

    def _require(self, other: "FreudenthalVector") -> None:
        if not isinstance(other, FreudenthalVector) or other.kind is not self.kind:
            raise KindMismatch("vectors belong to different triple systems")

    def __add__(self, other: "FreudenthalVector") -> "FreudenthalVector":
        self._require(other)
        return self._trusted(self.kind, self.coefficients() + other.coefficients())

    def __sub__(self, other: "FreudenthalVector") -> "FreudenthalVector":
        self._require(other)
        return self._trusted(self.kind, self.coefficients() - other.coefficients())

    def __mul__(self, scalar: complex) -> "FreudenthalVector":
        return self._trusted(self.kind, complex(scalar) * self.coefficients())

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (
            f"FreudenthalVector({self.kind.value}, alpha={self.alpha!r}, "
            f"beta={self.beta!r}, a={self.a.parts!r}, b={self.b.parts!r})"
        )


def fvector(kind: AlgebraKind, coeffs) -> FreudenthalVector:
    """Rebuild a vector from flat coordinates (inverse of coefficients())."""
    vec = np.array(coeffs, dtype=complex).reshape(-1)
    d = kind.dimension
    if vec.shape != (2 + 2 * d,):
        raise ValueError(f"expected {2 + 2 * d} coordinates for {kind.value}")
    return FreudenthalVector._trusted(kind, vec)


def zero_vector(kind: AlgebraKind) -> FreudenthalVector:
    return FreudenthalVector(0.0, 0.0, zero(kind), zero(kind))


@functools.lru_cache(maxsize=None)
def triple_basis(kind: AlgebraKind) -> tuple[FreudenthalVector, ...]:
    """Coordinate basis of M(J), ordered as in coefficients()."""
    return tuple(fvector(kind, row) for row in np.eye(2 + 2 * kind.dimension))


# -- the three defining forms -------------------------------------------------


def skew_form(x: FreudenthalVector, y: FreudenthalVector) -> complex:
    """Nondegenerate symplectic form {x, y}."""
    x._require(y)
    kind, d = x.kind, x.kind.dimension
    u, v = x.coefficients(), y.coefficients()
    return (
        u[0] * v[1]
        - u[1] * v[0]
        + _trace_vec(kind, u[2 : 2 + d], v[2 + d :])
        - _trace_vec(kind, u[2 + d :], v[2 : 2 + d])
    )


def _pieces(kind: AlgebraKind, vec: np.ndarray):
    """Jordan pieces shared by q, T(x) and the rank-one test, for a
    (..., 2 + 2d) stack: the scalars (alpha, beta), the pair (A, B),
    t = (A,B) - alpha beta, the sharps (A#, B#) and the norms (N(A), N(B)),
    the last from (X, X#) = 3 N(X)."""
    d = kind.dimension
    scalars = vec[..., :2]
    pair = vec[..., 2:].reshape(*vec.shape[:-1], 2, d)
    t = _trace_vec(kind, pair[..., 0, :], pair[..., 1, :]) - vec[..., 0] * vec[..., 1]
    sharps = _sharp_vec(kind, pair)
    return scalars, pair, t, sharps, _trace_vec(kind, pair, sharps) / 3.0


def _quartic(kind: AlgebraKind, pieces) -> np.ndarray:
    scalars, _, t, sharps, norms = pieces
    return (
        2.0 * t * t
        - 8.0 * _trace_vec(kind, sharps[..., 0, :], sharps[..., 1, :])
        + 8.0 * (scalars * norms).sum(-1)
    )


def quartic_form(x: FreudenthalVector) -> complex:
    """q(x); its vanishing pattern drives the rank stratification."""
    return _quartic(x.kind, _pieces(x.kind, x.coefficients()))


def quartic_tangle(x: FreudenthalVector) -> complex:
    """Quartic in the measure normalization 2 q(x),

        4([(A,B) - alpha beta]^2 - 4(A#, B#) + 4 alpha N(A) + 4 beta N(B)),

    whose absolute value is the tripartite tangle (1 on canonical GHZ).
    Both normalizations are kept because classification thresholds use q
    while reports use this one.
    """
    return 2.0 * quartic_form(x)


_SLOT_SUBSETS = [
    s
    for r in range(1, 5)
    for s in itertools.combinations(range(4), r)
]


def quartic_form_linearized(
    x: FreudenthalVector,
    y: FreudenthalVector,
    z: FreudenthalVector,
    w: FreudenthalVector,
) -> complex:
    """Full symmetric polarization q(x,y,z,w) with q(x,x,x,x) = q(x),
    evaluated by inclusion-exclusion over the 15 nonempty slot subsets."""
    x._require(y)
    x._require(z)
    x._require(w)
    vecs = [v.coefficients() for v in (x, y, z, w)]
    kind = x.kind
    total = 0.0 + 0.0j
    for subset in _SLOT_SUBSETS:
        s = vecs[subset[0]].copy()
        for i in subset[1:]:
            s += vecs[i]
        total += (-1) ** (4 - len(subset)) * _quartic(kind, _pieces(kind, s))
    return total / 24.0


# -- the cubic T(x) = T(x,x,x) and its polarizations ---------------------------


def _cubic(kind: AlgebraKind, pieces) -> np.ndarray:
    """T(x,x,x) from the pieces of a (..., 2 + 2d) stack, in closed form:

        T(x) = (-t alpha + 2N(B),  t beta - 2N(A),
                t A - 4 B x A# + 2 beta B#,  -t B + 4 A x B# - 2 alpha A#)

    with t = (A,B) - alpha beta.  It is the gradient of q written through
    the skew form, {T(x), w} = q(x,x,x,w) for all w.
    """
    scalars, pair, t, sharps, norms = pieces
    crosses = _cross_vec(kind, pair[..., ::-1, :], sharps)  # (B x A#, A x B#)
    # The beta and B slots repeat the alpha and A brackets with (alpha, A)
    # and (beta, B) swapped, negated.
    sign = np.array([1.0, -1.0])
    head = sign * (2.0 * norms[..., ::-1] - t[..., None] * scalars)
    tail = sign[:, None] * (
        t[..., None, None] * pair
        - 4.0 * crosses
        + 2.0 * scalars[..., ::-1, None] * sharps[..., ::-1, :]
    )
    return np.concatenate((head, tail.reshape(*pair.shape[:-2], -1)), axis=-1)


def triple_product(
    x: FreudenthalVector, y: FreudenthalVector, z: FreudenthalVector
) -> FreudenthalVector:
    """T(x,y,z), the unique vector with {T(x,y,z), w} = q(x,y,z,w) for all w,
    obtained by polarizing the cubic T(x,x,x) over the seven nonempty sums
    of x, y and z."""
    x._require(y)
    x._require(z)
    u, v, w = x.coefficients(), y.coefficients(), z.coefficients()
    stack = np.stack((u + v + w, u + v, u + w, v + w, u, v, w))
    t = _cubic(x.kind, _pieces(x.kind, stack))
    return fvector(x.kind, (t[0] - t[1] - t[2] - t[3] + t[4] + t[5] + t[6]) / 6.0)


# -- rank stratification ------------------------------------------------------


def _binary_scaled(arr: np.ndarray) -> np.ndarray:
    """Complex ``arr`` divided by the power of two that puts its largest real
    or imaginary part in [1, 2).  The division is exact above the subnormal
    range, and norms and products of the result stay in range at any scale."""
    peak = float(np.abs(np.ascontiguousarray(arr).view(np.float64)).max())
    return arr / math.ldexp(1.0, math.frexp(peak)[1] - 1)  # a zero array stays zero


def rank(x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL) -> int:
    """SLOCC rank in 0..4.

    rank 4: q(x) != 0;  rank 3: q = 0 but T(x,x,x) != 0;  rank 2: both vanish
    but x is not strictly regular;  rank 1: x != 0 is strictly regular
    (A# = beta B, B# = alpha A, AB = BA = alpha beta 1);  rank 0: x = 0.
    Thresholds scale with ||x||^degree so the verdict is invariant under
    rescaling; rank_margins defines them.
    """
    return rank_margins(x, tol)[0]


def rank_margins(
    x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL
) -> tuple[int, list[float]]:
    """Rank plus the ratios quantity/threshold for each test actually made.

    The tests run in order, each only when the previous ratio is at most 1,
    and stop at the first ratio above 1:

    1. |q(x)| against tol ||x||^4 (rank 4);
    2. ||T(x,x,x)|| against tol ||x||^3 (rank 3);
    3. the largest absolute entry of the four rank-one residuals
       A# - beta B, B# - alpha A, AB - alpha beta 1 and BA - alpha beta 1
       against tol ||x||^2 (rank 2).  The products are 3x3 matrix products
       of A and B read in M_3(C) through the embedding of their algebra.

    Each quantity is homogeneous of the threshold's degree, so it is
    evaluated on x / ||x|| against tol itself, after an exact division by
    a power of two (``_binary_scaled``) so that ||x|| cannot under- or
    overflow.  One set of Jordan pieces of x / ||x|| (t, the sharps and
    the norms) feeds all three.  Ratios within a factor of 10 of 1
    indicate a numerically degenerate verdict; callers may escalate those
    to warnings.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    vec = _binary_scaled(x.coefficients())
    nx = np.linalg.norm(vec)
    if nx == 0.0:
        return 0, []
    kind = x.kind
    pieces = _pieces(kind, vec / nx)
    ratios = [float(abs(_quartic(kind, pieces))) / tol]
    if ratios[-1] > 1.0:
        return 4, ratios
    ratios.append(float(np.linalg.norm(_cubic(kind, pieces))) / tol)
    if ratios[-1] > 1.0:
        return 3, ratios
    scalars, pair, _, sharps, _ = pieces
    mats = (pair @ _J3_COORDS[kind]).reshape(2, 3, 3)  # (A, B) in M_3(C)
    products = mats @ mats[::-1] - scalars[0] * scalars[1] * np.eye(3)  # AB, BA
    sharp_residual = sharps - scalars[::-1, None] * pair[::-1]  # A# - beta B, ...
    residual = max(np.abs(products).max(), np.abs(sharp_residual).max())
    ratios.append(float(residual) / tol)
    return (2 if ratios[-1] > 1.0 else 1), ratios
