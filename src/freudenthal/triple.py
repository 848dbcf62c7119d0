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

Everything here is immutable and pure; only the coordinate basis of each
system is cached per process.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .jordan import (
    AlgebraKind,
    JordanElement,
    KindMismatch,
    _cross_vec,
    _norm_vec,
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
    """Element (alpha, beta, A, B) of M(J); A and B share one algebra."""

    alpha: complex
    beta: complex
    a: JordanElement
    b: JordanElement

    def __post_init__(self) -> None:
        if self.a.kind is not self.b.kind:
            raise KindMismatch("both Jordan slots must use the same algebra")
        alpha, beta = complex(self.alpha), complex(self.beta)
        if not (
            np.isfinite(alpha.real)
            and np.isfinite(alpha.imag)
            and np.isfinite(beta.real)
            and np.isfinite(beta.imag)
        ):
            raise ValueError("non-finite scalar slot")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def kind(self) -> AlgebraKind:
        return self.a.kind

    @property
    def dimension(self) -> int:
        return 2 + 2 * self.kind.dimension

    def coefficients(self) -> np.ndarray:
        """Flat coordinates (alpha, beta, A-coefficients, B-coefficients)."""
        return np.concatenate(
            ([self.alpha, self.beta], self.a.coeffs, self.b.coeffs)
        )

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
        return FreudenthalVector(
            self.alpha + other.alpha,
            self.beta + other.beta,
            self.a + other.a,
            self.b + other.b,
        )

    def __sub__(self, other: "FreudenthalVector") -> "FreudenthalVector":
        self._require(other)
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FreudenthalVector":
        s = complex(scalar)
        return FreudenthalVector(s * self.alpha, s * self.beta, s * self.a, s * self.b)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (
            f"FreudenthalVector({self.kind.value}, alpha={self.alpha!r}, "
            f"beta={self.beta!r}, a={self.a.parts!r}, b={self.b.parts!r})"
        )


def fvector(kind: AlgebraKind, coeffs) -> FreudenthalVector:
    """Rebuild a vector from flat coordinates (inverse of coefficients())."""
    vec = np.asarray(coeffs, dtype=complex).reshape(-1)
    d = kind.dimension
    if vec.shape != (2 + 2 * d,):
        raise ValueError(f"expected {2 + 2 * d} coordinates for {kind.value}")
    return FreudenthalVector(
        vec[0],
        vec[1],
        JordanElement(kind, vec[2 : 2 + d]),
        JordanElement(kind, vec[2 + d :]),
    )


def zero_vector(kind: AlgebraKind) -> FreudenthalVector:
    return FreudenthalVector(0.0, 0.0, zero(kind), zero(kind))


@functools.lru_cache(maxsize=None)
def triple_basis(kind: AlgebraKind) -> tuple[FreudenthalVector, ...]:
    """Coordinate basis of M(J), ordered as in coefficients()."""
    dim = 2 + 2 * kind.dimension
    eye = np.eye(dim)
    return tuple(fvector(kind, row) for row in eye)


# -- the three defining forms -------------------------------------------------


def _split(kind: AlgebraKind, vec: np.ndarray):
    """(alpha, beta, A, B) views of a (..., 2 + 2d) stack of coordinates."""
    d = kind.dimension
    return vec[..., 0], vec[..., 1], vec[..., 2 : 2 + d], vec[..., 2 + d :]


def _skew_vec(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xalpha, xbeta, xa, xb = _split(kind, x)
    yalpha, ybeta, ya, yb = _split(kind, y)
    return (
        xalpha * ybeta
        - xbeta * yalpha
        + _trace_vec(kind, xa, yb)
        - _trace_vec(kind, xb, ya)
    )


def skew_form(x: FreudenthalVector, y: FreudenthalVector) -> complex:
    """Nondegenerate symplectic form {x, y}."""
    x._require(y)
    return _skew_vec(x.kind, x.coefficients(), y.coefficients())


def _quartic_from_vec(kind: AlgebraKind, vec: np.ndarray) -> complex:
    alpha, beta, a, b = _split(kind, vec)
    t = _trace_vec(kind, a, b) - alpha * beta
    return (
        2.0 * t * t
        - 8.0 * _trace_vec(kind, _sharp_vec(kind, a), _sharp_vec(kind, b))
        + 8.0 * alpha * _norm_vec(kind, a)
        + 8.0 * beta * _norm_vec(kind, b)
    )


def quartic_form(x: FreudenthalVector) -> complex:
    """q(x); its vanishing pattern drives the rank stratification."""
    return _quartic_from_vec(x.kind, x.coefficients())


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
        total += (-1) ** (4 - len(subset)) * _quartic_from_vec(kind, s)
    return total / 24.0


# -- the cubic T(x) = T(x,x,x) and its polarizations ---------------------------


def _cubic_vec(kind: AlgebraKind, vec: np.ndarray) -> np.ndarray:
    """T(x,x,x) on a (..., 2 + 2d) stack of coordinates, in closed form:

        T(x) = (-t alpha + 2N(B),  t beta - 2N(A),
                t A - 4 B x A# + 2 beta B#,  -t B + 4 A x B# - 2 alpha A#)

    with t = (A,B) - alpha beta.  It is the gradient of q written through
    the skew form, {T(x), w} = q(x,x,x,w) for all w.
    """
    d = kind.dimension
    scalars = vec[..., :2]  # (alpha, beta)
    pair = vec[..., 2:].reshape(*vec.shape[:-1], 2, d)  # (A, B)
    t = _trace_vec(kind, pair[..., 0, :], pair[..., 1, :]) - vec[..., 0] * vec[..., 1]
    sharps = _sharp_vec(kind, pair)  # (A#, B#)
    crosses = _cross_vec(kind, pair[..., ::-1, :], sharps)  # (B x A#, A x B#)
    # The beta and B slots repeat the alpha and A brackets with (alpha, A)
    # and (beta, B) swapped, negated.
    sign = np.array([1.0, -1.0])
    norms = _trace_vec(kind, pair, sharps) / 3.0  # (N(A), N(B)): (x, x#) = 3 N(x)
    head = sign * (2.0 * norms[..., ::-1] - t[..., None] * scalars)
    tail = sign[:, None] * (
        t[..., None, None] * pair
        - 4.0 * crosses
        + 2.0 * scalars[..., ::-1, None] * sharps[..., ::-1, :]
    )
    return np.concatenate((head, tail.reshape(*vec.shape[:-1], 2 * d)), axis=-1)


def triple_product(
    x: FreudenthalVector, y: FreudenthalVector, z: FreudenthalVector
) -> FreudenthalVector:
    """T(x,y,z), the unique vector with {T(x,y,z), w} = q(x,y,z,w) for all w,
    obtained by polarizing the cubic T(x,x,x) over the seven nonempty sums
    of x, y and z."""
    x._require(y)
    x._require(z)
    u, v, w = x.coefficients(), y.coefficients(), z.coefficients()
    t = _cubic_vec(x.kind, np.stack((u + v + w, u + v, u + w, v + w, u, v, w)))
    return fvector(x.kind, (t[0] - t[1] - t[2] - t[3] + t[4] + t[5] + t[6]) / 6.0)


# -- rank stratification ------------------------------------------------------


def rank(x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL) -> int:
    """SLOCC rank in 0..4.

    rank 4: q(x) != 0;  rank 3: q = 0 but T(x,x,x) != 0;  rank 2: both vanish
    but 3 T(x,x,y) - {x,y} x != 0 for some y (linear in y, so a basis scan
    suffices);  rank 1: all vanish but x != 0;  rank 0: x = 0.  Thresholds
    scale with ||x||^degree so the verdict is invariant under rescaling;
    rank_margins defines them.
    """
    return rank_margins(x, tol)[0]


def rank_margins(
    x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL
) -> tuple[int, list[float]]:
    """Rank plus the ratios quantity/threshold for each test actually made.

    The tests run in order and stop at the first ratio above 1:

    1. |q(x)| against tol ||x||^4 (rank 4);
    2. ||T(x,x,x)|| against tol ||x||^3 (rank 3);
    3. max_j ||3 T(x,x,e_j) - {x,e_j} x|| over the coordinate basis e_j,
       against tol ||x||^2 (rank 2; on vectors of rank <= 1 the map
       y -> 3 T(x,x,y) - {x,y} x vanishes identically).

    Each quantity is homogeneous of the threshold's degree, so it is
    evaluated on x / ||x|| against tol itself.  |q| is |{T(x), x}|, and the
    basis columns come from 3 T(x,x,y) = [T(x+y) - T(x-y) - 2 T(y)] / 2,
    exact for a cubic, in one stacked evaluation of T.  Ratios within a
    factor of 10 of 1 indicate a numerically degenerate verdict; callers
    may escalate those to warnings.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    nx = x.norm()
    if nx == 0.0:
        return 0, []
    kind = x.kind
    unit = x.coefficients() / nx
    eye = np.eye(unit.shape[0])
    cubic = _cubic_vec(kind, np.vstack((unit, unit + eye, unit - eye, eye)))
    t_x = cubic[0]
    t_plus, t_minus, t_e = cubic[1:].reshape(3, *eye.shape)
    skew_row = _skew_vec(kind, unit, eye)  # {x, e_j}
    pencil = 0.5 * (t_plus - t_minus) - t_e - np.outer(skew_row, unit)
    quantities = (
        abs(t_x @ skew_row),  # |{x, T(x)}|
        np.linalg.norm(t_x),
        np.max(np.linalg.norm(pencil, axis=1)),
    )
    ratios: list[float] = []
    for r, quantity in zip((4, 3, 2), quantities):
        ratios.append(float(quantity) / tol)
        if ratios[-1] > 1.0:
            return r, ratios
    return 1, ratios
