"""Freudenthal triple systems M(J) = C + C + J + J over a cubic Jordan
algebra J.

The system carries a symplectic form

    {x, y} = alpha delta - beta gamma + (A, D) - (B, C),

a quartic form

    q(x) = 2((A,B) - alpha beta)^2 - 8(A#, B#) + 8 alpha N(A) + 8 beta N(B),

and a triple product T defined implicitly by {T(x,y,z), w} = q(x,y,z,w),
where q(x,y,z,w) is the full polarization of q.  The cubic T(x,x,x) has a
closed form in the Jordan operations (sharp, norm, trace form and the cross
product A x B = [(A+B)# - A# - B#] / 2); the trilinear T(x,y,z) is its
polarization.  A second normalization of the quartic, quartic_tangle = 2 q,
is the one whose absolute value acts as the tripartite entanglement measure
(1 on the canonical GHZ vector).

Vectors stratify into ranks 0..4 by the vanishing pattern of q, T(x,x,x)
and the linear map y -> 3 T(x,x,y) - {x,y} x; the rank is the SLOCC class.
The map vanishes exactly on the strictly regular vectors, A# = beta B,
B# = alpha A and AB = BA = alpha beta 1 in M_3(C) (Krutelevich, J. Algebra
314 (2007); Borsten, Dahanayake, Duff, Ebrahim, Rubens, Phys. Rep. 471
(2009), arXiv:0809.4685), so the rank test checks those instead, and only
after q and T(x,x,x) have both vanished.

q, T(x,x,x) and the rank-one residuals are fixed polynomials of degree 4, 3
and 2 in the coordinates.  Each is expanded once per process from the closed
forms above into a table of its monomials, over M_3(C) and restricted along
the embedding for the smaller algebras, and every evaluation, on one vector
or a stack, is one gather of the monomials' factors, their product and one
contraction with the coefficients.  Quartic values are taken on the
coordinates divided exactly by a power of two and scaled back, so they are
0 or inf at the ends of the float range, never nan.

Everything here is immutable and pure; a vector keeps its flat coordinate
array once built, and the tables and the coordinate basis of each system
are cached per process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .jordan import (
    AlgebraKind,
    JordanElement,
    KindMismatch,
    _J3_COORDS,
    _SHARP_TERMS,
    _TRANSPOSE,
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
        """Euclidean norm of the coordinates, taken on them exactly rescaled
        (inf past the float range)."""
        e = _binary_exponent(self._coeffs)
        return _ldexp(float(np.linalg.norm(self._coeffs / math.ldexp(1.0, e))), e)

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


# -- monomial tables for q, T(x) and the rank-one residuals --------------------
#
# q, T(x,x,x) and the rank-one residuals are fixed polynomials of degree 4, 3
# and 2 in the 2 + 2d coordinates.  Each is kept as a _Table of its m
# monomials and evaluated in one gather-product-contract (_evaluate).  While
# the tables are built, a table is a pair (index, coef) of an (m, degree)
# array of coordinate positions and an (r, m) array of real coefficients,
# and its unmerged terms a triple (rows, index, coef) with one coefficient
# per term.

# Coordinate slots over M_3(C), and the rows of its quadratic pieces
# Q(x) = (t, A#, B#, alpha A[0, :], beta B[0, :]) with t = (A, B) - alpha beta.
_ALPHA, _BETA, _A, _B = 0, 1, 2, 11
_T, _SA, _SB, _AN, _BN = 0, 1, 10, 19, 22


class _Table(NamedTuple):
    """r forms of one degree: sum_m coef[m, s] prod_j v[index[j, m]] is form s
    at the coordinate vector v (coef is one vector when r = 1)."""

    index: np.ndarray  # (degree, m)
    coef: np.ndarray  # (m, r) or (m,), complex


def _evaluate(table: _Table, vec: np.ndarray) -> np.ndarray:
    """The forms of ``table`` at a (..., 2 + 2d) stack of coordinate vectors:
    gather the factors of every monomial, multiply them, contract."""
    factors = vec.take(table.index, axis=-1)  # (..., degree, m)
    terms = factors[..., 0, :]
    for j in range(1, len(table.index)):
        terms = terms * factors[..., j, :]
    return terms @ table.coef


def _merge(rows: np.ndarray, index: np.ndarray, coef: np.ndarray, count: int):
    """The table of ``count`` forms whose terms add coef[t] times the
    monomial index[t] to form rows[t]: each monomial once, those that
    cancel dropped.  A monomial is keyed by its factor counts in base 5
    (degree <= 4), whatever the order of its factors.  The coefficients are
    small integers, so the sums are exact."""
    groups: dict[int, int] = {}
    keys = (5**index).sum(axis=1).tolist()
    group = np.array([groups.setdefault(key, len(groups)) for key in keys])
    size = len(groups)
    summed = np.bincount(group + size * rows, coef, count * size).reshape(count, size)
    first = np.empty(size, dtype=np.intp)
    first[group[::-1]] = np.arange(len(group))[::-1]  # a term of each monomial
    keep = summed.any(axis=0)
    return index[first[keep]], summed[:, keep]


def _bilinear(form: np.ndarray, x, y):
    """The terms of the forms sum_ij form[r, i, j] x_i y_j, for tables x
    (the coordinates when None) and y: one per entry of the form, monomial
    of x_i and monomial of y_j."""
    r, i, j = np.nonzero(form)
    w, first = form[r, i, j], i[:, None]
    if x is not None:
        e, a = np.nonzero(x[1][i])  # entry e meets monomial a of x_i
        r, j, first = r[e], j[e], x[0][a]
        w = w[e] * x[1][i[e], a]
    coef = w[:, None] * y[1][j]  # (entries, m_y)
    n, b = np.nonzero(coef)
    return r[n], np.concatenate((first[n], y[0][b]), axis=1), coef[n, b]


def _quadratic(form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table of the forms sum_ij form[r, i, j] x_i x_j in the
    coordinates, each product x_i x_j once (i <= j)."""
    upper = np.triu(form + form.transpose(0, 2, 1))
    diagonal = np.arange(form.shape[1])
    upper[:, diagonal, diagonal] = form[:, diagonal, diagonal]
    i, j = np.nonzero(upper.any(axis=0))
    return np.stack((i, j), axis=1), upper[:, i, j]


@functools.cache
def _j3_tables():
    """q, T(x) and the 36 rank-one residuals over M_3(C), from the closed forms

        q    = 2 t^2 - 8 (A#, B#) + 8 alpha N(A) + 8 beta N(B),
        T(x) = (-t alpha + 2N(B),  t beta - 2N(A),
                t A - 4 B x A# + 2 beta B#,  -t B + 4 A x B# - 2 alpha A#),
               A# - beta B,  B# - alpha A,  AB - alpha beta 1,  BA - alpha beta 1,

    with t = (A,B) - alpha beta, the sharp of _SHARP_TERMS, the trace form
    (U, V) = Tr(UV), the cross product u x v = [(u+v)# - u# - v#] / 2, and
    N(X) = sum_j X[0, j] X#[j, 0], the corner of X X# = N(X) 1.  T(x) is the
    gradient of q written through the skew form, {T(x), w} = q(x,x,x,w) for
    all w.  With the quadratic pieces
    Q(x) = (t, A#, B#, alpha A[0, :], beta B[0, :]), q is a quadratic form
    in Q(x) and T(x) a bilinear form in x and Q(x)."""
    k = np.arange(9)
    left, right, sign = _SHARP_TERMS[AlgebraKind.J3]
    sharp = np.zeros((9, 9, 9))
    sharp[k[:, None], left, right] = sign
    cross = 0.5 * (sharp + sharp.transpose(0, 2, 1))
    transpose = _TRANSPOSE[AlgebraKind.J3]
    row, column = k[:3], k[::3]  # X[0, j] and X#[j, 0]

    pieces = np.zeros((25, 20, 20))
    pieces[_T, _A + k, _B + transpose] = 1.0
    pieces[_T, _ALPHA, _BETA] = -1.0
    pieces[_SA : _SA + 9, _A : _A + 9, _A : _A + 9] = sharp
    pieces[_SB : _SB + 9, _B : _B + 9, _B : _B + 9] = sharp
    pieces[_AN + row, _ALPHA, _A + row] = 1.0
    pieces[_BN + row, _BETA, _B + row] = 1.0
    quadratics = _quadratic(pieces)

    square = np.zeros((1, 25, 25))
    square[0, _T, _T] = 2.0
    square[0, _SA + k, _SB + transpose] = -8.0
    square[0, _AN + row, _SA + column] = 8.0
    square[0, _BN + row, _SB + column] = 8.0
    quartic = _merge(*_bilinear(square, quadratics, quadratics), 1)

    gradient = np.zeros((20, 20, 25))
    gradient[_ALPHA, _ALPHA, _T] = -1.0
    gradient[_ALPHA, _B + row, _SB + column] = 2.0
    gradient[_BETA, _BETA, _T] = 1.0
    gradient[_BETA, _A + row, _SA + column] = -2.0
    gradient[_A + k, _A + k, _T] = 1.0
    gradient[_A : _A + 9, _B : _B + 9, _SA : _SA + 9] = -4.0 * cross
    gradient[_A + k, _BETA, _SB + k] = 2.0
    gradient[_B + k, _B + k, _T] = -1.0
    gradient[_B : _B + 9, _A : _A + 9, _SB : _SB + 9] = 4.0 * cross
    gradient[_B + k, _ALPHA, _SA + k] = -2.0
    cubic = _merge(*_bilinear(gradient, None, quadratics), 20)

    residuals = np.zeros((36, 20, 20))
    residuals[:18] = pieces[_SA : _SB + 9]
    residuals[k, _BETA, _B + k] = -1.0
    residuals[9 + k, _ALPHA, _A + k] = -1.0
    i, j, l = np.array(list(itertools.product(range(3), repeat=3))).T
    residuals[18 + 3 * i + l, _A + 3 * i + j, _B + 3 * j + l] = 1.0  # (AB)[i, l]
    residuals[27 + 3 * i + l, _B + 3 * i + j, _A + 3 * j + l] = 1.0
    residuals[(18 + 4 * row, 27 + 4 * row), _ALPHA, _BETA] = -1.0
    return quartic, cubic, _quadratic(residuals)


@functools.lru_cache(maxsize=None)
def _tables(kind: AlgebraKind) -> tuple[_Table, _Table, _Table]:
    """The tables of q, T(x) and the rank-one residuals for ``kind``.

    Every algebra reads its tables off those of M_3(C), since sharp, norm
    and trace form commute with embed_in_j3: each M_3(C) slot is replaced
    by the coordinate it carries under the embedding, a monomial through a
    slot the algebra leaves empty vanishes, and T(x) keeps the first slot
    of each coordinate.  The residuals keep all 36 M_3(C) entries; repeated
    ones leave the largest alone."""
    d, embed = kind.dimension, _J3_COORDS[kind]
    carried, slots = np.nonzero(embed)
    source = np.full(20, -1)
    source[[_ALPHA, _BETA]] = 0, 1
    source[_A + slots] = 2 + carried
    source[_B + slots] = 2 + d + carried
    first = embed.argmax(axis=1)
    readers = np.concatenate(([_ALPHA, _BETA], _A + first, _B + first))

    def restrict(index, coef):
        index = source[index]
        keep = (index >= 0).all(axis=1)
        index, coef = index[keep], coef[:, keep]
        if len(slots) > d:  # a coordinate in several slots: monomials repeat
            rows, terms = np.nonzero(coef)
            index, coef = _merge(rows, index[terms], coef[rows, terms], len(coef))
        return index.T.copy(), coef.T.astype(complex)

    quartic, cubic, residual = _j3_tables()
    quartic, residual = restrict(*quartic), restrict(*residual)
    cubic = restrict(cubic[0], cubic[1][readers])
    return _Table(quartic[0], quartic[1][:, 0]), _Table(*cubic), _Table(*residual)


# -- exact rescaling -----------------------------------------------------------


def _binary_exponent(arr: np.ndarray) -> int:
    """The e with the largest real or imaginary part of complex ``arr`` in
    [2^e, 2^(e+1)); -1 for a zero array."""
    peak = float(np.abs(np.ascontiguousarray(arr).view(np.float64)).max())
    return math.frexp(peak)[1] - 1


def _binary_scaled(arr: np.ndarray) -> np.ndarray:
    """Complex ``arr`` divided by the power of two that puts its largest real
    or imaginary part in [1, 2).  The division is exact above the subnormal
    range, and norms and products of the result stay in range at any scale."""
    return arr / math.ldexp(1.0, _binary_exponent(arr))  # a zero array stays zero


def _ldexp(value: float, exp: int) -> float:
    """value * 2^exp, exact in range, +-inf past it."""
    try:
        return math.ldexp(value, exp)
    except OverflowError:
        return math.copysign(math.inf, value)


def _exact_quartic(poly, arr: np.ndarray):
    """``poly(arr)`` for a homogeneous polynomial ``poly`` of degree 4 in the
    complex array ``arr``, real- or complex-valued.  It is evaluated on arr
    divided exactly by 2^e (``_binary_scaled``) and multiplied back by
    2^(4e): the same bits wherever ``poly(arr)`` runs in the normal range,
    0 where the scaled value is 0, +-inf past the float range, never nan."""
    e = _binary_exponent(arr)
    value = poly(arr / math.ldexp(1.0, e))
    if isinstance(value, complex):
        return complex(_ldexp(value.real, 4 * e), _ldexp(value.imag, 4 * e))
    return _ldexp(value, 4 * e)


# -- the quartic and its polarization --------------------------------------------


def quartic_form(x: FreudenthalVector) -> complex:
    """q(x); its vanishing pattern drives the rank stratification."""
    table = _tables(x.kind)[0]
    return _exact_quartic(lambda vec: _evaluate(table, vec), x.coefficients())


def quartic_tangle(x: FreudenthalVector) -> complex:
    """Quartic in the measure normalization 2 q(x),

        4([(A,B) - alpha beta]^2 - 4(A#, B#) + 4 alpha N(A) + 4 beta N(B)),

    whose absolute value is the tripartite tangle (1 on canonical GHZ).
    Both normalizations are kept because classification thresholds use q
    while reports use this one.
    """
    return 2.0 * quartic_form(x)


# The 15 nonempty subsets of the four slots, one 0/1 row each, and the sign
# (-1)^(4 - |S|) of each in the inclusion-exclusion.
_SLOT_SUBSETS = np.array(list(itertools.product((0.0, 1.0), repeat=4))[1:])
_SUBSET_SIGNS = (-1.0) ** (4 - _SLOT_SUBSETS.sum(axis=1))


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
    table = _tables(x.kind)[0]
    vecs = np.stack([v.coefficients() for v in (x, y, z, w)])
    return _exact_quartic(
        lambda v: complex(_SUBSET_SIGNS @ _evaluate(table, _SLOT_SUBSETS @ v)) / 24.0,
        vecs,
    )


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
    t = _evaluate(_tables(x.kind)[1], stack)
    return fvector(x.kind, (t[0] - t[1] - t[2] - t[3] + t[4] + t[5] + t[6]) / 6.0)


# -- rank stratification ------------------------------------------------------


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
    overflow.  Each is a fixed polynomial in the coordinates, expanded once
    per algebra into a monomial table (``_tables``): one gather of the
    factors of every monomial, their product and one contraction with the
    coefficients.  Ratios within a factor of 10 of 1 indicate a numerically
    degenerate verdict; callers may escalate those to warnings.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    vec = _binary_scaled(x.coefficients())
    nx = np.linalg.norm(vec)
    if nx == 0.0:
        return 0, []
    unit = vec / nx
    quartic, cubic, residual = _tables(x.kind)
    ratios = [float(abs(_evaluate(quartic, unit))) / tol]
    if ratios[-1] > 1.0:
        return 4, ratios
    ratios.append(float(np.linalg.norm(_evaluate(cubic, unit))) / tol)
    if ratios[-1] > 1.0:
        return 3, ratios
    ratios.append(float(np.abs(_evaluate(residual, unit)).max()) / tol)
    return (2 if ratios[-1] > 1.0 else 1), ratios
