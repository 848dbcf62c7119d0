"""Cubic Jordan algebras underlying the Freudenthal construction.

Five algebras over C are supported: C itself, C^2, C^3, C + M_2(C) and
M_3(C).  Each carries a cubic norm N, a quadratic sharp map x -> x# and a
trace bilinear form (x, y).  The sharp map and the trace form can also be
recovered from N alone via the Springer construction

    (x, y)_c = 9 N(c,c,x) N(c,c,y) - 6 N(x,y,c),      (x#, y)_c = 3 N(x,x,y),

valid for any basepoint c with N(c) = 1; with the canonical basepoint (the
algebra identity) this reproduces the explicit forms.  The four smaller
algebras embed into M_3(C) as scalar, doubled-diagonal, diagonal and
block-diagonal matrices, and all three structure maps commute with the
embeddings.

Elements are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraKind",
    "JordanElement",
    "KindMismatch",
    "j1",
    "j11",
    "j111",
    "j12",
    "j3",
    "zero",
    "identity",
    "basis",
    "norm",
    "sharp",
    "trace_form",
    "norm_linearized",
    "springer_trace_form",
    "springer_sharp",
    "embed_step",
    "embed_in_j3",
    "close",
]

DEFAULT_TOL = 1e-9


class KindMismatch(ValueError):
    """Raised when a binary operation mixes elements of different algebras."""


class AlgebraKind(enum.Enum):
    """The five cubic Jordan algebras, ordered along the subalgebra chain."""

    J1 = "J1"
    J11 = "J1+1"
    J111 = "J1+1+1"
    J12 = "J1+2"
    J3 = "J3"

    @property
    def dimension(self) -> int:
        return _DIMENSION[self]


_DIMENSION = {
    AlgebraKind.J1: 1,
    AlgebraKind.J11: 2,
    AlgebraKind.J111: 3,
    AlgebraKind.J12: 5,
    AlgebraKind.J3: 9,
}

# Coefficient layout: J1 -> (a,); J11 -> (a, b); J111 -> (a, b, c);
# J12 -> (a, m00, m01, m10, m11); J3 -> row-major 3x3.


def close(a: complex, b: complex, tol: float = DEFAULT_TOL) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True, eq=False)
class JordanElement:
    """Immutable element of one of the five algebras, stored as a flat
    complex coefficient vector over the canonical basis."""

    kind: AlgebraKind
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.coeffs, dtype=complex).reshape(-1).copy()
        if vec.shape != (self.kind.dimension,):
            raise ValueError(
                f"{self.kind.value} element needs {self.kind.dimension} "
                f"coefficients, got {vec.shape[0]}"
            )
        if not np.all(np.isfinite(vec.view(np.float64))):
            raise ValueError("non-finite coefficient")
        vec.flags.writeable = False
        object.__setattr__(self, "coeffs", vec)

    @classmethod
    def _trusted(cls, kind: AlgebraKind, coeffs: np.ndarray) -> "JordanElement":
        """``coeffs`` unchecked and uncopied: read-only, finite, complex."""
        out = object.__new__(cls)
        vars(out).update(kind=kind, coeffs=coeffs)
        return out

    # -- structural views ------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 matrix payload (M_3(C) elements only)."""
        if self.kind is not AlgebraKind.J3:
            raise KindMismatch(f"matrix view undefined for {self.kind.value}")
        return self.coeffs.reshape(3, 3)

    @property
    def parts(self):
        """Natural payload: scalar, tuple, (scalar, 2x2) pair, or 3x3."""
        v = self.coeffs
        if self.kind is AlgebraKind.J1:
            return v[0]
        if self.kind is AlgebraKind.J12:
            return v[0], v[1:].reshape(2, 2)
        if self.kind is AlgebraKind.J3:
            return v.reshape(3, 3)
        return tuple(v)

    # -- linear structure --------------------------------------------------

    def _require(self, other: "JordanElement") -> None:
        if not isinstance(other, JordanElement) or other.kind is not self.kind:
            raise KindMismatch("elements belong to different algebras")

    def __add__(self, other: "JordanElement") -> "JordanElement":
        self._require(other)
        return JordanElement(self.kind, self.coeffs + other.coeffs)

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        self._require(other)
        return JordanElement(self.kind, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "JordanElement":
        return JordanElement(self.kind, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "JordanElement":
        return JordanElement(self.kind, -self.coeffs)

    def __repr__(self) -> str:
        return f"JordanElement({self.kind.value}, {self.parts!r})"


# -- constructors ----------------------------------------------------------


def j1(a: complex) -> JordanElement:
    return JordanElement(AlgebraKind.J1, np.array([a], dtype=complex))


def j11(a: complex, b: complex) -> JordanElement:
    return JordanElement(AlgebraKind.J11, np.array([a, b], dtype=complex))


def j111(a: complex, b: complex, c: complex) -> JordanElement:
    return JordanElement(AlgebraKind.J111, np.array([a, b, c], dtype=complex))


def j12(a: complex, m) -> JordanElement:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("second slot must be a 2x2 matrix")
    return JordanElement(AlgebraKind.J12, np.concatenate(([a], m.reshape(-1))))


def j3(m) -> JordanElement:
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return JordanElement(AlgebraKind.J3, m.reshape(-1))


def zero(kind: AlgebraKind) -> JordanElement:
    return JordanElement(kind, np.zeros(kind.dimension, dtype=complex))


def identity(kind: AlgebraKind) -> JordanElement:
    """The algebra identity: the canonical basepoint with N = 1."""
    if kind is AlgebraKind.J12:
        return j12(1.0, np.eye(2))
    if kind is AlgebraKind.J3:
        return j3(np.eye(3))
    return JordanElement(kind, np.ones(kind.dimension, dtype=complex))


@functools.lru_cache(maxsize=None)
def basis(kind: AlgebraKind) -> tuple[JordanElement, ...]:
    """Canonical coordinate basis (matrix units for the matrix algebras)."""
    eye = np.eye(kind.dimension, dtype=complex)
    return tuple(JordanElement(kind, row) for row in eye)


# -- raw coefficient-vector kernels (shared with the triple-system layer) ---
# Every kernel takes a (..., d) stack of coefficient vectors and maps over
# the leading axes.


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinant of row-major flattened 2x2 matrices."""
    return m[..., 0] * m[..., 3] - m[..., 1] * m[..., 2]


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of row-major flattened 3x3 matrices."""
    return (
        m[..., 0] * (m[..., 4] * m[..., 8] - m[..., 5] * m[..., 7])
        - m[..., 1] * (m[..., 3] * m[..., 8] - m[..., 5] * m[..., 6])
        + m[..., 2] * (m[..., 3] * m[..., 7] - m[..., 4] * m[..., 6])
    )


def _norm_vec(kind: AlgebraKind, v: np.ndarray) -> np.ndarray:
    if kind is AlgebraKind.J1:
        return v[..., 0] ** 3
    if kind is AlgebraKind.J11:
        return v[..., 0] * v[..., 1] ** 2
    if kind is AlgebraKind.J111:
        return v[..., 0] * v[..., 1] * v[..., 2]
    if kind is AlgebraKind.J12:
        return v[..., 0] * _det2(v[..., 1:])
    return _det3(v)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _product_table(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, sign) arrays of shape (d, 2) from per-component lists of
    at most two signed coordinate products (i, j, sign)."""
    padded = [row + [(0, 0, 0)] * (2 - len(row)) for row in rows]
    left, right, sign = np.array(padded, dtype=np.intp).transpose(2, 0, 1)
    return _read_only(left), _read_only(right), _read_only(sign.astype(float))


# Component k of x# is sum_t sign[k,t] x[left[k,t]] x[right[k,t]]: the
# cube's square, (b^2, ab), (bc, ac, ab), (det m, a adj m) and the 3x3
# adjugate, whose entry (i, j) is the cyclic cofactor of m[j, i].
_SHARP_TERMS = {
    AlgebraKind.J1: _product_table([[(0, 0, 1)]]),
    AlgebraKind.J11: _product_table([[(1, 1, 1)], [(0, 1, 1)]]),
    AlgebraKind.J111: _product_table([[(1, 2, 1)], [(0, 2, 1)], [(0, 1, 1)]]),
    AlgebraKind.J12: _product_table(
        [[(1, 4, 1), (2, 3, -1)], [(0, 4, 1)], [(0, 2, -1)], [(0, 3, -1)], [(0, 1, 1)]]
    ),
    AlgebraKind.J3: _product_table(
        [
            [
                (3 * ((j + 1) % 3) + (i + 1) % 3, 3 * ((j + 2) % 3) + (i + 2) % 3, 1),
                (3 * ((j + 1) % 3) + (i + 2) % 3, 3 * ((j + 2) % 3) + (i + 1) % 3, -1),
            ]
            for i in range(3)
            for j in range(3)
        ]
    ),
}


def _cross_vec(kind: AlgebraKind, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product u x v = [(u+v)# - u# - v#] / 2, formed term by term so
    that arguments of very different size lose no accuracy."""
    left, right, sign = _SHARP_TERMS[kind]
    terms = u.take(left, axis=-1) * v.take(right, axis=-1)
    terms += v.take(left, axis=-1) * u.take(right, axis=-1)
    return 0.5 * (sign * terms).sum(-1)


def _sharp_vec(kind: AlgebraKind, v: np.ndarray) -> np.ndarray:
    left, right, sign = _SHARP_TERMS[kind]
    return (sign * v.take(left, axis=-1) * v.take(right, axis=-1)).sum(-1)


# coordinate permutation taking a flattened matrix block to its transpose
_TRANSPOSE = {
    AlgebraKind.J12: _read_only(np.array([0, 1, 3, 2, 4], dtype=np.intp)),
    AlgebraKind.J3: _read_only(np.array([0, 3, 6, 1, 4, 7, 2, 5, 8], dtype=np.intp)),
}


def _trace_vec(kind: AlgebraKind, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if kind is AlgebraKind.J1:
        return 3.0 * u[..., 0] * v[..., 0]
    if kind is AlgebraKind.J11:
        # weight 2 on the doubled coordinate, matching Tr on diag(a, b, b)
        return u[..., 0] * v[..., 0] + 2.0 * u[..., 1] * v[..., 1]
    if kind is AlgebraKind.J111:
        return (u * v).sum(-1)
    return (u.take(_TRANSPOSE[kind], axis=-1) * v).sum(-1)  # [ab +] Tr(UV)


# -- public structure maps ---------------------------------------------------


def norm(x: JordanElement) -> complex:
    """Cubic norm N: cube, a*b^2, product, a*det, det respectively."""
    return _norm_vec(x.kind, x.coeffs)


def sharp(x: JordanElement) -> JordanElement:
    """Quadratic sharp map; for matrices the adjugate, so x x# = N(x) 1."""
    return JordanElement(x.kind, _sharp_vec(x.kind, x.coeffs))


def trace_form(x: JordanElement, y: JordanElement) -> complex:
    """Trace bilinear form; nondegenerate on every supported algebra."""
    x._require(y)
    return _trace_vec(x.kind, x.coeffs, y.coeffs)


def norm_linearized(x: JordanElement, y: JordanElement, z: JordanElement) -> complex:
    """Symmetric trilinear form N(x,y,z) with N(x,x,x) = N(x), obtained by
    polarizing the cubic norm."""
    x._require(y)
    x._require(z)
    return (
        norm(x + y + z)
        - norm(x + y)
        - norm(x + z)
        - norm(y + z)
        + norm(x)
        + norm(y)
        + norm(z)
    ) / 6.0


def _check_basepoint(c: JordanElement, tol: float) -> None:
    if not close(norm(c), 1.0, tol):
        raise ValueError(f"basepoint must satisfy N(c) = 1, got N(c) = {norm(c)}")


def springer_trace_form(
    x: JordanElement, y: JordanElement, c: JordanElement, tol: float = DEFAULT_TOL
) -> complex:
    """Trace form rebuilt from the cubic norm and a basepoint with N(c) = 1:
    (x, y)_c = 9 N(c,c,x) N(c,c,y) - 6 N(x,y,c)."""
    x._require(y)
    x._require(c)
    _check_basepoint(c, tol)
    return 9.0 * norm_linearized(c, c, x) * norm_linearized(c, c, y) - 6.0 * norm_linearized(x, y, c)


@functools.lru_cache(maxsize=64)
def _springer_gram_inv(kind: AlgebraKind, c_bytes: bytes) -> np.ndarray:
    c = JordanElement(kind, np.frombuffer(c_bytes, dtype=complex))
    bas = basis(kind)
    d = kind.dimension
    gram = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            gram[i, j] = gram[j, i] = springer_trace_form(bas[i], bas[j], c)
    det = np.linalg.det(gram)
    scale = max(1.0, float(np.max(np.abs(gram)))) ** d
    if not np.isfinite(det) or abs(det) <= 1e-12 * scale:
        raise ValueError("degenerate trace form for this basepoint")
    return np.linalg.inv(gram)


def springer_sharp(
    x: JordanElement, c: JordanElement, tol: float = DEFAULT_TOL
) -> JordanElement:
    """Sharp map rebuilt from the norm alone: the unique solution of
    (x#, y)_c = 3 N(x,x,y) for all y, solved over the coordinate basis."""
    x._require(c)
    _check_basepoint(c, tol)
    bas = basis(x.kind)
    rhs = np.array([3.0 * norm_linearized(x, x, b) for b in bas])
    gram_inv = _springer_gram_inv(x.kind, c.coeffs.tobytes())
    return JordanElement(x.kind, gram_inv @ rhs)


# -- the subalgebra chain ----------------------------------------------------

_NEXT_KIND = {
    AlgebraKind.J1: AlgebraKind.J11,
    AlgebraKind.J11: AlgebraKind.J111,
    AlgebraKind.J111: AlgebraKind.J12,
    AlgebraKind.J12: AlgebraKind.J3,
}


def embed_step(x: JordanElement) -> JordanElement:
    """One step along the chain C -> C^2 -> C^3 -> C+M_2 -> M_3."""
    k = x.kind
    if k is AlgebraKind.J1:
        a = x.coeffs[0]
        return j11(a, a)
    if k is AlgebraKind.J11:
        a, b = x.coeffs
        return j111(a, b, b)
    if k is AlgebraKind.J111:
        a, b, c = x.coeffs
        return j12(a, np.diag([b, c]))
    if k is AlgebraKind.J12:
        a, m = x.parts
        out = np.zeros((3, 3), dtype=complex)
        out[0, 0] = a
        out[1:, 1:] = m
        return j3(out)
    raise KindMismatch("M_3(C) is the top of the chain")


def embed_in_j3(x: JordanElement) -> JordanElement:
    """Norm-, trace- and sharp-preserving embedding into M_3(C)."""
    while x.kind is not AlgebraKind.J3:
        x = embed_step(x)
    return x


# (d, 9) matrix taking coefficient rows to the row-major M_3(C) coordinates
# of their images under embed_in_j3
_J3_COORDS = {
    kind: _read_only(np.array([embed_in_j3(e).coeffs.real for e in basis(kind)]))
    for kind in AlgebraKind
}
