from __future__ import annotations

import functools
import importlib.resources
import itertools
import math

import numpy as np
import pytest

from freudenthal.classify import (
    SYSTEM_TABLE,
    random_group_element,
    slocc_act,
)
from freudenthal.jordan import (
    AlgebraKind,
    JordanElement,
    KindMismatch,
    _J3_COORDS,
    _SHARP_TERMS,
    _sharp_vec,
    _trace_vec,
    close,
    identity,
    j3,
    norm,
    sharp,
    zero,
)
from freudenthal.representatives import all_representatives
from freudenthal.statefile import load_state_file
from freudenthal.triple import (
    DEFAULT_RANK_TOL,
    FreudenthalVector,
    _evaluate,
    _tables,
    fvector,
    quartic_form,
    quartic_form_linearized,
    quartic_tangle,
    rank,
    rank_margins,
    skew_form,
    triple_basis,
    triple_product,
    zero_vector,
)
from conftest import random_complex

ALL_KINDS = list(AlgebraKind)
S2 = 2**-0.5
S3 = 3**-0.5


def random_vector(kind: AlgebraKind, rng) -> FreudenthalVector:
    return fvector(kind, random_complex(rng, 2 + 2 * kind.dimension))


def ghz_vector(kind: AlgebraKind) -> FreudenthalVector:
    return FreudenthalVector(S2, S2, zero(kind), zero(kind))


def w_vector(kind: AlgebraKind) -> FreudenthalVector:
    return FreudenthalVector(0.0, 0.0, zero(kind), S3 * identity(kind))


def sep_vector(kind: AlgebraKind) -> FreudenthalVector:
    return FreudenthalVector(1.0, 0.0, zero(kind), zero(kind))


class TestSkewForm:
    def test_frozen_values(self):
        kind = AlgebraKind.J3
        x = FreudenthalVector(1.0, 0.0, zero(kind), zero(kind))
        y = FreudenthalVector(0.0, 1.0, zero(kind), zero(kind))
        assert skew_form(x, y) == 1.0
        assert skew_form(y, x) == -1.0
        u = FreudenthalVector(0.0, 0.0, j3(np.eye(3)), zero(kind))
        v = FreudenthalVector(0.0, 0.0, zero(kind), j3(np.eye(3)))
        assert skew_form(u, v) == 3.0

    def test_antisymmetry_and_bilinearity(self, rng):
        for kind in ALL_KINDS:
            x, y, z = (random_vector(kind, rng) for _ in range(3))
            assert close(skew_form(x, y), -skew_form(y, x))
            lam = 1.3 - 0.4j
            assert close(
                skew_form(x + lam * z, y),
                skew_form(x, y) + lam * skew_form(z, y),
                1e-8,
            )

    def test_nondegenerate(self):
        for kind in ALL_KINDS:
            bas = triple_basis(kind)
            gram = np.array([[skew_form(a, b) for b in bas] for a in bas])
            assert abs(np.linalg.det(gram)) > 0.5


class TestQuarticForm:
    def test_ghz_frozen(self):
        for kind in ALL_KINDS:
            assert close(quartic_form(ghz_vector(kind)), 0.5)
            assert close(quartic_tangle(ghz_vector(kind)), 1.0)

    def test_w_vanishes(self):
        for kind in ALL_KINDS:
            assert abs(quartic_form(w_vector(kind))) < 1e-12

    def test_zero(self):
        assert quartic_form(zero_vector(AlgebraKind.J3)) == 0

    def test_homogeneity(self, rng):
        for kind in ALL_KINDS:
            x = random_vector(kind, rng)
            lam = 0.8 + 0.5j
            assert close(quartic_form(lam * x), lam**4 * quartic_form(x), 1e-8)

    def test_tangle_is_twice_q(self, rng):
        # two independently transcribed normalizations of the same quartic
        for kind in ALL_KINDS:
            for _ in range(20):
                x = random_vector(kind, rng)
                assert close(quartic_tangle(x), 2.0 * quartic_form(x), 1e-9)

    def test_value_preserved_by_embedding(self, rng):
        for kind in ALL_KINDS[:-1]:
            x = random_vector(kind, rng)
            assert close(quartic_form(x), quartic_form(x.embed()), 1e-8)
            assert close(quartic_tangle(x), quartic_tangle(x.embed()), 1e-8)


class TestPolarization:
    def test_diagonal_recovers_quartic(self, rng):
        for kind in ALL_KINDS:
            x = random_vector(kind, rng)
            assert close(
                quartic_form_linearized(x, x, x, x), quartic_form(x), 1e-8
            )

    def test_symmetry(self, rng):
        kind = AlgebraKind.J12
        args = [random_vector(kind, rng) for _ in range(4)]
        ref = quartic_form_linearized(*args)
        for perm in itertools.permutations(args):
            assert close(quartic_form_linearized(*perm), ref, 1e-8)

    def test_multilinearity(self, rng):
        kind = AlgebraKind.J11
        x, y, z, w, u = (random_vector(kind, rng) for _ in range(5))
        lam = 0.3 - 1.1j
        lhs = quartic_form_linearized(x + lam * u, y, z, w)
        rhs = quartic_form_linearized(x, y, z, w) + lam * quartic_form_linearized(
            u, y, z, w
        )
        assert close(lhs, rhs, 1e-8)

    def test_zero_argument(self, rng):
        kind = AlgebraKind.J3
        x, y, z = (random_vector(kind, rng) for _ in range(3))
        scale = max(1.0, abs(quartic_form(x + y + z)))
        assert abs(quartic_form_linearized(x, y, z, zero_vector(kind))) <= 1e-10 * scale


class TestTripleProduct:
    def test_defining_property(self, rng):
        # {T(x,y,z), w} = q(x,y,z,w) checked against the independent
        # 15-subset polarization for every basis w
        for kind in ALL_KINDS:
            x, y, z = (random_vector(kind, rng) for _ in range(3))
            t = triple_product(x, y, z)
            for w in triple_basis(kind):
                assert close(
                    skew_form(t, w), quartic_form_linearized(x, y, z, w), 1e-7
                )

    def test_symmetric_in_arguments(self, rng):
        kind = AlgebraKind.J3
        x, y, z = (random_vector(kind, rng) for _ in range(3))
        ref = triple_product(x, y, z).coefficients()
        for perm in itertools.permutations((x, y, z)):
            got = triple_product(*perm).coefficients()
            assert np.max(np.abs(got - ref)) <= 1e-8 * max(
                1.0, np.max(np.abs(ref))
            )

    def test_homogeneous_at_extreme_scales(self, rng):
        # At large norms the quadratic parts of a vector dwarf the linear
        # ones; the cubic must stay accurate to rounding there too.
        for kind in ALL_KINDS:
            x, y, z = (random_vector(kind, rng) for _ in range(3))
            ref = triple_product(x, y, z).coefficients()
            for lam in (1e-7, 1e8):
                got = triple_product(lam * x, lam * y, lam * z).coefficients()
                err = np.max(np.abs(got / lam**3 - ref))
                assert err <= 1e-12 * np.max(np.abs(ref))

    def test_separable_representative_annihilated(self):
        for kind in ALL_KINDS:
            t = triple_product(sep_vector(kind), sep_vector(kind), sep_vector(kind))
            assert t.norm() == 0.0

    def test_w_not_annihilated(self):
        for kind in ALL_KINDS:
            x = w_vector(kind)
            assert triple_product(x, x, x).norm() > 0.05


class TestRank:
    def test_frozen_stratification(self):
        z3 = zero(AlgebraKind.J3)
        b1 = FreudenthalVector(S2, 0.0, j3(S2 * np.diag([1, 0, 0])), z3)
        sep_a = FreudenthalVector(0.0, 0.0, j3(np.diag([1, 0, 0])), z3)
        assert rank(zero_vector(AlgebraKind.J3)) == 0
        assert rank(ghz_vector(AlgebraKind.J3)) == 4
        assert rank(w_vector(AlgebraKind.J3)) == 3
        assert rank(b1) == 2
        assert rank(sep_vector(AlgebraKind.J3)) == 1
        assert rank(sep_a) == 1

    def test_all_kinds(self):
        for kind in ALL_KINDS:
            assert rank(ghz_vector(kind)) == 4
            assert rank(w_vector(kind)) == 3
            assert rank(sep_vector(kind)) == 1

    def test_scale_invariance(self):
        for lam in (1e-7, 1e-3, 1.0, 1e4, 1e8):
            assert rank(lam * ghz_vector(AlgebraKind.J3)) == 4
            assert rank(lam * sep_vector(AlgebraKind.J3)) == 1

    def test_rank_preserved_by_embedding(self, rng):
        for kind in ALL_KINDS[:-1]:
            for x in (
                ghz_vector(kind),
                w_vector(kind),
                sep_vector(kind),
                random_vector(kind, rng),
            ):
                assert rank(x) == rank(x.embed())

    def test_generic_vectors_rank4(self, rng):
        hits = sum(
            rank(random_vector(AlgebraKind.J3, rng)) == 4 for _ in range(200)
        )
        assert hits == 200

    def test_margins(self):
        r, ratios = rank_margins(ghz_vector(AlgebraKind.J3))
        assert r == 4 and ratios[0] > 10.0
        assert rank_margins(zero_vector(AlgebraKind.J1)) == (0, [])

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            rank(ghz_vector(AlgebraKind.J1), tol=0.0)
        with pytest.raises(ValueError):
            rank(ghz_vector(AlgebraKind.J1), tol=-1.0)


# -- reference: the closed forms evaluated from Jordan pieces -------------------
# The package evaluates q, T(x) and the rank-one residuals from monomial
# tables; these are the structured evaluations the tables were expanded from.


def _cross_vec(kind: AlgebraKind, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product u x v = [(u+v)# - u# - v#] / 2, formed term by term so
    that arguments of very different size lose no accuracy."""
    left, right, sign = _SHARP_TERMS[kind]
    terms = u.take(left, axis=-1) * v.take(right, axis=-1)
    terms += v.take(left, axis=-1) * u.take(right, axis=-1)
    return 0.5 * (sign * terms).sum(-1)


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


def _cubic(kind: AlgebraKind, pieces) -> np.ndarray:
    """T(x,x,x) = (-t alpha + 2N(B),  t beta - 2N(A),
                   t A - 4 B x A# + 2 beta B#,  -t B + 4 A x B# - 2 alpha A#)."""
    scalars, pair, t, sharps, norms = pieces
    crosses = _cross_vec(kind, pair[..., ::-1, :], sharps)  # (B x A#, A x B#)
    sign = np.array([1.0, -1.0])
    head = sign * (2.0 * norms[..., ::-1] - t[..., None] * scalars)
    tail = sign[:, None] * (
        t[..., None, None] * pair
        - 4.0 * crosses
        + 2.0 * scalars[..., ::-1, None] * sharps[..., ::-1, :]
    )
    return np.concatenate((head, tail.reshape(*pair.shape[:-2], -1)), axis=-1)


def _structured_rank_margins(x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL):
    """rank_margins with every quantity evaluated from one set of pieces of
    x / ||x||, the products as 3x3 matrix products."""
    vec = x.coefficients()
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


def _skew_vec(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = kind.dimension
    return (
        x[..., 0] * y[..., 1]
        - x[..., 1] * y[..., 0]
        + _trace_vec(kind, x[..., 2 : 2 + d], y[..., 2 + d :])
        - _trace_vec(kind, x[..., 2 + d :], y[..., 2 : 2 + d])
    )


def _pencil_rank_margins(x: FreudenthalVector, tol: float = DEFAULT_RANK_TOL):
    """The rank test as it was before the closed form: ratio 3 is the largest
    column norm max_j ||3 T(x,x,e_j) - {x,e_j} x|| of the pencil on x/||x||,
    from one stacked cubic over x, x + e_j, x - e_j and e_j (61 vectors
    for J3)."""
    nx = x.norm()
    if nx == 0.0:
        return 0, []
    kind = x.kind
    unit = x.coefficients() / nx
    eye = np.eye(unit.shape[0])
    stack = np.vstack((unit, unit + eye, unit - eye, eye))
    cubic = _cubic(kind, _pieces(kind, stack))
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


def _structured_j3(rng) -> list[FreudenthalVector]:
    """A and B of every matrix rank 0..3 with alpha and beta zero or not;
    strictly regular vectors with beta != 0 (B = A#/beta) and with beta = 0
    (A# = 0, B# = alpha A, AB = BA = 0) in a random basis; and rank-one A
    and B with (A,B) = 0 and AB = 0 but BA != 0, or the other way round,
    whose only nonzero rank-one residual is one of the products."""

    def c():
        return complex(rng.normal(), rng.normal())

    def of_rank(r):
        u = rng.normal(size=(3, r)) + 1j * rng.normal(size=(3, r))
        v = rng.normal(size=(r, 3)) + 1j * rng.normal(size=(r, 3))
        return j3(u @ v)

    out = []
    for ra, rb in itertools.product(range(4), repeat=2):
        for alpha, beta in itertools.product((0.0, c()), (0.0, c())):
            out.append(FreudenthalVector(alpha, beta, of_rank(ra), of_rank(rb)))
    for ra in range(4):
        a, beta = of_rank(ra), c()
        out.append(FreudenthalVector(norm(a) / beta**2, beta, a, (1 / beta) * sharp(a)))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = j3(g @ np.diag([c(), c(), 0.0]) @ np.linalg.inv(g))
        alpha = c()
        out.append(FreudenthalVector(alpha, 0.0, (1 / alpha) * sharp(b), b))
        u1, v1, u2, v2 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        v1 -= (v1 @ u2) / (u2 @ u2) * u2  # A B = u1 (v1 . u2) v2^T = 0
        a, b = j3(np.outer(u1, v1)), j3(np.outer(u2, v2))
        out += [FreudenthalVector(0.0, 0.0, a, b), FreudenthalVector(0.0, 0.0, b, a)]
    return out


def _structured_kind(kind: AlgebraKind, rng) -> list[FreudenthalVector]:
    """Random A and B with coordinates zeroed by pattern, alpha and beta zero
    or not, and the strictly regular (N(A)/beta^2, beta, A, A#/beta)."""
    d = kind.dimension
    out = [ghz_vector(kind), w_vector(kind), sep_vector(kind)]
    for mask_a, mask_b in itertools.product(range(1, 2 ** min(d, 3)), repeat=2):
        a, b = (
            JordanElement(
                kind,
                [
                    complex(rng.normal(), rng.normal()) * ((mask >> (i % 3)) & 1)
                    for i in range(d)
                ],
            )
            for mask in (mask_a, mask_b)
        )
        beta = complex(rng.normal(), rng.normal())
        out.append(FreudenthalVector(0.0, beta, a, b))
        out.append(FreudenthalVector(norm(a) / beta**2, beta, a, (1 / beta) * sharp(a)))
        out.append(FreudenthalVector(1.0, 0.0, a, zero(kind)))
    return out


@functools.lru_cache(maxsize=None)
def _parity_inputs() -> tuple[FreudenthalVector, ...]:
    rng = np.random.default_rng(61)
    inputs = []
    corpus = importlib.resources.files("freudenthal") / "corpus"
    for path in sorted(corpus.iterdir()):
        sf = load_state_file(str(path))
        spec = SYSTEM_TABLE[sf.system]
        if spec.has_image(sf.state):
            inputs.append(spec.freudenthal(sf.state))
    for rep in all_representatives():
        for seed in range(3):
            g = random_group_element(rep.system, seed)
            spec = SYSTEM_TABLE[rep.system]
            inputs.append(spec.freudenthal(slocc_act(rep.state, g)))
    for _ in range(3):
        inputs += _structured_j3(rng)
    for kind in ALL_KINDS:
        inputs += _structured_kind(kind, rng)
        inputs += [random_vector(kind, rng) for _ in range(10)]
    return tuple(lam * x for x in inputs for lam in (1.0, 1e-7, 1e-3, 1e4, 1e8))


class TestClosedFormRankParity:
    def test_matches_pencil_rank_test(self):
        ranks = {r: 0 for r in range(5)}
        for x in _parity_inputs():
            r, ratios = rank_margins(x)
            ref, ref_ratios = _pencil_rank_margins(x)
            assert r == ref, (x, ratios, ref_ratios)
            # q and T(x) are the same quantities; only ratio 3 is redefined
            for got, want in zip(ratios[:2], ref_ratios[:2]):
                assert abs(got - want) * DEFAULT_RANK_TOL <= 1e-13
            ranks[r] += 1
        assert min(ranks[r] for r in range(1, 5)) >= 100, ranks

    def test_rank_one_margin_is_largest_residual(self):
        # x = (0.6, 0, diag(0, 0.8, 0), 0) is a unit vector with q = 0 and
        # T(x) = 0; of its residuals only B# - alpha A = -alpha A is nonzero.
        alpha = 0.6
        x = FreudenthalVector(
            alpha, 0.0, j3(np.diag([0.0, 0.8, 0.0])), zero(AlgebraKind.J3)
        )
        r, ratios = rank_margins(x)
        assert r == 2 and ratios[:2] == [0.0, 0.0]
        assert ratios[2] == pytest.approx(alpha * 0.8 / DEFAULT_RANK_TOL)


def _structured_triple_product(x, y, z) -> np.ndarray:
    u, v, w = x.coefficients(), y.coefficients(), z.coefficients()
    stack = np.stack((u + v + w, u + v, u + w, v + w, u, v, w))
    t = _cubic(x.kind, _pieces(x.kind, stack))
    return (t[0] - t[1] - t[2] - t[3] + t[4] + t[5] + t[6]) / 6.0


def _structured_linearized(*vectors) -> complex:
    total = 0.0
    for r in range(1, 5):
        for subset in itertools.combinations(vectors, r):
            s = sum(v.coefficients() for v in subset)
            total += (-1) ** (4 - r) * _quartic(subset[0].kind, _pieces(subset[0].kind, s))
    return total / 24.0


class TestMonomialTables:
    """The tables against the structured evaluations above."""

    def test_rank_test_matches_structured(self):
        for x in _parity_inputs():
            r, ratios = rank_margins(x)
            ref, ref_ratios = _structured_rank_margins(x)
            assert r == ref, (x, ratios, ref_ratios)
            assert len(ratios) == len(ref_ratios)
            for got, want in zip(ratios, ref_ratios):
                assert abs(got - want) * DEFAULT_RANK_TOL <= 1e-13

    def test_quartic_and_cubic_match_structured(self):
        # compared where the rank test finds them nonzero: |q| > tol ||x||^4,
        # ||T(x)|| > tol ||x||^3
        compared = 0
        for x in _parity_inputs():
            kind, vec = x.kind, x.coefficients()
            pieces = _pieces(kind, vec)
            nx = np.linalg.norm(vec)
            want_q, got_q = _quartic(kind, pieces), quartic_form(x)
            if abs(want_q) > DEFAULT_RANK_TOL * nx**4:
                assert abs(got_q - want_q) <= 1e-12 * abs(want_q)
                compared += 1
            want_t = _cubic(kind, pieces)
            got_t = _evaluate(_tables(kind)[1], vec)
            if np.linalg.norm(want_t) > DEFAULT_RANK_TOL * nx**3:
                assert np.linalg.norm(got_t - want_t) <= 1e-12 * np.linalg.norm(want_t)
        assert compared >= 1000

    def test_each_monomial_once(self):
        for kind in ALL_KINDS:
            for table in _tables(kind):
                monomials = np.sort(table.index, axis=0).T
                assert len(np.unique(monomials, axis=0)) == len(monomials)
                assert (table.coef.reshape(len(monomials), -1) != 0).any(axis=1).all()
        sizes = {kind: [t.index.shape[1] for t in _tables(kind)] for kind in ALL_KINDS}
        assert sizes[AlgebraKind.J3] == [85, 320, 100]
        assert sizes[AlgebraKind.J12] == [27, 96, 36]

    def test_polarizations_match_structured(self, rng):
        for kind in ALL_KINDS:
            for _ in range(5):
                x, y, z, w = (random_vector(kind, rng) for _ in range(4))
                want = _structured_triple_product(x, y, z)
                got = triple_product(x, y, z).coefficients()
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                want_q = _structured_linearized(x, y, z, w)
                assert abs(quartic_form_linearized(x, y, z, w) - want_q) <= 1e-12 * abs(want_q)


class TestExactRescale:
    def test_same_bits_in_range(self, rng):
        for kind in ALL_KINDS:
            x = random_vector(kind, rng)
            for lam in (1e-60, 1.0, 1e60):
                vec = (lam * x).coefficients()
                table = _tables(kind)[0]
                assert quartic_form(lam * x) == _evaluate(table, vec)
                assert (lam * x).norm() == np.linalg.norm(vec)

    def test_past_the_float_range(self):
        for kind in ALL_KINDS:
            ghz, w = ghz_vector(kind), w_vector(kind)
            assert quartic_form(1e100 * ghz) == complex(math.inf, 0.0)
            assert quartic_tangle(1e300 * ghz).real == math.inf
            assert quartic_form(1e-100 * ghz) == 0.0
            for lam in (1e-170, 1e160, 1e300):
                assert quartic_form(lam * w) == 0.0
            assert (1e300 * w).norm() == pytest.approx(1e300 * w.norm())
            assert (1e200 * ghz).norm() == pytest.approx(1e200)


class TestValidation:
    def test_kind_mismatch(self):
        x = ghz_vector(AlgebraKind.J1)
        y = ghz_vector(AlgebraKind.J3)
        with pytest.raises(KindMismatch):
            skew_form(x, y)
        with pytest.raises(KindMismatch):
            FreudenthalVector(0.0, 0.0, zero(AlgebraKind.J1), zero(AlgebraKind.J3))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            FreudenthalVector(
                float("inf"), 0.0, zero(AlgebraKind.J1), zero(AlgebraKind.J1)
            )

    def test_fvector_roundtrip(self, rng):
        for kind in ALL_KINDS:
            x = random_vector(kind, rng)
            y = fvector(kind, x.coefficients())
            assert np.array_equal(x.coefficients(), y.coefficients())
