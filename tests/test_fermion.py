"""Tests for the sparse exterior-algebra layer."""

import importlib.resources
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_fermion_amplitudes
from freudenthal.classify import SYSTEM_TABLE, classify_state
from freudenthal.embed import MultiState, SystemShape, merge_species
from freudenthal.fermion import (
    DEFAULT_TOL,
    MAX_DIMENSION,
    MAX_TABLE_ENTRIES,
    FermionState,
    ShapeError,
    _scan_tables,
    _shuffle_table,
    _witness,
    apply_matrix,
    decomposability_ratio,
    from_freudenthal,
    idempotency_defect,
    is_decomposable,
    one_particle_rdm,
    pluecker_relation,
    pluecker_scan,
    pluecker_violations,
    sort_sign,
    to_freudenthal,
    wedge,
    wedge_of_vectors,
    wedge_power_norm,
)
from freudenthal.statefile import load_state_file
from freudenthal.triple import FreudenthalVector, quartic_form, rank

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def ghz6() -> FermionState:
    return FermionState(3, 6, {(1, 2, 3): 1 / SQRT2, (4, 5, 6): 1 / SQRT2})


def w6() -> FermionState:
    return FermionState.from_terms(
        3,
        6,
        [
            ((2, 3, 4), 1 / SQRT3),
            ((1, 3, 5), -1 / SQRT3),
            ((1, 2, 6), 1 / SQRT3),
        ],
    )


def random_state(k, n, rng, sparsity=None) -> FermionState:
    return FermionState(k, n, random_fermion_amplitudes(k, n, rng))


def pluecker_verdict(P: FermionState, tol: float = DEFAULT_TOL) -> bool:
    """Decomposability by the Plücker relations: all within tol * ||P||^2."""
    return pluecker_scan(P)[0] <= tol * P.norm() ** 2


def random_plane_state(k, n, rng) -> FermionState:
    vecs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    P = wedge_of_vectors(vecs)
    return (1.0 / P.norm()) * P


class TestStateBasics:
    def test_sort_sign(self):
        assert sort_sign((1, 2, 3)) == (1, (1, 2, 3))
        assert sort_sign((2, 1, 3)) == (-1, (1, 2, 3))
        assert sort_sign((3, 1, 2)) == (1, (1, 2, 3))
        assert sort_sign((1, 1, 2))[0] == 0

    def test_signed_lookup(self):
        P = FermionState(3, 6, {(1, 2, 3): 2.0})
        assert P.amplitude((1, 2, 3)) == 2.0
        assert P.amplitude((2, 1, 3)) == -2.0
        assert P.amplitude((3, 1, 2)) == 2.0
        assert P.amplitude((1, 1, 3)) == 0.0
        assert P.amplitude((1, 2, 4)) == 0.0

    def test_from_terms_folds_parity(self):
        P = FermionState.from_terms(2, 4, [((2, 1), 1.0), ((1, 2), 1.0)])
        assert P.is_zero()
        Q = FermionState.from_terms(2, 4, [((3, 1), 0.5), ((1, 3), 0.25)])
        assert Q.amplitude((1, 3)) == pytest.approx(-0.25)

    def test_constructor_rejects_bad_keys(self):
        with pytest.raises(ShapeError):
            FermionState(2, 4, {(2, 1): 1.0})
        with pytest.raises(ShapeError):
            FermionState(2, 4, {(1, 5): 1.0})
        with pytest.raises(ShapeError):
            FermionState(2, 4, {(1, 2, 3): 1.0})
        with pytest.raises(ValueError):
            FermionState(2, 4, {(1, 2): float("nan")})

    def test_immutability(self):
        P = ghz6()
        with pytest.raises(AttributeError):
            P.k = 2
        with pytest.raises(TypeError):
            P.amplitudes[(1, 2, 3)] = 0.0
        # One read-only amplitude array over the C(6, 3) lex-ordered keys.
        assert P._array.shape == (20,)
        with pytest.raises(ValueError):
            P._array[0] = 1.0

    def test_arithmetic(self):
        P, Q = ghz6(), w6()
        R = 2.0 * P - Q
        assert R.amplitude((1, 2, 3)) == pytest.approx(SQRT2)
        assert R.amplitude((2, 3, 4)) == pytest.approx(-1 / SQRT3)
        assert (P - P).is_zero()
        assert P.norm() == pytest.approx(1.0)


class TestWedge:
    def test_basis_product_signs(self):
        e1 = FermionState(1, 4, {(1,): 1.0})
        e2 = FermionState(1, 4, {(2,): 1.0})
        assert wedge(e1, e2).amplitude((1, 2)) == 1.0
        assert wedge(e2, e1).amplitude((1, 2)) == -1.0
        assert wedge(e1, e1).is_zero()

    def test_graded_anticommutativity(self, rng):
        for ku, kv in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            u = random_state(ku, 6, rng)
            v = random_state(kv, 6, rng)
            uv = wedge(u, v)
            vu = wedge(v, u)
            sign = (-1.0) ** (ku * kv)
            for key in uv.amplitudes:
                assert uv.amplitude(key) == pytest.approx(sign * vu.amplitude(key))

    def test_matches_term_by_term_product(self, rng):
        # Every pair of terms, parity folded in by from_terms.
        shapes = [(1, 1, 3), (1, 3, 6), (2, 2, 4), (3, 3, 6), (2, 3, 7), (4, 4, 8)]
        for ku, kv, n in shapes:
            u = random_state(ku, n, rng)
            sparse = list(random_state(kv, n, rng).amplitudes.items())[::3]
            v = FermionState(kv, n, dict(sparse))
            expected = FermionState.from_terms(
                ku + kv,
                n,
                [
                    (a + b, x * y)
                    for a, x in u.amplitudes.items()
                    for b, y in v.amplitudes.items()
                ],
            )
            assert (wedge(u, v) - expected).norm() <= 1e-12 * expected.norm()

    def test_wedge_of_vectors_is_minor_expansion(self, rng):
        vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        P = wedge_of_vectors(vecs)
        for key in itertools.combinations(range(1, 7), 3):
            minor = np.linalg.det(vecs[:, [m - 1 for m in key]])
            assert P.amplitude(key) == pytest.approx(minor)

    def test_wedge_of_vectors_matches_iterated_wedge(self, rng):
        # The maximal minors against the products of one-vectors, one wedge
        # at a time.
        for k, n in [(1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 6), (4, 8), (5, 5)]:
            vecs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            rows = [FermionState(1, n, dict(zip([(m,) for m in range(1, n + 1)], v))) for v in vecs]
            iterated = rows[0]
            for row in rows[1:]:
                iterated = wedge(iterated, row)
            P = wedge_of_vectors(vecs)
            assert P.shape == (k, n)
            assert (P - iterated).norm() <= 1e-12 * iterated.norm(), (k, n)

    def test_wedge_of_vectors_past_the_cap_midway(self, rng):
        # The result, C(20, 15) = 15 504 amplitudes, fits under MAX_DIMENSION;
        # an iterated product would pass through C(20, 10) = 184 756, which
        # would not, and need not.
        vecs = rng.normal(size=(15, 20)) + 1j * rng.normal(size=(15, 20))
        P = wedge_of_vectors(vecs)
        assert P.shape == (15, 20)
        key = tuple(range(3, 18))
        minor = np.linalg.det(vecs[:, [m - 1 for m in key]])
        assert P.amplitude(key) == pytest.approx(minor)
        assert is_decomposable((1.0 / P.norm()) * P)

    def test_overflowed_amplitudes_rejected(self):
        huge = FermionState(1, 3, {(1,): 1e200})
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            wedge(huge, FermionState(1, 3, {(2,): 1e200}))

    def test_degree_overflow(self):
        u = FermionState(2, 4, {(1, 2): 1.0})
        v = FermionState(3, 4, {(1, 2, 3): 1.0})
        with pytest.raises(ShapeError):
            wedge(u, v)


class TestPluecker:
    def test_frozen_ghz_value(self):
        # [DERIVED] the one nonzero relation pairs the two GHZ terms:
        # P_123 P_456 with a single surviving summand, giving 1/2.
        val = pluecker_relation(ghz6(), (1, 2), (3, 4, 5, 6))
        assert val == pytest.approx(0.5)
        best, pair = pluecker_scan(ghz6())
        assert best == pytest.approx(0.5)
        assert pair is not None

    def test_decomposable_states_pass(self, rng):
        for _ in range(10):
            P = random_plane_state(3, 6, rng)
            assert is_decomposable(P)
            best, _ = pluecker_scan(P)
            assert best <= 1e-10
            assert pluecker_violations(P) == []

    def test_generic_states_fail(self, rng):
        for _ in range(10):
            P = random_state(3, 6, rng)
            assert not is_decomposable(P)
            assert len(pluecker_violations(P)) > 0

    def test_dual_route_agreement(self, rng):
        # The kernel-rank test and the Plücker scan must agree on mixed
        # shapes, decomposable or not.
        for k, n in [(2, 4), (2, 5), (3, 6), (2, 6)]:
            for _ in range(5):
                plane = random_plane_state(k, n, rng)
                assert is_decomposable(plane) == pluecker_verdict(plane) == True
                generic = random_state(k, n, rng)
                assert is_decomposable(generic) == pluecker_verdict(generic)

    def test_violation_report_sorted(self):
        viols = pluecker_violations(ghz6())
        mags = [v for (_, _, v) in viols]
        assert mags == sorted(mags, reverse=True)
        assert mags[0] == pytest.approx(0.5)

    def test_zero_state_rejected(self):
        Z = FermionState(3, 6, {})
        with pytest.raises(ValueError):
            is_decomposable(Z)
        # The scan has no zero check of its own (every relation is 0 <= 0),
        # so the classifier's scan verdict refuses the zero state itself.
        assert pluecker_scan(Z)[0] == 0.0
        with pytest.raises(ValueError):
            classify_state("fermion", FermionState(2, 4, {}))

    def test_index_size_validation(self):
        with pytest.raises(ShapeError):
            pluecker_relation(ghz6(), (1,), (3, 4, 5, 6))


class TestWedgePower:
    def test_frozen_ghz_values(self):
        # [DERIVED] (e12 + e34)/sqrt2 squares to 2 * (1/2) e1234.
        g2 = FermionState(2, 4, {(1, 2): 1 / SQRT2, (3, 4): 1 / SQRT2})
        assert wedge_power_norm(g2) == pytest.approx(1.0)
        # [DERIVED] three-level analogue: 3! * 3^(-3/2).
        g3 = FermionState(
            2, 6, {(1, 2): 1 / SQRT3, (3, 4): 1 / SQRT3, (5, 6): 1 / SQRT3}
        )
        assert wedge_power_norm(g3) == pytest.approx(6 * 3**-1.5)

    def test_w_type_vanishes(self):
        w4 = (1 / SQRT3) * FermionState(
            2, 4, {(1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0}
        )
        assert wedge_power_norm(w4) == 0.0
        w6_2 = 0.5 * FermionState(
            2, 6, {(1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0, (1, 5): 1.0}
        )
        assert wedge_power_norm(w6_2) == 0.0

    def test_permutation_sum_oracle(self, rng):
        # Exhaustive pairing formula for k = 2, n = 4:
        # (P ^ P)_1234 = 2 (P12 P34 - P13 P24 + P14 P23).
        for _ in range(20):
            P = random_state(2, 4, rng)
            a = P.amplitude
            oracle = 2 * (
                a((1, 2)) * a((3, 4))
                - a((1, 3)) * a((2, 4))
                + a((1, 4)) * a((2, 3))
            )
            assert wedge_power_norm(P) == pytest.approx(abs(oracle))

    def test_scaling_degree(self, rng):
        P = random_state(2, 6, rng)
        assert wedge_power_norm(3.0 * P) == pytest.approx(27 * wedge_power_norm(P))

    def test_shape_preconditions(self):
        with pytest.raises(ShapeError):
            wedge_power_norm(ghz6())  # odd degree
        with pytest.raises(ShapeError):
            wedge_power_norm(FermionState(2, 5, {(1, 2): 1.0}))


def _ref_kernel_ratio(P: FermionState, tol: float = DEFAULT_TOL) -> float:
    """The margin decomposability_ratio had before it read the lift:
    s_(n-k) / (tol s_0) of the n x C(n, k+1) matrix with rows e_t ^ P."""
    if P.k == 1:
        return 0.0
    mode, rest, sign = _shuffle_table(1, P.k, P.n)
    mat = np.zeros((P.n, len(mode)), dtype=complex)
    mat[mode, np.arange(len(mode))[:, None]] = sign * P._array[rest]
    sing = np.linalg.svd(mat, compute_uv=False)
    return float(sing[P.n - P.k] / (tol * sing[0])) if len(sing) > P.n - P.k else 0.0


def _ref_chain_power(P: FermionState) -> float:
    """|top amplitude| of P ^ P ^ ... ^ P, one wedge at a time."""
    power = P
    for _ in range(P.n // P.k - 1):
        power = wedge(power, P)
    return abs(power.amplitude(tuple(range(1, P.n + 1))))


def _merged_multi_states(rng):
    """Merged images of product, biseparable and generic multi states."""
    species_sets = [((1, 2),) * 3, ((1, 2),) * 4, ((1, 2),) * 5, ((1, 2), (2, 4), (1, 3))]
    for species in species_sets:
        shape = SystemShape(species)
        dims = [math.comb(n, k) for k, n in species]
        factors = [wedge_of_vectors(random_complex(rng, k, n))._array for k, n in species]
        product = factors[0]
        for f in factors[1:]:
            product = np.multiply.outer(product, f)
        split = np.multiply.outer(random_complex(rng, dims[0]), random_complex(rng, *dims[1:]))
        for tensor in (product, split, random_complex(rng, *dims)):
            keys = itertools.product(*(shape.local_keys(i + 1) for i in range(len(species))))
            amps = dict(zip(keys, tensor.ravel()))
            psi = MultiState(shape, amps)
            yield merge_species((1.0 / psi.norm()) * psi)


class TestLiftRatioParity:
    """The lift's ratio and the k = 2 Pfaffian against the kernel matrix and
    the wedge chain they replaced."""

    SHAPES = [(3, 5), (4, 6), (4, 7), (5, 7), (5, 8), (6, 9), (7, 10), (8, 10), (9, 12),
              (1, 5), (2, 6), (2, 12), (3, 8), (4, 10), (6, 6)]
    EPSILONS = [0.0, *np.logspace(-12, -6, 13), 1.0]

    def test_verdicts_match_the_kernel_matrix(self, rng):
        count = 0
        for k, n in self.SHAPES:
            for _ in range(3):
                plane = random_plane_state(k, n, rng)
                generic = random_state(k, n, rng)
                for eps in self.EPSILONS:
                    P = plane + eps * generic
                    assert (decomposability_ratio(P) <= 1.0) == (_ref_kernel_ratio(P) <= 1.0), (
                        k, n, eps
                    )
                    count += 1
        for P in _merged_multi_states(rng):
            assert (decomposability_ratio(P) <= 1.0) == (_ref_kernel_ratio(P) <= 1.0), P.shape
            count += 1
        assert count == 15 * 3 * 15 + 12

    def test_pfaffian_matches_the_chain(self, rng):
        for n in range(4, 17, 2):
            for _ in range(3):
                P = random_state(2, n, rng)
                assert wedge_power_norm(P) == pytest.approx(_ref_chain_power(P), rel=1e-12)
            plane = random_plane_state(2, n, rng)
            assert wedge_power_norm(plane) <= 1e-12 and _ref_chain_power(plane) <= 1e-12

    def test_pfaffian_overflow_is_inf(self):
        ghz = FermionState(2, 40, {(2 * i - 1, 2 * i): 20**-0.5 for i in range(1, 21)})
        assert wedge_power_norm(ghz) == pytest.approx(math.factorial(20) * 20.0**-10)
        assert wedge_power_norm(1e20 * ghz) == math.inf

    def test_chain_and_scan_tables_are_budgeted(self):
        # The (4, 20) chain's step to degree 8 and the (8, 16) scan tables.
        assert math.comb(20, 12) * math.comb(12, 4) > MAX_TABLE_ENTRIES
        with pytest.raises(ShapeError, match="MAX_TABLE_ENTRIES"):
            wedge_power_norm(FermionState(4, 20, {(1, 2, 3, 4): 1.0}))
        assert math.comb(16, 7) * math.comb(16, 9) * 9 > MAX_TABLE_ENTRIES
        with pytest.raises(ShapeError, match="MAX_TABLE_ENTRIES"):
            pluecker_scan(FermionState(8, 16, {tuple(range(1, 9)): 1.0}))

    def test_only_small_tables_stay_cached(self, rng):
        # One (6, 12) scan builds 4.4e6 table entries; none outlives it.  The
        # shuffle tables it reads (5544 entries each) and the lift's stay.
        _scan_tables.cache_clear()
        _shuffle_table.cache_clear()
        P = random_state(6, 12, rng)
        pluecker_scan(P)
        assert _scan_tables.cache_info().currsize == 0
        assert _shuffle_table.cache_info().currsize == 2
        for args in ((5, 1, 12), (1, 6, 12)):
            assert math.prod(_shuffle_table(*args)[0].shape) <= MAX_DIMENSION
            assert _shuffle_table(*args) is _shuffle_table(*args)
        built = [weakref.ref(table) for table in _scan_tables(6, 12)]
        assert all(ref() is None for ref in built)
        decomposability_ratio(P)
        assert _shuffle_table.cache_info().currsize == 3


class TestReducedDensityMatrix:
    def test_frozen_ghz(self):
        rho = one_particle_rdm(ghz6())
        assert np.allclose(rho, np.eye(6) / 6)
        # [DERIVED] gamma = 3 rho = I/2, so gamma^2 - gamma = -I/4.
        assert idempotency_defect(ghz6()) == pytest.approx(math.sqrt(6) / 4)

    def test_dense_tensor_oracle(self, rng):
        # Build the antisymmetric dense tensor and trace out all slots
        # but the first; must match the sparse accumulation.
        for k, n in [(3, 6)] * 5 + [(1, 4), (2, 5), (4, 7)]:
            P = random_state(k, n, rng)
            P = (1.0 / P.norm()) * P
            psi = np.zeros((n,) * k, dtype=complex)
            for perm in itertools.permutations(range(k)):
                for key, val in P.amplitudes.items():
                    idx = tuple(key[p] - 1 for p in perm)
                    sign = sort_sign(tuple(perm[i] + 1 for i in range(k)))[0]
                    psi[idx] = sign * val / math.sqrt(math.factorial(k))
            rest = list(range(1, k))
            dense = np.tensordot(psi, psi.conj(), axes=(rest, rest))
            assert np.allclose(one_particle_rdm(P), dense, atol=1e-12)

    def test_hermitian_psd_trace_one(self, rng):
        for _ in range(10):
            P = random_state(3, 6, rng)
            P = (1.0 / P.norm()) * P
            rho = one_particle_rdm(P)
            assert np.allclose(rho, rho.conj().T)
            assert np.trace(rho).real == pytest.approx(1.0)
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_defect_vanishes_exactly_on_planes(self, rng):
        for k, n in [(2, 4), (3, 6), (2, 5)]:
            P = random_plane_state(k, n, rng)
            assert idempotency_defect(P) < 1e-10
        corrupt = ghz6() + w6()
        corrupt = (1.0 / corrupt.norm()) * corrupt
        assert idempotency_defect(corrupt) > 0.1

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            one_particle_rdm(2.0 * ghz6())


class TestFreudenthalCoordinates:
    def test_frozen_ghz_coordinates(self):
        x = to_freudenthal(ghz6())
        assert x.alpha == pytest.approx(1 / SQRT2)
        assert x.beta == pytest.approx(1 / SQRT2)
        assert np.allclose(x.a.matrix, 0)
        assert np.allclose(x.b.matrix, 0)
        assert quartic_form(x) == pytest.approx(0.5)
        assert rank(x) == 4

    def test_frozen_w_coordinates(self):
        x = to_freudenthal(w6())
        assert x.alpha == pytest.approx(0.0)
        assert x.beta == pytest.approx(0.0)
        assert np.allclose(x.a.matrix, 0)
        assert np.allclose(x.b.matrix, np.eye(3) / SQRT3)
        assert rank(x) == 3

    def test_round_trip_both_directions(self, rng):
        for _ in range(10):
            P = random_state(3, 6, rng)
            back = from_freudenthal(to_freudenthal(P))
            assert all(
                abs(back.amplitude(key) - val) < 1e-12
                for key, val in P.amplitudes.items()
            )
        for _ in range(5):
            coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
            from freudenthal.triple import fvector
            from freudenthal.jordan import AlgebraKind

            x = fvector(AlgebraKind.J3, coeffs)
            again = to_freudenthal(from_freudenthal(x))
            assert np.allclose(again.coefficients(), x.coefficients())

    def test_linearity(self, rng):
        P, Q = random_state(3, 6, rng), random_state(3, 6, rng)
        lhs = to_freudenthal(P + 2j * Q).coefficients()
        rhs = to_freudenthal(P).coefficients() + 2j * to_freudenthal(Q).coefficients()
        assert np.allclose(lhs, rhs)

    def test_quartic_is_sl6_invariant(self, rng):
        # The quartic form pulled back through the coordinates must be
        # invariant under unit-determinant mode mixing.
        for _ in range(5):
            P = random_state(3, 6, rng)
            g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            g = g / np.linalg.det(g) ** (1 / 6)
            q1 = quartic_form(to_freudenthal(P))
            q2 = quartic_form(to_freudenthal(apply_matrix(P, g)))
            assert abs(q1 - q2) <= 1e-8 * max(1.0, abs(q1))

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            to_freudenthal(FermionState(2, 4, {(1, 2): 1.0}))


class TestApplyMatrix:
    def test_identity_and_composition(self, rng):
        P = random_state(3, 6, rng)
        same = apply_matrix(P, np.eye(6))
        assert all(
            abs(same.amplitude(k) - v) < 1e-12 for k, v in P.amplitudes.items()
        )
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        two_step = apply_matrix(apply_matrix(P, h), g)
        one_step = apply_matrix(P, g @ h)
        for key in one_step.amplitudes:
            assert two_step.amplitude(key) == pytest.approx(
                one_step.amplitude(key), rel=1e-9, abs=1e-9
            )

    def test_compound_property(self, rng):
        u = random_state(1, 6, rng)
        v = random_state(1, 6, rng)
        w = random_state(1, 6, rng)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = apply_matrix(wedge(wedge(u, v), w), g)
        rhs = wedge(wedge(apply_matrix(u, g), apply_matrix(v, g)), apply_matrix(w, g))
        for key in itertools.combinations(range(1, 7), 3):
            assert lhs.amplitude(key) == pytest.approx(
                rhs.amplitude(key), rel=1e-9, abs=1e-9
            )

    def test_unitary_preserves_norm_and_decomposability(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        P = random_plane_state(3, 6, rng)
        moved = apply_matrix(P, q)
        assert moved.norm() == pytest.approx(1.0)
        assert is_decomposable(moved)

    def test_top_degree_scales_by_det(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        P = FermionState(4, 4, {(1, 2, 3, 4): 1.5})
        out = apply_matrix(P, g)
        assert out.amplitude((1, 2, 3, 4)) == pytest.approx(1.5 * np.linalg.det(g))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            apply_matrix(ghz6(), np.eye(5))

    def test_overflow_to_nan_raises(self):
        # The compound overflows (inf * 0 = nan, inf - inf = nan) in the
        # amplitudes that would be pruned as well as in the kept ones.
        P = FermionState(2, 4, {(1, 2): 1e300})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            apply_matrix(P, 1e300 * np.eye(4))


# -- independent references ----------------------------------------------------


def reference_compound(P: FermionState, g: np.ndarray) -> dict:
    """sum_J det(g[K, J]) P_J for every output key K, from the k x k minors."""
    keys = list(itertools.combinations(range(1, P.n + 1), P.k))
    modes = np.array(keys) - 1
    minors = np.linalg.det(g[modes[:, None, :, None], modes[None, :, None, :]])
    return dict(zip(keys, minors @ np.array([P.amplitude(J) for J in keys])))


def reference_scan_tables(k: int, n: int):
    """The index tables of the relation scan built entry by entry."""
    index = {
        key: i for i, key in enumerate(itertools.combinations(range(1, n + 1), k))
    }
    pairs, first, second, sign = [], [], [], []
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


def rank_deficient(n: int, rank: int, rng) -> np.ndarray:
    g = random_complex(rng, n, rank) @ random_complex(rng, rank, n)
    return g / max(np.linalg.norm(g, 2), 1.0)


class TestCompoundReference:
    SHAPES = [(1, 5), (2, 6), (4, 4), (4, 8), (5, 10)]

    @staticmethod
    def inputs(k, n, rng):
        keys = list(itertools.combinations(range(1, n + 1), k))
        yield "dense", random_state(k, n, rng)
        yield "single key", FermionState(k, n, {keys[len(keys) // 2]: 0.7 - 0.2j})
        yield "two keys", FermionState(k, n, {keys[0]: 1 / SQRT2, keys[-1]: 1j / SQRT2})

    @pytest.mark.parametrize("k,n", SHAPES)
    def test_matches_minor_expansion(self, k, n, rng):
        for label, P in self.inputs(k, n, rng):
            g = random_complex(rng, n, n)
            moved = apply_matrix(P, g).amplitudes
            expected = reference_compound(P, g)
            bound = 1e-12 * max(abs(v) for v in expected.values())
            assert set(moved) >= {K for K, v in expected.items() if abs(v) > bound}, label
            for K, value in expected.items():
                assert abs(moved.get(K, 0.0) - value) <= bound, (label, K)

    @pytest.mark.parametrize("k,n", SHAPES)
    def test_rank_deficient_matrix_gives_zero(self, k, n, rng):
        for label, P in self.inputs(k, n, rng):
            g = rank_deficient(n, k - 1, rng)
            assert apply_matrix(P, g).is_zero(), label
            assert max(abs(v) for v in reference_compound(P, g).values()) < 1e-12

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_composition_property(self, data):
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, n))
        unit = st.floats(-1.0, 1.0)
        entries = st.lists(
            st.builds(complex, unit, unit), min_size=n * n, max_size=n * n
        )
        g = np.array(data.draw(entries)).reshape(n, n)
        h = np.array(data.draw(entries)).reshape(n, n)
        keys = list(itertools.combinations(range(1, n + 1), k))
        values = data.draw(
            st.lists(st.builds(complex, unit, unit), min_size=len(keys), max_size=len(keys))
        )
        P = FermionState(k, n, dict(zip(keys, values)))
        two_step = apply_matrix(apply_matrix(P, h), g)
        one_step = apply_matrix(P, g @ h)
        scale = 1.0 + (np.linalg.norm(g) * np.linalg.norm(h)) ** k * P.norm()
        for key in keys:
            assert abs(two_step.amplitude(key) - one_step.amplitude(key)) <= 1e-12 * scale


class TestScanTables:
    SHAPES = [(k, n) for n in range(2, 10) for k in range(1, n)] + [(4, 10)]

    def test_tables_match_entrywise_builder(self):
        for k, n in self.SHAPES:
            pairs, *expected = reference_scan_tables(k, n)
            for built, ref in zip(_scan_tables(k, n), expected):
                assert built.dtype == ref.dtype, (k, n)
                assert np.array_equal(built, ref), (k, n)
            assert [_witness(k, n, r) for r in range(len(pairs))] == pairs, (k, n)

    def test_top_degree_has_no_relations(self):
        for n in range(1, 6):
            first, second, sign = _scan_tables(n, n)
            assert first.shape == second.shape == sign.shape == (0, n + 1)
            P = FermionState(n, n, {tuple(range(1, n + 1)): 2.0})
            assert pluecker_scan(P) == (0.0, None)
            assert pluecker_violations(P) == []
            assert is_decomposable(P)
            assert pluecker_verdict(P)

    def test_corpus_witnesses_match_entrywise_builder(self):
        corpus = importlib.resources.files("freudenthal") / "corpus"
        for path in sorted(corpus.iterdir()):
            sf = load_state_file(str(path))
            P = SYSTEM_TABLE[sf.system].fermion(sf.state)
            pairs, first, second, sign = reference_scan_tables(P.k, P.n)
            vec = np.zeros(math.comb(P.n, P.k) + 1, dtype=complex)
            for r, key in enumerate(itertools.combinations(range(1, P.n + 1), P.k)):
                vec[r + 1] = P.amplitude(key)
            mags = np.abs((sign * vec[first] * vec[second]).sum(axis=1))
            best = int(np.argmax(mags))
            assert pluecker_scan(P) == (float(mags[best]), pairs[best]), path.name
            cutoff = 1e-8 * P.norm() ** 2
            expected = sorted(
                (
                    (*pairs[r], float(mags[r]))
                    for r in np.flatnonzero(mags > cutoff)
                ),
                key=lambda t: -t[2],
            )
            assert pluecker_violations(P) == expected, path.name
