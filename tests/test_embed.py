"""Tests for the multi-species embedding layer."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freudenthal.classify import (
    SYSTEM_TABLE,
    _tensor_cuts,
    classify_state,
    random_group_element,
    random_state,
    slocc_act,
)
from freudenthal.embed import (
    MultiState,
    NormalizationWarning,
    SystemShape,
    _species_plan,
    _union_ratio,
    bipartitions,
    boson2q_to_freudenthal,
    boson2q_to_three_qubit,
    boson3_to_boson2q,
    boson3_to_freudenthal,
    embedded_rdm_blocks,
    factors_across_cut,
    merge_species,
    multistate_from_tensor,
    pack_antisymmetric_pair,
    qubit_fermion4_to_fermion,
    qubit_fermion4_to_freudenthal,
    qubit_separability_direct,
    rdm_direct_sum,
    separability_via_embedding,
    species_rdm,
    tensor_from_multistate,
    three_qubit_to_fermion,
    three_qubit_to_freudenthal,
    three_qubit_to_qubit_fermion4,
)
from freudenthal.fermion import (
    FermionState,
    ShapeError,
    apply_matrix,
    decomposability_ratio,
    from_freudenthal,
    is_decomposable,
    one_particle_rdm,
    pluecker_scan,
    to_freudenthal,
    wedge_of_vectors,
)
from freudenthal.jordan import j3
from freudenthal.representatives import all_representatives
from freudenthal.triple import FreudenthalVector, _binary_scaled, quartic_tangle, rank

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def random_multistate(shape: SystemShape, rng, normalize=True) -> MultiState:
    keys = itertools.product(
        *(shape.local_keys(i) for i in range(1, shape.num_species + 1))
    )
    amp = {k: complex(rng.normal(), rng.normal()) for k in keys}
    psi = MultiState(shape, amp)
    return (1.0 / psi.norm()) * psi if normalize else psi


def random_product_state(shape: SystemShape, rng) -> MultiState:
    factor_states = []
    for k, n in shape.species:
        vecs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        factor_states.append(wedge_of_vectors(vecs))
    amp = {}
    for combo in itertools.product(*(f.amplitudes.items() for f in factor_states)):
        key = tuple(part for part, _ in combo)
        value = math.prod((v for _, v in combo), start=1.0 + 0j)
        amp[key] = value
    psi = MultiState(shape, amp)
    return (1.0 / psi.norm()) * psi


def ghz_tensor(n_qubits: int) -> np.ndarray:
    t = np.zeros((2,) * n_qubits, dtype=complex)
    t[(0,) * n_qubits] = 1 / SQRT2
    t[(1,) * n_qubits] = 1 / SQRT2
    return t


class TestShapesAndStates:
    def test_shape_properties(self):
        shape = SystemShape(((2, 4), (1, 3), (1, 2)))
        assert shape.total_particles == 4
        assert shape.total_modes == 9
        assert shape.offsets == (0, 4, 7)
        assert shape.dims == (6, 3, 2)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            SystemShape(())
        with pytest.raises(ShapeError):
            SystemShape(((0, 2),))
        with pytest.raises(ShapeError):
            SystemShape(((3, 2),))

    def test_state_key_validation(self):
        shape = SystemShape(((1, 2), (2, 4)))
        MultiState(shape, {((1,), (2, 4)): 1.0})
        with pytest.raises(ShapeError):
            MultiState(shape, {((1,), (4, 2)): 1.0})
        with pytest.raises(ShapeError):
            MultiState(shape, {((1,), (2, 5)): 1.0})
        with pytest.raises(ShapeError):
            MultiState(shape, {((1, 2), (2, 4)): 1.0})

    def test_from_terms_and_signed_lookup(self):
        shape = SystemShape(((1, 2), (2, 4)))
        psi = MultiState.from_terms(shape, [(((1,), (4, 2)), 1.0)])
        assert psi.amplitude(((1,), (2, 4))) == pytest.approx(-1.0)
        assert psi.amplitude(((1,), (4, 2))) == pytest.approx(1.0)
        assert psi.amplitude(((1,), (2, 2))) == 0.0

    def test_tensor_round_trip(self, rng):
        tensor = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
        psi = multistate_from_tensor(tensor)
        assert psi.shape.species == ((1, 2), (1, 3), (1, 2))
        assert np.allclose(tensor_from_multistate(psi), tensor)

    def test_tensor_of_mixed_species(self, rng):
        shape = SystemShape(((1, 2), (2, 4), (1, 3)))
        psi = random_multistate(shape, rng)
        tensor = tensor_from_multistate(psi)
        assert tensor.shape == (2, 6, 3)
        local = [shape.local_keys(i) for i in (1, 2, 3)]
        for idx in np.ndindex(tensor.shape):
            key = tuple(local[axis][j] for axis, j in enumerate(idx))
            assert tensor[idx] == psi.amplitude(key)
        # The state's one amplitude store, read-only.
        assert tensor_from_multistate(psi) is tensor
        assert not tensor.flags.writeable


# -- both state classes against a plain-dict model -----------------------------

_AMPLITUDES = st.just(0j) | st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
_MODEL_SHAPES = {
    "fermion": [(1, 3), (2, 4), (3, 6), (2, 5)],
    "multi": [((1, 2), (1, 2)), ((1, 2), (2, 4)), ((2, 4), (1, 3), (1, 2))],
}


def _model_keys(kind, shape):
    if kind == "fermion":
        return list(itertools.combinations(range(1, shape[1] + 1), shape[0]))
    return list(itertools.product(
        *(itertools.combinations(range(1, n + 1), k) for k, n in shape)))


@st.composite
def _sparse_models(draw):
    """(kind, shape, keys, two sparse amplitude dicts) of one state shape."""
    kind = draw(st.sampled_from(sorted(_MODEL_SHAPES)))
    shape = draw(st.sampled_from(_MODEL_SHAPES[kind]))
    keys = _model_keys(kind, shape)
    sparse = st.dictionaries(st.sampled_from(keys), _AMPLITUDES, max_size=len(keys))
    return kind, shape, keys, draw(sparse), draw(sparse)


def _rotated(key, r):
    """key rotated left by r with its wedge sign (-1)^(r (len - r))."""
    r %= len(key)
    return key[r:] + key[:r], (-1) ** (r * (len(key) - r))


class TestStateModel:
    """The accessors, arithmetic, norm and amplitude mapping of FermionState
    and MultiState against a plain dict of amplitudes."""

    @settings(max_examples=150, deadline=None)
    @given(models=_sparse_models(), scalar=_AMPLITUDES, rotation=st.integers(0, 5))
    def test_state_matches_a_dict_model(self, models, scalar, rotation):
        kind, shape, keys, a, b = models
        if kind == "fermion":
            P, Q = FermionState(*shape, a), FermionState(*shape, b)
        else:
            P, Q = MultiState(SystemShape(shape), a), MultiState(SystemShape(shape), b)

        def nonzero(model):
            return {k: model[k] for k in keys if model.get(k, 0) != 0}

        want = nonzero(a)
        assert list(P.amplitudes.items()) == list(want.items())  # key order
        assert P.is_zero() == (not want)
        assert P.norm() == math.sqrt(sum(abs(v) ** 2 for v in want.values()))
        total = {k: a.get(k, 0) + b.get(k, 0) for k in keys}
        assert dict((P + Q).amplitudes) == nonzero(total)
        difference = {k: a.get(k, 0) + -1.0 * b.get(k, 0) for k in keys}
        assert dict((P - Q).amplitudes) == nonzero(difference)
        real = scalar.real
        assert dict((real * P).amplitudes) == nonzero({k: real * v for k, v in a.items()})
        scaled = (scalar * P).amplitudes
        for k in keys:  # numpy may fuse the complex product's multiply-adds
            bound = 2.0 ** -50 * abs(scalar) * abs(a.get(k, 0)) + 1e-300
            assert abs(scaled.get(k, 0) - scalar * a.get(k, 0)) <= bound
        for key in keys:
            if kind == "fermion":
                seq, sign = _rotated(key, rotation)
            else:
                rotated = [_rotated(part, rotation) for part in key]
                seq = [part for part, _ in rotated]
                sign = math.prod(s for _, s in rotated)
            assert P.amplitude(seq) == sign * a.get(key, 0)
        with pytest.raises(TypeError):
            P.amplitudes[keys[0]] = 1.0


class TestMerging:
    def test_product_key_union(self):
        shape = SystemShape(((1, 2), (1, 2), (1, 2)))
        psi = MultiState(shape, {((1,), (1,), (1,)): 1.0})
        assert dict(merge_species(psi).amplitudes) == {(1, 3, 5): 1.0}

    def test_isometry(self, rng):
        for shape in [
            SystemShape(((2, 4), (1, 3))),
            SystemShape(((1, 2), (1, 2), (1, 2))),
            SystemShape(((3, 5), (1, 2))),
        ]:
            psi = random_multistate(shape, rng, normalize=False)
            assert merge_species(psi).norm() == pytest.approx(psi.norm())

    def test_merge_is_linear(self, rng):
        shape = SystemShape(((1, 3), (2, 4)))
        u = random_multistate(shape, rng)
        v = random_multistate(shape, rng)
        lhs = merge_species(u + 2j * v)
        rhs = merge_species(u) + 2j * merge_species(v)
        assert all(
            abs(lhs.amplitude(k) - rhs.amplitude(k)) < 1e-12
            for k in set(lhs.amplitudes) | set(rhs.amplitudes)
        )

    def test_qudit_rule_frozen_examples(self):
        two = SystemShape(((1, 2), (1, 2)))
        basis = MultiState(two, {((1,), (2,)): 1.0})
        assert dict(merge_species(basis).amplitudes) == {(1, 4): 1.0}
        ghz = MultiState(two, {((1,), (1,)): 1 / SQRT2, ((2,), (2,)): 1 / SQRT2})
        assert dict(merge_species(ghz).amplitudes) == pytest.approx(
            {(1, 3): 1 / SQRT2, (2, 4): 1 / SQRT2}
        )


class TestSeparability:
    def test_products_transfer_true(self, rng):
        for shape in [
            SystemShape(((2, 4), (1, 3))),
            SystemShape(((1, 2), (1, 2), (1, 2))),
            SystemShape(((2, 5), (2, 4))),
        ]:
            for _ in range(5):
                psi = random_product_state(shape, rng)
                assert separability_via_embedding(psi)

    def test_entangled_transfer_false(self, rng):
        shape = SystemShape(((1, 2), (2, 4)))
        psi = MultiState(
            shape, {((1,), (1, 2)): 1 / SQRT2, ((2,), (3, 4)): 1 / SQRT2}
        )
        assert not separability_via_embedding(psi)
        single = MultiState(
            SystemShape(((2, 4),)), {((1, 2),): 1 / SQRT2, ((3, 4),): 1 / SQRT2}
        )
        assert not separability_via_embedding(single)

    def test_qubit_direct_frozen(self):
        ghz = multistate_from_tensor(ghz_tensor(3))
        assert not qubit_separability_direct(ghz)
        product = np.tensordot(
            np.array([1.0, 1.0]) / SQRT2, np.array([[1.0, 0.0], [0.0, 0.0]]), axes=0
        )
        assert qubit_separability_direct(multistate_from_tensor(product))

    def test_qubit_direct_agrees_with_embedding(self, rng):
        for _ in range(50):
            n_q = int(rng.integers(2, 5))
            tensor = rng.normal(size=(2,) * n_q) + 1j * rng.normal(size=(2,) * n_q)
            psi = multistate_from_tensor(tensor)
            assert qubit_separability_direct(psi) == separability_via_embedding(psi)

    def test_qubit_direct_shape_guard(self):
        psi = MultiState(SystemShape(((1, 3), (1, 2))), {((1,), (1,)): 1.0})
        with pytest.raises(ShapeError):
            qubit_separability_direct(psi)

    def test_zero_state_rejected(self):
        psi = MultiState(SystemShape(((1, 2), (1, 2))), {})
        with pytest.raises(ValueError):
            separability_via_embedding(psi)


class TestCuts:
    def test_bipartition_enumeration(self):
        assert bipartitions(3) == [
            ((1,), (2, 3)),
            ((2,), (1, 3)),
            ((3,), (1, 2)),
        ]
        assert len(bipartitions(4)) == 7

    def test_three_qubit_pair_products(self):
        half = 1 / SQRT2
        b1 = multistate_from_tensor(
            np.array([[[half, 0], [0, half]], [[0, 0], [0, 0]]])
        )
        cuts = [bp for bp in bipartitions(3) if factors_across_cut(b1, bp[0])]
        assert cuts == [((1,), (2, 3))]

    def test_four_qubit_distinct_patterns(self):
        half = 1 / SQRT2
        shape = SystemShape(((1, 2),) * 4)
        P = MultiState(
            shape,
            {((1,), (1,), (1,), (1,)): half, ((1,), (1,), (2,), (2,)): half},
        )
        Q = MultiState(
            shape,
            {((1,), (1,), (1,), (1,)): half, ((2,), (2,), (1,), (1,)): half},
        )
        p_cuts = {bp for bp in bipartitions(4) if factors_across_cut(P, bp[0])}
        q_cuts = {bp for bp in bipartitions(4) if factors_across_cut(Q, bp[0])}
        assert p_cuts == {((1,), (2, 3, 4)), ((2,), (1, 3, 4)), ((1, 2), (3, 4))}
        assert q_cuts == {((3,), (1, 2, 4)), ((4,), (1, 2, 3)), ((1, 2), (3, 4))}

    def test_entangled_factor_allowed(self):
        # A state that is a product across the cut even though the factor
        # on one side is internally entangled.
        shape = SystemShape(((1, 2), (2, 4)))
        half = 1 / SQRT2
        psi = MultiState(
            shape, {((1,), (1, 2)): half, ((1,), (3, 4)): half}
        )
        assert factors_across_cut(psi, (1,))
        assert not separability_via_embedding(psi)

    def test_svd_oracle_agreement(self, rng):
        shape = SystemShape(((1, 2), (1, 3), (1, 2)))
        for _ in range(20):
            psi = random_multistate(shape, rng)
            tensor = tensor_from_multistate(psi)
            for left, _right in bipartitions(3):
                axes = [i - 1 for i in left]
                rest = [i for i in range(3) if i not in axes]
                mat = np.transpose(tensor, axes + rest).reshape(
                    int(np.prod([tensor.shape[i] for i in axes])), -1
                )
                sing = np.linalg.svd(mat, compute_uv=False)
                oracle = sing[1] <= 1e-8 * sing[0]
                assert factors_across_cut(psi, left) == oracle

    def test_cut_validation(self):
        psi = MultiState(SystemShape(((1, 2), (1, 2))), {((1,), (1,)): 1.0})
        with pytest.raises(ShapeError):
            factors_across_cut(psi, (1, 2))
        with pytest.raises(ShapeError):
            factors_across_cut(psi, ())
        with pytest.raises(ValueError):
            factors_across_cut(psi, (1,), tol=0.0)
        with pytest.raises(ValueError):
            factors_across_cut(MultiState(psi.shape, {}), (1,))


def _minor_route(psi: MultiState, left: tuple[int, ...], tol: float = 1e-8):
    """The cut test factors_across_cut made before its rank-one kernel, kept
    as the reference: group each side's species into one qudit over its
    joint basis, merge the two-species state and take its largest Plücker
    relation, which is the largest 2 x 2 minor of the cut matrix.  Returns
    that quantity, the cutoff tol * ||psi||^2 and the cut matrix."""
    right = tuple(i for i in range(1, psi.shape.num_species + 1) if i not in left)

    def side_index(side):
        basis = itertools.product(*(psi.shape.local_keys(i) for i in side))
        return {key: pos for pos, key in enumerate(basis)}

    left_index, right_index = side_index(left), side_index(right)
    amp, matrix = {}, np.zeros((len(left_index), len(right_index)), dtype=complex)
    for key, value in psi.amplitudes.items():
        row = left_index[tuple(key[i - 1] for i in left)]
        col = right_index[tuple(key[i - 1] for i in right)]
        amp[((row + 1,), (col + 1,))] = value
        matrix[row, col] = value
    grouped = MultiState(
        SystemShape(((1, len(left_index)), (1, len(right_index)))), amp
    )
    worst, _ = pluecker_scan(merge_species(grouped))
    return worst, tol * psi.norm() ** 2, matrix


def _split_state(shape: SystemShape, left, rng) -> MultiState:
    """A random state of the `left` species times one of the rest."""
    right = tuple(i for i in range(1, shape.num_species + 1) if i not in left)
    sides = []
    for side in (left, right):
        keys = list(itertools.product(*(shape.local_keys(i) for i in side)))
        values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        sides.append(dict(zip(keys, values)))
    amp = {}
    for (lkey, lval), (rkey, rval) in itertools.product(
        sides[0].items(), sides[1].items()
    ):
        key = dict(zip(left, lkey)) | dict(zip(right, rkey))
        amp[tuple(key[i] for i in range(1, shape.num_species + 1))] = lval * rval
    psi = MultiState(shape, amp)
    return (1.0 / psi.norm()) * psi


class TestCutKernelParity:
    """factors_across_cut (sigma_1 sigma_2 of the flattening) against the
    grouped-state Plücker route it replaced.  The two may differ only where
    max|2x2 minor| <= cutoff < sigma_1 sigma_2, the band the kernel's
    docstring bound allows; every disagreement must lie there."""

    SHAPES = [
        SystemShape(((1, 2),) * 3),
        SystemShape(((1, 2),) * 4),
        SystemShape(((1, 2),) * 5),
        SystemShape(((1, 2), (2, 4), (1, 3))),
    ]

    @staticmethod
    def _states(shape: SystemShape, rng):
        """(state, near the threshold?) pairs."""
        cuts = bipartitions(shape.num_species)
        for _ in range(3):
            yield random_product_state(shape, rng), False
            yield _split_state(shape, cuts[int(rng.integers(len(cuts)))][0], rng), False
            yield random_multistate(shape, rng), False
        # A product nudged toward a generic state.
        for eps in np.logspace(-12, -4, 17):
            psi = random_product_state(shape, rng) + eps * random_multistate(shape, rng)
            yield (1.0 / psi.norm()) * psi, True

    def test_verdicts_match_the_minor_route(self, rng):
        verdicts = set()
        for shape in self.SHAPES:
            for psi, near in self._states(shape, rng):
                for left, _right in bipartitions(shape.num_species):
                    worst, cutoff, matrix = _minor_route(psi, left)
                    sing = np.linalg.svd(matrix, compute_uv=False)
                    product = sing[0] * sing[1]
                    d_left, d_right = matrix.shape
                    factor = math.sqrt(math.comb(d_left, 2) * math.comb(d_right, 2))
                    # The documented bounds, up to roundoff.
                    assert worst <= product * (1 + 1e-9) + 1e-15
                    assert product <= factor * worst * (1 + 1e-9) + 1e-15
                    verdict = factors_across_cut(psi, left)
                    assert type(verdict) is bool
                    verdicts.add(verdict)
                    if verdict != (worst <= cutoff):
                        assert near, (shape, left, worst, product)
                        assert worst <= cutoff < product, (shape, left, worst, product)
        assert verdicts == {True, False}


def _merged_route(psi: MultiState, tol: float = 1e-8):
    """The verdict classify_state gave multi before it read the native
    tensor, kept as the reference: the lift rank of the merged state, then
    one SVD per cut flattening against tol * ||psi||^2."""
    if is_decomposable(merge_species(psi), tol):
        return "separable", ()
    tensor = tensor_from_multistate(psi)
    cuts = []
    for left, right in bipartitions(psi.shape.num_species):
        rows = math.prod(tensor.shape[i - 1] for i in left)
        matrix = tensor.transpose([i - 1 for i in left + right]).reshape(rows, -1)
        sing = np.linalg.svd(matrix, compute_uv=False)
        if len(sing) < 2 or sing[0] * sing[1] <= tol * psi.norm() ** 2:
            cuts.append((left, right))
    return ("biseparable" if cuts else "entangled"), tuple(cuts)


class TestSpeciesSpectrumUnion:
    """The merged lift's singular values as the union of the species'
    lift spectra on the native tensor (embed._union_ratio), against
    decomposability_ratio of the merged state, and classify_state's
    verdicts and cut patterns against the merged route."""

    SHAPES = [
        ((1, 2),) * 3,
        ((1, 2),) * 5,
        ((1, 2),) * 9,
        ((1, 2), (2, 4), (1, 3)),
        ((2, 5), (3, 5)),
        ((3, 4), (2, 3)),  # N < 2K < 2N: the Hodge duals decide
        ((1, 2), (2, 2)),  # holes, and a full species contributes zeros
        ((3, 3), (1, 2), (1, 2)),
        ((3, 5),),  # a single species, on the hole side
    ]

    @staticmethod
    def _states(shape: SystemShape, rng):
        """(state, generic?) pairs: a state is generic when its s_j is no
        roundoff, so the two ratios must agree to relative roundoff."""
        cuts = bipartitions(shape.num_species)
        count = 1 if shape.num_species == 9 else 3
        for _ in range(count):
            yield random_multistate(shape, rng), True
            yield random_product_state(shape, rng), False
            if cuts:
                yield _split_state(shape, cuts[int(rng.integers(len(cuts)))][0], rng), False
        product, generic = random_product_state(shape, rng), random_multistate(shape, rng)
        for eps in (1e-11, 1e-5):
            psi = product + eps * generic
            yield (1.0 / psi.norm()) * psi, False

    def test_ratio_verdict_and_cuts_match_the_merged_route(self, rng):
        sides, names = set(), set()
        for species in self.SHAPES:
            shape = SystemShape(species)
            plan = _species_plan(shape)
            sides.add(plan.holes)
            for psi, generic in self._states(shape, rng):
                want = decomposability_ratio(merge_species(psi))
                got, _ = _union_ratio(_binary_scaled(psi._array), plan, 1e-8)
                if generic:
                    assert abs(got - want) <= 1e-12 * want, (species, got, want)
                assert (got <= 1.0) == (want <= 1.0), (species, got, want)
                label = classify_state("multi", psi)
                assert (label.name, label.cut_pattern) == _merged_route(psi), species
                names.add(label.name)
        assert sides == {True, False}
        assert names == {"separable", "biseparable", "entangled"}


class TestReducedDensityMatrices:
    def test_ghz_blocks(self):
        ghz = multistate_from_tensor(ghz_tensor(3))
        rho, blocks = embedded_rdm_blocks(ghz)
        assert np.allclose(rho, np.eye(6) / 6)
        assert all(np.allclose(b, np.eye(2) / 2) for b in blocks)
        assert np.linalg.norm(rho - rdm_direct_sum(ghz.shape, blocks)) < 1e-12

    def test_block_identity_random_shapes(self, rng):
        shapes = [
            SystemShape(((2, 4), (1, 3))),
            SystemShape(((1, 2), (1, 2), (1, 2))),
            SystemShape(((3, 5), (1, 2))),
            SystemShape(((2, 4), (2, 4))),
        ]
        for shape in shapes:
            for _ in range(3):
                psi = random_multistate(shape, rng)
                rho, blocks = embedded_rdm_blocks(psi)
                assert np.linalg.norm(
                    rho - rdm_direct_sum(shape, blocks)
                ) < 1e-9
                for b in blocks:
                    assert np.trace(b).real == pytest.approx(1.0)
                    assert np.allclose(b, b.conj().T)

    def test_product_state_blocks_are_projectors(self, rng):
        shape = SystemShape(((2, 4), (1, 3)))
        psi = random_product_state(shape, rng)
        _, blocks = embedded_rdm_blocks(psi)
        for (k_i, _), block in zip(shape.species, blocks):
            gamma = k_i * block
            assert np.linalg.norm(gamma @ gamma - gamma) < 1e-10

    def test_species_rdm_against_eigendecomposition(self, rng):
        # Independent route: diagonalize the mixed state left on one
        # species, then average the pure-state reduced matrices.
        shape = SystemShape(((2, 4), (1, 3)))
        psi = random_multistate(shape, rng)
        local = shape.local_keys(1)
        pos = {key: i for i, key in enumerate(local)}
        sigma = np.zeros((len(local), len(local)), dtype=complex)
        for (ka, ctxa), va in (
            ((key[0], key[1]), v) for key, v in psi.amplitudes.items()
        ):
            for (kb, ctxb), vb in (
                ((key[0], key[1]), v) for key, v in psi.amplitudes.items()
            ):
                if ctxa == ctxb:
                    sigma[pos[ka], pos[kb]] += va * np.conj(vb)
        weights, vectors = np.linalg.eigh(sigma)
        oracle = np.zeros((4, 4), dtype=complex)
        for w, vec in zip(weights, vectors.T):
            if w < 1e-12:
                continue
            pure = FermionState(
                2, 4, {key: vec[pos[key]] for key in local if abs(vec[pos[key]]) > 0}
            )
            oracle += w * one_particle_rdm((1.0 / pure.norm()) * pure)
        assert np.allclose(species_rdm(psi, 1), oracle, atol=1e-10)

    def test_requires_normalization(self, rng):
        shape = SystemShape(((1, 2), (1, 2)))
        psi = 2.0 * random_multistate(shape, rng)
        with pytest.raises(ValueError):
            species_rdm(psi, 1)
        with pytest.raises(ValueError):
            embedded_rdm_blocks(psi)

    def test_direct_sum_validation(self):
        shape = SystemShape(((1, 2), (1, 2)))
        with pytest.raises(ShapeError):
            rdm_direct_sum(shape, [np.eye(2)])
        with pytest.raises(ShapeError):
            rdm_direct_sum(shape, [np.eye(2), np.eye(3)])


class TestCoordinateMaps:
    def test_three_qubit_frozen_rows(self):
        half = 1 / SQRT2
        ghz = np.zeros((2, 2, 2), dtype=complex)
        ghz[0, 0, 0] = ghz[1, 1, 1] = half
        x = three_qubit_to_freudenthal(ghz)
        assert (x.alpha, x.beta) == pytest.approx((half, half))
        assert np.allclose(x.a.matrix, 0) and np.allclose(x.b.matrix, 0)

        w = np.zeros((2, 2, 2), dtype=complex)
        w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 1 / SQRT3
        xw = three_qubit_to_freudenthal(w)
        assert np.allclose(xw.b.matrix, np.eye(3) / SQRT3)
        assert xw.alpha == xw.beta == 0 and np.allclose(xw.a.matrix, 0)

        b3 = np.zeros((2, 2, 2), dtype=complex)
        b3[0, 0, 0] = b3[1, 1, 0] = half
        x3 = three_qubit_to_freudenthal(b3)
        assert np.allclose(x3.a.matrix, np.diag([0, 0, half]))

    def test_three_qubit_fermionic_image_coheres(self, rng):
        a = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        direct = three_qubit_to_freudenthal(a)
        via_fermion = to_freudenthal(three_qubit_to_fermion(a))
        assert np.allclose(direct.coefficients(), via_fermion.coefficients())

    def test_three_qubit_image_is_relabelled_merge(self, rng):
        # Permuting modes (qubit p's block pair to modes p, p+3) carries
        # the merged image onto the interleaved one.
        a = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        psi = multistate_from_tensor(a)
        block = merge_species(psi)
        perm = np.zeros((6, 6))
        # block modes (1,2|3,4|5,6) -> interleaved (1,4|2,5|3,6)
        for src, dst in ((1, 1), (2, 4), (3, 2), (4, 5), (5, 3), (6, 6)):
            perm[dst - 1, src - 1] = 1.0
        moved = apply_matrix(block, perm)
        target = three_qubit_to_fermion(a)
        assert all(
            abs(moved.amplitude(k) - target.amplitude(k)) < 1e-12
            for k in set(moved.amplitudes) | set(target.amplitudes)
        )

    def test_boson2q_frozen_rows(self):
        half = 1 / SQRT2
        ghz = np.array([[half, 0, 0], [0, 0, half]])
        x = boson2q_to_freudenthal(ghz)
        assert (x.alpha, x.beta) == pytest.approx((half, half))
        assert abs(quartic_tangle(x)) == pytest.approx(1.0)

        w = np.array([[0, 1 / SQRT3, 0], [1 / SQRT3, 0, 0]])
        xw = boson2q_to_freudenthal(w)
        assert abs(quartic_tangle(xw)) < 1e-12
        assert rank(xw) == 3

        assert boson2q_to_freudenthal(
            np.zeros((2, 3)), check_norm=False
        ).norm() == 0.0

    def test_boson3_frozen_rows(self):
        half = 1 / SQRT2
        x = boson3_to_freudenthal(np.array([half, 0, 0, half]))
        assert abs(quartic_tangle(x)) == pytest.approx(1.0)
        xw = boson3_to_freudenthal(np.array([0, 1 / SQRT3, 0, 0]))
        assert abs(quartic_tangle(xw)) < 1e-12
        assert np.allclose(xw.b.matrix, np.eye(3) / SQRT3)

    def test_norm_warnings(self):
        with pytest.warns(NormalizationWarning):
            boson3_to_freudenthal(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.warns(NormalizationWarning):
            boson2q_to_freudenthal(np.ones((2, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            boson3_to_freudenthal(np.array([1.0, 1.0, 0, 0]), check_norm=False)
            boson3_to_freudenthal(np.array([1.0, 0, 0, 0]))

    def test_qubit_fermion4_frozen_rows(self):
        half = 1 / SQRT2
        ghz = np.zeros((2, 6))
        ghz[0, 0] = half  # qubit 0 with pair (0,1)
        ghz[1, 5] = half  # qubit 1 with pair (2,3)
        x = qubit_fermion4_to_freudenthal(ghz)
        assert (x.alpha, x.beta) == pytest.approx((half, half))
        assert abs(quartic_tangle(x)) == pytest.approx(1.0)

        w = np.zeros((2, 6))
        w[0, 5] = 1 / SQRT3  # pair (2,3)
        w[1, 2] = 1 / SQRT3  # pair (0,3)
        w[1, 3] = -1 / SQRT3  # pair (1,2), sign folded from reversed order
        xw = qubit_fermion4_to_freudenthal(w)
        assert np.allclose(xw.a.matrix, np.eye(3) / SQRT3)
        assert rank(xw) == 3

        b2 = np.zeros((2, 6))
        b2[0, 0] = half
        b2[1, 2] = half  # qubit 1 with pair (0,3)
        assert rank(qubit_fermion4_to_freudenthal(b2)) == 2

    def test_antisymmetric_array_input(self, rng):
        full = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        full = full - full.transpose(0, 2, 1)
        packed = pack_antisymmetric_pair(full)
        assert packed[0, 0] == full[0, 0, 1]
        x1 = qubit_fermion4_to_freudenthal(full)
        x2 = qubit_fermion4_to_freudenthal(packed)
        assert np.allclose(x1.coefficients(), x2.coefficients())
        with pytest.raises(ValueError):
            pack_antisymmetric_pair(rng.normal(size=(2, 4, 4)))

    def test_qubit_fermion4_fermionic_image_coheres(self, rng):
        d = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        direct = qubit_fermion4_to_freudenthal(d)
        via_fermion = to_freudenthal(qubit_fermion4_to_fermion(d))
        assert np.allclose(direct.coefficients(), via_fermion.coefficients())
        assert qubit_fermion4_to_fermion(d).norm() == pytest.approx(
            np.linalg.norm(d)
        )


class TestSubspaceChain:
    def test_chain_preserves_coordinates(self, rng):
        for _ in range(10):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            x0 = boson3_to_freudenthal(c, check_norm=False)
            b = boson3_to_boson2q(c)
            x1 = boson2q_to_freudenthal(b, check_norm=False)
            a = boson2q_to_three_qubit(b)
            x2 = three_qubit_to_freudenthal(a)
            d = three_qubit_to_qubit_fermion4(a)
            x3 = qubit_fermion4_to_freudenthal(d)
            for other in (x1, x2, x3):
                assert np.allclose(x0.coefficients(), other.coefficients())

    def test_structural_zero_patterns(self, rng):
        # Scalar multiples of the identity for three bosons.
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = boson3_to_freudenthal(c, check_norm=False)
        for m in (x.a.matrix, x.b.matrix):
            assert np.count_nonzero(m - m[0, 0] * np.eye(3)) == 0

        # Doubled diagonal for qubit + two bosons.
        b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        y = boson2q_to_freudenthal(b, check_norm=False)
        for m in (y.a.matrix, y.b.matrix):
            assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
            assert m[1, 1] == m[2, 2]

        # Plain diagonal for three qubits.
        a = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        z = three_qubit_to_freudenthal(a)
        for m in (z.a.matrix, z.b.matrix):
            assert np.count_nonzero(m - np.diag(np.diag(m))) == 0

        # 1 + 2 block form for qubit + fermion pair.
        d = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        w = qubit_fermion4_to_freudenthal(d)
        for m in (w.a.matrix, w.b.matrix):
            assert np.count_nonzero(m[0, 1:]) == 0
            assert np.count_nonzero(m[1:, 0]) == 0


# -- the per-entry image maps the gather tables replaced, kept as references --

_REF_PAIRS = tuple(itertools.combinations(range(4), 2))
_REF_BARRED = ((5, 6), (6, 4), (4, 5))
_REF_UNBARRED = ((2, 3), (3, 1), (1, 2))


def _ref_three_qubit_to_freudenthal(a):
    return FreudenthalVector(
        a[0, 0, 0],
        a[1, 1, 1],
        j3(np.diag([a[0, 1, 1], a[1, 0, 1], a[1, 1, 0]])),
        j3(np.diag([a[1, 0, 0], a[0, 1, 0], a[0, 0, 1]])),
    )


def _ref_three_qubit_to_fermion(a):
    terms = [
        ((1 + 3 * i, 2 + 3 * j, 3 + 3 * k), a[i, j, k])
        for i, j, k in np.ndindex(2, 2, 2)
    ]
    return FermionState.from_terms(3, 6, terms)


def _ref_boson2q_to_freudenthal(b):
    return FreudenthalVector(
        b[0, 0],
        b[1, 2],
        j3(np.diag([b[0, 2], b[1, 1], b[1, 1]])),
        j3(np.diag([b[1, 0], b[0, 1], b[0, 1]])),
    )


def _ref_boson3_to_freudenthal(c):
    eye = np.eye(3)
    return FreudenthalVector(c[0], c[3], j3(c[2] * eye), j3(c[1] * eye))


def _ref_pair_amplitude(packed, i, j, k):
    if j == k:
        return 0.0
    if j < k:
        return packed[i, _REF_PAIRS.index((j, k))]
    return -packed[i, _REF_PAIRS.index((k, j))]


def _ref_qubit_fermion4_to_freudenthal(p):
    def pa(i, j, k):
        return _ref_pair_amplitude(p, i, j, k)

    A = np.array(
        [
            [pa(0, 2, 3), 0.0, 0.0],
            [0.0, pa(1, 0, 3), pa(1, 2, 0)],
            [0.0, pa(1, 1, 3), pa(1, 2, 1)],
        ]
    )
    B = np.array(
        [
            [pa(1, 0, 1), 0.0, 0.0],
            [0.0, pa(0, 2, 1), pa(0, 0, 2)],
            [0.0, pa(0, 3, 1), pa(0, 0, 3)],
        ]
    )
    return FreudenthalVector(pa(0, 0, 1), pa(1, 2, 3), j3(A), j3(B))


def _ref_qubit_fermion4_to_fermion(p):
    modes = (2, 3, 5, 6)
    terms = []
    for i in range(2):
        qubit_mode = 1 if i == 0 else 4
        for col, (j, k) in enumerate(_REF_PAIRS):
            terms.append(((qubit_mode, modes[j], modes[k]), p[i, col]))
    return FermionState.from_terms(3, 6, terms)


def _ref_to_freudenthal(P):
    a = np.empty((3, 3), dtype=complex)
    b = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            a[i, j] = P.amplitude((i + 1,) + _REF_BARRED[j])
            b[i, j] = P.amplitude((i + 4,) + _REF_UNBARRED[j])
    return FreudenthalVector(
        P.amplitude((1, 2, 3)), P.amplitude((4, 5, 6)), j3(a), j3(b)
    )


def _ref_from_freudenthal(x):
    terms = [((1, 2, 3), x.alpha), ((4, 5, 6), x.beta)]
    a, b = x.a.matrix, x.b.matrix
    for i in range(3):
        for j in range(3):
            terms.append(((i + 1,) + _REF_BARRED[j], a[i, j]))
            terms.append(((i + 4,) + _REF_UNBARRED[j], b[i, j]))
    return FermionState.from_terms(3, 6, terms)


def _parity_states():
    """(system, canonical state): every ranked representative, 64 seeded
    SLOCC images of each, random states, and all of them at 1e-7 and 1e8."""
    states = []
    for rep in all_representatives():
        states.append((rep.system, rep.state))
        for seed in range(64):
            element = random_group_element(rep.system, seed)
            states.append((rep.system, slocc_act(rep.state, element)))
    for system in ("fermion", "qubit3", "boson2q", "boson3", "qubit_fermion4"):
        for seed in range(16):
            states.append((system, random_state(system, seed)))
    scaled = [(system, scale * state) for scale in (1e-7, 1e8) for system, state in states]
    return [
        (system, SYSTEM_TABLE[system].native(state)) for system, state in states + scaled
    ]


def _same_fermion_state(P, Q):
    assert P.shape == Q.shape
    assert set(P.amplitudes) == set(Q.amplitudes)
    keys = sorted(P.amplitudes)
    assert np.array_equal(
        [P.amplitudes[k] for k in keys], [Q.amplitudes[k] for k in keys]
    )


class TestGatherTableParity:
    """Every signed gather table against the per-entry map it replaced:
    the same coordinates and amplitudes, bit for bit."""

    IMAGES = {
        "qubit3": (three_qubit_to_freudenthal, _ref_three_qubit_to_freudenthal),
        "boson2q": (
            lambda b: boson2q_to_freudenthal(b, check_norm=False),
            _ref_boson2q_to_freudenthal,
        ),
        "boson3": (
            lambda c: boson3_to_freudenthal(c, check_norm=False),
            _ref_boson3_to_freudenthal,
        ),
        "qubit_fermion4": (
            qubit_fermion4_to_freudenthal,
            _ref_qubit_fermion4_to_freudenthal,
        ),
        "fermion": (to_freudenthal, _ref_to_freudenthal),
    }
    FERMION_MAPS = {
        "qubit3": (three_qubit_to_fermion, _ref_three_qubit_to_fermion),
        "qubit_fermion4": (qubit_fermion4_to_fermion, _ref_qubit_fermion4_to_fermion),
    }

    def test_images_and_fermionic_maps_match_the_references(self):
        counts = dict.fromkeys(self.IMAGES, 0)
        for system, state in _parity_states():
            image, reference = self.IMAGES[system]
            x, want = image(state), reference(state)
            assert np.array_equal(x.coefficients(), want.coefficients()), system
            assert (x.alpha, x.beta) == (want.alpha, want.beta)
            assert np.array_equal(x.a.coeffs, want.a.coeffs)
            assert np.array_equal(x.b.coeffs, want.b.coeffs)
            _same_fermion_state(from_freudenthal(x), _ref_from_freudenthal(want))
            if system in self.FERMION_MAPS:
                fermionic, reference = self.FERMION_MAPS[system]
                _same_fermion_state(fermionic(state), reference(state))
            counts[system] += 1
        assert min(counts.values()) >= 2 * 64

    def test_non_finite_amplitudes_still_raise(self):
        for system, (image, _) in self.IMAGES.items():
            if system == "fermion":
                continue
            state = SYSTEM_TABLE[system].native(random_state(system, 1))
            for bad in (np.nan, np.inf):
                broken = state.copy()
                broken.reshape(-1)[-1] = bad
                with pytest.raises(ValueError):
                    image(broken)
                if system in self.FERMION_MAPS:
                    with pytest.raises(ValueError):
                        self.FERMION_MAPS[system][0](broken)

    def test_coordinates_are_cached_and_read_only(self, rng):
        x = three_qubit_to_freudenthal(
            rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        )
        assert x.coefficients() is x.coefficients()
        with pytest.raises(ValueError):
            x.coefficients()[0] = 1.0
        assert np.shares_memory(x.a.coeffs, x.coefficients())


def _tensor_cut_states(rng):
    """qubit3 arrays: products, the three kinds of biseparable state,
    generic states, and products nudged toward a generic state."""

    def vec(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    for _ in range(4):
        yield np.einsum("i,j,k->ijk", vec(2), vec(2), vec(2))
        pair = vec(4).reshape(2, 2)
        yield np.einsum("i,jk->ijk", vec(2), pair)
        yield np.einsum("j,ik->ijk", vec(2), pair)
        yield np.einsum("k,ij->ijk", vec(2), pair)
        yield vec(8).reshape(2, 2, 2)
    for eps in np.logspace(-12, -4, 17):
        product = np.einsum("i,j,k->ijk", vec(2), vec(2), vec(2))
        product /= np.linalg.norm(product)
        generic = vec(8).reshape(2, 2, 2)
        yield product + eps * generic / np.linalg.norm(generic)


class TestTensorCutParity:
    """classify._tensor_cuts (flattenings of the canonical array) against
    factors_across_cut on the MultiState of the same array, the route the
    three-qubit cut test took before."""

    def test_qubit3_cuts_match_factors_across_cut(self, rng):
        spec = SYSTEM_TABLE["qubit3"]
        patterns = set()
        for a in _tensor_cut_states(rng):
            for scale in (1.0, 1e-7, 1e8):
                scaled = scale * a
                want = tuple(
                    bp
                    for bp in bipartitions(3)
                    if factors_across_cut(multistate_from_tensor(scaled), bp[0])
                )
                assert _tensor_cuts(spec, scaled, 1e-8) == want, (scaled, scale)
                patterns.add(len(want))
        assert patterns == {0, 1, 3}
