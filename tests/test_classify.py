"""Tests for SLOCC classification, group actions, and random states."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freudenthal.classify import (
    RANKED_SYSTEMS,
    SYSTEM_TABLE,
    SYSTEMS,
    ClassLabel,
    DegeneracyWarning,
    GroupElement,
    classify_state,
    invariant_for,
    invariant_via_embedding,
    random_group_element,
    random_state,
    slocc_act,
    three_tangle,
)
from freudenthal.classify import _act_on_species
from freudenthal.embed import (
    MultiState,
    SystemShape,
    merge_species,
    species_rdm,
    three_qubit_to_fermion,
    three_qubit_to_qubit_fermion4,
)
from freudenthal.fermion import FermionState, ShapeError, _compound_columns, apply_matrix
from freudenthal.representatives import (
    Representative,
    all_representatives,
    four_qubit_pair,
)
from freudenthal.triple import rank

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

REPS = all_representatives()


def label_core(label: ClassLabel):
    return (label.rank, label.name, label.cut_pattern)


class TestRepresentativeMatrix:
    @pytest.mark.parametrize(
        "rep", REPS, ids=[f"{r.system}-{r.name}" for r in REPS]
    )
    def test_expected_class(self, rep: Representative):
        label = classify_state(rep.system, rep.state)
        assert label_core(label) == label_core(rep.expected)
        assert label.invariants_report["tangle_abs"] == pytest.approx(
            rep.expected_tangle, abs=1e-9
        )

    def test_distinct_classes_never_coincide(self):
        for system in RANKED_SYSTEMS:
            labels = {}
            for rep in REPS:
                if rep.system == system:
                    labels[rep.name] = label_core(classify_state(system, rep.state))
            # Only the two biseparable orbits of the qubit+fermion system
            # are allowed to (and indeed must not) share a label.
            values = list(labels.values())
            assert len(set(values)) == len(values)

    def test_count(self):
        assert len(REPS) == 22
        per_system = {s: 0 for s in RANKED_SYSTEMS}
        for rep in REPS:
            per_system[rep.system] += 1
        assert per_system == {
            "fermion": 4,
            "qubit_fermion4": 5,
            "qubit3": 6,
            "boson2q": 4,
            "boson3": 3,
        }


class TestExplicitInvariants:
    def test_three_tangle_frozen(self):
        ghz = np.zeros((2, 2, 2), dtype=complex)
        ghz[0, 0, 0] = ghz[1, 1, 1] = 1 / SQRT2
        assert three_tangle(ghz) == pytest.approx(1.0)
        w = np.zeros((2, 2, 2), dtype=complex)
        w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 1 / SQRT3
        assert three_tangle(w) == pytest.approx(0.0, abs=1e-15)
        product = np.zeros((2, 2, 2), dtype=complex)
        product[0, 0, 0] = 1.0
        assert three_tangle(product) == 0.0
        with pytest.raises(ShapeError):
            three_tangle(np.zeros((2, 2)))

    def test_invariant_frozen_values(self):
        for rep in REPS:
            assert invariant_for(rep.system, rep.state) == pytest.approx(
                rep.expected_tangle, abs=1e-9
            )

    def test_dual_route_equality(self, rng):
        for system in RANKED_SYSTEMS:
            for trial in range(40):
                state = random_state(system, seed=int(rng.integers(2**31)))
                direct = invariant_for(system, state)
                embedded = invariant_via_embedding(system, state)
                assert direct == pytest.approx(embedded, rel=1e-9, abs=1e-12)

    def test_unsupported_system(self):
        with pytest.raises(ShapeError):
            invariant_for("multi", None)
        with pytest.raises(ShapeError):
            invariant_via_embedding("multi", None)


class TestGroupElements:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupElement([np.zeros((2, 2))])
        with pytest.raises(ShapeError):
            GroupElement([np.zeros((2, 3))])
        with pytest.raises(ValueError):
            GroupElement([])
        with pytest.raises(ValueError):
            GroupElement([np.array([[np.nan, 0], [0, 1]])])
        g = GroupElement([2.0 * np.eye(3)])
        assert g.determinants[0] == pytest.approx(8.0)

    def test_random_element_shapes(self):
        assert [m.shape for m in random_group_element("qubit3", 7).matrices] == [
            (2, 2)
        ] * 3
        assert [
            m.shape for m in random_group_element("qubit_fermion4", 7).matrices
        ] == [(2, 2), (4, 4)]
        g = random_group_element("fermion", 7, unit_determinant=True)
        assert g.matrices[0].shape == (6, 6)
        assert np.linalg.det(g.matrices[0]) == pytest.approx(1.0)
        multi = random_group_element("multi", 7, shape=((2, 4), (1, 3)))
        assert [m.shape for m in multi.matrices] == [(4, 4), (3, 3)]
        with pytest.raises(ShapeError):
            random_group_element("multi", 7)


class TestGroupActions:
    def test_identity_fixes_everything(self):
        for rep in REPS:
            sizes = {
                "fermion": [6],
                "qubit3": [2, 2, 2],
                "boson2q": [2, 2],
                "boson3": [2],
                "qubit_fermion4": [2, 4],
            }[rep.system]
            moved = slocc_act(rep.state, [np.eye(n) for n in sizes])
            if isinstance(rep.state, FermionState):
                assert (moved - rep.state).norm() < 1e-12
            else:
                assert np.allclose(moved, rep.state)

    def test_composition(self, rng):
        for system in RANKED_SYSTEMS:
            state = random_state(system, seed=11)
            g = random_group_element(system, seed=12)
            h = random_group_element(system, seed=13)
            gh = GroupElement(
                [a @ b for a, b in zip(g.matrices, h.matrices)]
            )
            one = slocc_act(slocc_act(state, h), g)
            two = slocc_act(state, gh)
            if isinstance(state, FermionState):
                assert (one - two).norm() < 1e-9
            else:
                assert np.allclose(one, two, atol=1e-9)

    def test_multistate_action_matches_merged_block_action(self, rng):
        shape = SystemShape(((2, 4), (1, 3)))
        keys = list(
            itertools.product(shape.local_keys(1), shape.local_keys(2))
        )
        psi = MultiState(
            shape, {k: complex(rng.normal(), rng.normal()) for k in keys}
        )
        g = random_group_element("multi", 21, shape=shape)
        block = np.zeros((7, 7), dtype=complex)
        block[:4, :4] = g.matrices[0]
        block[4:, 4:] = g.matrices[1]
        lhs = merge_species(slocc_act(psi, g))
        rhs = apply_matrix(merge_species(psi), block)
        assert (lhs - rhs).norm() < 1e-9

    def test_boson_actions_respect_tensor_picture(self, rng):
        # The symmetric-slot action must agree with acting on the full
        # tensor and reading the symmetric coordinates back.
        b = random_state("boson2q", seed=31)
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        moved = slocc_act(b, [g1, g2])
        tensor = np.empty((2, 2, 2), dtype=complex)
        for j, k in itertools.product(range(2), repeat=2):
            tensor[:, j, k] = b[:, j + k]
        full = np.einsum("ia,jb,kc,abc->ijk", g1, g2, g2, tensor)
        assert np.allclose(moved[:, 0], full[:, 0, 0])
        assert np.allclose(moved[:, 1], full[:, 0, 1])
        assert np.allclose(moved[:, 1], full[:, 1, 0])
        assert np.allclose(moved[:, 2], full[:, 1, 1])

        c = random_state("boson3", seed=32)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        moved_c = slocc_act(c, [g])
        cube = np.empty((2, 2, 2), dtype=complex)
        for j, k, l in itertools.product(range(2), repeat=3):
            cube[j, k, l] = c[j + k + l]
        full_c = np.einsum("ia,jb,kc,abc->ijk", g, g, g, cube)
        for j, k, l in itertools.product(range(2), repeat=3):
            assert full_c[j, k, l] == pytest.approx(moved_c[j + k + l])

    def test_boson2q_action_is_bitwise_that_of_the_per_entry_tensor(self):
        # einsum's rounding follows the memory layout of its operands, so
        # the inclusion map must hand it the C-ordered tensor that a
        # per-entry construction gives.
        for seed in range(16):
            b = random_state("boson2q", seed=seed)
            g = random_group_element("boson2q", seed=seed)
            tensor = np.empty((2, 2, 2), dtype=complex)
            for j, k in itertools.product(range(2), repeat=2):
                tensor[:, j, k] = b[:, j + k]
            g1, g2 = g.matrices
            full = np.einsum("ia,jb,kc,abc->ijk", g1, g2, g2, tensor)
            moved = slocc_act(b, g)
            assert moved[:, 0].tobytes() == full[:, 0, 0].tobytes()
            assert moved[:, 2].tobytes() == full[:, 1, 1].tobytes()

    def test_antisymmetric_form_preserved(self, rng):
        full = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        full = full - full.transpose(0, 2, 1)
        g = random_group_element("qubit_fermion4", seed=41)
        moved = slocc_act(full, g)
        assert moved.shape == (2, 4, 4)
        assert np.allclose(moved, -moved.transpose(0, 2, 1))

    def test_qubit_fermion4_action_matches_minors(self, rng):
        # The pair factor moves by the 2 x 2 minors of the 4 x 4 matrix.
        packed = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        g = random_group_element("qubit_fermion4", seed=43)
        pairs = np.array(list(itertools.combinations(range(4), 2)))
        rows, cols = pairs[:, None, :, None], pairs[None, :, None, :]
        minors = np.linalg.det(g.matrices[1][rows, cols])
        expected = g.matrices[0] @ packed @ minors.T
        bound = 1e-12 * np.abs(expected).max()
        assert np.abs(slocc_act(packed, g) - expected).max() <= bound

    def test_dispatch_errors(self):
        state = random_state("qubit3", seed=51)
        with pytest.raises(ShapeError):
            slocc_act(state, [np.eye(2)])
        with pytest.raises(ShapeError):
            slocc_act(state, [np.eye(2)] * 3, system="boson3")
        with pytest.raises(ShapeError):
            slocc_act(np.zeros(5), [np.eye(2)])
        fermionic = random_state("fermion", seed=52)
        with pytest.raises(ShapeError):
            slocc_act(fermionic, [np.eye(6)], system="qubit3")


class TestClassInvariance:
    @pytest.mark.parametrize("system", RANKED_SYSTEMS)
    def test_class_stable_under_group(self, system, rng):
        for trial in range(30):
            state = random_state(system, seed=int(rng.integers(2**31)))
            g = random_group_element(system, seed=int(rng.integers(2**31)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneracyWarning)
                before = classify_state(system, state)
                after = classify_state(system, slocc_act(state, g))
            assert label_core(before) == label_core(after)

    @pytest.mark.parametrize("system", RANKED_SYSTEMS)
    def test_unit_determinant_fixes_invariant(self, system, rng):
        for trial in range(10):
            state = random_state(system, seed=int(rng.integers(2**31)))
            g = random_group_element(
                system, seed=int(rng.integers(2**31)), unit_determinant=True
            )
            before = invariant_for(system, state)
            after = invariant_for(system, slocc_act(state, g))
            assert after == pytest.approx(before, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("system", RANKED_SYSTEMS)
    def test_invariant_scales_by_state_independent_factor(self, system):
        g = random_group_element(system, seed=61)
        ratios = []
        for s in range(10):
            state = random_state(system, seed=7000 + s)
            ratios.append(
                invariant_for(system, slocc_act(state, g))
                / invariant_for(system, state)
            )
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-6)

    @pytest.mark.parametrize("system", RANKED_SYSTEMS)
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_representative_class_is_slocc_invariant(self, system, data):
        reps = [rep for rep in REPS if rep.system == system]
        rep = data.draw(st.sampled_from(reps), label="representative")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        moved = slocc_act(rep.state, random_group_element(system, seed), system)
        before = classify_state(system, rep.state)
        assert label_core(classify_state(system, moved)) == label_core(before)


class TestScaleSafety:
    SCALES = (1e-170, 1e-3, 1e4, 1e160, 1e300)

    def test_every_representative_keeps_its_verdict_at_any_scale(self):
        for rep in REPS:
            for scale in self.SCALES:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegeneracyWarning)
                    with np.errstate(over="ignore", invalid="ignore"):
                        label = classify_state(rep.system, scale * rep.state)
                assert label_core(label) == label_core(rep.expected), (
                    rep.system,
                    rep.name,
                    scale,
                )

    def test_invariants_rescale_exactly(self):
        # Library use, outside the CLI's warning capture: no warning at all,
        # the verdict kept, and both routes give 0 where the invariant
        # vanishes or underflows and inf where it overflows, never nan.
        for rep in REPS:
            for scale in (1e-170, 1e-100, 1e100, 1e160, 1e300):
                state = scale * rep.state
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    label = classify_state(rep.system, state)
                    embedded = invariant_via_embedding(rep.system, state)
                where = (rep.system, rep.name, scale)
                assert label_core(label) == label_core(rep.expected), where
                tangle = label.invariants_report["tangle_abs"]
                if rep.expected_tangle == 0.0 or scale < 1.0:
                    assert tangle == embedded == 0.0, where
                else:
                    assert tangle == embedded == math.inf, where


class TestSplitting:
    def test_biseparable_images_share_fermionic_class(self):
        # The three biseparable qubit classes have distinct cut patterns
        # but land in a single rank-2 fermionic orbit.
        cuts = set()
        for rep in REPS:
            if rep.system == "qubit3" and rep.expected.name == "biseparable":
                cuts.add(rep.expected.cut_pattern)
                image = three_qubit_to_fermion(rep.state)
                label = classify_state("fermion", image)
                assert (label.rank, label.name) == (2, "biseparable")
        assert len(cuts) == 3

    def test_middle_and_last_cut_merge_in_qubit_fermion_system(self):
        by_name = {
            (r.system, r.name): r for r in REPS
        }
        b2 = by_name[("qubit3", "bisep_cut2")].state
        b3 = by_name[("qubit3", "bisep_cut3")].state
        l2 = classify_state("qubit_fermion4", three_qubit_to_qubit_fermion4(b2))
        l3 = classify_state("qubit_fermion4", three_qubit_to_qubit_fermion4(b3))
        assert label_core(l2) == label_core(l3)
        assert l2.cut_pattern == ()
        b1 = by_name[("qubit3", "bisep_cut1")].state
        l1 = classify_state("qubit_fermion4", three_qubit_to_qubit_fermion4(b1))
        assert l1.cut_pattern == (((1,), (2,)),)

    def test_four_qubit_pair_splits_one_fermionic_orbit(self):
        first, second, connector = four_qubit_pair()
        one = classify_state("multi", first)
        two = classify_state("multi", second)
        assert one.name == two.name == "biseparable"
        assert one.cut_pattern != two.cut_pattern
        assert ((1, 2), (3, 4)) in one.cut_pattern
        assert ((1, 2), (3, 4)) in two.cut_pattern
        moved = apply_matrix(merge_species(first), connector)
        assert (moved - merge_species(second)).norm() < 1e-12


class TestGeneralShapes:
    def test_multi_product_vs_entangled(self, rng):
        shape = SystemShape(((1, 2), (1, 2), (1, 2)))
        amp = {}
        for key in itertools.product(shape.local_keys(1), shape.local_keys(2), shape.local_keys(3)):
            amp[key] = complex(rng.normal(), rng.normal())
        # Generic three-qubit states are fully entangled.
        generic = MultiState(shape, amp)
        label = classify_state("multi", generic)
        assert label.rank is None and label.name == "entangled"

        product = MultiState(shape, {((1,), (2,), (1,)): 1.0})
        assert classify_state("multi", product).name == "separable"

        half = 1 / SQRT2
        bisep = MultiState(
            shape, {((1,), (1,), (1,)): half, ((1,), (2,), (2,)): half}
        )
        blabel = classify_state("multi", bisep)
        assert blabel.name == "biseparable"
        assert blabel.cut_pattern == (((1,), (2, 3)),)

    def test_general_fermion_verdicts(self, rng):
        from freudenthal.fermion import wedge_of_vectors

        vecs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        plane = wedge_of_vectors(vecs)
        plane = (1.0 / plane.norm()) * plane
        assert classify_state("fermion", plane).name == "separable"
        generic = random_state("fermion", seed=71, shape=(2, 4))
        label = classify_state("fermion", generic)
        assert label.name == "entangled"
        assert "wedge_power_norm" in label.invariants_report

    def test_eight_qubit_sized_fermion_state(self, rng):
        # C(16, 8) = 12 870 amplitudes: the lift is 11 440 x 16, where the
        # full Pluecker scan would need gigabytes of tables.
        from freudenthal.fermion import wedge_of_vectors

        generic = random_state("fermion", seed=81, shape=(8, 16))
        label = classify_state("fermion", generic)
        assert (label.rank, label.name) == (None, "entangled")
        assert label.invariants_report["wedge_power_norm"] > 0.0
        plane = wedge_of_vectors(rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16)))
        label = classify_state("fermion", (1.0 / plane.norm()) * plane)
        assert label.name == "separable"
        assert label.invariants_report["wedge_power_norm"] < 1e-12

    def test_wedge_powers_past_the_cap(self):
        # Only a state's own array is held to MAX_DIMENSION.  Two 10-level
        # qudits merge to (2, 20), 190 amplitudes, whose wedge power, as a
        # chain of products, would pass through (10, 20),
        # C(20, 10) = 184 756 > MAX_DIMENSION.
        from freudenthal.fermion import MAX_DIMENSION, wedge_power_norm

        assert math.comb(20, 10) > MAX_DIMENSION
        shape = SystemShape(((1, 10), (1, 10)))
        ghz = MultiState(shape, {((i,), (i,)): 10**-0.5 for i in range(1, 11)})
        expected = math.factorial(10) * 10**-5  # d! d^(-d/2) at d = 10
        assert wedge_power_norm(merge_species(ghz)) == pytest.approx(expected)
        label = classify_state("multi", ghz)
        assert label.name == "entangled"
        assert label.invariants_report["wedge_power_norm"] == pytest.approx(expected)
        draw = random_state("fermion", seed=84, shape=(2, 20))
        label = classify_state("fermion", draw)
        assert label.name == "entangled"
        assert label.invariants_report["wedge_power_norm"] > 0.0

    def test_pair_states_at_many_modes(self):
        # A chain of wedge products would pass through C(40, 20) and
        # C(100, 50) amplitudes; d! sqrt|det A| for P's skew matrix A needs none.
        for shape in ((2, 40), (2, 100)):
            draw = random_state("fermion", seed=85, shape=shape)
            label = classify_state("fermion", draw)
            assert label.name == "entangled"
            n, d = shape[1], shape[1] // 2
            skew = np.zeros((n, n), dtype=complex)
            for (i, j), value in draw.amplitudes.items():
                skew[i - 1, j - 1], skew[j - 1, i - 1] = value, -value
            expected = math.factorial(d) * math.sqrt(abs(np.linalg.det(skew)))
            assert label.invariants_report["wedge_power_norm"] == pytest.approx(expected, rel=1e-9)

    def test_two_twenty_level_qudits(self):
        shape = SystemShape(((1, 20), (1, 20)))
        ghz = MultiState(shape, {((i,), (i,)): 20**-0.5 for i in range(1, 21)})
        label = classify_state("multi", ghz)
        assert label.name == "entangled"
        expected = math.factorial(20) * 20.0**-10  # d! d^(-d/2) at d = 20
        assert expected == pytest.approx(237588.0867)
        assert label.invariants_report["wedge_power_norm"] == pytest.approx(expected, rel=1e-12)

    def test_one_particle_states_are_separable_at_many_modes(self):
        # Every nonzero vector is decomposable: the lift is 1 x 300, with
        # one singular value, so the ratio is 0.
        from freudenthal.fermion import decomposability_ratio

        vector = random_state("fermion", seed=83, shape=(1, 300))
        assert decomposability_ratio(vector) == 0.0
        assert classify_state("fermion", vector).name == "separable"

    def test_verdict_and_warning_follow_the_kernel_ratio(self, rng):
        from freudenthal.fermion import decomposability_ratio, is_decomposable, wedge_of_vectors

        plane = wedge_of_vectors(rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
        plane = (1.0 / plane.norm()) * plane
        generic = random_state("fermion", seed=82, shape=(3, 8))
        seen = set()
        for eps in np.logspace(-11, -5, 13):
            state = plane + eps * generic
            ratio = decomposability_ratio(state)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                label = classify_state("fermion", state)
            warned = any(issubclass(w.category, DegeneracyWarning) for w in caught)
            assert warned == (0.1 < ratio < 10.0), (eps, ratio)
            assert (label.name == "separable") == (ratio <= 1.0) == is_decomposable(state)
            seen.add((warned, label.name))
        assert seen == {(False, "separable"), (True, "separable"),
                        (True, "entangled"), (False, "entangled")}

    def test_wedge_power_reported_only_when_defined(self):
        odd = random_state("fermion", seed=72, shape=(3, 6))
        assert "wedge_power_norm" not in classify_state(
            "fermion", odd
        ).invariants_report
        uneven = random_state("fermion", seed=73, shape=(2, 5))
        assert "wedge_power_norm" not in classify_state(
            "fermion", uneven
        ).invariants_report

    def test_zero_and_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_state("fermion", FermionState(3, 6, {}))
        with pytest.raises(ShapeError):
            classify_state("nonsense", None)
        with pytest.raises(ShapeError):
            classify_state("multi", np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            classify_state("qubit3", random_state("qubit3", 7), tol=0.0)


class TestBosonRankTwoSearch:
    def test_rank_two_never_observed_and_maps_to_separable(self):
        # The symmetric three-boson subspace is expected to skip rank 2
        # entirely: a random search over generic and deliberately
        # degenerate states only ever produces ranks 1, 3, 4.  This test
        # documents the search; it asserts the classifier's contract
        # (rank <= 2 means separable here), not unreachability.
        from freudenthal.embed import boson3_to_freudenthal

        seen = set()
        states = [random_state("boson3", seed=s) for s in range(200)]
        for t in np.linspace(-1.0, 1.0, 41):
            states.append(np.array([1.0, t, 0.0, 0.0], dtype=complex))
            states.append(np.array([0.0, 1.0, t, 0.0], dtype=complex))
            cube = np.array([1.0, t, t**2, t**3], dtype=complex)
            states.append(cube)
        for c in states:
            if np.linalg.norm(c) == 0:
                continue
            x = boson3_to_freudenthal(c, check_norm=False)
            r = rank(x)
            seen.add(r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneracyWarning)
                label = classify_state("boson3", c)
            if r <= 2:
                assert label.name == "separable"
        assert 1 in seen and 3 in seen and 4 in seen


class TestRandomStates:
    def test_determinism_and_norm(self):
        for system in RANKED_SYSTEMS:
            one = random_state(system, seed=81)
            two = random_state(system, seed=81)
            if isinstance(one, FermionState):
                assert (one - two).norm() == 0.0
                assert one.norm() == pytest.approx(1.0)
            else:
                assert np.array_equal(one, two)

    def test_norm_conventions(self):
        b = random_state("boson2q", seed=82)
        weighted = sum(
            abs(b[i, m]) ** 2 * w
            for i in range(2)
            for m, w in enumerate((1, 2, 1))
        )
        assert weighted == pytest.approx(1.0)
        c = random_state("boson3", seed=83)
        weighted_c = sum(
            abs(c[m]) ** 2 * w for m, w in enumerate((1, 3, 3, 1))
        )
        assert weighted_c == pytest.approx(1.0)
        assert np.linalg.norm(random_state("qubit3", 84)) == pytest.approx(1.0)
        assert np.linalg.norm(
            random_state("qubit_fermion4", 85)
        ) == pytest.approx(1.0)

    def test_generic_rank_dominates(self):
        for system in RANKED_SYSTEMS:
            hits = 0
            for s in range(300):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegeneracyWarning)
                    label = classify_state(system, random_state(system, seed=s))
                hits += label.rank == 4
            assert hits >= 297

    def test_multi_needs_shape(self):
        with pytest.raises(ShapeError):
            random_state("multi", 7)
        psi = random_state("multi", 7, shape=((2, 4), (1, 2)))
        assert psi.norm() == pytest.approx(1.0)

    def test_dense_systems_take_only_their_shapes(self):
        for system in ("qubit3", "boson2q", "boson3", "qubit_fermion4"):
            with pytest.raises(ShapeError):
                random_state(system, 7, shape=(9, 9))
            with pytest.raises(ShapeError):
                random_group_element(system, 7, shape=(9, 9))
            spec = SYSTEM_TABLE[system]
            for shape in spec.shapes:
                # Every shape gets the requested array, holding the same draw.
                drawn = random_state(system, 7, shape=shape)
                assert drawn.shape == shape
                assert np.array_equal(spec.native(drawn), random_state(system, 7))
                random_group_element(system, 7, shape=shape)
        # General shapes still pass through.
        assert random_state("fermion", 7, shape=(2, 5)).shape == (2, 5)


# -- the dict-based routines the array store replaced, kept as references -----


def _ref_act_on_species(psi, species_index, matrix):
    shape = psi.shape
    k_i, n_i = shape.species[species_index]
    local = shape.local_keys(species_index + 1)
    position = {key: j for j, key in enumerate(local)}
    contexts: dict = {}
    for key, value in psi.amplitudes.items():
        ctx = key[:species_index] + key[species_index + 1 :]
        vec = contexts.setdefault(ctx, np.zeros(len(local), dtype=complex))
        vec[position[key[species_index]]] += value
    columns = np.array(list(contexts.values())).reshape(len(contexts), len(local))
    moved = _compound_columns(matrix, columns.T, k_i)
    amp: dict = {}
    for ctx, out in zip(contexts, moved.T):
        for j, value in enumerate(out):
            if value != 0:
                amp[ctx[:species_index] + (local[j],) + ctx[species_index:]] = value
    return MultiState(shape, amp)


def _ref_species_rdm(psi, species):
    """Per context of the other species, the sum over (k-1)-subsets S of
    eps_a eps_b P[S + a] conj(P[S + b]), eps_a P[S + a] read as the signed
    amplitude of the sequence (a, *S)."""
    i = species - 1
    k_i, n_i = psi.shape.species[i]
    contexts: dict = {}
    for key, value in psi.amplitudes.items():
        contexts.setdefault(key[:i] + key[i + 1 :], {})[key[i]] = value
    rho = np.zeros((n_i, n_i), dtype=complex)
    for local in contexts.values():
        P = FermionState(k_i, n_i, local)
        for rest in itertools.combinations(range(1, n_i + 1), k_i - 1):
            row = np.array([P.amplitude((a,) + rest) for a in range(1, n_i + 1)])
            rho += np.outer(row, row.conj())
    return rho / k_i


def _ref_draw(rng, keys):
    return {key: complex(rng.normal(), rng.normal()) for key in keys}


def _ref_random_state(system, seed, shape):
    """random_state of a fermion or multi shape as a dict: one draw per key
    in key order, divided by the norm summed in that order."""
    rng = np.random.default_rng(seed)
    if system == "fermion":
        amp = _ref_draw(rng, itertools.combinations(range(1, shape[1] + 1), shape[0]))
    else:
        amp = _ref_draw(rng, itertools.product(
            *(itertools.combinations(range(1, n + 1), k) for k, n in shape)))
    scale = complex(1.0 / float(np.sqrt(sum(abs(v) ** 2 for v in amp.values()))))
    return {key: scale * value for key, value in amp.items()}


class TestArrayStoreParity:
    """The array-native draws, species action and species RDM against the
    dict-based routines they replaced: draws bit for bit, the rest to 1e-12
    (einsum and the matrix products may round differently by layout)."""

    FERMION_SHAPES = ((3, 6), (2, 5), (4, 10), (8, 16))
    MULTI_SHAPES = (
        ((1, 2),) * 3, ((2, 4), (1, 3)), ((1, 2), (2, 4), (1, 3)), ((1, 2),) * 8
    )

    def test_draws_are_bit_identical(self):
        for system, shapes in (("fermion", self.FERMION_SHAPES), ("multi", self.MULTI_SHAPES)):
            for shape in shapes:
                for seed in (0, 7, (3, 1)):
                    drawn = random_state(system, seed, shape=shape)
                    assert dict(drawn.amplitudes) == _ref_random_state(system, seed, shape)

    def test_species_action_and_rdm_match_the_references(self):
        for s, species in enumerate(self.MULTI_SHAPES[:3] + (((3, 5), (2, 4)),)):
            psi = random_state("multi", (90, s), shape=species)
            sparse = MultiState(psi.shape, dict(list(psi.amplitudes.items())[::3]))
            for state in (psi, (1.0 / sparse.norm()) * sparse):
                g = random_group_element("multi", (91, s), shape=species)
                for index, matrix in enumerate(g.matrices):
                    moved = _act_on_species(state, index, matrix)
                    want = _ref_act_on_species(state, index, matrix)
                    assert (moved - want).norm() <= 1e-12 * want.norm()
                for species_index in range(1, len(species) + 1):
                    rho = species_rdm(state, species_index)
                    want = _ref_species_rdm(state, species_index)
                    assert np.linalg.norm(rho - want) <= 1e-12 * np.linalg.norm(want)


class TestDegeneracyWarning:
    def test_near_threshold_state_warns(self):
        w = np.zeros((2, 2, 2), dtype=complex)
        w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 1 / SQRT3
        ghz = np.zeros((2, 2, 2), dtype=complex)
        ghz[0, 0, 0] = ghz[1, 1, 1] = 1 / SQRT2
        nearly = w + 1e-8 * ghz
        nearly = nearly / np.linalg.norm(nearly)
        with pytest.warns(DegeneracyWarning):
            classify_state("qubit3", nearly)

    def test_clean_states_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            for rep in REPS:
                classify_state(rep.system, rep.state)


class TestClassLabel:
    def test_serialization(self):
        label = classify_state("qubit3", [r for r in REPS if r.name == "bisep_cut2"][0].state)
        payload = label.to_dict()
        assert payload["rank"] == 2
        assert payload["name"] == "biseparable"
        assert payload["cut_pattern"] == [[[2], [1, 3]]]
        assert "tangle_abs" in payload["invariants_report"]

    def test_equality_ignores_report(self):
        one = ClassLabel(4, "GHZ", (), {"tangle_abs": 1.0})
        two = ClassLabel(4, "GHZ", (), {"tangle_abs": 0.5})
        assert one == two
        assert hash(one) == hash(two)
