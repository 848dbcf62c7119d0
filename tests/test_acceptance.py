"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them)
and pins its numeric tolerances inline.  Everything is seeded, so the gate
is deterministic.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from conftest import random_complex, random_fermion_amplitudes, random_jordan
from freudenthal.classify import (
    GroupElement,
    classify_state,
    invariant_for,
    invariant_via_embedding,
    random_state,
    slocc_act,
)
from freudenthal.embed import (
    MultiState,
    SystemShape,
    boson2q_to_freudenthal,
    boson3_to_freudenthal,
    embedded_rdm_blocks,
    merge_species,
    multistate_from_tensor,
    qubit_fermion4_to_fermion,
    qubit_fermion4_to_freudenthal,
    qubit_separability_direct,
    rdm_direct_sum,
    separability_via_embedding,
    three_qubit_to_fermion,
    three_qubit_to_freudenthal,
)
from freudenthal.fermion import (
    FermionState,
    apply_matrix,
    idempotency_defect,
    is_decomposable,
    pluecker_scan,
    wedge_of_vectors,
    wedge_power_norm,
)
from freudenthal.jordan import (
    AlgebraKind,
    identity,
    sharp,
    springer_sharp,
    springer_trace_form,
    trace_form,
)
from freudenthal.representatives import all_representatives, four_qubit_pair

RANKED = ("fermion", "qubit3", "boson2q", "boson3", "qubit_fermion4")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {number:2d}. {title}")
        raise
    print(f"PASS  {number:2d}. {title}")


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def test_01_representative_classification():
    with criterion(1, "representative states classify to their named classes"):
        reps = all_representatives()
        assert len(reps) == 22
        assert len({r.system for r in reps}) == 5
        for rep in reps:
            label = classify_state(rep.system, rep.state)
            assert label == rep.expected, f"{rep.system}/{rep.name}: {label}"
            tangle = invariant_for(rep.system, rep.state)
            if rep.name == "ghz":
                assert abs(tangle - 1.0) <= 1e-9
                assert label.rank == 4
            elif rep.name == "w":
                assert tangle <= 1e-9
                assert label.rank == 3
            elif rep.name.startswith("bisep"):
                assert label.rank == 2
            else:
                assert rep.name == "product" and label.rank == 1


def test_02_invariant_route_equality():
    with criterion(2, "explicit quartic equals the embedded-route quartic"):
        for index, system in enumerate(RANKED):
            for trial in range(1000):
                state = random_state(system, seed=(200 + index, trial))
                direct = invariant_for(system, state)
                embedded = invariant_via_embedding(system, state)
                assert rel_close(direct, embedded, 1e-9), (
                    f"{system} trial {trial}: {direct} vs {embedded}"
                )


def _pluecker_verdict(P: FermionState, tol: float) -> bool:
    """The paper's criterion: every Plücker relation within tol * ||P||^2."""
    return pluecker_scan(P)[0] <= tol * P.norm() ** 2


def test_03_pluecker_matches_kernel_oracle():
    with criterion(3, "Pluecker verdicts match the kernel-rank test"):
        rng = np.random.default_rng(301)
        shapes = [(2, 4), (2, 6), (3, 6), (4, 8)]
        tol = 1e-8
        decomposable_count = generic_count = 0
        for k, n in shapes:
            for _ in range(250):
                P = wedge_of_vectors(random_complex(rng, k, n))
                P = P * (1.0 / P.norm())
                assert is_decomposable(P, tol)
                assert _pluecker_verdict(P, tol)
                decomposable_count += 1
            for _ in range(250):
                Q = FermionState(k, n, random_fermion_amplitudes(k, n, rng))
                assert not is_decomposable(Q, tol)
                assert not _pluecker_verdict(Q, tol)
                generic_count += 1
        assert decomposable_count == generic_count == 1000


def _random_product_multistate(
    shape: tuple[tuple[int, int], ...], rng: np.random.Generator
) -> MultiState:
    factors = []
    for k_i, n_i in shape:
        factor = wedge_of_vectors(random_complex(rng, k_i, n_i))
        factors.append(list(factor._amp.items()))
    amp = {}
    for combo in itertools.product(*factors):
        key = tuple(part for part, _ in combo)
        amp[key] = math.prod((value for _, value in combo), start=1.0 + 0.0j)
    psi = MultiState(SystemShape(shape), amp)
    return psi * (1.0 / psi.norm())


def test_04_multispecies_separability_transfer():
    with criterion(4, "embedded Pluecker test decides multi-species products"):
        rng = np.random.default_rng(401)
        shapes = [
            ((1, 2), (1, 2)),
            ((1, 2), (1, 2), (1, 2)),
            ((1, 2), (2, 4)),
            ((2, 4), (1, 3)),
            ((1, 3), (1, 2), (1, 3)),
            ((2, 4), (2, 4)),
        ]
        qubit_uniform = {((1, 2), (1, 2)), ((1, 2), (1, 2), (1, 2))}
        products = entangled = 0
        for i in range(500):
            shape = shapes[i % len(shapes)]
            psi = _random_product_multistate(shape, rng)
            assert separability_via_embedding(psi)
            assert _pluecker_verdict(merge_species(psi), 1e-8)
            if shape in qubit_uniform:
                assert qubit_separability_direct(psi)
            products += 1
        for i in range(500):
            shape = shapes[i % len(shapes)]
            psi = random_state("multi", seed=(402, i), shape=shape)
            assert not separability_via_embedding(psi)
            assert not _pluecker_verdict(merge_species(psi), 1e-8)
            if shape in qubit_uniform:
                assert not qubit_separability_direct(psi)
            entangled += 1
        assert products == entangled == 500


def test_05_four_qubit_class_splitting():
    with criterion(5, "one fermionic orbit splits into two four-qubit classes"):
        first, second, connector = four_qubit_pair()
        moved = apply_matrix(merge_species(first), connector)
        assert (moved - merge_species(second)).norm() <= 1e-12
        label_first = classify_state("multi", first)
        label_second = classify_state("multi", second)
        assert label_first.name == label_second.name == "biseparable"
        assert label_first.cut_pattern != label_second.cut_pattern


def test_06_wedge_power_reference_values():
    with criterion(6, "wedge-power invariant hits its closed-form values"):
        ghz2 = multistate_from_tensor(np.eye(2, dtype=complex) / math.sqrt(2.0))
        assert abs(wedge_power_norm(merge_species(ghz2)) - 1.0) <= 1e-9
        ghz3 = multistate_from_tensor(np.eye(3, dtype=complex) / math.sqrt(3.0))
        expected = 6.0 * 3.0 ** -1.5
        assert abs(wedge_power_norm(merge_species(ghz3)) - expected) <= 1e-9
        for parties in (4, 6):
            w = np.zeros((2,) * parties, dtype=complex)
            for i in range(parties):
                idx = tuple(1 if j == i else 0 for j in range(parties))
                w[idx] = parties ** -0.5
            image = merge_species(multistate_from_tensor(w))
            assert wedge_power_norm(image) <= 1e-12


def test_07_rdm_direct_sum_and_idempotency():
    with criterion(7, "merged one-particle RDM block-decomposes; gamma defect"):
        shapes = [
            ((1, 2), (1, 2), (1, 2)),
            ((2, 4), (1, 3)),
            ((1, 2), (2, 4)),
            ((2, 4), (2, 4)),
            ((1, 3), (1, 3)),
        ]
        for s, shape in enumerate(shapes):
            for trial in range(40):
                psi = random_state("multi", seed=(700 + s, trial), shape=shape)
                rho, blocks = embedded_rdm_blocks(psi)
                assembled = rdm_direct_sum(psi.shape, blocks)
                assert np.linalg.norm(rho - assembled) <= 1e-9
        rng = np.random.default_rng(701)
        for k, n in ((2, 4), (2, 6), (3, 6), (4, 8)):
            for _ in range(10):
                P = wedge_of_vectors(random_complex(rng, k, n))
                P = P * (1.0 / P.norm())
                assert idempotency_defect(P) <= 1e-9
        half = 1.0 / math.sqrt(2.0)
        ghz_like = [
            FermionState(3, 6, {(1, 2, 3): half, (4, 5, 6): half}),
            three_qubit_to_fermion(
                np.array([half, 0, 0, 0, 0, 0, 0, half]).reshape(2, 2, 2)
            ),
            qubit_fermion4_to_fermion(
                np.array([[half, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, half]])
            ),
            merge_species(
                multistate_from_tensor(np.eye(2, dtype=complex) * half)
            ),
        ]
        for state in ghz_like:
            assert idempotency_defect(state) > 0.1
        assert abs(
            idempotency_defect(ghz_like[0]) - math.sqrt(6.0) / 4.0
        ) <= 1e-12


def test_08_springer_reconstruction():
    with criterion(8, "norm-derived trace form and sharp match explicit ones"):
        rng = np.random.default_rng(801)
        for kind in AlgebraKind:
            c = identity(kind)
            for _ in range(200):
                x = random_jordan(kind, rng)
                y = random_jordan(kind, rng)
                lhs = springer_trace_form(x, y, c)
                rhs = trace_form(x, y)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
                recon = springer_sharp(x, c)
                explicit = sharp(x)
                scale = max(
                    float(np.linalg.norm(explicit.coeffs)), 1.0
                )
                assert float(
                    np.linalg.norm(recon.coeffs - explicit.coeffs)
                ) <= 1e-9 * scale


_ACTION_SIZES = {
    "fermion": (6,),
    "qubit3": (2, 2, 2),
    "boson2q": (2, 2),
    "boson3": (2,),
    "qubit_fermion4": (2, 4),
}


def conditioned_element(
    system: str, seed, unit_determinant: bool = False
) -> GroupElement:
    """A random invertible action whose factors have singular values in
    [1/2, 2]: near-singular factors would park states numerically on a
    lower rank stratum, which no finite tolerance can see through."""
    rng = np.random.default_rng(seed)
    matrices = []
    for size in _ACTION_SIZES[system]:
        u, _ = np.linalg.qr(random_complex(rng, size, size))
        v, _ = np.linalg.qr(random_complex(rng, size, size))
        log2 = math.log(2.0)
        singular = np.exp(rng.uniform(-log2, log2, size))
        m = u @ np.diag(singular) @ v.conj().T
        if unit_determinant:
            m = m / np.linalg.det(m) ** (1.0 / size)
        matrices.append(m)
    return GroupElement(matrices)


def test_09_slocc_invariance():
    with criterion(9, "class labels and tangle behave under SLOCC actions"):
        reps = all_representatives()
        for system in RANKED:
            pool = [r.state for r in reps if r.system == system]
            pool += [random_state(system, seed=(900, i)) for i in range(20)]
            base = [classify_state(system, s) for s in pool]
            for i in range(500):
                g = conditioned_element(system, (901, i))
                state = pool[i % len(pool)]
                moved = slocc_act(state, g, system=system)
                assert classify_state(system, moved) == base[i % len(pool)], (
                    f"{system}: action {i} changed the class"
                )
            for i in range(5):
                g = conditioned_element(system, (902, i), unit_determinant=True)
                for j in range(5):
                    state = random_state(system, seed=(903, i, j))
                    before = invariant_for(system, state)
                    after = invariant_for(
                        system, slocc_act(state, g, system=system)
                    )
                    assert rel_close(before, after, 1e-8)
            for i in range(3):
                g = conditioned_element(system, (904, i))
                ratios = []
                for j in range(20):
                    state = random_state(system, seed=(905, i, j))
                    before = invariant_for(system, state)
                    after = invariant_for(
                        system, slocc_act(state, g, system=system)
                    )
                    ratios.append(after / before)
                spread = max(ratios) - min(ratios)
                assert spread <= 1e-6 * max(ratios), f"{system}: {spread}"


def test_10_embedding_chain_structure():
    with criterion(10, "coordinate images land exactly in the nested shapes"):
        off_diagonal = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for trial in range(200):
            v = boson3_to_freudenthal(random_state("boson3", seed=(1000, trial)))
            for slot in (v.a.matrix, v.b.matrix):
                assert all(slot[i, j] == 0.0 for i, j in off_diagonal)
                assert slot[0, 0] == slot[1, 1] == slot[2, 2]

            v = boson2q_to_freudenthal(random_state("boson2q", seed=(1001, trial)))
            for slot in (v.a.matrix, v.b.matrix):
                assert all(slot[i, j] == 0.0 for i, j in off_diagonal)
                assert slot[1, 1] == slot[2, 2]

            v = three_qubit_to_freudenthal(random_state("qubit3", seed=(1002, trial)))
            for slot in (v.a.matrix, v.b.matrix):
                assert all(slot[i, j] == 0.0 for i, j in off_diagonal)

            v = qubit_fermion4_to_freudenthal(
                random_state("qubit_fermion4", seed=(1003, trial))
            )
            for slot in (v.a.matrix, v.b.matrix):
                assert all(
                    slot[i, j] == 0.0
                    for i, j in ((0, 1), (0, 2), (1, 0), (2, 0))
                )
