"""The package's one scale rule: every kernel reads its operands divided by
their own power of two.  So an output of degree d in an operand is, at
2^m times that operand, 2^(d m) times the output at the operand, bit for
bit wherever that is in the normal range, and 0 or +-inf past it, never
nan; an output of degree 0 (a verdict, a ratio, a cut pattern) does not
change at all.  Also the four defects that the rule removed: nan
invariants past the float range, small states erased by an absolute
prune, singular verdicts that followed the matrix's scale, and an
antisymmetry check that accepted small arrays whatever they held."""

import importlib.resources
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freudenthal.classify import (
    SYSTEM_TABLE,
    SYSTEMS,
    GroupElement,
    _tensor_cuts,
    classify_state,
    invariant_for,
    invariant_via_embedding,
    random_group_element,
    random_state,
    slocc_act,
)
from freudenthal.embed import (
    MultiState,
    _unpack_antisymmetric_pair,
    bipartitions,
    factors_across_cut,
    pack_antisymmetric_pair,
    qubit_separability_direct,
)
from freudenthal.fermion import (
    FermionState,
    apply_matrix,
    wedge,
    wedge_of_vectors,
    wedge_power_norm,
)
from freudenthal.cli import main
from freudenthal.representatives import all_representatives
from freudenthal.statefile import StateFile, dump_state_text, parse_state_text
from freudenthal.triple import quartic_form, quartic_tangle, rank_margins

SHAPES = {
    "fermion": ((3, 6), (2, 5), (4, 8), (3, 7)),
    "multi": (((1, 2),) * 3, ((1, 2), (2, 4), (1, 3)), ((1, 2),) * 4),
}
REPS = all_representatives()


def corpus_path(name: str) -> str:
    return str(importlib.resources.files("freudenthal") / "corpus" / name)


def times_two_to(value, power: int):
    """value * 2^power, rounded once, part by part: inf past the float range,
    subnormal or 0 below it."""
    parts = np.array(value, dtype=complex if np.iscomplexobj(value) else float, ndmin=1)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(parts.view(np.float64), power).view(parts.dtype)


def assert_degree(got, base, degree: int, m: int, what):
    """``got``, the output at 2^m times the operand, is 2^(degree m) times
    ``base``, the output at the operand: bit for bit, never nan."""
    got = np.array(got, ndmin=1)
    assert not np.isnan(got).any(), what
    assert np.array_equal(got, times_two_to(base, degree * m)), what


def assert_product(make, base: FermionState, degree: int, m: int, what):
    """A product of degree ``degree`` at 2^m times its operands: 2^(degree m)
    times ``base``, amplitude for amplitude (the zero ones included), or
    ValueError when an amplitude leaves the float range."""
    want = times_two_to(base._array, degree * m)
    if not np.isfinite(want).all():
        with pytest.raises(ValueError, match="non-finite amplitude"):
            make()
        return
    got = make()
    assert np.array_equal(got._array, want), what
    assert np.array_equal(got._array != 0, want != 0), what


def power_of_two(state, m: int):
    """2^m times a native state, exactly."""
    scale = math.ldexp(1.0, m)
    return scale * state


def observed(system: str, state):
    """Everything the scale rule covers for one state: (outputs of degree 0,
    {name: (value, degree)})."""
    spec = SYSTEM_TABLE[system]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        label = classify_state(system, state)
    fixed = {
        "verdict": (label.rank, label.name, label.cut_pattern),
        "warnings": [str(w.message) for w in caught],
    }
    graded = {}
    native = spec.native(state)
    if spec.has_image(native):
        x = spec.freudenthal(native)
        fixed["rank_margins"] = rank_margins(x)
        graded.update(
            tangle_abs=(label.invariants_report["tangle_abs"], 4),
            invariant_for=(invariant_for(system, native), 4),
            invariant_via_embedding=(invariant_via_embedding(system, native), 4),
            quartic_form=(quartic_form(x), 4),
            quartic_tangle=(quartic_tangle(x), 4),
            norm=(x.norm(), 1),
        )
        if spec.cuts is not None:
            fixed["cuts"] = _tensor_cuts(spec, native, 1e-8)
    if isinstance(native, MultiState):
        lefts = [left for left, _ in bipartitions(native.shape.num_species)]
        fixed["factors"] = [factors_across_cut(native, left) for left in lefts]
        if set(native.shape.species) == {(1, 2)}:
            fixed["qubits"] = qubit_separability_direct(native)
    if isinstance(native, FermionState) and native.k >= 4 and native.n % native.k == 0:
        graded["wedge_power_norm"] = (wedge_power_norm(native), native.n // native.k)
    return fixed, graded


@st.composite
def states(draw):
    """A random state of any system and shape, or a SLOCC image of a
    representative (so every class, and complex q, comes up)."""
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    if draw(st.booleans(), label="image of a representative"):
        rep = draw(st.sampled_from(REPS), label="representative")
        g = random_group_element(rep.system, seed)
        return rep.system, slocc_act(rep.state, g, rep.system)
    system = draw(st.sampled_from(SYSTEMS), label="system")
    shape = draw(st.sampled_from(SHAPES.get(system, (None,))), label="shape")
    return system, random_state(system, seed, shape=shape)


exponents = st.integers(-900, 900)


class TestExactEquivariance:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(states(), exponents, exponents, st.data())
    def test_every_kernel_follows_the_power_of_two(self, drawn, m, m2, data):
        system, state = drawn
        fixed, graded = observed(system, state)
        fixed_m, graded_m = observed(system, power_of_two(state, m))
        assert fixed_m == fixed, (system, m)
        assert graded_m.keys() == graded.keys()
        for name, (value, degree) in graded.items():
            assert_degree(graded_m[name][0], value, degree, m, (system, name, m))

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        k, n = data.draw(st.sampled_from(((1, 3), (2, 4), (2, 6), (3, 6), (4, 8))), label="(k, n)")
        fermionic = random_state("fermion", int(rng.integers(2**32)), shape=(k, n))
        one = random_state("fermion", int(rng.integers(2**32)), shape=(1, n))
        vectors = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if k < n:
            assert_product(
                lambda: wedge(power_of_two(one, m), power_of_two(fermionic, m2)),
                wedge(one, fermionic), 1, m + m2, ("wedge", m, m2),
            )
        assert_product(
            lambda: wedge_of_vectors(power_of_two(vectors, m)),
            wedge_of_vectors(vectors), k, m, ("wedge_of_vectors", k, m),
        )
        assert_product(
            lambda: apply_matrix(power_of_two(fermionic, m), power_of_two(g, m2)),
            apply_matrix(fermionic, g), 1, m + k * m2, ("apply_matrix", k, m, m2),
        )

        # Tests of degree 0 on matrices: the last row of g the sum of the
        # others up to 2^-defect, and the pair array d antisymmetric up to
        # 2^-defect, so that both verdicts of each come up.
        defect = data.draw(st.integers(0, 60), label="defect")
        g[-1] = g[:-1].sum(axis=0) + math.ldexp(1.0, -defect) * g[-1]
        assert accepted(power_of_two(g, m)) == accepted(g), ("GroupElement", defect, m)
        d = _unpack_antisymmetric_pair(rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)))
        d[0, 1, 2] += math.ldexp(1.0, -defect)
        packed, packed_m = antisymmetric(d), antisymmetric(power_of_two(d, m))
        assert (packed is None) == (packed_m is None), ("pack", defect, m)
        if packed is not None:
            assert np.array_equal(packed_m, power_of_two(packed, m))
        # Refused at a defect of 2^-30 and more, taken below 2^-45.
        assert (packed is None) == (defect <= 30) or 30 < defect < 45


def accepted(matrix) -> bool:
    """Whether GroupElement takes the matrix; its ``determinants`` are those
    of the matrix as given, which leave the float range at large scales."""
    with np.errstate(over="ignore", under="ignore"):
        try:
            GroupElement([matrix])
        except ValueError:
            return False
    return True


def antisymmetric(arr):
    """pack_antisymmetric_pair(arr), or None where it refuses arr."""
    try:
        return pack_antisymmetric_pair(arr)
    except ValueError:
        return None


def state_file(tmp_path, name, system, state):
    path = tmp_path / name
    path.write_text(dump_state_text(StateFile(system, state)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestDefectsTheRuleRemoves:
    def test_overflowing_invariants_are_inf_not_nan(self, capsys, tmp_path):
        # Random states have a complex q, whose real and imaginary parts
        # both overflow here: 2 q had been inf + inf j times 2.0, nan.
        for system in ("qubit3", "boson2q", "boson3", "qubit_fermion4", "fermion"):
            state = random_state(system, 3)
            spec = SYSTEM_TABLE[system]
            x = spec.freudenthal(spec.native(state))
            assert quartic_form(x).imag != 0.0, system
            big = 1e100 * state
            assert abs(quartic_tangle(spec.freudenthal(spec.native(big)))) == math.inf
            assert invariant_for(system, big) == invariant_via_embedding(system, big) == math.inf
            assert classify_state(system, big).invariants_report["tangle_abs"] == math.inf
            path = state_file(tmp_path, f"{system}.json", system, big)
            code, out = run_cli(capsys, "invariant", path)
            assert code == 0 and "nan" not in out, system
            assert "|T| (embedding route)     = inf" in out, system

    def test_small_states_are_not_pruned_away(self, capsys, tmp_path):
        small = 1e-20 * random_state("fermion", 5)
        assert np.array_equal(slocc_act(small, [np.eye(6)])._array, small._array)
        plane = wedge_of_vectors(1e-8 * np.eye(4)[:2])
        assert dict(plane.amplitudes) == {(1, 2): pytest.approx(1e-16, rel=1e-15)}
        e1, e2 = FermionState(1, 4, {(1,): 1e-8}), FermionState(1, 4, {(2,): 1e-8})
        assert dict(wedge(e1, e2).amplitudes) == {(1, 2): pytest.approx(1e-16, rel=1e-15)}
        ghz = FermionState(3, 6, {(1, 2, 3): 1e-20, (4, 5, 6): 1e-20})
        path = state_file(tmp_path, "small.json", "fermion", ghz)
        identity = tmp_path / "identity.json"
        identity.write_text(json.dumps([np.eye(6).tolist()]))
        code, out = run_cli(capsys, "act", path, "-m", str(identity))
        assert code == 0
        assert parse_state_text(out).state.amplitudes == ghz.amplitudes

    def test_singular_verdicts_do_not_follow_the_scale(self, capsys, tmp_path):
        GroupElement([0.005 * np.eye(6)])
        with pytest.raises(ValueError, match="singular"):
            GroupElement([1e8 * np.diag([1, 1, 1, 1, 1, 1e-30])])
        matrix = tmp_path / "small.json"
        matrix.write_text(json.dumps([(0.005 * np.eye(6)).tolist()]))
        code, _ = run_cli(capsys, "act", corpus_path("fermion_ghz.json"), "-m", str(matrix))
        assert code == 0

    def test_small_arrays_must_be_antisymmetric(self):
        d = np.zeros((2, 4, 4))
        d[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="antisymmetric"):
            pack_antisymmetric_pair(1e-13 * d)
        d[0, 1, 0] = -1.0
        assert pack_antisymmetric_pair(1e-13 * d)[0, 0] == 1e-13
