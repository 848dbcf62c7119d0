"""The system table: every record's facts agree with what the classifier,
the group actions, the state files and the CLI do with that system."""

import json

import numpy as np
import pytest

from freudenthal.classify import (
    SYSTEM_TABLE,
    SYSTEMS,
    classify_state,
    invariant_for,
    random_group_element,
    random_state,
    slocc_act,
)
from freudenthal.cli import main
from freudenthal.embed import _PAIR_SLOTS, MultiState
from freudenthal.fermion import ShapeError
from freudenthal.statefile import StateFile, dump_state_text, parse_state_text

SHAPES = {"multi": ((1, 2), (2, 4), (1, 3))}


def _unpacked(packed: np.ndarray) -> np.ndarray:
    """The antisymmetric 2x4x4 form of packed qubit + pair amplitudes."""
    full = np.zeros((2, 4, 4), dtype=complex)
    for column, (a, b) in enumerate(_PAIR_SLOTS):
        full[:, a, b] = packed[:, column]
        full[:, b, a] = -packed[:, column]
    return full


def _accepted_forms(spec, state) -> list:
    """The state in each accepted form, canonical first."""
    if spec.kind is not np.ndarray:
        return [state]
    forms = [state]
    for shape in spec.shapes[1:]:
        assert shape == (2, 4, 4), "a new accepted shape needs a builder here"
        forms.append(_unpacked(state))
    return forms


def test_names_derive_from_the_table():
    assert SYSTEMS == ("fermion", "multi", "qubit3", "boson2q", "boson3", "qubit_fermion4")
    assert all(name == spec.name for name, spec in SYSTEM_TABLE.items())


@pytest.mark.parametrize("name", SYSTEMS)
def test_record_matches_behaviour(name, tmp_path, capsys):
    spec = SYSTEM_TABLE[name]
    shape = SHAPES.get(name)
    state = random_state(name, 3, shape=shape)

    # A draw has the record's canonical shape.
    assert isinstance(state, spec.kind)
    if spec.kind is MultiState:
        assert state.shape.species == shape
    else:
        assert state.shape == spec.shapes[0]

    # It dumps and parses back to the same state.
    text = dump_state_text(StateFile(name, state))
    parsed = parse_state_text(text)
    assert parsed.system == name
    if spec.kind is np.ndarray:
        assert np.array_equal(parsed.state, state)
    else:
        assert parsed.state.amplitudes == state.amplitudes

    # slocc_act infers this system from every accepted form, and no other.
    g = random_group_element(name, 5, shape=shape)
    for form in _accepted_forms(spec, state):
        moved = slocc_act(form, g)
        assert np.shape(moved) == np.shape(form)
        assert type(moved) is type(form)
        slocc_act(form, g, system=name)
        for other in SYSTEMS:
            if other != name:
                with pytest.raises(ShapeError):
                    slocc_act(form, g, system=other)

    # The group element's matrices have the record's sizes.
    sizes = spec.matrix_sizes(spec.shape_or_default(shape))
    assert tuple(m.shape[0] for m in g.matrices) == sizes

    # rdm refuses exactly the systems without a MultiState map.
    path = tmp_path / "state.json"
    path.write_text(text)
    code = main(["rdm", str(path)])
    capsys.readouterr()
    assert (code == 3) == (spec.multistate is None)
    assert code in (0, 3)


def test_fermion_multistate_map_is_one_species():
    state = random_state("fermion", 8)
    psi = SYSTEM_TABLE["fermion"].multistate(state)
    assert psi.shape.species == ((3, 6),)
    assert {key[0]: v for key, v in psi.amplitudes.items()} == dict(state.amplitudes)


def test_default_fermion_shape_is_the_ranked_one():
    spec = SYSTEM_TABLE["fermion"]
    assert spec.has_image(random_state("fermion", 1))
    assert not spec.has_image(random_state("fermion", 1, shape=(2, 4)))
    assert not SYSTEM_TABLE["multi"].has_image(random_state("multi", 1, shape=((1, 2),)))


@pytest.mark.parametrize("name", ["nonsense", "", "Qubit3", None, 3])
def test_unknown_names_raise_shape_error(name):
    with pytest.raises(ShapeError):
        classify_state(name, np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        random_state(name, 0)
    with pytest.raises(ShapeError):
        random_group_element(name, 0)
    with pytest.raises(ShapeError):
        invariant_for(name, np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        parse_state_text(json.dumps({"system": name, "amplitudes": []}))


def test_qubit_fermion4_full_form_classifies_like_packed():
    state = random_state("qubit_fermion4", 4)
    assert classify_state("qubit_fermion4", _unpacked(state)) == classify_state(
        "qubit_fermion4", state
    )
    assert invariant_for("qubit_fermion4", _unpacked(state)) == invariant_for(
        "qubit_fermion4", state
    )
