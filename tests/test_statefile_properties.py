"""Property tests for the state-file format: dump/parse round-trips for
every system, and parsing arbitrary text or JSON fails only with the two
documented error types."""

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freudenthal.embed import MultiState, SystemShape
from freudenthal.fermion import FermionState, ShapeError
from freudenthal.statefile import (
    StateFile,
    StateParseError,
    dump_state_text,
    parse_state_text,
)

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, database=None, derandomize=True
)

DENSE_SHAPES = {
    "qubit3": (2, 2, 2),
    "boson2q": (2, 3),
    "boson3": (4,),
    "qubit_fermion4": (2, 6),
}

finite = st.floats(allow_nan=False, allow_infinity=False)
amplitude = st.builds(complex, finite, finite)


@st.composite
def fermion_files(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    keys = list(itertools.combinations(range(1, n + 1), k))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    amp = {key: draw(amplitude) for key in chosen}
    return StateFile("fermion", FermionState(k, n, amp))


@st.composite
def multi_files(draw):
    species = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        species.append((draw(st.integers(1, n)), n))
    shape = SystemShape(tuple(species))
    keys = list(
        itertools.product(
            *(itertools.combinations(range(1, n + 1), k) for k, n in species)
        )
    )
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=8))
    amp = {key: draw(amplitude) for key in chosen}
    return StateFile("multi", MultiState(shape, amp))


@st.composite
def dense_files(draw):
    system = draw(st.sampled_from(sorted(DENSE_SHAPES)))
    shape = DENSE_SHAPES[system]
    values = draw(
        st.lists(
            amplitude | st.just(0j),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    arr = np.array(values, dtype=complex).reshape(shape)
    return StateFile(system, arr)


class TestRoundTrip:
    @PROPERTY_SETTINGS
    @given(fermion_files() | multi_files() | dense_files())
    def test_dump_parse_dump(self, statefile):
        text = dump_state_text(statefile)
        parsed = parse_state_text(text)
        assert parsed.system == statefile.system
        if isinstance(statefile.state, np.ndarray):
            assert np.array_equal(parsed.state, statefile.state)
        else:
            assert parsed.state.amplitudes == statefile.state.amplitudes
        assert dump_state_text(parsed) == text


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
systems = st.sampled_from(["fermion", "multi", *DENSE_SHAPES]) | json_values
small_ints = st.integers(-2, 7)
numbers = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400)])
keys = (
    st.lists(small_ints | st.sampled_from(["1b", "3b", "9b", "xb", "b"]), max_size=4)
    | st.lists(st.lists(small_ints, max_size=3), max_size=3)
    | json_values
)
shapes = (
    small_ints
    | st.lists(small_ints, max_size=3)
    | st.lists(st.lists(small_ints, max_size=3), max_size=3)
    | json_values
)
entries = st.fixed_dictionaries(
    {},
    optional={
        "key": keys,
        "re": numbers | json_values,
        "im": numbers | json_values,
    },
) | json_values
payloads = st.fixed_dictionaries(
    {"system": systems},
    optional={
        "shape": shapes,
        "check_norm": st.booleans() | json_values,
        "amplitudes": st.lists(entries, max_size=5) | json_values,
    },
)


def parse_or_reject(text: str) -> None:
    try:
        parse_state_text(text)
    except (StateParseError, ShapeError):
        pass


class TestFuzz:
    @PROPERTY_SETTINGS
    @given(st.text(max_size=60))
    def test_arbitrary_text(self, text):
        parse_or_reject(text)

    @PROPERTY_SETTINGS
    @given(json_values)
    def test_arbitrary_json(self, value):
        parse_or_reject(json.dumps(value))

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(payloads, st.booleans())
    def test_schema_shaped_json(self, payload, indent):
        parse_or_reject(json.dumps(payload, indent=2 if indent else None))
