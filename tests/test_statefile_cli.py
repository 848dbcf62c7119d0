"""Tests for JSON state files and the command-line interface."""

import importlib.resources
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from freudenthal.classify import random_state
from freudenthal.cli import main
from freudenthal.embed import MultiState, SystemShape
from freudenthal.fermion import FermionState, ShapeError, wedge_of_vectors
from freudenthal.representatives import all_representatives
from freudenthal.statefile import (
    StateFile,
    StateParseError,
    dump_state_text,
    load_state_file,
    parse_state_text,
)

CORPUS = importlib.resources.files("freudenthal") / "corpus"

SQRT2 = math.sqrt(2.0)


def corpus_path(name: str) -> str:
    return str(CORPUS / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateFileRoundTrip:
    def test_fermion(self):
        state = FermionState(
            3, 6, {(1, 2, 3): 0.25 + 0.5j, (2, 4, 6): -1.0 / 3.0}
        )
        text = dump_state_text(StateFile("fermion", state))
        parsed = parse_state_text(text)
        assert parsed.system == "fermion"
        assert (parsed.state - state).norm() == 0.0
        assert dump_state_text(parsed) == text

    def test_multi(self):
        shape = SystemShape(((1, 2), (2, 4)))
        state = MultiState(
            shape, {((1,), (2, 4)): 1j, ((2,), (1, 3)): 0.125}
        )
        text = dump_state_text(StateFile("multi", state))
        parsed = parse_state_text(text)
        assert parsed.state.shape == shape
        assert (parsed.state - state).norm() == 0.0
        assert dump_state_text(parsed) == text

    def test_dense_systems(self, rng):
        samples = {
            "qubit3": rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)),
            "boson2q": rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
            "boson3": rng.normal(size=4) + 1j * rng.normal(size=4),
            "qubit_fermion4": rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)),
        }
        for system, arr in samples.items():
            text = dump_state_text(StateFile(system, arr))
            parsed = parse_state_text(text)
            assert np.array_equal(parsed.state, arr), system
            assert dump_state_text(parsed) == text

    def test_corpus_ships_and_parses(self):
        names = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".json"))
        assert len(names) == 24
        systems = set()
        for name in names:
            parsed = load_state_file(corpus_path(name))
            systems.add(parsed.system)
            assert dump_state_text(parsed) == (CORPUS / name).read_text()
        assert systems == {
            "fermion",
            "multi",
            "qubit3",
            "boson2q",
            "boson3",
            "qubit_fermion4",
        }


class TestStateFileParsing:
    def test_barred_aliases(self):
        text = json.dumps(
            {
                "system": "fermion",
                "amplitudes": [
                    {"key": ["1b", 2, 3], "re": 1.0, "im": 0.0},
                ],
            }
        )
        parsed = parse_state_text(text)
        # 1-bar is mode 4; the key (4,2,3) sorts to (2,3,4) with sign +1.
        assert parsed.state.amplitudes[(2, 3, 4)] == 1.0

        odd = json.dumps(
            {
                "system": "fermion",
                "shape": [2, 5],
                "amplitudes": [{"key": ["1b", 2], "re": 1.0, "im": 0.0}],
            }
        )
        with pytest.raises(StateParseError):
            parse_state_text(odd)
        with pytest.raises(StateParseError):
            parse_state_text(
                json.dumps(
                    {
                        "system": "fermion",
                        "amplitudes": [{"key": ["xb", 2, 3], "re": 1.0, "im": 0.0}],
                    }
                )
            )

    def test_permutation_folds_sign(self):
        text = json.dumps(
            {
                "system": "fermion",
                "amplitudes": [{"key": [2, 1, 3], "re": 1.0, "im": 0.0}],
            }
        )
        assert parse_state_text(text).state.amplitudes[(1, 2, 3)] == -1.0

        pair = json.dumps(
            {
                "system": "qubit_fermion4",
                "amplitudes": [{"key": [1, 2, 1], "re": 1.0, "im": 0.0}],
            }
        )
        arr = parse_state_text(pair).state
        # (2,1) folds to pair (1,2), column 3, with a minus sign.
        assert arr[1, 3] == -1.0

    def test_duplicate_keys_rejected_with_line(self):
        text = (
            '{\n"system": "fermion",\n"amplitudes": [\n'
            '{"key": [1, 2, 3], "re": 1.0, "im": 0.0},\n'
            '{"key": [3, 2, 1], "re": 0.5, "im": 0.0}\n]\n}\n'
        )
        with pytest.raises(StateParseError) as info:
            parse_state_text(text)
        assert info.value.line == 5
        assert "duplicate" in str(info.value)

    def test_mode_out_of_range_line(self):
        text = (
            '{\n"system": "fermion",\n"amplitudes": [\n'
            '{"key": [1, 2, 3], "re": 1.0, "im": 0.0},\n'
            '{"key": [1, 2, 9], "re": 0.5, "im": 0.0}\n]\n}\n'
        )
        with pytest.raises(StateParseError) as info:
            parse_state_text(text)
        assert info.value.line == 5

    def test_malformed_json_line(self):
        with pytest.raises(StateParseError) as info:
            parse_state_text('{\n"system": "fermion",\n}')
        assert info.value.line == 3

    def test_header_errors_are_shape_errors(self):
        with pytest.raises(ShapeError):
            parse_state_text('{"system": "wat", "amplitudes": []}')
        with pytest.raises(ShapeError):
            parse_state_text('{"system": "multi", "amplitudes": []}')
        with pytest.raises(ShapeError):
            parse_state_text(
                '{"system": "qubit3", "shape": [2, 2], "amplitudes": []}'
            )
        with pytest.raises(ShapeError):
            parse_state_text(
                '{"system": "fermion", "shape": [7, 6], "amplitudes": []}'
            )

    def test_bad_amplitude_entries(self):
        bad_entries = [
            {"key": [1, 2], "re": 1.0, "im": 0.0},  # wrong arity
            {"key": [1, 2, 2], "re": 1.0, "im": 0.0},  # repeated mode
            {"key": [1, 2, 3], "re": "x", "im": 0.0},  # non-numeric
            {"key": [1, 2, 3], "re": 1.0},  # missing field
            {"key": [True, 2, 3], "re": 1.0, "im": 0.0},  # boolean mode
            "not-an-object",
        ]
        for entry in bad_entries:
            text = json.dumps({"system": "fermion", "amplitudes": [entry]})
            with pytest.raises(StateParseError):
                parse_state_text(text)

    def test_dense_key_validation(self):
        cases = [
            ("qubit3", [0, 1]),
            ("qubit3", [0, 1, 2]),
            ("boson2q", [0, 3]),
            ("boson3", [4]),
            ("qubit_fermion4", [2, 0, 1]),
            ("qubit_fermion4", [0, 0, 0]),
            ("qubit_fermion4", [0, 0, 4]),
        ]
        for system, key in cases:
            text = json.dumps(
                {"system": system, "amplitudes": [{"key": key, "re": 1.0, "im": 0.0}]}
            )
            with pytest.raises(StateParseError):
                parse_state_text(text)


class TestCliClassify:
    def test_ghz_file(self, capsys):
        code, out, _ = run_cli(capsys, "classify", corpus_path("fermion_ghz.json"))
        assert code == 0
        assert "class: GHZ (rank 4)" in out
        assert "tangle_abs = 1.000000" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", corpus_path("qubit3_bisep_cut2.json"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["name"] == "biseparable"
        assert payload["cut_pattern"] == [[[2], [1, 3]]]

    def test_overflowed_report_value_is_null(self, capsys, tmp_path):
        # GHZ at amplitude 1e160: the rank test rescales, the tangle overflows.
        big = tmp_path / "big.json"
        ghz = np.zeros((2, 2, 2), dtype=complex)
        ghz[0, 0, 0] = ghz[1, 1, 1] = 1e160
        big.write_text(dump_state_text(StateFile("qubit3", ghz)))
        code, out, _ = run_cli(capsys, "classify", str(big), "--json")
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out
        payload = json.loads(out)
        assert (payload["rank"], payload["name"]) == (4, "GHZ")
        assert payload["invariants_report"]["tangle_abs"] is None

    def test_corpus_matches_expectations(self, capsys):
        for rep in all_representatives():
            path = corpus_path(f"{rep.system}_{rep.name}.json")
            code, out, _ = run_cli(capsys, "classify", path, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["rank"] == rep.expected.rank
            assert payload["name"] == rep.expected.name

    def test_batch_is_sorted_and_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "classify", "--batch", str(CORPUS))
        code2, out2, _ = run_cli(capsys, "classify", "--batch", str(CORPUS))
        assert code1 == code2 == 0
        assert out1 == out2
        file_lines = [l for l in out1.splitlines() if not l.startswith(" ")]
        names = [l.split(":")[0] for l in file_lines]
        assert names == sorted(names)
        assert len(names) == 24

    def test_batch_flags_match_single_file_runs(self, capsys, tmp_path):
        # Generic states alternate with |000> + 1e-4 |111>, whose rank-4
        # margin is about 2 and so is flagged as degenerate.
        fragile = np.zeros((2, 2, 2), dtype=complex)
        fragile[0, 0, 0], fragile[1, 1, 1] = 1.0, 1e-4
        fragile /= np.linalg.norm(fragile)
        for i in range(40):
            state = fragile if i % 2 else random_state("qubit3", i)
            path = tmp_path / f"state{i:02d}.json"
            path.write_text(dump_state_text(StateFile("qubit3", state)))
        expected, worst = {}, 0
        for path in sorted(tmp_path.glob("*.json")):
            code, out, _ = run_cli(capsys, "classify", str(path), "--json", "--strict")
            expected[path.name] = json.loads(out).get("degenerate", False)
            worst = max(worst, code)
        assert sum(expected.values()) == 20 and worst == 4
        for _ in range(3):
            result = subprocess.run(
                [sys.executable, "-m", "freudenthal.cli", "classify",
                 "--batch", str(tmp_path), "--json", "--strict"],
                capture_output=True,
                text=True,
            )
            records = json.loads(result.stdout)
            flags = {r["file"]: r.get("degenerate", False) for r in records}
            assert flags == expected
            assert result.returncode == worst
            assert "DegeneracyWarning" not in result.stderr

    def test_batch_bad_directory(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--batch", "/nonexistent-dir")
        assert code == 3
        assert "not a directory" in err

    def test_strict_degeneracy_exit(self, capsys, tmp_path):
        w = np.zeros((2, 2, 2), dtype=complex)
        w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 3 ** -0.5
        ghz = np.zeros((2, 2, 2), dtype=complex)
        ghz[0, 0, 0] = ghz[1, 1, 1] = 2 ** -0.5
        near = w + 1e-8 * ghz
        near = near / np.linalg.norm(near)
        path = tmp_path / "near.json"
        path.write_text(dump_state_text(StateFile("qubit3", near)))
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "warning" in out
        code_strict, _, _ = run_cli(capsys, "classify", str(path), "--strict")
        assert code_strict == 4

    def test_tolerance_sources(self, capsys, tmp_path, monkeypatch):
        path = corpus_path("qubit3_w.json")
        code, out, _ = run_cli(capsys, "classify", path, "--tol", "1e-6")
        assert code == 0 and "W (rank 3)" in out
        monkeypatch.setenv("ENTANGLE_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0 and "W (rank 3)" in out
        monkeypatch.setenv("ENTANGLE_TOL", "bogus")
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 3 and "ENTANGLE_TOL" in err

    def test_parse_error_exit_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{\n"system": "fermion",\n"amplitudes": [\n'
            '{"key": [1, 2, 9], "re": 1.0, "im": 0.0}\n]\n}\n'
        )
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 2
        assert "line 4" in err
        missing = tmp_path / "missing.json"
        code, _, _ = run_cli(capsys, "classify", str(missing))
        assert code == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"system": "wat", "amplitudes": []}')
        code, _, _ = run_cli(capsys, "classify", str(unknown))
        assert code == 3


class TestCliInvariant:
    def test_ghz_value(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", corpus_path("qubit3_ghz.json"))
        assert code == 0
        assert "|T| (explicit polynomial) = 1.000000" in out
        assert "rank = 4" in out

    def test_w_rank_noted(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", corpus_path("qubit3_w.json"))
        assert code == 0
        assert "|T| (explicit polynomial) = 0.000000" in out
        assert "rank = 3" in out

    def test_routes_agree_on_corpus(self, capsys):
        for rep in all_representatives():
            path = corpus_path(f"{rep.system}_{rep.name}.json")
            code, out, _ = run_cli(capsys, "invariant", path, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["route_difference"] <= 1e-9

    def test_overflowing_qubit_fermion4_file(self, capsys, tmp_path):
        # The corpus GHZ times 1e100: |T| ~ 1e400 on both routes.
        ghz = load_state_file(corpus_path("qubit_fermion4_ghz.json"))
        big = tmp_path / "big.json"
        big.write_text(dump_state_text(StateFile(ghz.system, 1e100 * ghz.state)))
        code, out, _ = run_cli(capsys, "invariant", str(big), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tangle_abs"] is payload["tangle_abs_embedded"] is None
        assert (payload["route_difference"], payload["rank"]) == (0.0, 4)
        code, out, _ = run_cli(capsys, "classify", str(big), "--json")
        assert code == 0
        assert json.loads(out)["invariants_report"]["tangle_abs"] is None

    def test_general_shape_reports_wedge_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", corpus_path("multi_four_qubit_first.json"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fermionic_shape"] == [4, 8]
        assert payload["wedge_power_norm"] == pytest.approx(0.0, abs=1e-12)


class TestCliPluecker:
    def test_verdicts_match_classify(self, capsys):
        for rep in all_representatives():
            path = corpus_path(f"{rep.system}_{rep.name}.json")
            code, out, _ = run_cli(capsys, "pluecker", path, "--json")
            assert code == 0
            scan = json.loads(out)
            code, out, _ = run_cli(capsys, "classify", path, "--json")
            label = json.loads(out)
            assert scan["decomposable"] == (label["name"] == "separable")

    def test_separable_files_name_no_witness(self, capsys):
        # Every relation of a decomposable state is roundoff, so no pair
        # witnesses anything.
        separable = 0
        for path in sorted(CORPUS.iterdir()):
            code, out, _ = run_cli(capsys, "classify", str(path), "--json")
            if json.loads(out)["name"] != "separable":
                continue
            separable += 1
            code, out, _ = run_cli(capsys, "pluecker", str(path), "--json")
            scan = json.loads(out)
            assert code == 0 and scan["decomposable"], path.name
            assert scan["argmax_pair"] is None, path.name
            code, out, _ = run_cli(capsys, "pluecker", str(path))
            assert " at " not in out, path.name
        assert separable == 5

    def test_violation_listing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pluecker",
            corpus_path("fermion_ghz.json"),
            "--list-violations",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_relation"] == pytest.approx(0.5)
        assert payload["violations"]
        tops = [v["magnitude"] for v in payload["violations"]]
        assert tops == sorted(tops, reverse=True)


    def test_violation_listing_names_its_rule(self, capsys, tmp_path):
        # A (3, 8) plane plus 3.2e-8 of a generic state: the lift's ratio
        # (about 2.4) says not decomposable, while no relation passes the
        # scan's own cutoff tol * ||P||^2.
        rng = np.random.default_rng(0)
        plane = wedge_of_vectors(rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
        state = (1.0 / plane.norm()) * plane + 3.2e-8 * random_state("fermion", 0, (3, 8))
        path = tmp_path / "near.json"
        path.write_text(dump_state_text(StateFile("fermion", state)))
        cutoff = 1e-8 * state.norm() ** 2
        code, out, _ = run_cli(capsys, "pluecker", str(path), "--list-violations")
        assert code == 0
        assert "decomposable: no" in out
        assert (
            f"relations above the scan's cutoff tol*||P||^2 = {cutoff:.3e} "
            "(the scan's own rule, not the verdict's): 0"
        ) in out
        code, out, _ = run_cli(capsys, "pluecker", str(path), "--list-violations", "--json")
        payload = json.loads(out)
        assert payload["violation_cutoff"] == pytest.approx(cutoff, rel=1e-12)
        assert payload["decomposable"] is False and payload["violations"] == []

class TestCliRdm:
    def test_fermion_ghz(self, capsys):
        code, out, _ = run_cli(capsys, "rdm", corpus_path("fermion_ghz.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        rho = np.array([[complex(re, im) for re, im in row] for row in payload["rho"]])
        assert np.allclose(rho, np.eye(6) / 6)
        assert payload["idempotency_defect"] == pytest.approx(
            math.sqrt(6.0) / 4.0
        )

    def test_multi_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "rdm", corpus_path("qubit3_ghz.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["species"]) == 3
        assert payload["block_residual"] <= 1e-12
        for block in payload["species"]:
            arr = np.array([[complex(re, im) for re, im in row] for row in block])
            assert np.allclose(arr, np.eye(2) / 2)

    def test_qubit_fermion4_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "rdm", corpus_path("qubit_fermion4_ghz.json"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["species"]) == 2
        assert payload["block_residual"] <= 1e-12

    def test_bosonic_systems_rejected(self, capsys):
        for name in ("boson2q_ghz.json", "boson3_ghz.json"):
            code, _, err = run_cli(capsys, "rdm", corpus_path(name))
            assert code == 3
            assert "no fermionic one-particle reduction" in err


class TestCliAct:
    def test_swap_preserves_class(self, capsys, tmp_path):
        matrix_file = tmp_path / "swap.json"
        matrix_file.write_text(
            json.dumps(
                {
                    "matrices": [
                        [[0, 1], [1, 0]],
                        [[1, 0], [0, 1]],
                        [[1, 0], [0, 1]],
                    ]
                }
            )
        )
        out_file = tmp_path / "moved.json"
        code, _, _ = run_cli(
            capsys,
            "act",
            corpus_path("qubit3_ghz.json"),
            "-m",
            str(matrix_file),
            "-o",
            str(out_file),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "classify", str(out_file))
        assert code == 0
        assert "GHZ (rank 4)" in out

    def test_complex_entries(self, capsys, tmp_path):
        matrix_file = tmp_path / "phase.json"
        matrix_file.write_text(
            json.dumps([[[[0, 1], 0], [0, [1, 0]]]])
        )
        out_file = tmp_path / "moved.json"
        code, _, _ = run_cli(
            capsys,
            "act",
            corpus_path("boson3_ghz.json"),
            "-m",
            str(matrix_file),
            "-o",
            str(out_file),
        )
        assert code == 0
        moved = load_state_file(out_file).state
        # The qubit phase i multiplies the cubic monomials by i^3 and i^0.
        assert moved[0] == pytest.approx(-1j / SQRT2)
        assert moved[3] == pytest.approx(1 / SQRT2)

    def test_singular_matrix_rejected(self, capsys, tmp_path):
        matrix_file = tmp_path / "singular.json"
        matrix_file.write_text(json.dumps([[[1, 0], [0, 0]]]))
        code, _, err = run_cli(
            capsys, "act", corpus_path("boson3_ghz.json"), "-m", str(matrix_file)
        )
        assert code == 3
        assert "singular" in err

    def test_malformed_matrix_file(self, capsys, tmp_path):
        matrix_file = tmp_path / "bad.json"
        matrix_file.write_text('{"matrices": "nope"}')
        code, _, _ = run_cli(
            capsys, "act", corpus_path("boson3_ghz.json"), "-m", str(matrix_file)
        )
        assert code == 2

    def test_wrong_matrix_count(self, capsys, tmp_path):
        matrix_file = tmp_path / "short.json"
        matrix_file.write_text(json.dumps([[[1, 0], [0, 1]]]))
        code, _, _ = run_cli(
            capsys, "act", corpus_path("qubit3_ghz.json"), "-m", str(matrix_file)
        )
        assert code == 3


class TestCliRandom:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "random", "--system", "boson2q", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "random", "--system", "boson2q", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        parsed = parse_state_text(out1)
        assert parsed.system == "boson2q"

    def test_multi_shape_parsing(self, capsys, tmp_path):
        out_file = tmp_path / "rand.json"
        code, _, _ = run_cli(
            capsys,
            "random",
            "--system",
            "multi",
            "--shape",
            "1,2;2,4",
            "--seed",
            "3",
            "-o",
            str(out_file),
        )
        assert code == 0
        parsed = load_state_file(out_file)
        assert parsed.state.shape.species == ((1, 2), (2, 4))
        assert parsed.state.norm() == pytest.approx(1.0)

    def test_shape_errors(self, capsys):
        code, _, _ = run_cli(capsys, "random", "--system", "multi")
        assert code == 3
        # A dense system has its own shapes; a foreign one is an error, not
        # silently replaced by the default.
        code, out, _ = run_cli(capsys, "random", "--system", "qubit3", "--shape", "9,9")
        assert (code, out) == (3, "")
        code, _, _ = run_cli(capsys, "random", "--system", "boson2q", "--shape", "2,3")
        assert code == 0
        code, _, _ = run_cli(
            capsys, "random", "--system", "multi", "--shape", "banana"
        )
        assert code == 2


class TestOversizedShapes:
    """A shape past MAX_DIMENSION is a shape error (exit 3) on every
    subcommand, raised before any amplitude array of that size exists."""

    def test_every_subcommand_exits_3(self, capsys, tmp_path):
        state = tmp_path / "big.json"
        state.write_text(json.dumps({
            "system": "fermion",
            "shape": [10, 40],
            "amplitudes": [{"key": list(range(1, 11)), "re": 1.0, "im": 0.0}],
        }))
        matrix = tmp_path / "g.json"
        matrix.write_text(json.dumps([np.eye(40).tolist()]))
        for argv in (
            ["classify", str(state)],
            ["invariant", str(state)],
            ["pluecker", str(state)],
            ["rdm", str(state)],
            ["act", str(state), "-m", str(matrix)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert "MAX_DIMENSION" in err, argv

    def test_table_budget(self, capsys, tmp_path):
        # Within MAX_DIMENSION, every file classifies; past MAX_TABLE_ENTRIES,
        # pluecker refuses its scan tables (1.18e9 entries at (8, 16)) and
        # the wedge power of the (4, 20) image is omitted.
        files = {}
        for name, system, shape in (
            ("f8_16", "fermion", "8,16"),
            ("f2_40", "fermion", "2,40"),
            ("f2_100", "fermion", "2,100"),
            ("m20x2", "multi", "1,20;1,20"),
            ("m5x4", "multi", "1,5;1,5;1,5;1,5"),
        ):
            files[name] = str(tmp_path / f"{name}.json")
            code, _, _ = run_cli(
                capsys, "random", "--system", system, "--shape", shape, "--seed", "3",
                "-o", files[name],
            )
            assert code == 0, name
        for name, path in files.items():
            code, out, _ = run_cli(capsys, "classify", path, "--json")
            assert code == 0, name
            report = json.loads(out)["invariants_report"]
            assert ("wedge_power_norm" in report) == (name != "m5x4"), name
        code, out, _ = run_cli(capsys, "invariant", files["m5x4"], "--json")
        assert code == 0
        assert json.loads(out)["fermionic_shape"] == [4, 20]
        assert "wedge_power_norm" not in json.loads(out)
        code, out, err = run_cli(capsys, "pluecker", files["f8_16"])
        assert (code, out) == (3, "")
        assert "MAX_TABLE_ENTRIES" in err

    def test_random_and_multi_shapes(self, capsys):
        # Past the cap: C(19, 9) = 92 378, and fifteen qubits, whose 2^15
        # amplitudes merge to C(30, 15) = 155 117 520.
        for system, shape in (("fermion", "9,19"), ("multi", ";".join(["1,2"] * 15))):
            code, out, err = run_cli(
                capsys, "random", "--system", system, "--shape", shape
            )
            assert (code, out) == (3, "")
            assert "MAX_DIMENSION" in err
        SystemShape(((1, 2),) * 9)  # nine qubits merge to C(18, 9) = 48 620
        with pytest.raises(ShapeError):
            SystemShape(((1, 2),) * 10)  # ten to C(20, 10) = 184 756
        with pytest.raises(ShapeError):
            FermionState(10, 20, {})


class TestCliSelftestAndEntryPoint:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("ok   ") == 5

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "freudenthal.cli", "classify",
             corpus_path("boson3_ghz.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "GHZ (rank 4)" in result.stdout
