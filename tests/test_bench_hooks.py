"""The benchmark's spans keep measuring: every function perfbench/tracing.py
wraps still exists under the name it wraps, and the classifier and the
embedding-route invariant reach the wrapped Freudenthal images and rank
test through those names; a multi verdict reaches only the merged state's
wedge-power invariant, where it applies."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from freudenthal.classify import RANKED_SYSTEMS, random_state
from freudenthal.embed import multistate_from_tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module_name, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (
            module_name,
            attr,
        )


def _install(tracing, monkeypatch):
    tracer = tracing.Tracer()
    for module_name, attr, name in tracing.TARGETS:
        module = importlib.import_module(module_name)
        wrapped = tracer.wrap(getattr(module, attr), name, tracing.INFO_FNS.get(name))
        monkeypatch.setattr(module, attr, wrapped)
    return tracer


@pytest.mark.parametrize("system", RANKED_SYSTEMS)
def test_classify_reaches_wrapped_image_and_rank(tracing, monkeypatch, system):
    tracer = _install(tracing, monkeypatch)
    cli = importlib.import_module("freudenthal.cli")
    state = random_state(system, 11)
    tracer.take()
    cli.classify_state(system, state)
    names = [span[tracing.NAME] for span in tracer.take()]
    assert names.count("classify.classify_state") == 1
    assert names.count("embed.image") == 1
    assert names.count("triple.rank_margins") == 1
    # The embedding-route invariant builds exactly one image of its own,
    # except for fermion, whose Hitchin route builds none.
    importlib.import_module("freudenthal.classify").invariant_via_embedding(system, state)
    images = [span[tracing.NAME] for span in tracer.take()].count("embed.image")
    assert images == (0 if system == "fermion" else 1)


def test_multi_is_decided_on_its_native_tensor(tracing, monkeypatch):
    # Two random qubit pairs side by side: biseparable across ((1, 2), (3, 4))
    # only.  The verdict and every cut come from the native tensor, so
    # neither the merged decomposability test nor the per-cut test is
    # called; the merged state is built once, and only because
    # wedge_power_norm applies (K = 4 is even and N = 8 = 2K).
    rng = np.random.default_rng(12)
    pairs = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    tensor = np.multiply.outer(pairs[0], pairs[1])
    psi = multistate_from_tensor(tensor / np.linalg.norm(tensor))
    tracer = _install(tracing, monkeypatch)
    cli = importlib.import_module("freudenthal.cli")
    tracer.take()
    label = cli.classify_state("multi", psi)
    names = [span[tracing.NAME] for span in tracer.take()]
    assert label.name == "biseparable"
    assert label.cut_pattern == (((1, 2), (3, 4)),)
    assert names.count("fermion.is_decomposable") == 0
    assert names.count("embed.factors_across_cut") == 0
    assert names.count("embed.merge_species") == 1
    assert names.count("fermion.wedge_power_norm") == 1
    # Three qubits (K = 3 is odd) build no merged state at all.
    three = np.multiply.outer(pairs[0], np.ones(2))
    three = multistate_from_tensor(three / np.linalg.norm(three))
    tracer.take()
    assert cli.classify_state("multi", three).cut_pattern == (((3,), (1, 2)),)
    assert "embed.merge_species" not in [span[tracing.NAME] for span in tracer.take()]
