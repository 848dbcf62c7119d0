"""The benchmark's spans keep measuring: every function perfbench/tracing.py
wraps still exists under the name it wraps, and the classifier and the
embedding-route invariant reach the wrapped Freudenthal images, rank test,
decomposability test and cut tests through those names."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from freudenthal.classify import RANKED_SYSTEMS, random_state
from freudenthal.embed import bipartitions, multistate_from_tensor

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


def test_multi_reaches_wrapped_decision_and_every_cut(tracing, monkeypatch):
    # Two random qubit pairs side by side: biseparable across ((1, 2), (3, 4))
    # only, so the classifier tests decomposability once and every cut.
    rng = np.random.default_rng(12)
    pairs = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    tensor = np.multiply.outer(pairs[0], pairs[1])
    psi = multistate_from_tensor(tensor / np.linalg.norm(tensor))
    tracer = _install(tracing, monkeypatch)
    cli = importlib.import_module("freudenthal.cli")
    tracer.take()
    label = cli.classify_state("multi", psi)
    spans = tracer.take()
    names = [span[tracing.NAME] for span in spans]
    assert label.name == "biseparable"
    assert names.count("fermion.is_decomposable") == 1
    cuts = [s[tracing.INFO] for s in spans if s[tracing.NAME] == "embed.factors_across_cut"]
    assert cuts == [bp in label.cut_pattern for bp in bipartitions(4)]
    assert label.cut_pattern == (((1, 2), (3, 4)),)
