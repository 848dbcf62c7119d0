"""The benchmark's spans keep measuring: every function perfbench/tracing.py
wraps still exists under the name it wraps, and the classifier reaches the
wrapped Freudenthal images and rank test through those names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from freudenthal.classify import RANKED_SYSTEMS, random_state

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


@pytest.mark.parametrize("system", RANKED_SYSTEMS)
def test_classify_reaches_wrapped_image_and_rank(tracing, monkeypatch, system):
    tracer = tracing.Tracer()
    for module_name, attr, name in tracing.TARGETS:
        module = importlib.import_module(module_name)
        wrapped = tracer.wrap(getattr(module, attr), name, tracing.INFO_FNS.get(name))
        monkeypatch.setattr(module, attr, wrapped)
    cli = importlib.import_module("freudenthal.cli")
    state = random_state(system, 11)
    tracer.take()
    cli.classify_state(system, state)
    names = [span[tracing.NAME] for span in tracer.take()]
    assert names.count("classify.classify_state") == 1
    assert names.count("embed.image") == 1
    assert names.count("triple.rank_margins") == 1
