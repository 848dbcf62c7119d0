from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from freudenthal.jordan import AlgebraKind, JordanElement

# The CLI tests start `python -m freudenthal.cli` processes: they import the
# package from src/ as this process does (pyproject's pytest pythonpath).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def random_jordan(kind: AlgebraKind, rng: np.random.Generator) -> JordanElement:
    d = kind.dimension
    return JordanElement(kind, rng.normal(size=d) + 1j * rng.normal(size=d))


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_fermion_amplitudes(k: int, n: int, rng: np.random.Generator) -> dict:
    keys = list(itertools.combinations(range(1, n + 1), k))
    vals = random_complex(rng, len(keys))
    vals /= np.linalg.norm(vals)
    return dict(zip(keys, vals))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
