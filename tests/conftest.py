import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import vlink as vl

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _build_corpus() -> list[vl.Tangle]:
    """Deterministic closed diagrams, at most six vertices."""
    diagrams = [
        vl.empty_tangle(),
        vl.loop_diagram(1),
        vl.loop_diagram(2),
        vl.loop_diagram(3),
        vl.parse_tangle("x v1 a b a b"),
        vl.parse_tangle("x v1 a b b a"),
        vl.parse_tangle("x v1 a a b b"),
        vl.parse_tangle("loops 1\nx v1 a b a b"),
        vl.parse_tangle("x v1 a b c d\nx v2 c d a b"),
        vl.parse_tangle("x v1 a b c d\nx v2 b a d c"),
        vl.parse_tangle("x v1 a b c d\nx v2 d c b a"),
        vl.parse_tangle("x v1 a b c d\nx v2 a b c d"),
        vl.parse_tangle("x v1 a b c d\nx v2 a c b d"),
    ]
    rng = np.random.default_rng(20230823)
    for vertices in range(1, 7):
        for _ in range(2):
            diagrams.append(vl.random_tangle(rng, 0, vertices))
    diagrams.append(vl.random_tangle(rng, 0, 4, loop_count=1))
    diagrams.append(vl.random_tangle(rng, 0, 6, loop_count=2))
    return diagrams


CORPUS = _build_corpus()


@pytest.fixture(scope="session")
def corpus() -> list[vl.Tangle]:
    return CORPUS


@pytest.fixture(scope="session")
def small_corpus() -> list[vl.Tangle]:
    """Corpus members cheap enough for naive enumeration."""
    return [g for g in CORPUS if g.num_vertices <= 4]


@pytest.fixture
def announce(capsys):
    """Print one PASS/FAIL line per acceptance criterion, then assert."""

    def _announce(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


@pytest.fixture(scope="session")
def child_env():
    """``child_env(**extra)``: a child process's environment, the current
    one plus ``extra``.  The child imports the vlink this suite imports,
    installed or not, under the benchmark's BLAS threading."""
    src = os.path.dirname(os.path.dirname(vl.__file__))

    def _child_env(**extra: str) -> dict[str, str]:
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", **extra}

    return _child_env
