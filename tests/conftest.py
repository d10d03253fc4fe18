"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric import Cluster, ClusterConfig
from repro.sim import Environment


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def ring3() -> Cluster:
    """A probed 3-host ring (the paper's testbed shape)."""
    cluster = Cluster(ClusterConfig(n_hosts=3))
    cluster.run_probe()
    return cluster


@pytest.fixture
def ring4() -> Cluster:
    cluster = Cluster(ClusterConfig(n_hosts=4))
    cluster.run_probe()
    return cluster


def run_to_completion(env: Environment, *generators, max_steps: int = 5_000_000):
    """Run processes to completion with a step bound (deadlock safety net).

    Returns the list of process return values.
    """
    processes = [env.process(gen) for gen in generators]
    target = env.all_of(processes)
    steps = 0
    while not target.triggered:
        if env.peek() == float("inf"):
            raise AssertionError(
                f"simulation drained at t={env.now} before processes "
                f"finished: {[p for p in processes if p.is_alive]}"
            )
        env.step()
        steps += 1
        if steps > max_steps:
            raise AssertionError(
                f"exceeded {max_steps} steps at t={env.now}; "
                "probable livelock"
            )
    if not target.ok:
        raise target.value
    return [p.value for p in processes]


def pattern(nbytes: int, seed: int = 0) -> np.ndarray:
    """Deterministic non-trivial byte pattern for data-integrity checks."""
    return ((np.arange(nbytes, dtype=np.int64) * 131 + seed * 7919) % 251
            ).astype(np.uint8)
