"""Shared fixtures for the robustness suite.

The parallel-extraction tests all need the same thing: a non-trivial
pair batch plus its fault-free sequential feature matrix to compare
against (every fault-tolerance guarantee is "bit-identical to the
fault-free run").  Both are session-scoped — the case is deterministic
and read-only.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.feature import SSFConfig
from repro.core.parallel import parallel_extract_batch
from repro.datasets.catalog import get_dataset
from repro.sampling.splits import build_link_prediction_task


@pytest.fixture(scope="session")
def extraction_case() -> SimpleNamespace:
    """A deterministic extraction batch and its sequential dict-oracle
    reference: every fault-recovery run must reproduce the oracle."""
    network = get_dataset("co-author").generate(seed=0, scale=0.25)
    task = build_link_prediction_task(network, max_positives=60, seed=0)
    config = SSFConfig(k=6)
    pairs = list(task.train_pairs)
    reference = parallel_extract_batch(
        task.history,
        config,
        pairs,
        present_time=task.present_time,
        workers=1,
        backend="dict",
    )
    return SimpleNamespace(
        history=task.history,
        present=task.present_time,
        pairs=pairs,
        config=config,
        reference=reference,
    )


class MetricsProbe:
    """Counter lookups against a live registry (0.0 when never fired)."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def counter(self, name: str) -> float:
        return self.registry.snapshot()["counters"].get(name, 0.0)


@pytest.fixture(scope="session")
def toy_network():
    """The ``small_dataset`` network, session-scoped for resume tests.

    The resume suite compares several full experiment runs against one
    shared baseline; a session scope keeps the (deterministic) network
    build out of every test.
    """
    from repro.datasets.synthetic import EventModelConfig, generate_event_network

    config = EventModelConfig(
        n_nodes=60,
        n_links=600,
        span=20,
        repeat_prob=0.3,
        closure_prob=0.25,
        pa_prob=0.25,
        final_fraction=0.1,
    )
    return generate_event_network(config, seed=7)


@pytest.fixture
def metrics():
    """A fresh, enabled metrics registry probe (restored afterwards)."""
    was_enabled = obs.enabled()
    obs.enable()
    registry = obs.get_registry()
    registry.reset()
    try:
        yield MetricsProbe(registry)
    finally:
        registry.reset()
        if not was_enabled:
            obs.disable()
