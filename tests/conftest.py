"""Shared fixtures for the test suite.

Expensive artefacts (the ontology registry, synthetic tables, a fully
protected workload) are built once per session; tests that need to mutate
them work on copies.
"""

from __future__ import annotations

import pytest

from repro.binning.binner import BinningAgent
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.datagen.medical import generate_medical_table
from repro.dht.builders import binary_numeric_tree, from_nested_mapping
from repro.framework.pipeline import ProtectionFramework
from repro.metrics.usage_metrics import UsageMetrics
from repro.ontology.registry import roles_tree, standard_ontology


@pytest.fixture(scope="session")
def role_tree():
    """The Figure 1 person-role DHT (three levels, 10 leaves)."""
    return roles_tree()


@pytest.fixture(scope="session")
def age8_tree():
    """A small binary numeric DHT: [0, 80) in eight 10-year intervals."""
    return binary_numeric_tree("age", 0, 80, n_intervals=8)


@pytest.fixture(scope="session")
def tiny_tree():
    """A two-level categorical DHT used by hand-computable tests."""
    return from_nested_mapping(
        "ward",
        "Hospital",
        {
            "Medicine": ["Cardiology", "Neurology", "Oncology"],
            "Surgery": ["Orthopedics", "Trauma"],
        },
    )


@pytest.fixture(scope="session")
def trees():
    """The full per-column DHT registry of the medical schema."""
    return dict(standard_ontology().items())


@pytest.fixture(scope="session")
def small_table():
    """A 400-row synthetic clinical table (shared read-only)."""
    return generate_medical_table(size=400, seed=11)


@pytest.fixture(scope="session")
def medium_table():
    """A 1500-row synthetic clinical table (shared read-only)."""
    return generate_medical_table(size=1500, seed=23)


@pytest.fixture(scope="session")
def depth1_metrics(trees):
    """Usage metrics with the depth-1 frontier for every column."""
    return UsageMetrics.uniform_depth(trees, 1)


@pytest.fixture(scope="session")
def binned_small(trees, depth1_metrics, medium_table):
    """The medium table binned with k=10 (mono enforcement)."""
    agent = BinningAgent(
        trees,
        depth1_metrics,
        KAnonymitySpec(k=10, mode=EnforcementMode.MONO),
        "test-encryption-key",
    )
    return agent.bin(medium_table)


@pytest.fixture(scope="session")
def protection_framework(trees, depth1_metrics):
    """A fully configured framework (k=10 with the Section 6 ε margin, eta=25)."""
    return ProtectionFramework(
        trees,
        depth1_metrics,
        KAnonymitySpec(k=10, mode=EnforcementMode.MONO, epsilon=5),
        encryption_key="test-encryption-key",
        watermark_secret="test-watermark-secret",
        eta=25,
        mark_length=20,
        copies=4,
    )


@pytest.fixture(scope="session")
def protected_small(protection_framework, medium_table):
    """The medium table taken through the full protect() pipeline."""
    return protection_framework.protect(medium_table)


@pytest.fixture(scope="session")
def detect_via_csv(tmp_path_factory):
    """Detect over a binned table written to CSV, through ``ShardExecutor.detect_csv``.

    Returns ``detect(executor, watermarker, binned, mark_length, *,
    chunk_size=...) -> DetectionReport``: *binned*'s table goes to a fresh
    CSV file and its metadata rides along, so the runners parse exactly the
    cells the in-memory table holds.
    """
    import dataclasses

    from repro.service.streaming import DEFAULT_CHUNK_SIZE

    def detect(executor, watermarker, binned, mark_length, *, chunk_size=DEFAULT_CHUNK_SIZE):
        path = str(tmp_path_factory.mktemp("detect-csv") / "suspect.csv")
        binned.table.to_csv(path)
        metadata = {
            field.name: getattr(binned, field.name)
            for field in dataclasses.fields(binned)
            if field.name != "table"
        }
        return executor.detect_csv(
            watermarker, path, binned.table.schema, metadata, mark_length, chunk_size=chunk_size
        )

    return detect


@pytest.fixture
def remote_runner():
    """Builds ``RemoteRunner``s whose fleet connections close when the test ends."""
    from repro.service.runners import RemoteRunner

    runners = []

    def build(*args, **kwargs):
        runner = RemoteRunner(*args, **kwargs)
        runners.append(runner)
        return runner

    yield build
    for runner in runners:
        runner.close()
