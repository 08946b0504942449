"""Micro-benchmarks of the framework's building blocks.

Not a figure of the paper — these time the individual pipeline stages
(data generation, binning, embedding, detection, identifier encryption) so
regressions in any one stage are visible independently of the
full-experiment benchmarks.
"""

import pytest

from repro.binning.binner import BinningAgent
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.crypto.cipher import FieldEncryptor
from repro.datagen.medical import generate_medical_table
from repro.metrics.usage_metrics import UsageMetrics
from repro.ontology.registry import standard_ontology
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import random_mark

ROWS = 2_000


@pytest.fixture(scope="module")
def component_setup():
    table = generate_medical_table(size=ROWS, seed=1)
    trees = dict(standard_ontology().items())
    metrics = UsageMetrics.uniform_depth(trees, 1)
    spec = KAnonymitySpec(k=20, mode=EnforcementMode.MONO)
    agent = BinningAgent(trees, metrics, spec, "bench-encryption-key")
    binned = agent.bin(table).binned
    key = WatermarkKey.from_secret("bench-watermark-secret", 50)
    watermarker = HierarchicalWatermarker(key, copies=4)
    mark = random_mark(20, seed="bench")
    watermarked = watermarker.embed(binned, mark).watermarked
    return table, trees, metrics, spec, agent, binned, watermarker, mark, watermarked


def test_generate_table(benchmark):
    table = benchmark(generate_medical_table, size=ROWS, seed=2)
    assert len(table) == ROWS


def test_binning_agent(benchmark, component_setup):
    table, trees, metrics, spec, agent, *_ = component_setup
    result = benchmark(agent.bin, table)
    for column in result.binned.quasi_columns:
        sizes = result.binned.bin_sizes(column)
        assert sum(sizes.values()) == ROWS
        assert all(size >= spec.effective_k for size in sizes.values()), column


def test_watermark_embedding(benchmark, component_setup):
    *_, binned, watermarker, mark, _ = component_setup
    report = benchmark(watermarker.embed, binned, mark)
    assert report.cells_embedded > 0


def test_watermark_detection(benchmark, component_setup):
    *_, watermarker, mark, watermarked = component_setup
    report = benchmark(watermarker.detect, watermarked, len(mark))
    assert report.mark == mark


def test_identifier_encryption(benchmark):
    encryptor = FieldEncryptor("bench-encryption-key")

    def encrypt_block():
        return [encryptor.encrypt(f"{i:09d}") for i in range(200)]

    tokens = benchmark(encrypt_block)
    assert len(tokens) == 200
