"""Scaling benchmark: the batched hash engine vs the seed's scalar arithmetic.

Measures the throughput of the three hot pipelines on a table of
``REPRO_BENCH_SIZE`` rows (default 2 500; the paper's scale is 20 000):

* hierarchical **embed + detect** — batched :class:`WatermarkHashEngine`
  (HMAC pads built once, one ident serialisation per tuple, digest cache
  shared between embed and detect) versus the seed's scalar per-call
  arithmetic (:class:`ScalarWatermarkEngine`, injected through ``engine=``),
  which are bit-identical by construction;
* the four **attack simulators**, which run on copy-on-write tables;
* the **protect hot path** — binning rewrite (identifier encryption +
  ultimate generalisation) followed by the tuple framing sweep
  (``ident_values`` + ``collect_votes``) over the table's columns.

The asserted ``speedup`` (embed+detect, scalar / batched, best-of-3) is
attached to the benchmark JSON as ``extra_info`` so the trajectory is tracked
run over run.  Run standalone for a plain-text sweep over several sizes::

    PYTHONPATH=src python benchmarks/bench_scaling.py           # 2.5k/20k/100k
    REPRO_BENCH_SIZES=1000,20000 PYTHONPATH=src python benchmarks/bench_scaling.py

or through pytest-benchmark at a single size::

    REPRO_BENCH_SIZE=20000 PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.binning.binner import BinnedTable, rewrite_table
from repro.crypto.batch import ScalarWatermarkEngine
from repro.crypto.cipher import FieldEncryptor
from repro.experiments.config import ExperimentConfig, build_workload
from repro.watermarking.hierarchical import HierarchicalWatermarker

TIMING_ROUNDS = 3


def _embed_detect(workload, *, scalar: bool = False):
    """One full embed + detect pass; returns the detection report."""
    config = workload.config
    key = workload.framework.watermark_key
    watermarker = HierarchicalWatermarker(
        key,
        copies=config.effective_copies(len(workload.trees)),
        engine=ScalarWatermarkEngine(key) if scalar else None,
    )
    binned = workload.protected.binning_result.binned
    embedding = watermarker.embed(binned, workload.protected.mark)
    return watermarker.detect(embedding.watermarked, len(workload.protected.mark))


def _best_of(func, rounds: int = TIMING_ROUNDS) -> float:
    """Best wall-clock of *rounds* runs (this host shows heavy timer noise)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _protect_hot_path(workload, raw_table):
    """Binning rewrite + tuple framing over *raw_table*.

    This is the per-chunk core of streaming protect/detect: encrypt the
    identifying column(s), generalise the ultimate columns, then sweep the
    rewritten identifier column through the keyed-hash tuple framing
    (``ident_values`` + ``collect_votes``).
    """
    config = workload.config
    binned = workload.protected.binning_result.binned
    encryptor = FieldEncryptor(config.encryption_key)
    rewritten = rewrite_table(
        raw_table, raw_table.schema, encryptor, binned.ultimate_generalizations()
    )
    framed = BinnedTable(
        table=rewritten,
        trees=binned.trees,
        identifying_columns=binned.identifying_columns,
        quasi_columns=binned.quasi_columns,
        ultimate_nodes=binned.ultimate_nodes,
        maximal_nodes=binned.maximal_nodes,
        minimal_nodes=binned.minimal_nodes,
        k=binned.k,
    )
    watermarker = HierarchicalWatermarker(
        workload.framework.watermark_key,
        copies=config.effective_copies(len(workload.trees)),
    )
    votes = watermarker.collect_votes(framed, config.mark_length)
    return rewritten, votes


def _run_attacks(binned) -> None:
    SubsetAlterationAttack(0.3, seed=7).run(binned)
    SubsetAdditionAttack(0.3, seed=7).run(binned)
    SubsetDeletionAttack(0.3, seed=7, mode=DeletionMode.RANDOM).run(binned)
    GeneralizationAttack(levels=1).run(binned)


# --------------------------------------------------------------------- pytest
@pytest.fixture(scope="module")
def scaling_workload(bench_config):
    return build_workload(bench_config)


def test_hierarchical_embed_detect_batched(benchmark, scaling_workload):
    _embed_detect(scaling_workload)  # warm-up: caches + allocator
    report = benchmark.pedantic(
        _embed_detect, args=(scaling_workload,),
        rounds=TIMING_ROUNDS, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["rows"] = len(scaling_workload.table)
    benchmark.extra_info["tuples_selected"] = report.tuples_selected


def test_hierarchical_embed_detect_scalar_seed_path(benchmark, scaling_workload):
    report = benchmark.pedantic(
        _embed_detect, args=(scaling_workload,), kwargs={"scalar": True},
        rounds=TIMING_ROUNDS, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["rows"] = len(scaling_workload.table)
    benchmark.extra_info["tuples_selected"] = report.tuples_selected


def test_embed_detect_speedup_and_equivalence(benchmark, scaling_workload):
    """Batched vs seed-scalar: bit-identical output, >= 3x at paper scale."""
    scalar_report = _embed_detect(scaling_workload, scalar=True)
    batched_report = _embed_detect(scaling_workload)
    assert batched_report.mark.bits == scalar_report.mark.bits
    assert batched_report.wmd_bits == scalar_report.wmd_bits
    assert batched_report.votes_cast == scalar_report.votes_cast

    scalar_time = _best_of(lambda: _embed_detect(scaling_workload, scalar=True))
    batched_time = _best_of(lambda: _embed_detect(scaling_workload))
    speedup = scalar_time / batched_time
    benchmark.extra_info["rows"] = len(scaling_workload.table)
    benchmark.extra_info["scalar_seconds"] = round(scalar_time, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # The speedup bar is only asserted at paper scale: below that the run is
    # milliseconds long and the ratio is noise-dominated (CI smoke runs at
    # 1k rows would flake on shared runners).  Small sizes still record the
    # measured ratio in extra_info for the trajectory.
    if len(scaling_workload.table) >= 10_000:
        assert speedup >= 3.0, f"expected >= 3x, measured {speedup:.2f}x"


def test_attack_suite_on_cow_tables(benchmark, scaling_workload):
    binned = scaling_workload.protected.watermarked
    benchmark.pedantic(
        _run_attacks, args=(binned,), rounds=TIMING_ROUNDS, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["rows"] = len(binned.table)


def test_rewrite_and_frame_columnar(benchmark, scaling_workload):
    raw_table = scaling_workload.table
    _protect_hot_path(scaling_workload, raw_table)  # warm-up
    benchmark.pedantic(
        _protect_hot_path, args=(scaling_workload, raw_table),
        rounds=TIMING_ROUNDS, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["rows"] = len(raw_table)


# ----------------------------------------------------------------- standalone
def _standalone_sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES", "2500,20000,100000")
    return [int(part) for part in raw.split(",") if part.strip()]


def main() -> int:
    print(
        f"{'rows':>8} {'scalar s':>10} {'batched s':>10} {'speedup':>8} {'attacks s':>10}"
        f" {'rw+fr s':>10}"
    )
    for size in _standalone_sizes():
        config = ExperimentConfig(table_size=size, seed=2005, k=20, eta=50)
        workload = build_workload(config)
        _embed_detect(workload)  # warm-up
        scalar_time = _best_of(lambda: _embed_detect(workload, scalar=True))
        batched_time = _best_of(lambda: _embed_detect(workload))
        attack_time = _best_of(lambda: _run_attacks(workload.protected.watermarked))
        rewrite_time = _best_of(lambda: _protect_hot_path(workload, workload.table))
        print(
            f"{size:>8} {scalar_time:>10.3f} {batched_time:>10.3f} "
            f"{scalar_time / batched_time:>7.2f}x {attack_time:>10.3f} {rewrite_time:>10.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
