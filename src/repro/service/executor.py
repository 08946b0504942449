"""Chunk-parallel protect, detect and dispute, bit-identical to serial.

Both halves of the watermarking algorithm are per-row computations: whether a
tuple is selected, where its bit lives in the replicated mark and which
sibling index encodes it depend only on that tuple's (encrypted) identifier.
A CSV file can therefore be split into contiguous raw chunks, each chunk
worked independently, and the results merged in chunk order.  The executor
builds each verb's raw-chunk task from the task functions of
:mod:`repro.service.runners` and hands it to the runner's one map
(:meth:`~repro.service.runners.ShardRunner.map_raw_chunks`); *where* each
chunk runs is the pluggable runner's business (threads, processes, the
default process-or-inline runner, or a remote fleet for detect).  The merge
machinery here is identical in every case, which is what keeps every runner
bit-identical to serial:

* **detect** (:meth:`ShardExecutor.detect_csv`) — each chunk produces a
  :class:`~repro.watermarking.hierarchical.DetectionVotes`; merging them in
  chunk order reproduces the serial per-position vote lists exactly, so the
  finalised :class:`DetectionReport` (mark, wmd bits, counters) is
  bit-identical to a serial :meth:`detect` — asserted by the service tests on
  clean and attacked files.  Its task comes from the runner
  (:meth:`~repro.service.runners.ShardRunner.detect_task`), because the
  fleet's task is a POST.
* **protect** — pass 1 (:meth:`ShardExecutor.aggregate_csv`) sums per-chunk
  :class:`~repro.service.runners.ChunkAggregates` — leaf counts and the exact
  identifier total — which add up to one sweep's in any order.  Once pass 1
  has fixed the binning plan, rewrite + embed is per-chunk independent, so
  pass 2 (:meth:`ShardExecutor.protect_csv`) maps
  :func:`~repro.service.runners.protect_raw_chunk` over the chunks and
  splices the returned chunk texts, in chunk order, through one
  :class:`~repro.service.streaming.RowWriter`.
* **dispute** (:meth:`ShardExecutor.dispute_csv`) — the detect-side pattern
  again: each claim's :class:`~repro.watermarking.ownership.ClaimEvidence`
  merges in chunk order, so finalising it reproduces the whole-table
  assessment of Section 5.4.

Both protect passes and dispute are keyed work (raw identifiers, decryption
keys): one check refuses them on a runner that is not local.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.relational.schema import TableSchema
from repro.service.runners import (
    LOCAL_ONLY_ERROR,
    AggregatePlan,
    ChunkAggregates,
    DisputePlan,
    ProtectPlan,
    ShardRunner,
    WatermarkerSpec,
    aggregate_raw_chunk,
    dispute_raw_chunk,
    protect_raw_chunk,
    resolve_runner,
)
from repro.service.streaming import DEFAULT_CHUNK_SIZE, RowWriter
from repro.telemetry.trace import span as _stage_span
from repro.watermarking.hierarchical import DetectionReport, DetectionVotes, HierarchicalWatermarker
from repro.watermarking.ownership import ClaimEvidence

__all__ = ["ProtectRun", "ShardExecutor"]


@dataclass(frozen=True)
class ProtectRun:
    """Totals of one runner-parallel protect pass 2 (rows, counters, timings)."""

    rows: int
    tuples_selected: int
    cells_changed: int
    chunk_seconds: tuple[float, ...]

    @property
    def chunks(self) -> int:
        return len(self.chunk_seconds)


class ShardExecutor:
    """Runs a verb's raw-chunk tasks on a pluggable runner and merges the results."""

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        runner: "str | ShardRunner | None" = None,
    ) -> None:
        cpu = os.cpu_count() or 1
        self._max_workers = max_workers if max_workers is not None else min(8, cpu)
        if self._max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._runner = resolve_runner(runner)

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def runner(self) -> ShardRunner:
        return self._runner

    @property
    def runner_name(self) -> str:
        return self._runner.name

    def _map_keyed(
        self, task: Callable[[str, list[str]], object], path: str, chunk_size: int
    ) -> Iterator[object]:
        """The runner's chunk map for keyed work, refused unless the runner is local.

        Refuses when called, not when first iterated, so protect refuses
        before its output file exists.
        """
        if not self._runner.is_local:
            raise ValueError(LOCAL_ONLY_ERROR)
        return self._runner.map_raw_chunks(
            task, path, chunk_size=chunk_size, max_workers=self._max_workers
        )

    # ---------------------------------------------------------------- detection
    def detect_csv(
        self,
        watermarker: HierarchicalWatermarker,
        path: str,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        on_rows: Callable[[int], None] | None = None,
    ) -> DetectionReport:
        """Detect straight off a CSV file, letting the runner own the ingest.

        Every runner ships raw CSV chunks to its workers, which parse and
        collect votes (:func:`~repro.service.runners.collect_raw_chunk`, on
        this host or on a fleet worker), so the merged votes — and therefore
        the report — are bit-identical to a serial detect over the
        materialised table.  A header-only file finalises empty votes: a
        valid, all-zero report with zero coverage.  *on_rows* receives each
        chunk's row count (the service reports total rows examined).
        """
        task = self._runner.detect_task(
            WatermarkerSpec.of(watermarker), schema, metadata, mark_length
        )
        merged: DetectionVotes | None = None
        for rows, votes in self._runner.map_raw_chunks(
            task, path, chunk_size=chunk_size, max_workers=self._max_workers
        ):
            if on_rows is not None:
                on_rows(rows)
            # One span per chunk merged (the first chunk's is the trivial
            # adoption) — pulling from the runner stays *outside* the span so
            # worker wait time never masquerades as merge time.
            with _stage_span("detect.merge"):
                merged = votes if merged is None else merged.merge(votes)
        if merged is None:
            merged = DetectionVotes(wmd_length=mark_length * watermarker.copies)
        return watermarker.finalize_votes(merged, mark_length)

    # ------------------------------------------------------------------ protect
    def aggregate_csv(
        self, plan: AggregatePlan, input_csv: str, *, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> ChunkAggregates:
        """Pass 1 of a streamed protect: every chunk's partials, merged in chunk order.

        A header-only input merges to zero rows, empty leaf counters and a
        zero identifier total.
        """
        merged = ChunkAggregates(
            rows=0,
            leaf_counts={column: Counter() for column in plan.trees},
            identifier_total=0,
            identifier_count=0,
        )
        for part in self._map_keyed(
            functools.partial(aggregate_raw_chunk, plan), input_csv, chunk_size
        ):
            merged.merge(part)
        return merged

    def protect_csv(
        self,
        plan: ProtectPlan,
        input_csv: str,
        output_csv: str,
        *,
        expected_rows: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ProtectRun:
        """Pass 2 of a streamed protect: rewrite + embed + emit on the runner.

        Splits *input_csv* into quote-parity raw chunks, runs
        :func:`~repro.service.runners.protect_raw_chunk` per chunk on the
        configured runner, and appends each returned chunk text to
        *output_csv* in chunk order — so the output file is byte-identical to
        a serial streaming protect whatever the runner or worker count.  An
        empty input (header only) still writes the output header.  A runner
        that cannot carry protect (the remote fleet) is refused *before* the
        output file is created, so a refusal leaves nothing behind.

        *output_csv* is replaced atomically (:class:`RowWriter`) and only
        once every check passed: when this pass reads a different number
        of rows than the *expected_rows* pass 1 counted, the input changed
        between the two passes, and the old *output_csv* stays untouched.
        """
        chunks = self._map_keyed(functools.partial(protect_raw_chunk, plan), input_csv, chunk_size)
        rows = 0
        tuples_selected = 0
        cells_changed = 0
        chunk_seconds: list[float] = []
        with RowWriter(output_csv, plan.schema) as writer:
            for chunk in chunks:
                writer.write_text(chunk.text, chunk.rows)
                rows += chunk.rows
                tuples_selected += chunk.tuples_selected
                cells_changed += chunk.cells_changed
                chunk_seconds.append(chunk.seconds)
            if rows != expected_rows:
                raise ValueError(
                    f"pass 2 emitted {rows} rows but pass 1 read {expected_rows} "
                    "(the input changed between the two streaming passes)"
                )
        return ProtectRun(
            rows=rows,
            tuples_selected=tuples_selected,
            cells_changed=cells_changed,
            chunk_seconds=tuple(chunk_seconds),
        )

    # ------------------------------------------------------------------ dispute
    def dispute_csv(
        self, plan: DisputePlan, path: str, *, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> list[ClaimEvidence]:
        """Every claim's evidence over *path*, merged in chunk order.

        The runner parses, decrypts and collects per raw chunk
        (:func:`~repro.service.runners.dispute_raw_chunk`); merging in chunk
        order makes each claim's evidence equal to one collection over the
        materialised table, so finalising it gives the in-memory verdict.  A
        header-only file yields every claim's empty evidence.
        """
        merged: list[ClaimEvidence] | None = None
        for evidence in self._map_keyed(
            functools.partial(dispute_raw_chunk, plan), path, chunk_size
        ):
            if merged is None:
                merged = list(evidence)
            else:
                for total, part in zip(merged, evidence):
                    total.merge(part)
        if merged is None:
            merged = [plan.registry.empty_evidence(claim) for claim in plan.claims]
        return merged
