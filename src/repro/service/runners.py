"""Pluggable shard runners: where every verb's per-chunk work executes.

The :class:`~repro.service.executor.ShardExecutor` owns the *semantics* of
chunk-parallel work (build each verb's task, merge in chunk order, finalise
once — bit-identical to serial by construction).  This module owns the
*mechanics*, and it has one protocol: every runner task is a raw-chunk task,
and every runner, the remote fleet included, runs it through one map
(:meth:`ShardRunner.map_raw_chunks`).  The map splits a CSV file into
quote-parity ``(header, lines)`` chunks in the calling thread
(:func:`~repro.service.streaming.iter_raw_chunks`) and runs the task over
them on the runner's pool, yielding one result per chunk, **in chunk
order**, with a bounded number in flight.  The tasks are four picklable
functions:

* :func:`aggregate_raw_chunk` — protect's pass 1: mergeable
  :class:`ChunkAggregates`, per-leaf counts and the exact identifier total,
  that the caller adds in chunk order;
* :func:`protect_raw_chunk` — protect's pass 2: once the binning plan is
  fixed, rewrite + embed is per-chunk independent, so each chunk comes back
  as a :class:`ProtectedChunk` — its serialised output CSV text plus its
  embedding counters — for the executor to splice through a
  :class:`~repro.service.streaming.RowWriter`;
* :func:`collect_raw_chunk` — detect: the chunk's row count and
  :class:`~repro.watermarking.hierarchical.DetectionVotes`;
* :func:`dispute_raw_chunk` — the Section 5.4 dispute: parse, decrypt the
  identifying column under each claimant's key, and return one mergeable
  :class:`~repro.watermarking.ownership.ClaimEvidence` per claim.

Every task parses its own chunk (the dominant cost of detect), takes its
engines from a per-process cache keyed by a picklable
:class:`WatermarkerSpec` (live HMAC objects don't pickle), and the map
locates a bad record by file and physical line.  So the runners differ only
in where the task runs:

* :class:`ThreadRunner` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
  tasks share the process-wide engine cache.  Cheap to start, but parsing
  and hashing hold the interpreter lock, so parallelism buys little CPU.
* :class:`ProcessRunner` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  tasks travel pickled, each worker caches its own engines, and only the
  task's result travels back.
* :class:`DefaultRunner` — what ``runner=None`` resolves to: the process
  runner, run inline (no pool) for a one-chunk input or one worker.
* :class:`RemoteRunner` — the multi-machine step, detect only.  Its pool is
  a thread pool and its detect task (:meth:`ShardRunner.detect_task`) POSTs
  the chunk to a fleet of ``repro serve`` workers
  (``POST /internal/detect-votes``, see :mod:`repro.service.wire` for the
  JSON shapes), each to the least-busy worker, with failover and bounded
  retries; the response is the ``(rows, votes)`` pair
  :func:`collect_raw_chunk` returns, merged exactly like the other runners'
  — which is what keeps a fleet detect bit-identical to a serial one.  It
  is not local (:attr:`ShardRunner.is_local`), so the executor refuses it
  protect and dispute: protect's result *is* the rows (raw identifiers in),
  and a dispute carries decryption keys; neither leaves the vault's host.

Runners hold no pool state between calls: a pool lives for one map (the
remote fleet's failure bookkeeping for one detect task), so a runner
instance can be shared by many executors and services.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.binning.binner import BinnedTable, rewrite_table
from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.crypto.cipher import FieldEncryptor
from repro.dht.tree import DomainHierarchyTree
from repro.relational.io import CsvRecordError
from repro.relational.schema import TableSchema
from repro.relational.table import Table, chunk_record_line
from repro.service.options import (
    REMOTE_RUNNER_NAME,
    RUNNER_NAMES,
    FleetError,
    HTTPServiceError,
)
from repro.service.streaming import iter_raw_chunks, render_csv_rows
from repro.service.wire import metadata_to_json, spec_to_json, votes_from_json
from repro.telemetry.trace import (
    TraceContext,
    adopt as _trace_adopt,
    capture as _trace_capture,
    current_tracer as _current_tracer,
    span as _stage_span,
)
from repro.watermarking.hierarchical import DetectionVotes, HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark
from repro.watermarking.ownership import (
    ClaimEvidence,
    OwnershipClaim,
    OwnershipRegistry,
    claim_watermarker,
    identifier_total,
)

__all__ = [
    "WatermarkerSpec",
    "AggregatePlan",
    "ChunkAggregates",
    "ProtectPlan",
    "ProtectedChunk",
    "DisputePlan",
    "ShardRunner",
    "ThreadRunner",
    "ProcessRunner",
    "DefaultRunner",
    "RemoteRunner",
    "FleetError",
    "RUNNER_NAMES",
    "LOCAL_ONLY_ERROR",
    "collect_raw_chunk",
    "aggregate_raw_chunk",
    "protect_raw_chunk",
    "dispute_raw_chunk",
    "REMOTE_RUNNER_NAME",
    "resolve_runner",
]

#: Raised (as a :class:`ValueError`) when keyed work — either protect pass or
#: a dispute — is asked to run on a runner that is not local.  The executor
#: raises it before mapping any chunk, so a refused protect never creates its
#: output file.
LOCAL_ONLY_ERROR = (
    "the remote runner is detect-only: protect and dispute handle raw "
    "identifiers and decryption keys, which never leave the vault's host "
    "(use --runner thread or --runner process)"
)

_SENTINEL = object()


@dataclass(frozen=True)
class WatermarkerSpec:
    """Everything needed to rebuild a :class:`HierarchicalWatermarker` — picklable.

    The live watermarker holds HMAC objects (C state, unpicklable); this spec
    holds only the key bytes and construction parameters.  ``build()`` in a
    worker process yields an engine that is bit-identical to the parent's:
    selection, positions and permutation indices are pure functions of the
    key material.
    """

    k1: bytes
    k2: bytes
    eta: int
    columns: tuple[str, ...] | None
    copies: int
    level_weighting: bool
    code: str = "repetition"

    @classmethod
    def of(cls, watermarker: HierarchicalWatermarker) -> "WatermarkerSpec":
        key = watermarker.key
        return cls(
            k1=key.k1,
            k2=key.k2,
            eta=key.eta,
            columns=watermarker.columns,
            copies=watermarker.copies,
            level_weighting=watermarker.level_weighting,
            code=watermarker.code_name,
        )

    def build(self) -> HierarchicalWatermarker:
        return HierarchicalWatermarker(
            WatermarkKey(k1=self.k1, k2=self.k2, eta=self.eta),
            columns=self.columns,
            copies=self.copies,
            level_weighting=self.level_weighting,
            code=self.code,
        )


#: Per-process watermarker cache: successive chunks for the same spec reuse
#: one engine (and its digest caches) instead of re-deriving HMAC pads.
#: Bounded: a long-running process — a ``repro serve`` front running thread
#: or inline tasks, or a fleet worker — hits it with one spec per tenant key
#: it ever served, and engines retain raw key material, so old entries are
#: evicted in insertion order past the cap.
_WORKER_WATERMARKERS: dict[WatermarkerSpec, HierarchicalWatermarker] = {}
_WORKER_WATERMARKER_CACHE_SIZE = 8
# Thread-runner pool threads, inline tasks of concurrent requests and a fleet
# worker's handler threads all reach this cache concurrently (process-pool
# workers run tasks serially and never contend).
_WORKER_WATERMARKERS_LOCK = threading.Lock()


def _reset_worker_watermarkers_lock() -> None:
    # Process pools fork.  A worker forked while another thread of the parent
    # held the lock (an inline chunk of a concurrent request) would inherit it
    # held and hang on its first chunk, so every forked child gets a new one.
    global _WORKER_WATERMARKERS_LOCK
    _WORKER_WATERMARKERS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_worker_watermarkers_lock)


def _worker_watermarker(spec: WatermarkerSpec) -> HierarchicalWatermarker:
    with _WORKER_WATERMARKERS_LOCK:
        watermarker = _WORKER_WATERMARKERS.pop(spec, None)
        if watermarker is None:
            watermarker = spec.build()
            while len(_WORKER_WATERMARKERS) >= _WORKER_WATERMARKER_CACHE_SIZE:
                _WORKER_WATERMARKERS.pop(next(iter(_WORKER_WATERMARKERS)))
        # Re-inserting on every hit keeps eviction LRU-ish (dicts preserve
        # insertion order), so a hot tenant's engine survives cache churn.
        _WORKER_WATERMARKERS[spec] = watermarker
        return watermarker


def collect_raw_chunk(
    spec: WatermarkerSpec,
    schema: TableSchema,
    metadata: Mapping[str, object],
    header: str,
    lines: list[str],
    mark_length: int,
) -> tuple[int, DetectionVotes]:
    """Pool task: parse one raw CSV chunk and collect its votes.

    The chunk parses a column at a time into table columns
    (:meth:`~repro.relational.table.Table.from_csv_chunk`), with the values,
    cell types and failures of ``csv.DictReader`` + ``parse_row`` — a worker
    sees exactly what the in-process reader would have produced.  Returns
    ``(row_count, votes)``: the caller needs the count for the detection
    report and must not re-scan the chunk.
    """
    with _stage_span("detect.parse", lines=len(lines)):
        table = Table.from_csv_chunk(schema, header, lines)
    binned = BinnedTable(table=table, **metadata)
    return len(table), _worker_watermarker(spec).collect_votes(binned, mark_length)


def _traced_task(context: TraceContext | None, task: Callable, /, *args) -> tuple[object, tuple]:
    """``(task(*args), spans)`` under a propagated trace scope.

    *spans* is what a *foreign-process* worker recorded (``()`` in-process,
    where spans go straight into the live tracer) — the submitting side
    ingests them into the request's tracer.
    """
    with _trace_adopt(context) as local:
        result = task(*args)
    return result, tuple(local.export()) if local is not None else ()


def _located_task(
    task: Callable[[str, list[str]], object], path: str, offset: int, header: str, lines: list[str]
) -> object:
    """``task(header, lines)``, with a failing record located in *path*.

    *offset* is the number of data lines before this chunk, so a
    :class:`~repro.relational.io.CsvRecordError` at chunk line ``n`` (the
    header is line 1) is line ``n + offset`` of the file — whichever runner
    ran the chunk, since the error is located where it is raised.
    """
    try:
        return task(header, lines)
    except CsvRecordError as error:
        raise error.at_line(error.line + offset, path) from None


@dataclass(frozen=True)
class AggregatePlan:
    """What protect's pass 1 needs per chunk, in picklable form.

    Pass 1 computes binning's and the ownership statistic's global
    aggregates (Sections 4–5): per-leaf row counts of every quasi-identifying
    column (*trees*, keyed by column) and the exact identifier total of the
    *identifying_columns*.  Both are sums, so each chunk contributes a
    :class:`ChunkAggregates` that merges with the others in any order.
    """

    schema: TableSchema
    trees: Mapping[str, DomainHierarchyTree]
    identifying_columns: tuple[str, ...]


@dataclass
class ChunkAggregates:
    """Pass-1 partials over some rows: leaf counts, identifier total, rows.

    *leaf_counts* maps each quasi-identifying column to a :class:`Counter`
    of leaf node *names* (nodes do not keep their identity across a process
    boundary; names are unique within a tree).  *identifier_total* and
    *identifier_count* are :func:`~repro.watermarking.ownership.identifier_total`'s
    exact-int sum and count, so merged partials equal one sweep over the file.
    """

    rows: int
    leaf_counts: dict[str, Counter]
    identifier_total: int
    identifier_count: int

    def merge(self, other: "ChunkAggregates") -> "ChunkAggregates":
        """Add *other*'s counts into this one (in place); returns ``self``."""
        self.rows += other.rows
        for column, counts in other.leaf_counts.items():
            self.leaf_counts.setdefault(column, Counter()).update(counts)
        self.identifier_total += other.identifier_total
        self.identifier_count += other.identifier_count
        return self


def _first_index(values: Sequence[object], value: object) -> int:
    """Index of the first cell equal to *value*, which *values* holds (NaN matches NaN)."""
    return next(
        index
        for index, candidate in enumerate(values)
        if candidate is value or candidate == value or (candidate != candidate and value != value)
    )


def _leaf_counts(
    plan: AggregatePlan, table: Table, header: str, lines: list[str]
) -> dict[str, Counter]:
    """Per-column leaf-name counts of *table*, every distinct value validated.

    The column's values are counted first, and each *distinct* value is
    mapped by ``leaf_for_raw`` once, instead of scanning the leaves per cell.
    An out-of-domain value raises :class:`~repro.relational.io.CsvRecordError`
    at the earliest record holding one, over all columns.
    """
    columns = table.column_sequences(tuple(plan.trees))
    leaf_counts: dict[str, Counter] = {}
    failures: list[tuple[int, str]] = []
    for column, tree in plan.trees.items():
        values = columns[column]
        counts: Counter = Counter()
        # Counter keeps first-occurrence order, so the first distinct value
        # that fails is also the column's earliest failing record.
        for value, rows in Counter(values).items():
            try:
                counts[tree.leaf_for_raw(value).name] += rows
            except ValueError as error:
                failures.append((_first_index(values, value), f"column {column!r}: {error}"))
                break
        leaf_counts[column] = counts
    if failures:
        record, reason = min(failures)
        raise CsvRecordError(reason, record=record, line=chunk_record_line(header, lines, record))
    return leaf_counts


def aggregate_raw_chunk(plan: AggregatePlan, header: str, lines: list[str]) -> ChunkAggregates:
    """Pool task: parse one raw CSV chunk and return its pass-1 partials.

    The chunk parses columnar — every cell, so a bad one fails here, before
    pass 2 writes anything — and the first bad record fails the chunk, as in
    a row-by-row sweep: when a cell does not parse, the records before it are
    still checked for out-of-domain values, and an earlier one of those wins.
    """
    with _stage_span("protect.pass1.parse", lines=len(lines)):
        try:
            table = Table.from_csv_chunk(plan.schema, header, lines)
        except CsvRecordError as error:
            # error.line counts the header as line 1: the records before the
            # bad one are exactly the data lines before that line.
            before = Table.from_csv_chunk(plan.schema, header, lines[: error.line - 2])
            _leaf_counts(plan, before, header, lines)
            raise
    with _stage_span("protect.pass1.count", rows=len(table)):
        leaf_counts = _leaf_counts(plan, table, header, lines)
        columns = table.column_sequences(plan.identifying_columns)
        total = count = 0
        for column in plan.identifying_columns:
            column_total, column_count = identifier_total(columns[column])
            total += column_total
            count += column_count
    return ChunkAggregates(
        rows=len(table), leaf_counts=leaf_counts, identifier_total=total, identifier_count=count
    )


@dataclass(frozen=True)
class ProtectPlan:
    """Everything pass 2 of a streamed protect needs, in picklable form.

    Pass 1 fixes the global aggregates: the :class:`~repro.binning.binner.BinPlan`
    (frontier node names, reachable through *metadata*) and the registered
    mark.  From then on every chunk is independent, and this plan is the whole
    per-chunk contract — a worker process rebuilds the watermarker from the
    :class:`WatermarkerSpec`, the identifier encryptor from the key material,
    and the ultimate generalizations from the metadata's trees + node names,
    all pure functions of the plan, so every runner produces bit-identical
    chunks.
    """

    spec: WatermarkerSpec
    schema: TableSchema
    metadata: Mapping[str, object]
    identifying_columns: tuple[str, ...]
    encryption_key: bytes | str
    mark_bits: str


@dataclass(frozen=True)
class ProtectedChunk:
    """One chunk's pass-2 output: serialised CSV text plus embed counters.

    *text* is the chunk's rows rendered by
    :func:`~repro.service.streaming.render_csv_rows` — the dialect of
    :class:`~repro.service.streaming.RowWriter`, no header — so the executor
    splices chunks into the output file byte-identically to a serial emit.
    *seconds* is the worker's own wall clock over the chunk (parse through
    serialise), reported per chunk in the protect report.
    """

    rows: int
    tuples_selected: int
    cells_changed: int
    seconds: float
    text: str


def protect_raw_chunk(plan: ProtectPlan, header: str, lines: list[str]) -> ProtectedChunk:
    """Pool task: rewrite + embed + serialise one raw CSV chunk of a protect.

    Every stage reuses the serial path's own code rather than mirroring it —
    the columnar chunk ingest of :func:`collect_raw_chunk`, the shared
    :func:`repro.binning.binner.rewrite_table` (over an ultimate
    generalization rebuilt from the metadata's trees + node names, with the
    identifying column batch-encrypted in one sweep), one
    :meth:`~repro.watermarking.hierarchical.HierarchicalWatermarker.embed`
    over the chunk's :class:`BinnedTable` view, and
    :func:`~repro.service.streaming.render_csv_rows` for the emit dialect —
    so the returned text is byte for byte what the serial path would have
    written for these records, by construction.
    """
    started = time.perf_counter()
    schema = plan.schema
    metadata = plan.metadata
    encryptor = FieldEncryptor(plan.encryption_key)
    trees: Mapping[str, object] = metadata["trees"]
    ultimate_nodes: Mapping[str, Sequence[str]] = metadata["ultimate_nodes"]
    ultimate = MultiColumnGeneralization(
        {
            column: Generalization.from_node_names(trees[column], ultimate_nodes[column])
            for column in metadata["quasi_columns"]
        }
    )

    with _stage_span("protect.parse", lines=len(lines)):
        parsed = Table.from_csv_chunk(schema, header, lines)
    table = rewrite_table(parsed, schema, encryptor, ultimate)
    binned = BinnedTable(table=table, identifying_columns=plan.identifying_columns, **metadata)
    embedding = _worker_watermarker(plan.spec).embed(binned, Mark.from_string(plan.mark_bits))
    with _stage_span("protect.serialize", rows=len(table)):
        text = render_csv_rows(schema, embedding.watermarked.table)
    return ProtectedChunk(
        rows=len(table),
        tuples_selected=embedding.tuples_selected,
        cells_changed=embedding.cells_changed,
        seconds=time.perf_counter() - started,
        text=text,
    )


@dataclass(frozen=True)
class DisputePlan:
    """Everything a streamed dispute's per-chunk evidence collection needs, picklable.

    One :class:`WatermarkerSpec` per claim (*specs*, in claim order) rebuilds
    each claimant's detector in the worker; the claims themselves carry the
    encryption keys, which is why a dispute only ever runs on local runners.
    *registry* carries the court's parameters (mark length above all).
    """

    registry: OwnershipRegistry
    claims: tuple[OwnershipClaim, ...]
    specs: tuple[WatermarkerSpec, ...]
    schema: TableSchema
    metadata: Mapping[str, object]

    @classmethod
    def of(
        cls,
        registry: OwnershipRegistry,
        claims: Sequence[OwnershipClaim],
        schema: TableSchema,
        metadata: Mapping[str, object],
    ) -> "DisputePlan":
        """The plan for *claims*, each paired with the spec of its claimant's detector."""
        return cls(
            registry=registry,
            claims=tuple(claims),
            specs=tuple(WatermarkerSpec.of(claim_watermarker(claim)) for claim in claims),
            schema=schema,
            metadata=metadata,
        )


def dispute_raw_chunk(plan: DisputePlan, header: str, lines: list[str]) -> tuple[ClaimEvidence, ...]:
    """Pool task: parse one raw CSV chunk and collect every claim's evidence on it.

    The chunk parses columnar exactly like :func:`collect_raw_chunk`; per
    claim, the detector comes from the worker's engine cache.  Returns one
    :class:`~repro.watermarking.ownership.ClaimEvidence` per claim, in claim
    order, for the executor to merge in chunk order.
    """
    with _stage_span("dispute.parse", lines=len(lines)):
        table = Table.from_csv_chunk(plan.schema, header, lines)
    binned = BinnedTable(table=table, **plan.metadata)
    return tuple(
        plan.registry.collect_claim_evidence(binned, claim, watermarker=_worker_watermarker(spec))
        for claim, spec in zip(plan.claims, plan.specs)
    )


def _offset_chunks(path: str, chunk_size: int) -> Iterator[tuple[int, str, list[str]]]:
    """``(offset, header, lines)`` per raw chunk: *offset* data lines precede it."""
    offset = 0
    for header, lines in iter_raw_chunks(path, chunk_size):
        yield offset, header, lines
        offset += len(lines)


def _bounded_ordered(
    submit: Callable[[object], "object"],
    items: Iterable[object],
    window_size: int,
) -> Iterator[object]:
    """Yield future results in submission order with a bounded window.

    At most ``window_size + 1`` futures are in flight, so an unbounded chunk
    stream is never drained ahead of the workers (a plain ``Executor.map``
    would) — memory stays one window of chunks regardless of file size.
    """
    window: deque = deque()
    iterator = iter(items)
    exhausted = False
    while True:
        while not exhausted and len(window) <= window_size:
            item = next(iterator, _SENTINEL)
            if item is _SENTINEL:
                exhausted = True
                break
            window.append(submit(item))
        if not window:
            return
        yield window.popleft().result()


class ShardRunner:
    """Maps a raw-chunk task over a CSV file; yields results in chunk order.

    Pure mechanics: the executor builds every verb's task and hands it to
    the one map (:meth:`map_raw_chunks`).  Subclasses override only
    :attr:`name`, :meth:`_pool`, :attr:`inline_serial` and — for the remote
    fleet — :attr:`is_local` and :meth:`detect_task`.  Instances hold no
    pool state between calls.
    """

    name: str = "?"

    #: Whether a raw-chunk map with one chunk or one worker skips the pool and
    #: runs in the calling thread (the default runner's choice: an idle pool
    #: costs more than the one chunk it would carry).  Named runners keep
    #: their pool, so ``--runner process --workers 1`` still means processes.
    inline_serial: bool = False

    #: Whether chunks run on this host.  Only local runners carry keyed work
    #: — protect's passes (raw identifiers) and dispute (decryption keys).
    #: False only for the remote fleet; the service falls back to a local
    #: runner when its *default* runner is a detect fleet, and the executor
    #: refuses keyed work on one requested explicitly.
    is_local: bool = True

    def _pool(self, max_workers: int) -> Executor:
        raise NotImplementedError

    def detect_task(
        self,
        spec: WatermarkerSpec,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
    ) -> Callable[[str, list[str]], tuple[int, DetectionVotes]]:
        """Detect's raw-chunk task: :func:`collect_raw_chunk` bound to its arguments."""
        return functools.partial(collect_raw_chunk, spec, schema, metadata, mark_length=mark_length)

    def map_raw_chunks(
        self,
        task: Callable[[str, list[str]], object],
        path: str,
        *,
        chunk_size: int,
        max_workers: int,
    ) -> Iterator[object]:
        """``task(header, lines)`` per raw chunk of *path* on this runner's pool.

        The caller's thread only splits lines
        (:func:`~repro.service.streaming.iter_raw_chunks`); *task* must be
        picklable for a process pool, which receives it pickled, while thread
        workers run it in-process.  At most ``max_workers + 1`` chunks are in
        flight and results come back in submission order.  Each task runs in
        the caller's trace scope (:func:`_traced_task`); spans a
        foreign-process worker recorded are ingested into the caller's
        tracer.  A record that fails to parse or validate raises
        :class:`~repro.relational.io.CsvRecordError` naming *path* and its
        physical line.  A runner with :attr:`inline_serial` set runs a
        one-chunk input, or a one-worker call, in the calling thread with no
        pool at all.
        """
        chunks = _offset_chunks(path, chunk_size)
        if self.inline_serial:
            head = list(itertools.islice(chunks, 2))
            chunks = itertools.chain(head, chunks)
            if max_workers == 1 or len(head) < 2:
                for chunk in chunks:
                    yield _located_task(task, path, *chunk)
                return
        context = _trace_capture()
        tracer = _current_tracer()
        with self._pool(max_workers) as pool:
            for result, spans in _bounded_ordered(
                lambda chunk: pool.submit(_traced_task, context, _located_task, task, path, *chunk),
                chunks,
                max_workers,
            ):
                if spans and tracer is not None:
                    tracer.ingest(spans)
                yield result


class ThreadRunner(ShardRunner):
    """A thread pool: tasks share the process-wide engine cache, and the GIL."""

    name = "thread"

    def _pool(self, max_workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=max_workers)


class ProcessRunner(ShardRunner):
    """GIL-free chunk work: engines rebuilt per worker, results shipped back.

    Workers receive each task pickled — a raw CSV chunk plus a
    :class:`WatermarkerSpec` or plan (hash objects don't pickle) — and do
    all of its parsing and hashing; the caller's thread does nothing but
    line-splitting and merging.
    """

    name = "process"

    def _pool(self, max_workers: int) -> Executor:
        return ProcessPoolExecutor(max_workers=max_workers)


class DefaultRunner(ProcessRunner):
    """The runner used when none is named: processes, inline for one chunk.

    Every raw-chunk map — protect's two passes, detect and dispute — runs
    on a process pool: its tasks parse, encrypt and hash, all under the
    interpreter lock on threads.  A one-chunk input or a one-worker call
    runs inline instead (:attr:`~ShardRunner.inline_serial`), since starting
    an idle pool costs more than one chunk's work.  Output is identical to
    every other local runner's; only where the work runs differs.
    """

    inline_serial = True


#: Consecutive failures after which a worker is deprioritised for new chunks.
_DEPRIORITISE_AFTER = 3

#: Default number of full passes over the fleet before a chunk gives up.
DEFAULT_FLEET_ATTEMPTS = 2

#: Per-chunk POST timeout (seconds).  Deliberately much tighter than the
#: client's whole-file default: a chunk is ``chunk_size`` rows of parse +
#: vote collection (well under a second per 10k rows), and a worker that
#: accepts TCP but hangs must not stall failover for minutes.
DEFAULT_FLEET_TIMEOUT = 30.0


class _FleetCall:
    """Per-detect failover state: one POST per chunk, fleet-wide retries.

    Chunk *index* goes to the worker with the fewest POSTs in flight, ties
    broken round-robin from ``index % n``, and fails over to the least-busy
    worker it has not tried yet.  Picking by load caps a healthy fleet's
    concurrent POSTs per worker — hence its client's keep-alive connections
    — at ``ceil(max_workers / n)``; plain ``index % n`` could stack a
    window's same-residue chunks on one worker.  Transport failures and 5xx
    responses mark the worker and move on; 4xx responses raise immediately
    — an auth or wire-format problem will be refused identically by every
    worker, so failing over would only repeat it.  Workers with
    ``_DEPRIORITISE_AFTER``-plus consecutive failures are skipped on the
    first pass (don't pay a connect timeout per chunk for a dead box) but
    retried on later passes, so a recovered worker rejoins without restart.
    """

    def __init__(self, workers: Sequence[tuple[str, object]], attempts: int) -> None:
        self._workers = list(workers)
        self._attempts = max(1, attempts)
        self._lock = threading.Lock()
        self._failures = [0] * len(self._workers)
        self._in_flight = [0] * len(self._workers)

    def _record(self, slot: int, *, failed: bool) -> None:
        with self._lock:
            self._failures[slot] = self._failures[slot] + 1 if failed else 0

    def _claim(self, index: int, tried: set[int], *, skip_failing: bool) -> int | None:
        """The least-busy untried worker for chunk *index*, counted in flight.

        Choice and count happen under one lock, so concurrent posts never
        both see the same worker as the idle one.
        """
        n = len(self._workers)
        with self._lock:
            candidates = [
                slot
                for slot in range(n)
                if slot not in tried
                and not (skip_failing and self._failures[slot] >= _DEPRIORITISE_AFTER)
            ]
            if not candidates:
                return None
            slot = min(candidates, key=lambda s: (self._in_flight[s], (s - index) % n))
            self._in_flight[slot] += 1
            return slot

    def post(self, index: int, payload: dict) -> dict:
        """POST *payload* as chunk *index*; the worker's response document.

        Called inside the map's trace scope: the client stamps the trace
        headers from it, and the spans a traced worker ships back go into
        the live tracer.
        """
        import http.client as _http_client

        n = len(self._workers)
        errors: list[str] = []
        for attempt in range(self._attempts):
            tried: set[int] = set()
            while True:
                slot = self._claim(index, tried, skip_failing=attempt == 0)
                if slot is None:
                    break
                tried.add(slot)
                url, client = self._workers[slot]
                try:
                    with _stage_span("http.client.detect_votes", chunk=index, worker=slot):
                        response = client.detect_votes(payload)
                except HTTPServiceError as error:
                    if 400 <= error.status < 500:
                        raise  # auth/data/config error: every worker will refuse alike
                    # 5xx — and degenerate cases like a 200 with a corrupt
                    # body (a worker dying mid-response) — are this worker's
                    # problem, not the chunk's: fail over.
                    self._record(slot, failed=True)
                    errors.append(f"{url}: {error}")
                except (OSError, _http_client.HTTPException) as error:
                    # Connection refused/reset, timeouts, and half-written
                    # responses (IncompleteRead is an HTTPException, not an
                    # OSError) all mean "this worker is down".
                    self._record(slot, failed=True)
                    errors.append(f"{url}: {error!r}")
                else:
                    self._record(slot, failed=False)
                    tracer = _current_tracer()
                    if tracer is not None:
                        tracer.ingest(response.get("spans") or ())
                    return response
                finally:
                    with self._lock:
                        self._in_flight[slot] -= 1
        raise FleetError(
            f"all {n} remote worker(s) failed chunk {index} "
            f"after {self._attempts} attempt(s): " + "; ".join(errors[-n:])
        )


class RemoteRunner(ShardRunner):
    """Multi-machine detection: chunks out to a worker fleet, votes back.

    The fleet's pool is a thread pool and its detect task POSTs each chunk
    (``POST /internal/detect-votes``) to a ``repro serve`` worker, carrying
    the raw CSV lines, the picklable watermarker spec and the JSON-able
    frontier metadata (trees are resolved worker-side — the fleet must share
    the coordinator's ontology and schema).  The response is the chunk's
    ``(rows, votes)``, so chunks run through the same map, merge and
    finalize as on every other runner and the result stays bit-identical to
    serial detection.  Workers never see the vault: the spec carries exactly
    the key material one detect needs, over the same bearer-token hop the
    rest of the HTTP surface uses (workers gate the endpoint behind their
    ``--admin-token``; pass it as *token*).

    ``max_workers`` bounds the chunks in flight (concurrent POSTs), each sent
    to the least-busy worker; failures fail over with bounded retries
    (:class:`_FleetCall`), and a fleet with no live workers raises
    :class:`FleetError`.  A chunk a worker rejects for a bad record raises
    :class:`~repro.relational.io.CsvRecordError`, located in the file like
    on the local runners.  :meth:`close` closes the workers' pooled
    connections.
    """

    name = REMOTE_RUNNER_NAME

    #: Detect-only.  Detection ships small :class:`DetectionVotes` back, but
    #: protect's result *is* the rows and a dispute decrypts, so a fleet would
    #: see raw identifiers or decryption keys that its deliberately
    #: vault-blind workers must never hold (:data:`LOCAL_ONLY_ERROR`).
    is_local = False

    def __init__(
        self,
        worker_urls: Sequence[str],
        *,
        token: str | None = None,
        timeout: float | None = None,
        attempts: int = DEFAULT_FLEET_ATTEMPTS,
    ) -> None:
        # Imported here: http.client imports http.app (for the report header),
        # which imports this module — a load-time cycle, gone at call time.
        from repro.service.http.client import ServiceClient

        urls = [str(url) for url in worker_urls]
        if not urls:
            raise ValueError("remote runner needs at least one worker url (--worker-url)")
        timeout = DEFAULT_FLEET_TIMEOUT if timeout is None else timeout
        self._workers = [(url, ServiceClient(url, token, timeout=timeout)) for url in urls]
        self._attempts = attempts

    @property
    def worker_urls(self) -> tuple[str, ...]:
        return tuple(url for url, _ in self._workers)

    @property
    def connections_opened(self) -> int:
        """TCP connections opened across the fleet's clients.

        With keep-alive workers this stays near the fleet size however many
        chunks are posted — the end-to-end witness that chunk POSTs reuse
        connections (``tests/service/test_prefork.py`` asserts it).
        """
        return sum(client.connections_opened for _, client in self._workers)

    def close(self) -> None:
        """Close the fleet clients' idle keep-alive connections."""
        for _, client in self._workers:
            client.close()

    def _pool(self, max_workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=max_workers)

    def detect_task(
        self,
        spec: WatermarkerSpec,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
    ) -> Callable[[str, list[str]], tuple[int, DetectionVotes]]:
        """A task that POSTs each chunk through one :class:`_FleetCall`.

        Workers parse against their own schema, so *schema* is not sent.
        Chunks are numbered as the pool threads pick them up, which is
        submission order up to thread scheduling; the number only breaks
        ties between idle workers and names the chunk in a
        :class:`FleetError`.
        """
        call = _FleetCall(self._workers, self._attempts)
        request = {
            "spec": spec_to_json(spec),
            "metadata": metadata_to_json(metadata),
            "mark_length": mark_length,
        }
        indices = itertools.count()

        def post(header: str, lines: list[str]) -> tuple[int, DetectionVotes]:
            try:
                response = call.post(next(indices), dict(request, header=header, lines=lines))
            except HTTPServiceError as error:
                # A worker's 400 for a bad record carries its chunk line, so
                # the map can locate it in the file; other refusals stay HTTP.
                line, reason = error.payload.get("line"), error.payload.get("reason")
                if error.status == 400 and isinstance(line, int) and isinstance(reason, str):
                    raise CsvRecordError(reason, line=line) from None
                raise
            return int(response["rows"]), votes_from_json(response["votes"])

        return post


def resolve_runner(runner: "str | ShardRunner | None") -> ShardRunner:
    """A :class:`ShardRunner` instance from a name, an instance, or ``None``.

    ``None`` gives the :class:`DefaultRunner` (processes, inline for one
    chunk or one worker); ``"thread"``
    the thread runner and ``"process"`` the process runner, each honoured for
    every call.  Instances pass through, which is how a :class:`RemoteRunner`
    (whose fleet urls and token cannot travel in a name) reaches the
    executor.
    """
    if runner is None:
        return DefaultRunner()
    if isinstance(runner, ShardRunner):
        return runner
    if runner == "thread":
        return ThreadRunner()
    if runner == "process":
        return ProcessRunner()
    if runner == REMOTE_RUNNER_NAME:
        raise ValueError(
            "the remote runner needs a worker fleet — construct "
            "RemoteRunner([worker_urls], token=...) and pass the instance "
            "(CLI: --runner remote --worker-url URL)"
        )
    raise ValueError(f"unknown runner {runner!r} (expected one of {', '.join(RUNNER_NAMES)})")
