"""Per-layer self time for traced benchmark runs, recorded from outside the program.

:func:`install` wraps the public calls named in :data:`LAYERS` in spans.  A
span records the calling thread's CPU time (``time.thread_time``) and its
wall time; a layer's *self* time is its spans' duration minus the part their
child spans (wrapped calls made inside them, on the same thread) cover.  CPU
self time is the additive figure: under the interpreter lock two busy pool
threads each see twice the wall time, but only their share of CPU.

Totals live in per-thread accounts, so the hot path takes no lock.  Each
process writes its totals to ``$PERFBENCH_TRACE_DIR`` as it exits: at
``atexit`` for the process the benchmark started, and in ``os._exit`` for
forked children (pool workers, pre-fork HTTP workers), which skip ``atexit``.
A forked child starts from empty totals.  :func:`merge` sums the files of
one traced command.

A target that no longer exists (a later change deleted or renamed it) is
reported in the totals' ``absent`` list and otherwise ignored.
"""

from __future__ import annotations

import atexit
import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

__all__ = ["LAYERS", "install", "merge", "TRACE_DIR_ENV"]

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Layer name -> wrapped targets, ``[kind ]module:qualname``.  Kinds:
#: ``call`` (default) times the call; ``rows`` and ``tables`` time the pulls
#: of the row or row-table iterator the call returns (building it is free);
#: ``body`` times a WSGI call plus the iteration and close of its body.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cli.main", ("repro.cli:main",)),
    ("service.framework", ("repro.service.api:ProtectionService.framework_for",)),
    ("service.pass1", ("repro.service.api:ProtectionService.protect",)),
    (
        "service.facade",
        (
            "repro.service.api:ProtectionService.detect",
            "repro.service.api:ProtectionService.dispute",
            "repro.service.api:ProtectionService.status",
            "repro.service.api:ProtectionService.register_tenant",
        ),
    ),
    ("relational.row_parse", ("rows repro.service.streaming:iter_rows",)),
    (
        "relational.chunk_parse",
        (
            "repro.relational.columnar:ColumnarTable.from_csv_chunk",
            "tables repro.service.streaming:iter_tables",
        ),
    ),
    ("binning.plan", ("repro.binning.binner:BinningAgent.plan_from_counts",)),
    ("binning.rewrite", ("repro.binning.binner:rewrite_table",)),
    ("crypto.encrypt", ("repro.crypto.cipher:FieldEncryptor.encrypt_many",)),
    ("watermarking.embed", ("repro.watermarking.hierarchical:HierarchicalWatermarker.embed",)),
    ("service.serialize", ("repro.service.streaming:render_csv_rows",)),
    ("service.splice", ("repro.service.streaming:RowWriter.write_text",)),
    (
        "watermarking.collect",
        ("repro.watermarking.hierarchical:HierarchicalWatermarker.collect_votes",),
    ),
    ("watermarking.merge", ("repro.watermarking.hierarchical:DetectionVotes.merge",)),
    (
        "watermarking.finalize",
        ("repro.watermarking.hierarchical:HierarchicalWatermarker.finalize_votes",),
    ),
    ("watermarking.dispute", ("repro.framework.pipeline:ProtectionFramework.resolve_dispute",)),
    (
        "runners.dispatch",
        (
            "repro.service.executor:ShardExecutor.protect_csv",
            "repro.service.executor:ShardExecutor.detect_csv",
        ),
    ),
    (
        "runners.task",
        (
            "repro.service.runners:protect_raw_chunk",
            "repro.service.runners:collect_raw_chunk",
            "repro.service.runners:_run_in_trace_scope",
        ),
    ),
    (
        "registry.read",
        (
            "repro.service.vault:KeyVault.tenant",
            "repro.service.vault:KeyVault.dataset",
            "repro.service.vault:KeyVault.reload_if_changed",
            "repro.service.store:ClaimStore.reload_if_changed",
        ),
    ),
    (
        "registry.write",
        (
            "repro.service.vault:KeyVault.record_dataset",
            "repro.service.store:ClaimStore.add_claim",
            "repro.service.audit:FileAuditLog.append",
            "repro.service.audit:SQLiteAuditLog.append",
        ),
    ),
    ("http.spool", ("repro.service.streaming:spool_stream",)),
    ("http.app", ("body repro.service.http.app:ProtectionApp.__call__",)),
)

#: Rows a ``rows`` span reads ahead, so row-at-a-time iterators are not
#: timed per row (four clock reads per row would distort the layer).
PULL_BATCH = 512

#: Per-layer total fields, in order.
FIELDS = ("calls", "cpu_s", "wall_s", "cpu_incl_s", "wall_incl_s", "rows")

_local = threading.local()
_accounts: list[dict[str, list]] = []
_state: dict[str, object] = {"absent": [], "import_s": None, "dumped": None}


def _frames() -> list:
    frames = getattr(_local, "frames", None)
    if frames is None:
        frames = _local.frames = []
        _local.active = {}
        _local.totals = {}
        _accounts.append(_local.totals)
    return frames


def _enter(layer: str) -> list:
    frames = _frames()
    _local.active[layer] = _local.active.get(layer, 0) + 1
    frame = [layer, time.thread_time(), time.perf_counter(), 0.0, 0.0]
    frames.append(frame)
    return frame


def _leave(frame: list, rows: int = 0) -> None:
    cpu = time.thread_time() - frame[1]
    wall = time.perf_counter() - frame[2]
    frames = _local.frames
    frames.pop()
    layer = frame[0]
    totals = _local.totals.get(layer)
    if totals is None:
        totals = _local.totals[layer] = [0, 0.0, 0.0, 0.0, 0.0, 0]
    depth = _local.active[layer] - 1
    _local.active[layer] = depth
    if depth == 0:  # a layer re-entered through itself counts once
        totals[0] += 1
        totals[3] += cpu
        totals[4] += wall
    totals[1] += cpu - frame[3]
    totals[2] += wall - frame[4]
    totals[5] += rows
    if frames:
        parent = frames[-1]
        parent[3] += cpu
        parent[4] += wall


def _rows_of(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _timed_call(layer: str, fn, count_rows: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = _enter(layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _leave(frame, _rows_of(result) if count_rows else 0)

    return wrapper


def _timed_pull(layer: str, fn, per_row: bool):
    batch = PULL_BATCH if per_row else 1

    def pulls(iterator):
        while True:
            frame = _enter(layer)
            items: list = []
            try:
                items = list(itertools.islice(iterator, batch))
            finally:
                rows = len(items) if per_row else sum(map(_rows_of, items))
                _leave(frame, rows)
            if not items:
                return
            yield from items

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return pulls(iter(fn(*args, **kwargs)))

    return wrapper


class _TimedBody:
    """A WSGI response iterable whose iteration and close count to *layer*."""

    def __init__(self, layer: str, body) -> None:
        self._layer = layer
        self._body = body

    def __iter__(self):
        iterator = iter(self._body)
        end = object()
        while True:
            frame = _enter(self._layer)
            try:
                block = next(iterator, end)
            finally:
                _leave(frame)
            if block is end:
                return
            yield block

    def close(self) -> None:
        close = getattr(self._body, "close", None)
        if close is not None:
            frame = _enter(self._layer)
            try:
                close()
            finally:
                _leave(frame)


def _timed_body(layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = _enter(layer)
        try:
            return _TimedBody(layer, fn(*args, **kwargs))
        finally:
            _leave(frame)

    return wrapper


def _wrap(layer: str, target: str) -> bool:
    kind, _, spec = target.rpartition(" ")
    module_name, _, qualname = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, name = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return False
    descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if descriptor is not None else raw
    if not callable(fn):
        return False
    if kind in ("rows", "tables"):
        wrapped = _timed_pull(layer, fn, per_row=kind == "rows")
    elif kind == "body":
        wrapped = _timed_body(layer, fn)
    else:
        wrapped = _timed_call(layer, fn, count_rows=layer == "relational.chunk_parse")
    setattr(owner, name, descriptor(wrapped) if descriptor is not None else wrapped)
    if owner is module:
        # ``from module import fn`` elsewhere bound the original: rebind it.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if other is module or namespace is None:
                continue
            if getattr(other, "__name__", "").partition(".")[0] != "repro":
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(other, attr, wrapped)
    return True


def _reset_in_child() -> None:
    _accounts.clear()
    _local.__dict__.clear()
    _state["import_s"] = None
    _state["dumped"] = None


def _dump() -> None:
    directory = os.environ.get(TRACE_DIR_ENV)
    pid = os.getpid()
    if not directory or _state["dumped"] == pid:
        return
    _state["dumped"] = pid
    layers: dict[str, list] = {}
    for account in list(_accounts):
        for layer, totals in list(account.items()):
            merged = layers.setdefault(layer, [0, 0.0, 0.0, 0.0, 0.0, 0])
            for index, value in enumerate(totals):
                merged[index] += value
    document = {
        "pid": pid,
        "import_s": _state["import_s"],
        "absent": _state["absent"],
        "layers": {layer: dict(zip(FIELDS, totals)) for layer, totals in layers.items()},
    }
    path = os.path.join(directory, f"{pid}-{time.monotonic_ns()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def install(*, import_s: float | None = None) -> list[str]:
    """Wrap every target of :data:`LAYERS`; returns the absent ones."""
    absent = [target for layer, targets in LAYERS for target in targets if not _wrap(layer, target)]
    _state["absent"] = absent
    _state["import_s"] = import_s
    os.register_at_fork(after_in_child=_reset_in_child)
    real_exit = os._exit

    def exit_after_dump(code):
        try:
            _dump()
        finally:
            real_exit(code)

    os._exit = exit_after_dump
    atexit.register(_dump)
    return absent


def merge(directory: str) -> dict:
    """Sum the totals every process of one traced command wrote to *directory*."""
    layers: dict[str, dict[str, float]] = {}
    absent: set[str] = set()
    import_s = 0.0
    processes = 0
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        processes += 1
        import_s += document["import_s"] or 0.0
        absent.update(document["absent"])
        for layer, totals in document["layers"].items():
            merged = layers.setdefault(layer, dict.fromkeys(FIELDS, 0))
            for field in FIELDS:
                merged[field] += totals[field]
    return {"layers": layers, "absent": sorted(absent), "import_s": import_s, "processes": processes}
