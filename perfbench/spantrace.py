"""Spans recorded around the public functions of each layer, from outside the program.

``install`` replaces each function named in ``SERVER_TARGETS`` (or
``CLIENT_TARGETS``) with a wrapper that records a span: name, start, end,
parent span and statement id.  Spans are kept in memory, one buffer per
thread, and written out by ``SpanRecorder.dump`` when the process ends.
A function that returns an iterator is timed on each ``next``.

Spans are recorded only inside a statement (below a root span) or, for
the wire functions, always; the start-up doctor therefore leaves none.
``layer_times`` turns a span file into self times: a span's duration minus
the part its children cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections.abc import Iterator
from time import perf_counter

WIRE = {
    "protocol.encode_frame": ("repro.server.protocol", "encode_frame"),
    "protocol.read_frame": ("repro.server.protocol", "read_frame"),
    "protocol.write_frame": ("repro.server.protocol", "write_frame"),
    # the blocking socket reads inside read_frame: a child span, so that
    # read_frame's self time is decoding, not waiting for the peer
    "protocol.recv": ("repro.server.protocol", "_recv_exact"),
}
SERVER_TARGETS = {
    **WIRE,
    "session.run_statement": ("repro.server.session", "Session.run_statement"),
    "locks.footprint_for_statement": ("repro.server.locks", "footprint_for_statement"),
    "locks.acquire": ("repro.server.locks", "LockManager.acquire"),
    "query.parse_statement": ("repro.query.language", "parse_statement"),
    "query.plan_retrieve": ("repro.query.planner", "plan_retrieve"),
    "query.plan_replace": ("repro.query.planner", "plan_replace"),
    "query.execute_retrieve": ("repro.query.executor", "execute_retrieve"),
    "query.execute_update": ("repro.query.executor", "execute_update"),
    "batchjoin.resolve_step_batch": ("repro.query.batchjoin", "resolve_step_batch"),
    "index.range": ("repro.index.secondary", "SecondaryIndex.range"),
    "objects.read": ("repro.objects.store", "ObjectStore.read"),
    "objects.read_many": ("repro.objects.store", "ObjectStore.read_many"),
    "storage.fetch": ("repro.storage.buffer", "BufferPool.fetch"),
    "storage.fetch_many": ("repro.storage.buffer", "BufferPool.fetch_many"),
    "storage.create_file": ("repro.storage.manager", "StorageManager.create_file"),
    "storage.drop_file": ("repro.storage.manager", "StorageManager.drop_file"),
    "storage.heap_insert": ("repro.storage.heapfile", "HeapFile.insert"),
    "replication.propagate_update": ("repro.replication.manager",
                                     "ReplicationManager.propagate_update"),
    "wal.commit": ("repro.recovery.wal", "WriteAheadLog.commit"),
    "cache.get": ("repro.cache.resultcache", "ResultCache.get"),
    "cache.hit": ("repro.cache.resultcache", "ResultCache.hit"),
    "cache.fill": ("repro.cache.resultcache", "ResultCache.fill"),
}
SERVER_ROOT = "session.run_statement"
CLIENT_TARGETS = {
    **WIRE,
    "client.execute": ("repro.server.client", "Client.execute"),
}
CLIENT_ROOT = "client.execute"
#: the output file a retrieve writes: these spans count only under it
OUTPUT = ("storage.create_file", "storage.heap_insert", "storage.drop_file")
OUTPUT_PARENT = "query.execute_retrieve"


class SpanRecorder:
    """Per-thread span buffers; a span is (name, start, end, parent, stmt)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._local = threading.local()
        self._buffers: list[dict] = []
        self._lock = threading.Lock()
        self._stmt_ids = itertools.count(1)

    def _buffer(self) -> dict:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = {"name": [], "start": [], "end": [], "parent": [],
                   "stmt": [], "stack": [], "current": 0}
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self, name: str) -> tuple[dict, int] | None:
        buf = self._buffer()
        stack = buf["stack"]
        if name == self.root:
            buf["current"] = next(self._stmt_ids)
        elif not stack and name not in WIRE:
            return None
        idx = len(buf["name"])
        buf["name"].append(name)
        buf["parent"].append(stack[-1] if stack else -1)
        buf["stmt"].append(buf["current"] if stack or name == self.root else 0)
        buf["end"].append(0.0)
        stack.append(idx)
        buf["start"].append(perf_counter())
        return buf, idx

    @staticmethod
    def _close(opened: tuple[dict, int]) -> None:
        buf, idx = opened
        buf["end"][idx] = perf_counter()
        buf["stack"].pop()

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = recorder._open(name)
            if opened is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(opened)
            if isinstance(result, Iterator):
                return recorder._iterate(name, result)
            return result

        return traced

    def _iterate(self, name: str, inner):
        while True:
            opened = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if opened is not None:
                    self._close(opened)
            yield item

    def dump(self, path: str, missing: list[str]) -> None:
        with self._lock:
            buffers = [{k: buf[k] for k in ("name", "start", "end", "parent", "stmt")}
                       for buf in self._buffers if buf["name"]]
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump({"missing": missing, "threads": buffers}, out)


def load(path: str) -> dict:
    """A span file written by ``SpanRecorder.dump``."""
    with gzip.open(path, "rt") as inp:
        return json.load(inp)


def install(recorder: SpanRecorder, targets: dict) -> tuple[list[str], callable]:
    """Wrap each target; returns (targets not found, a function that unwraps)."""
    missing, undo = [], []
    for name, (module_name, qualname) in targets.items():
        try:
            module = importlib.import_module(module_name)
            owner_name, __, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapped = recorder.wrap(name, original)
        holders = [owner]
        if not owner_name:
            # ``from module import function`` made other bindings of it
            holders += [m for m in list(sys.modules.values())
                        if m is not None and m is not module
                        and getattr(m, "__name__", "").startswith("repro")
                        and getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, wrapped)
            undo.append((holder, attr, original))

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return missing, uninstall


def layer_times(doc: dict, windows: list[tuple[float, float]]) -> dict:
    """Self seconds and call count per span name, for spans that start and
    end inside one of ``windows``; output spans count only below a retrieve."""
    totals: dict[str, list] = {}
    for buf in doc["threads"]:
        names, starts, ends, parents = (buf["name"], buf["start"], buf["end"],
                                        buf["parent"])
        n = len(names)
        child = [0.0] * n
        under_retrieve = [False] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                under_retrieve[i] = names[p] == OUTPUT_PARENT or under_retrieve[p]
        for i in range(n):
            if ends[i] == 0.0 or not any(lo <= starts[i] and ends[i] <= hi
                                         for lo, hi in windows):
                continue
            name = names[i]
            if name in OUTPUT:
                if not under_retrieve[i]:
                    continue
                name = "output." + name
            slot = totals.setdefault(name, [0.0, 0])
            slot[0] += ends[i] - starts[i] - child[i]
            slot[1] += 1
    return {name: (secs, count) for name, (secs, count) in totals.items()}
