"""Span recording for the traced benchmark run.

The traced run replaces each hooked public function with a wrapper at the
place where the calling module binds it (``spanforge.trainer.forward``, not
``spanforge.encoder.forward``), so every call the program makes through that
binding opens a span. Nothing under ``src/`` changes: the wrappers are set
with ``setattr`` and the original objects are put back when the run ends.

A span has an id, a parent id (the span open when it started, -1 at the
root), a layer name, and start/end clock readings in nanoseconds. Self time
is the span's duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration.
Aggregates cover every span; only the first ``keep`` spans are stored for the
spans file, so a long run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# The benchmark's own span around each op-group it times (a training call, or
# one inference chunk); its self time is what no layer span covers.
ROOT_SPAN = "trainer.loop"


class SpanRecorder:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.empty_results: list[int] = []
        self.pair_calls: dict[tuple[int, int], int] = {}
        self._stack: list[list[int]] = []  # [span id, name id, start ns, child ns]
        self._next_id = 0
        self.dropped = 0
        self.root_ns = 0  # summed duration of spans opened with nothing open
        self._span_id = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.empty_results.append(0)
        return nid

    def open(self, nid: int) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, nid, time.perf_counter_ns(), 0])

    def close(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child_ns
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            psid, pnid = parent[0], parent[1]
        else:
            psid, pnid = -1, -1
            self.root_ns += duration
        key = (pnid, nid)
        self.pair_calls[key] = self.pair_calls.get(key, 0) + 1
        if len(self._span_id) < self.keep:
            self._span_id.append(sid)
            self._parent.append(psid)
            self._name.append(nid)
            self._start.append(start)
            self._end.append(end)
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, count_empty: bool = False):
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close()
            if count_empty and not result:
                recorder.empty_results[nid] += 1
            return result

        return wrapper

    @property
    def kept(self) -> int:
        return len(self._span_id)

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_ns_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.self_ns[nid]

    def empty_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.empty_results[nid]

    def calls_under(self, parent: str, name: str) -> int:
        """Calls of ``name`` whose direct parent span is ``parent``."""
        pnid, nid = self._ids.get(parent), self._ids.get(name)
        if pnid is None or nid is None:
            return 0
        return self.pair_calls.get((pnid, nid), 0)

    def write(self, path: Path) -> None:
        """One header line, then one ``[id, parent, name, start_ns, end_ns]`` per kept span."""
        origin = min(self._start) if self._start else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            header = {"names": self.names, "kept": len(self._span_id), "dropped": self.dropped,
                      "clock": "perf_counter_ns", "origin_ns": origin}
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self._span_id)):
                fh.write(json.dumps([self._span_id[i], self._parent[i], self.names[self._name[i]],
                                     self._start[i] - origin, self._end[i] - origin]) + "\n")


def resolve(binding: str):
    """``"package.module:attr"`` -> (module, attr, object or None)."""
    module_name, attr = binding.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr, None
    return module, attr, getattr(module, attr, None)


@contextmanager
def hooks_installed(recorder: SpanRecorder, layers: dict, count_empty: frozenset):
    """Wrap every binding of every layer; yield the bindings that were missing."""
    restore = []
    missing = []
    try:
        for layer, spec in layers.items():
            for binding in spec["bindings"]:
                module, attr, fn = resolve(binding)
                if fn is None:
                    missing.append(binding)
                    continue
                setattr(module, attr, recorder.wrap(fn, layer, layer in count_empty))
                restore.append((module, attr, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)
