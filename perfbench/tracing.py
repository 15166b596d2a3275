"""In-memory span recorder and the wrappers that feed it.

A span is ``(id, name, start_ns, end_ns, parent_id, attempt)``. Spans nest
per thread: the parent is the innermost span still open on the calling
thread. ``attempt`` labels every span with the rejection-sampling attempt
the thread is working on (set when ``derive_seed`` is called for it), or
-1 outside an attempt. Times come from ``time.monotonic_ns``, one clock
for every process on the machine, so the stub server's spans line up with
the client's.

Nothing here is imported by rsdkit: the benchmark installs the wrappers on
module attributes and methods from outside, and writes the spans out once
the command has finished.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.attempts: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def add(self, counter: str, value: int = 1) -> None:
        with self._lock:
            self.counters[counter] += value

    def set_attempt(self, label: str) -> None:
        with self._lock:
            self._local.attempt = self.attempts.setdefault(label, len(self.attempts))

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._name_id(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, start, end, parent, getattr(local, "attempt", -1)))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a method) by its traced form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def dump(self, path) -> None:
        payload = {
            "names": sorted(self.names, key=self.names.get),
            "attempts": sorted(self.attempts, key=self.attempts.get),
            "counters": dict(self.counters),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def load_spans(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
