"""Spans and a per-package sampling profiler for the traced benchmark run.

Everything here wraps the program from the outside: :meth:`Tracer.wrap`
replaces a public function or method with a timing shim for the life of
one measured pass and :meth:`Tracer.unwrap` puts the original back.
Nothing in ``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent, thread, key)``.  ``parent`` is
the enclosing span on the same thread (0 for a root), ``key`` names the
launch index or request it belongs to.  Spans stay in memory until the
pass ends, then :meth:`Tracer.write` dumps them as JSON lines and as a
Chrome trace-event file (open it in ``chrome://tracing`` or Perfetto).

:class:`PackageProfiler` attributes self time to ``repro`` packages on
*every* thread of the pass process, so the serve dispatch thread (where
batches execute) is covered, not only the main thread.  Forked worker
processes are not profiled: their profile is absent, and the parent's
time waiting on them shows up as ``idle``.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import json
import os
import pstats
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (id, name, start, end, parent, thread ident, key)
Span = Tuple[int, str, float, float, int, int, object]


class Tracer:
    """Records spans around wrapped calls; undoes its wrappers on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.key: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a shim recording span ``name``.

        ``key(args, kwargs)`` names the span's launch or request (default:
        the tracer's current :attr:`key`); ``on_result(result, args, kwargs)``
        sees each return, for counters read where the work happened.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            span_key = key(args, kwargs) if key is not None else tracer.key
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), span_key))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, shim)
        self._undo.append((owner, attr, orig))

    def record(self, name: str, start: float, end: float,
               key: object = None) -> None:
        """Add a root span timed by the caller (e.g. one request, whose
        submit and reply interleave with others on the event loop)."""
        self.spans.append((next(self._ids), name, start, end, 0,
                           threading.get_ident(), key))

    @contextlib.contextmanager
    def span(self, name: str, key: object = None):
        """Time a block of the benchmark's own code as a span; wrapped
        calls made inside it become its children."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), key))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the time its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        out = {}
        for sid, _, start, end, *_ in self.spans:
            covered = 0.0
            cursor = start
            for child in sorted(children.get(sid, ()), key=lambda s: s[2]):
                lo, hi = max(child[2], cursor), min(child[3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sid] = (end - start) - covered
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, *_ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += selfs[sid]
        return out

    def outer_seconds(self, *names: str) -> float:
        """Inclusive seconds of spans named in ``names`` that are not
        nested in another such span (a layer re-entered counts once)."""
        wanted = set(names)
        name_of = {s[0]: s[1] for s in self.spans}
        parent_of = {s[0]: s[4] for s in self.spans}
        total = 0.0
        for sid, name, start, end, parent, *_ in self.spans:
            if name not in wanted:
                continue
            p = parent
            while p and name_of.get(p) not in wanted:
                p = parent_of.get(p, 0)
            if not p:
                total += end - start
        return total

    def write(self, stem: str) -> List[str]:
        """Write ``<stem>.spans.jsonl`` and ``<stem>.trace.json``."""
        os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        lines = f"{stem}.spans.jsonl"
        with open(lines, "w") as fh:
            for sid, name, start, end, parent, tid, key in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "thread": tid,
                    "key": key,
                }) + "\n")
        events = [{
            "name": name, "ph": "X", "pid": os.getpid(), "tid": tid,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": sid, "parent": parent, "key": key},
        } for sid, name, start, end, parent, tid, key in self.spans]
        chrome = f"{stem}.trace.json"
        with open(chrome, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return [lines, chrome]


#: C functions in which a thread is parked, not working: by name, and
#: the blocking queue read an idle executor thread sits in.
_IDLE_BUILTINS = frozenset({"acquire", "poll", "select", "sleep", "recv",
                            "recv_bytes", "wait", "accept", "waitpid",
                            "read", "readinto"})
_IDLE_METHODS = frozenset({"<method 'get' of '_queue.SimpleQueue' objects>"})


def _builtin_name(func: str) -> str:
    """``<method 'acquire' of ...>`` → ``acquire``; ``<built-in method
    time.sleep>`` → ``sleep``."""
    if func.startswith("<method '"):
        return func.split("'")[1]
    return func.rstrip(">").rsplit(".", 1)[-1].rsplit(" ", 1)[-1]


class PackageProfiler:
    """Deterministic per-package self time on every thread.

    :meth:`start` enables a ``cProfile`` profiler on the calling thread
    and, through :func:`threading.setprofile`, on every thread started
    afterwards (the serve dispatch and journal threads).  Forked children
    switch theirs off.  Each function's self time goes to a bucket: the
    ``repro`` sub-package owning its code (``gpu``, ``runtime``,
    ``codegen``, ``kernels``, ...), ``numpy``, ``builtins`` (C functions),
    ``bench`` (this benchmark), ``idle`` (a C call that blocks, such as
    a lock wait or ``select``) or ``other``.  A package's self share is
    its time over all non-idle time.  ``cProfile`` taxes every Python
    call and no native work, so call-heavy packages read high.
    """

    def __init__(self, repro_root: str, bench_root: str) -> None:
        self.repro_root = os.path.realpath(repro_root) + os.sep
        self.bench_root = os.path.realpath(bench_root) + os.sep
        self.seconds: Counter = Counter()
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._started = 0.0
        #: Seconds between :meth:`start` and :meth:`stop`.
        self.wall = 0.0

    def _enable_here(self, *_):
        sys.setprofile(None)
        prof = cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()

    def start(self) -> None:
        threading.setprofile(self._enable_here)
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
        self._started = time.perf_counter()
        self._enable_here()

    def stop(self) -> None:
        self.wall = time.perf_counter() - self._started
        threading.setprofile(None)
        for prof in self._profiles:
            prof.disable()
            for (path, _, func), row in pstats.Stats(prof).stats.items():
                self.seconds[self._bucket(path, func)] += row[2]

    def _bucket(self, path: str, func: str) -> str:
        if path == "~":
            if func in _IDLE_METHODS or _builtin_name(func) in _IDLE_BUILTINS:
                return "idle"
            return "numpy" if "numpy" in func else "builtins"
        real = os.path.realpath(path)
        if real.startswith(self.repro_root):
            head = real[len(self.repro_root):].split(os.sep, 1)[0]
            return head[:-3] if head.endswith(".py") else head
        if real.startswith(self.bench_root):
            return "bench"
        if f"{os.sep}numpy{os.sep}" in real:
            return "numpy"
        return "other"

    def shares(self) -> Dict[str, float]:
        busy = sum(v for b, v in self.seconds.items() if b != "idle")
        return {b: v / busy for b, v in self.seconds.items()
                if b != "idle" and busy}

    def busy_seconds(self) -> float:
        return sum(v for b, v in self.seconds.items() if b != "idle")
