"""Fork-based worker pools sharing one self-healing supervision loop.

The simulator's work units — thread blocks, schedule-exploration seeds —
close over generator functions, device objects, and live NumPy buffers,
none of which survive pickling.  ``fork`` sidesteps that entirely: each
worker is a forked child that *inherits* the parent's full state
(copy-on-write), runs the chunks of tasks it is sent, and ships only the
**results** back over a pipe.  Results must therefore be picklable; the
runner callable need not be.

:class:`WorkerPool` owns the one dispatch/collect/retry/degrade loop.
Tasks are split into contiguous chunks, one per worker, and results are
returned in task order regardless of which worker finished first.  A
task that raises is returned as an :class:`~repro.exec.record.ErrorCapsule`
in its slot rather than aborting the whole map — callers decide what an
error in slot *i* means (for block shards: "serial execution would have
stopped here").

Worker *processes*, on the other hand, can die or wedge — naturally
(OOM-killed, a segfaulting extension) or injected by a
:class:`repro.faults.FaultPlan` at the ``worker.crash``/``worker.hang``
sites, which a worker consults once per dispatched chunk with
coordinates ``chunk`` (the chunk's first task index) and ``attempt``.
The loop recovers instead of aborting (the recovery ladder, governed by
:class:`RetryPolicy`):

1. failed chunks are **retried** with capped, jittered exponential
   backoff, their task indices **redistributed** across the surviving
   and respawned workers;
2. after ``max_retries`` rounds the still-missing tasks **degrade to
   in-process** execution, which cannot suffer worker faults — the map
   always completes.

A ``deadline`` (absolute :func:`time.monotonic` value) turns the map
into a launch watchdog, checked before each dispatch round, while
waiting on workers, and before each in-process task: expiry kills
outstanding workers and raises :class:`~repro.errors.LaunchTimeout`
with progress counts.

Two lifetimes run through that loop:

* :func:`fork_map` is the *per-launch* pool: a one-shot
  :class:`WorkerPool` over task *indices* whose runner is
  ``i -> fn(tasks[i])``, so tasks reach the children by fork
  inheritance, never by pickling; it is closed on every exit path.
  With one worker, ``processes=False``, or no ``fork`` on the platform
  it runs in-process with identical semantics, so results never depend
  on the transport.
* a :class:`WorkerPool` held open is the *persistent warm* pool the
  serve tier (:mod:`repro.serve`) schedules onto: workers fork once,
  stay resident across maps, are health-checked and respawned on loss,
  and see only the picklable payloads they are sent.  Warm pools must
  be closed (``close()``, a ``with`` block, or the module's atexit
  sweep) so forked children never outlive the interpreter.

Block shards inherit the scheduler's engine selection unchanged: a
hook-free launch runs each shard on the fast round engine even inside a
worker, because the exec-layer write recorder is fast-path-compatible
(the block's handler tables specialize on it at construction — see
``docs/PERF.md``); any tracer/monitor/schedule-policy/fault-plan forces
the instrumented engine in the worker exactly as it would serially.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import signal as _signal
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LaunchTimeout
from repro.exec.record import ErrorCapsule


#: Exit code used by injected worker crashes (distinctive in diagnostics).
INJECTED_CRASH_EXIT = 86

#: How long an injected hang sleeps; the parent reaps it long before.
_HANG_SLEEP = 3600.0

#: Default cap on the auto-detected worker count.
MAX_AUTO_WORKERS = 8

#: Hang watchdog applied when a fault plan is attached but the policy
#: does not set one — keeps injected hangs from stalling the suite.
DEFAULT_FAULT_HANG_TIMEOUT = 1.5


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs for :class:`WorkerPool` and :func:`fork_map`.

    ``max_retries`` bounds redistribution rounds (not counting the final
    in-process degradation).  Backoff before retry round *k* is
    ``min(backoff_cap, backoff * 2**(k-1))`` seconds.  ``hang_timeout``
    is how long the parent waits on a chunk's pipe before declaring the
    worker hung (None = wait forever, unless a fault plan is attached —
    then :data:`DEFAULT_FAULT_HANG_TIMEOUT` applies so injected hangs
    are detected promptly).
    """

    max_retries: int = 2
    backoff: float = 0.02
    backoff_cap: float = 0.5
    hang_timeout: Optional[float] = None


def retry_delay(policy: RetryPolicy, attempt: int, *,
                faults=None, salt: object = 0) -> float:
    """Backoff before retry round ``attempt + 1``, with seeded jitter.

    The base is the classic capped exponential
    ``min(backoff_cap, backoff * 2**attempt)``; without jitter,
    concurrent failed chunks (several launches retrying after one
    injected crash wave) sleep in lockstep and re-collide.  The jitter
    factor is drawn in ``[0.5, 1.5)`` from a pure hash of
    ``(plan seed, salt, attempt)`` — deterministic, so a campaign with
    the same seed reproduces the identical retry timing, but distinct
    chunks (distinct ``salt``) de-synchronize.  With no fault plan the
    seed is 0: still jittered, still reproducible.
    """
    base = min(policy.backoff_cap, policy.backoff * (2 ** attempt))
    if base <= 0.0:
        return 0.0
    seed = getattr(faults, "seed", 0) if faults is not None else 0
    key = f"{seed}|backoff|{salt!r}|{attempt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    frac = int.from_bytes(digest, "big") / 2.0 ** 64
    return base * (0.5 + frac)


#: Stats keys :func:`fork_map` maintains in a caller-supplied dict.
STAT_KEYS = (
    "worker_deaths",
    "worker_hangs",
    "chunk_retries",
    "redistributions",
    "degraded_chunks",
    "degraded_tasks",
    "retry_rounds",
)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()


def describe_exit(code: Optional[int]) -> str:
    """Human-readable worker exit status (exit code or signal name)."""
    if code is None:
        return "no exit status"
    if code < 0:
        try:
            name = _signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"


def _chunk(n_tasks: int, workers: int) -> List[range]:
    """Split ``range(n_tasks)`` into ``workers`` contiguous chunks."""
    workers = max(1, min(workers, n_tasks))
    base, rem = divmod(n_tasks, workers)
    chunks, start = [], 0
    for w in range(workers):
        size = base + (1 if w < rem else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

#: Stats keys :meth:`WorkerPool.map` maintains in a caller-supplied dict
#: (a superset of :data:`STAT_KEYS`).
POOL_STAT_KEYS = STAT_KEYS + ("worker_respawns", "warm_dispatches")

#: Live pools swept at interpreter exit so warm workers never outlive
#: the parent (:func:`fork_map` closes its one-shot pool in-band).
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_SWEEP_REGISTERED = False
_SWEEP_LOCK = threading.Lock()


def _sweep_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _register_sweep() -> None:
    global _SWEEP_REGISTERED
    with _SWEEP_LOCK:
        if not _SWEEP_REGISTERED:
            atexit.register(_sweep_pools)
            _SWEEP_REGISTERED = True


def _pool_worker_main(conn, runner: Callable, faults) -> None:
    """Forked-worker entry: serve commands until told to stop.

    Commands over the duplex pipe:

    * ``("ping", nonce)`` — health check, answered ``("pong", nonce)``;
    * ``("run", attempt, [(i, payload), ...])`` — run the chunk through
      ``runner`` and answer ``("done", [(i, status, result), ...])``;
    * ``("stop",)`` — exit cleanly.

    Fault injection happens once per chunk, before any of its work, with
    coordinates ``{"chunk": first task index, "attempt": attempt}``: a
    fired ``worker.crash`` dies with :data:`INJECTED_CRASH_EXIT`, a fired
    ``worker.hang`` sleeps until the parent's watchdog reaps it.  The
    parent re-evaluates the same (stateless) predicates for provenance.
    Exits via ``os._exit``: the child inherited the parent's interpreter
    state (pytest hooks, atexit handlers, open benchmark sessions) and
    must not run any of it on the way out.
    """
    code = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", msg[1]))
                continue
            _, attempt, items = msg
            if faults is not None and items:
                coords = {"chunk": int(items[0][0]), "attempt": int(attempt)}
                # Hang before crash: a plan arming both (the campaign's
                # ``--hang`` leg) pins the hang to one chunk and must not
                # have the broader crash predicate mask it.
                if faults.fires("worker.hang", **coords) is not None:
                    time.sleep(_HANG_SLEEP)
                if faults.fires("worker.crash", **coords) is not None:
                    os._exit(INJECTED_CRASH_EXIT)
            out = []
            for i, payload in items:
                try:
                    out.append((i, "ok", runner(payload)))
                except BaseException as exc:  # ship, don't kill the chunk
                    out.append((i, "err", ErrorCapsule(exc)))
            try:
                conn.send(("done", out))
            except Exception as exc:  # an unpicklable result slipped through
                conn.send(("done", [(i, "err", ErrorCapsule(exc))
                                    for i, _ in items]))
    except BaseException:
        code = 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(code)


def _watchdog_expired(faults, outcomes: list) -> LaunchTimeout:
    """The watchdog's :class:`~repro.errors.LaunchTimeout`, counted once."""
    if faults is not None:
        faults.counters.timeouts += 1
    done = sum(1 for o in outcomes if o is not None)
    return LaunchTimeout(
        f"launch watchdog expired with {done}/{len(outcomes)} tasks done",
        blocks_done=done,
        num_blocks=len(outcomes),
    )


class _PoolWorker:
    """Parent-side handle on one worker process."""

    __slots__ = ("proc", "conn", "slot", "busy_since")

    def __init__(self, proc, conn, slot: int) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot
        self.busy_since: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()

    def collect(self, hang: Optional[float], deadline: Optional[float]):
        """Wait for the dispatched chunk: ``(rows, None)`` on delivery,
        else ``(None, why)`` with ``why`` one of ``"died"``, ``"hung"``,
        or ``"late"`` (the deadline passed first).  The hang clock
        started at dispatch, so several hung workers expire together."""
        while True:
            budgets = []
            if hang is not None:
                budgets.append(hang - (time.monotonic() - self.busy_since))
            if deadline is not None:
                budgets.append(deadline - time.monotonic())
            try:
                if not budgets or self.conn.poll(max(0.0, min(budgets))):
                    return self.conn.recv()[1], None
            except EOFError:
                return None, "died"
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return None, "late"
            if hang is not None and now - self.busy_since >= hang:
                return None, "hung"


class WorkerPool:
    """A health-checked pool of forked workers: the one supervision loop.

    Workers fork on first use and are reused across any number of
    :meth:`map` calls — the serve tier's "workers stay warm across
    launches" requirement (:func:`fork_map` runs a one-shot pool per
    call instead).  Workers inherit the parent's state *at spawn time*,
    so the ``runner`` callable (fixed at construction, inherited by
    fork) must derive everything request-specific from the **picklable
    payload** it receives — it cannot see parent state created after
    the fork.

    The recovery ladder (see the module docstring):

    1. a worker that dies or hangs mid-chunk is killed, its tasks are
       retried with capped exponential backoff and **redistributed**
       across the surviving and freshly **respawned** workers;
    2. after ``retry.max_retries`` rounds the still-missing tasks
       **degrade to in-process** execution of ``runner`` — the map
       always completes;
    3. the ``worker.crash``/``worker.hang`` fault sites fire once per
       dispatched chunk (coordinates ``chunk``/``attempt``), with the
       plan captured at construction so forked children and parent
       agree on the schedule.

    Health-checked reuse: :meth:`ensure` (called before every dispatch)
    respawns any worker whose process has died since the last call, so
    a pool survives sporadic worker loss under sustained load without
    ever being rebuilt wholesale.  Without processes (``processes=False``
    or no ``fork``) every map runs in-process.  Pools must be closed —
    ``close()``, a ``with`` block, or the module's atexit sweep — so
    forked children never outlive the interpreter.
    """

    def __init__(
        self,
        runner: Callable,
        workers: Optional[int] = None,
        *,
        faults=None,
        retry: Optional[RetryPolicy] = None,
        processes: Optional[bool] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.workers = workers or min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        if processes is None:
            processes = fork_available()
        self.processes = bool(processes) and fork_available()
        self._ctx = multiprocessing.get_context("fork") if self.processes else None
        self._slots: List[Optional[_PoolWorker]] = [None] * self.workers
        self._spawned_once = [False] * self.workers
        self._closed = False
        self._lock = threading.Lock()
        self.stats = {key: 0 for key in POOL_STAT_KEYS}
        _register_sweep()
        _LIVE_POOLS.add(self)

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._slots if w is not None]
            self._slots = [None] * self.workers
        for w in workers:
            try:
                w.conn.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + 1.0
        for w in workers:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            w.kill()
        _LIVE_POOLS.discard(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def pids(self) -> List[Optional[int]]:
        """PIDs of the live workers (test/observability surface)."""
        return [w.pid for w in self._slots if w is not None and w.alive()]

    # -- spawning ----------------------------------------------------------
    def _spawn(self, slot: int) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.runner, self.faults),
        )
        proc.daemon = True
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn, slot)

    def ensure(self) -> List[_PoolWorker]:
        """Spawn missing/dead workers; return the live roster."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if not self.processes:
            return []
        live = []
        with self._lock:
            for slot in range(self.workers):
                w = self._slots[slot]
                if w is not None and not w.alive():
                    w.kill()
                    w = None
                    self._slots[slot] = None
                if w is None:
                    w = self._spawn(slot)
                    self._slots[slot] = w
                    if self._spawned_once[slot]:
                        self.stats["worker_respawns"] += 1
                    self._spawned_once[slot] = True
                live.append(w)
        return live

    def _drop(self, w: _PoolWorker) -> None:
        """Kill ``w`` and free its slot for :meth:`ensure` to respawn."""
        w.kill()
        with self._lock:
            if self._slots[w.slot] is w:
                self._slots[w.slot] = None

    # -- dispatch ----------------------------------------------------------
    def map(
        self,
        payloads: Sequence,
        *,
        deadline: Optional[float] = None,
        stats: Optional[dict] = None,
    ) -> List[Tuple[str, object]]:
        """Run ``runner`` over ``payloads``; ordered outcomes.

        Returns one ``("ok", result)`` or ``("err", ErrorCapsule)`` pair
        per payload, in payload order.  ``deadline`` is an absolute
        :func:`time.monotonic` watchdog.  ``stats`` (optional dict)
        receives :data:`POOL_STAT_KEYS` increments; the pool's own
        cumulative :attr:`stats` is always maintained.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        payloads = list(payloads)
        if stats is not None:
            for key in POOL_STAT_KEYS:
                stats.setdefault(key, 0)
        outcomes: List[Optional[Tuple[str, object]]] = [None] * len(payloads)
        self._supervise(payloads, outcomes, deadline, stats)
        return outcomes  # type: ignore[return-value]

    def _supervise(self, payloads: Sequence, outcomes: list,
                   deadline: Optional[float], stats: Optional[dict] = None) -> None:
        """The dispatch/collect/retry/degrade loop behind :meth:`map`.

        Fills ``outcomes`` in place, so a caller can harvest the slots
        already delivered when the watchdog raises.
        """
        sinks = [self.stats] + ([stats] if stats is not None else [])

        def bump(key: str, inc: int = 1) -> None:
            for sink in sinks:
                sink[key] += inc

        n = len(payloads)
        hang = self.retry.hang_timeout
        if hang is None and self.faults is not None:
            hang = DEFAULT_FAULT_HANG_TIMEOUT
        pending = list(range(n))
        failed: List[List[int]] = []
        attempt = 0
        while pending and self.processes and not self._closed:
            if deadline is not None and time.monotonic() >= deadline:
                raise _watchdog_expired(self.faults, outcomes)
            workers = self.ensure()
            bump("warm_dispatches")
            assignments = []  # (worker, [task indices])
            for w, r in zip(workers, _chunk(len(pending), len(workers))):
                indices = [pending[p] for p in r]
                try:
                    w.conn.send(
                        ("run", attempt, [(i, payloads[i]) for i in indices])
                    )
                    w.busy_since = time.monotonic()
                except Exception:
                    # Died between health check and dispatch: retry round.
                    self._drop(w)
                    w.busy_since = None
                assignments.append((w, indices))

            failed = []
            for pos, (w, indices) in enumerate(assignments):
                if w.busy_since is None:  # dispatch itself failed
                    failed.append(indices)
                    bump("worker_deaths")
                    continue
                rows, why = w.collect(hang, deadline)
                if rows is not None:
                    w.busy_since = None
                    for i, status, payload in rows:
                        outcomes[i] = (status, payload)
                    continue
                if why == "late":
                    for late, _ in assignments[pos:]:
                        self._drop(late)
                    raise _watchdog_expired(self.faults, outcomes)
                # Worker died or hung mid-chunk: reap it, queue a retry.
                self._drop(w)
                failed.append(indices)
                bump("worker_deaths" if why == "died" else "worker_hangs")
                if self.faults is not None:
                    site = "worker.crash" if why == "died" else "worker.hang"
                    coords = {"chunk": int(indices[0]), "attempt": attempt}
                    if self.faults.fires(site, **coords) is not None:
                        self.faults.record(
                            site, coords, recovered=True,
                            detail=describe_exit(w.proc.exitcode),
                        )

            pending = sorted(i for indices in failed for i in indices)
            if not pending or attempt >= self.retry.max_retries:
                break
            bump("chunk_retries", len(failed))
            bump("retry_rounds")
            if min(len(pending), self.workers) != len(failed):
                bump("redistributions")
            if self.faults is not None:
                self.faults.counters.chunk_retries += len(failed)
            delay = retry_delay(self.retry, attempt, faults=self.faults,
                                salt=(n, pending[0]))
            if delay > 0:
                time.sleep(delay)
            attempt += 1

        if pending and failed:
            # Degradation floor: in-process execution cannot suffer worker
            # faults, so the map always completes.
            bump("degraded_chunks", len(failed))
            bump("degraded_tasks", len(pending))
            if self.faults is not None:
                self.faults.counters.degradations += 1
        for i in pending:
            if deadline is not None and time.monotonic() >= deadline:
                raise _watchdog_expired(self.faults, outcomes)
            try:
                outcomes[i] = ("ok", self.runner(payloads[i]))
            except BaseException as exc:
                outcomes[i] = ("err", ErrorCapsule(exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, processes={self.processes}, "
            f"live={len(self.pids())}, closed={self._closed})"
        )


def fork_map(
    fn: Callable,
    tasks: Sequence,
    workers: Optional[int] = None,
    processes: bool = True,
    *,
    faults=None,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
    stats: Optional[dict] = None,
    partial: Optional[list] = None,
) -> List[Tuple[str, object]]:
    """Run ``fn`` over ``tasks`` on a one-shot :class:`WorkerPool`.

    Returns one ``("ok", result)`` or ``("err", ErrorCapsule)`` pair per
    task, in task order.  ``workers=None`` uses one worker per available
    CPU (capped at :data:`MAX_AUTO_WORKERS`); one worker or
    ``processes=False`` runs in-process without forking.  The pool's
    payloads are task *indices* and its runner is ``i -> fn(tasks[i])``,
    so neither ``fn`` nor the tasks are pickled: the forked children
    inherit them.  The pool is closed on every exit path.

    ``faults`` (a :class:`repro.faults.FaultPlan` consulted at the
    worker hook sites), ``retry`` (a :class:`RetryPolicy`) and
    ``deadline`` (an absolute :func:`time.monotonic` watchdog) configure
    the pool; ``stats`` (a dict) receives the :data:`STAT_KEYS` counts.

    ``partial`` (a list) is the checkpoint harvest sink: when the
    watchdog raises :class:`~repro.errors.LaunchTimeout` mid-map, the
    ``("ok", result)`` outcomes already collected are appended to it
    before the raise, so callers can checkpoint completed work instead
    of discarding it (see :mod:`repro.faults.checkpoint`).
    """
    tasks = list(tasks)
    if stats is not None:
        for key in STAT_KEYS:
            stats.setdefault(key, 0)
    if not tasks:
        return []
    if workers is None:
        workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
    workers = max(1, min(int(workers), len(tasks)))
    pool = WorkerPool(lambda i: fn(tasks[i]), workers, faults=faults,
                      retry=retry, processes=bool(processes) and workers > 1)
    outcomes: List[Optional[Tuple[str, object]]] = [None] * len(tasks)
    try:
        pool._supervise(range(len(tasks)), outcomes, deadline)
    except LaunchTimeout:
        if partial is not None:
            partial.extend(o for o in outcomes if o is not None and o[0] == "ok")
        raise
    finally:
        pool.close()
        if stats is not None:
            for key in STAT_KEYS:
                stats[key] += pool.stats[key]
    return outcomes  # type: ignore[return-value]
