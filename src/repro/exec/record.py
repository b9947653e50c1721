"""Per-block execution records: write-sets, atomic logs, and error capsules.

The parallel launch engine (:mod:`repro.exec.engine`) runs every thread
block against a *read-snapshot* of global memory and ships a
:class:`BlockRecord` back to the coordinator.  Two pieces make that
possible:

:class:`GlobalWriteRecorder`
    The block scheduler's mutation hook.  It observes every global-memory
    store and atomic a block performs (in exact commit order), remembers
    the overwritten values so the block's effects can be *undone* —
    restoring the snapshot for the next block in the shard — and compacts
    the observations into the record's merge inputs:

    * ``write_set`` — final value per plainly-stored element (cells no
      atomic ever touched); replayed last-writer-wins in block order;
    * ``oplog`` — the chronological store/atomic sequence for cells that
      at least one atomic touched; replayed op-by-op through
      :func:`repro.gpu.atomics.apply_atomic` so read-modify-write results
      compose exactly as a serial launch would have produced them.  Each
      atomic entry also carries the old value the block *observed* under
      its snapshot — the merge's read-validation handle for detecting
      blocks whose behaviour depended on another block's atomics.

    Only buffers that existed *before* the launch (handle below the
    watermark) are tracked: buffers a kernel allocates while running
    (e.g. the runtime's per-team ``dyn_counter`` scratch) are block-local
    by construction and never merged.

:class:`ErrorCapsule`
    A transport-safe wrapper for exceptions raised inside a worker.  The
    original exception object is carried when it pickles (the normal case
    — every :mod:`repro.errors` type does); otherwise the capsule falls
    back to ``(type name, message, attrs)`` and reconstructs an instance
    of the same class on the coordinator side.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Oplog entry tags.
OP_STORE = "s"
OP_ATOMIC = "a"


class GlobalWriteRecorder:
    """Undoable log of one block's global-memory mutations.

    ``watermark`` is the global-memory handle watermark
    (:meth:`repro.gpu.memory.GlobalMemory.mark`) taken before the launch:
    only writes to buffers allocated before it are tracked.  The block
    scheduler calls :meth:`on_store` *before* applying a store (so the
    overwritten values can be captured) and :meth:`on_atomic` *after*
    applying an atomic (the old value is the atomic's own result).
    """

    __slots__ = ("watermark", "_log", "track_reads", "read_cells")

    def __init__(self, watermark: int, track_reads: bool = False) -> None:
        self.watermark = int(watermark)
        # ('s', buf, idx, old, new) | ('a', buf, idx, op, operand, old)
        self._log: List[tuple] = []
        #: When sanitizing, the merge also needs the cells a block *read*
        #: to decide whether the serial monitor could have flagged a
        #: cross-block race involving them.
        self.track_reads = bool(track_reads)
        self.read_cells: set = set()

    # -- scheduler hooks ---------------------------------------------------
    def tracks(self, buf) -> bool:
        return 0 < buf.handle < self.watermark

    def on_load(self, buf, idxs) -> None:
        """Record read cells (only when ``track_reads``; values not kept)."""
        handle = buf.handle
        for i in idxs:
            self.read_cells.add((handle, int(i)))

    def on_store(self, buf, idx, value) -> None:
        """Record one element store (called just before the write applies).

        The scheduler interleaves the hook with the writes element by
        element so a :class:`~repro.errors.MemoryFault` mid-run leaves
        exactly the prefix a serial launch would have left — ``buf.read``
        bounds-checks with the same fault the write itself would raise.
        """
        self._log.append((OP_STORE, buf, int(idx), buf.read(idx), value))

    def on_atomic(self, buf, idx, op, operand, old) -> None:
        """Record one applied atomic (old value already in hand)."""
        if not self.tracks(buf):
            return
        self._log.append((OP_ATOMIC, buf, int(idx), op, operand, old))

    # -- lifecycle ---------------------------------------------------------
    def undo(self) -> None:
        """Revert every recorded mutation, restoring the pre-block snapshot."""
        for entry in reversed(self._log):
            if entry[0] == OP_STORE:
                _, buf, idx, old, _new = entry
            else:
                _, buf, idx, _op, _operand, old = entry
            buf.data[idx] = old
            buf.mark_dirty_sel(idx)

    def extract(self) -> Tuple[Dict[Tuple[int, int], object], List[tuple]]:
        """Compact the log into ``(write_set, oplog)`` keyed by handle.

        Cells at least one atomic touched keep their full chronological
        op sequence (interleaving matters for replay); purely-stored
        cells compact to their final value.
        """
        atomic_cells = {
            (e[1].handle, e[2]) for e in self._log if e[0] == OP_ATOMIC
        }
        write_set: Dict[Tuple[int, int], object] = {}
        oplog: List[tuple] = []
        for e in self._log:
            key = (e[1].handle, e[2])
            if e[0] == OP_STORE:
                if key in atomic_cells:
                    oplog.append((OP_STORE, key[0], key[1], e[4]))
                else:
                    write_set[key] = e[4]
            else:
                # Keep the old value the block *observed* under its
                # snapshot: the merge validates it against the replayed
                # value to detect cross-block atomic dependence.
                oplog.append((OP_ATOMIC, key[0], key[1], e[3], e[4], e[5]))
        return write_set, oplog


class ErrorCapsule:
    """A worker-side exception, shipped to (and re-raised by) the coordinator."""

    __slots__ = ("exception", "type_name", "message", "attrs")

    #: Structured-provenance attributes worth preserving across transport.
    _ATTRS = ("block_id", "round", "lanes", "buffer", "index", "sites")

    def __init__(self, exc: BaseException) -> None:
        self.type_name = type(exc).__name__
        self.message = str(exc)
        self.attrs = {}
        for name in self._ATTRS:
            val = getattr(exc, name, None)
            if val is not None:
                self.attrs[name] = val
        self.exception: Optional[BaseException] = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            # Unpicklable (e.g. a kernel raised something holding a live
            # generator); fall back to reconstruction from the fields.
            self.exception = None

    def __getstate__(self):
        return (self.exception, self.type_name, self.message, self.attrs)

    def __setstate__(self, state):
        self.exception, self.type_name, self.message, self.attrs = state

    def rebuild(self) -> BaseException:
        if self.exception is not None:
            return self.exception
        import builtins

        from repro import errors as _errors

        cls = getattr(_errors, self.type_name, None)
        if cls is None:
            cls = getattr(builtins, self.type_name, None)
        if not (isinstance(cls, type) and issubclass(cls, BaseException)):
            cls = _errors.SimulationError
        try:
            exc = cls(self.message)
        except Exception:
            exc = _errors.SimulationError(f"{self.type_name}: {self.message}")
        for name, val in self.attrs.items():
            try:
                setattr(exc, name, val)
            except Exception:
                pass
        return exc

    def reraise(self) -> None:
        raise self.rebuild()


@dataclass
class BlockRecord:
    """Everything one isolated block execution produced.

    The coordinator merges records in ascending ``block_id``; a record
    with ``error`` set marks the cutoff — serial execution would never
    have run any later block.
    """

    block_id: int
    #: Scheduler counters (partial if the block errored mid-run).
    counters: object = None
    #: Shared-memory bytes the block used (0 unless it ran to completion,
    #: mirroring the serial launch loop, which skips the update when a
    #: block deadlocks in report mode).
    shared_used: int = 0
    completed: bool = False
    #: Final values of plainly-stored global cells: (handle, idx) -> value.
    write_set: Dict[Tuple[int, int], object] = field(default_factory=dict)
    #: Chronological store/atomic ops on atomic-touched cells.
    oplog: List[tuple] = field(default_factory=list)
    #: Tracked cells the block read (populated only under the sanitizer;
    #: drives cross-block race fallback in the merge).
    read_cells: set = field(default_factory=set)
    #: Per-block sanitizer report (None when not sanitizing).
    report: object = None
    #: Global allocations the kernel made and never freed (e.g. the
    #: runtime's per-team ``dyn_counter``, a leaked sharing fallback),
    #: captured as ``(name, size, dtype, dirty_pages)`` — only the pages
    #: the kernel actually wrote travel (the rest is still the zero fill
    #: a fresh allocation starts with) — so the coordinator can recreate
    #: them; serial launches leave them live in global memory and tests
    #: assert on ``live_bytes`` growth.
    live_allocs: List[tuple] = field(default_factory=list)
    #: Per-block numeric deltas of the launch's side-state objects.
    side_deltas: Tuple[Dict[str, float], ...] = ()
    #: Exception the block raised, if any.
    error: Optional[ErrorCapsule] = None
