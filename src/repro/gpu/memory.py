"""Device memory model: buffers, global memory, and per-block shared memory.

Memory is modelled at element granularity on top of NumPy storage.  Every
allocation is a :class:`Buffer` — a flat, typed array with a byte *base
address* inside its memory space, so the coalescing model can reason about
real byte addresses, and a *handle* (a 64-bit integer) so device code can
pass references through argument payloads exactly like the ``void *``
pointers the paper's runtime ships between threads.

Spaces
======

``global``
    Device-wide memory.  One :class:`GlobalMemory` per device; allocations
    live until freed.  Handles index a device-wide object table.
``shared``
    Per-block scratchpad of fixed capacity with a bump allocator
    (:class:`SharedMemory`).  The OpenMP runtime carves its *variable
    sharing space* out of this, as described in §5.3.1 of the paper.
``local``
    Lane-private memory.  Modelled as ordinary :class:`Buffer` objects
    tagged ``local``; accesses cost register-file rates.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import AllocationError, MemoryFault
from repro.gpu.events import T_LOAD, T_STORE, _sig

#: Valid memory space tags.
SPACES = ("global", "shared", "local")

#: Alignment (bytes) applied to every allocation; matches CUDA's 256-byte
#: alignment for global allocations, kept smaller for shared memory.
GLOBAL_ALIGN = 256
SHARED_ALIGN = 8

#: Elements per dirty-tracking page.  Matches the scrub tier's CRC page so
#: one page index means the same span to the snapshot, the scrubber, and
#: the parallel merge.  256 elements keeps the bitmap tiny (1 byte per
#: 1-2 KiB of data) while a sparse kernel still dirties only a handful of
#: pages in a megabyte-scale buffer.
PAGE_ELEMS = 256
PAGE_SHIFT = 8  # log2(PAGE_ELEMS); pages are idx >> PAGE_SHIFT


#: Element-type set of a run :meth:`Buffer.read_run` may gather directly.
_INT_ONLY = {int}


def _dtype_of(dtype) -> np.dtype:
    return np.dtype(dtype)


class Buffer:
    """A flat, typed device allocation.

    Parameters
    ----------
    name:
        Diagnostic label.
    space:
        One of :data:`SPACES`.
    size:
        Element count.
    dtype:
        NumPy dtype of the elements.
    base:
        Byte address of element 0 within the owning space.
    handle:
        Device-wide integer handle (0 means "not registered").
    data:
        Optional backing array (shared with the host); a fresh zeroed array
        is created when omitted.
    """

    __slots__ = (
        "name",
        "space",
        "size",
        "dtype",
        "itemsize",
        "base",
        "handle",
        "data",
        "sig_load",
        "sig_store",
        "npages",
        "dirty",
        "snap_epoch",
    )

    def __init__(
        self,
        name: str,
        space: str,
        size: int,
        dtype,
        base: int = 0,
        handle: int = 0,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if space not in SPACES:
            raise ValueError(f"unknown memory space {space!r}")
        if size < 0:
            raise ValueError("negative buffer size")
        self.name = name
        self.space = space
        self.size = int(size)
        self.dtype = _dtype_of(dtype)
        self.itemsize = self.dtype.itemsize
        self.base = int(base)
        self.handle = int(handle)
        # Issue-group signatures of loads/stores against this buffer are a
        # pure function of the space, so they are computed once here and
        # picked up by the Load/Store event constructors without re-interning
        # per event.
        self.sig_load = _sig(T_LOAD, space)
        self.sig_store = _sig(T_STORE, space)
        if data is None:
            data = np.zeros(self.size, dtype=self.dtype)
        else:
            data = np.ascontiguousarray(data).reshape(-1)
            if data.size != self.size:
                raise ValueError(
                    f"backing array has {data.size} elements, expected {self.size}"
                )
            if data.dtype != self.dtype:
                raise ValueError(
                    f"backing array dtype {data.dtype} != declared {self.dtype}"
                )
        self.data = data
        # Dirty-page bitmap: one byte per PAGE_ELEMS-element page, set by
        # every mutating path (write/scatter/fill_from/flip_bit and the
        # engines' inlined stores).  Snapshots clear it to open a tracking
        # window; ``snap_epoch`` counts those clears so a snapshot can tell
        # whether the bits still describe *its* window (see
        # repro.faults.scrub.MemorySnapshot).
        self.npages = max(1, (self.size + PAGE_ELEMS - 1) >> PAGE_SHIFT)
        self.dirty = bytearray(self.npages)
        self.snap_epoch = 0

    # -- element access (scheduler-side) ----------------------------------
    def check_index(self, idx: int) -> None:
        """Raise :class:`MemoryFault` unless ``0 <= idx < size``."""
        if not 0 <= idx < self.size:
            raise MemoryFault(
                f"index {idx} out of bounds for buffer {self.name!r} "
                f"({self.space}, size {self.size})"
            )

    def read(self, idx: int):
        self.check_index(int(idx))
        return self.data[int(idx)]

    def read_run(self, idxs) -> tuple:
        """Read an unrolled access run: the values at ``idxs``, in order.

        A run of plain Python ``int`` indices pays one ``min``/``max``
        bounds check and one C-level gather.  Anything else — an empty
        run, a negative or out-of-range index, a NumPy integer or a float
        — takes the in-order :meth:`read` walk, so the first bad index
        raises the canonical :class:`MemoryFault`, non-int indices keep
        their ``int()`` truncation, and a negative index never wraps.
        """
        if (
            set(map(type, idxs)) == _INT_ONLY
            and min(idxs) >= 0
            and max(idxs) < self.size
        ):
            get = itemgetter(*idxs)
            return get(self.data) if len(idxs) > 1 else (get(self.data),)
        return tuple([self.read(i) for i in idxs])

    def write(self, idx: int, value) -> None:
        i = int(idx)
        self.check_index(i)
        self.data[i] = value
        self.dirty[i >> PAGE_SHIFT] = 1

    def byte_address(self, idx: int) -> int:
        """Byte address of element ``idx`` within this buffer's space."""
        return self.base + int(idx) * self.itemsize

    # -- bulk access (parallel merge) ----------------------------------------
    @staticmethod
    def _as_index_array(idxs) -> np.ndarray:
        idx = np.asarray(idxs)
        if idx.dtype != np.int64:
            # Same truncation-toward-zero the scalar engines apply via
            # ``int(idx)``.
            idx = idx.astype(np.int64)
        return idx

    def gather(self, idxs) -> np.ndarray:
        """Bulk read of an integer index array.

        Returns a fresh array (never a view).  Out-of-bounds access raises
        the canonical :class:`MemoryFault` for the first bad index in
        ascending position order — bit-identical to an elementwise
        ``read`` walk.
        """
        idx = self._as_index_array(idxs)
        if idx.size:
            valid = (idx >= 0) & (idx < self.size)
            if not valid.all():
                self.check_index(int(idx[int(np.argmin(valid))]))
        return self.data[idx]

    def scatter(self, idxs, values) -> None:
        """Bulk write to an integer index array, with
        prefix-commit-then-fault semantics.

        Elements strictly before the first out-of-bounds position commit
        (in ascending position order, duplicates last-wins), then the
        canonical :class:`MemoryFault` is raised — matching an
        elementwise ``write`` walk exactly.
        """
        idx = self._as_index_array(idxs)
        if idx.size:
            valid = (idx >= 0) & (idx < self.size)
            if not valid.all():
                bad = int(np.argmin(valid))
                self.data[idx[:bad]] = _value_prefix(values, bad)
                self.mark_dirty_indices(idx[:bad])
                self.check_index(int(idx[bad]))
        self.data[idx] = values
        self.mark_dirty_indices(idx)

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    def to_numpy(self) -> np.ndarray:
        """Host copy of the buffer contents."""
        return self.data.copy()

    def fill_from(self, array) -> None:
        """Copy host data into the buffer (sizes must match)."""
        arr = np.ascontiguousarray(array).reshape(-1)
        if arr.size != self.size:
            raise ValueError("size mismatch in fill_from")
        self.data[:] = arr
        self.mark_all_dirty()

    def flip_bit(self, idx: int, bit: int) -> None:
        """Flip one bit of element ``idx`` in place (fault injection).

        The flip is applied to the raw storage bytes, so it models a
        physical upset rather than an arithmetic perturbation — for float
        dtypes the flipped word may decode to anything, including NaN.
        Used by :mod:`repro.faults.scrub`; out-of-range ``bit`` raises.
        """
        self.check_index(int(idx))
        nbits = self.itemsize * 8
        if not 0 <= bit < nbits:
            raise ValueError(f"bit {bit} out of range for {self.dtype} element")
        raw = self.data.view(np.uint8)
        byte = int(idx) * self.itemsize + bit // 8
        raw[byte] ^= np.uint8(1 << (bit % 8))
        # A flip is a mutation like any other: the O(dirty) rollback path
        # must re-copy this page even when the scrubber is disabled.
        self.dirty[int(idx) >> PAGE_SHIFT] = 1

    # -- dirty-page tracking ------------------------------------------------
    def mark_dirty_span(self, start: int, stop: int) -> None:
        """Mark every page overlapping elements ``[start, stop)`` dirty."""
        if stop > start:
            lo = start >> PAGE_SHIFT
            hi = ((stop - 1) >> PAGE_SHIFT) + 1
            self.dirty[lo:hi] = b"\x01" * (hi - lo)

    def mark_dirty_indices(self, idx: np.ndarray) -> None:
        """Mark the pages covering an integer index array dirty."""
        if len(idx):
            dirty = self.dirty
            for page in np.unique(np.asarray(idx) >> PAGE_SHIFT):
                dirty[page] = 1

    def mark_dirty_sel(self, sel) -> None:
        """Mark pages for a store selector: an int or an index array."""
        if isinstance(sel, (int, np.integer)):
            self.dirty[int(sel) >> PAGE_SHIFT] = 1
        else:
            self.mark_dirty_indices(sel)

    def mark_all_dirty(self) -> None:
        self.dirty = bytearray(b"\x01" * self.npages)

    def clear_dirty(self) -> None:
        """Open a fresh tracking window (bumps :attr:`snap_epoch`)."""
        self.dirty = bytearray(self.npages)
        self.snap_epoch += 1

    def dirty_page_indices(self) -> np.ndarray:
        """Indices of pages written since the last :meth:`clear_dirty`."""
        return np.flatnonzero(np.frombuffer(self.dirty, dtype=np.uint8))

    def page_span(self, page: int) -> Tuple[int, int]:
        """Element span ``[lo, hi)`` of ``page`` (last page may be short)."""
        lo = int(page) << PAGE_SHIFT
        return lo, min(lo + PAGE_ELEMS, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Buffer({self.name!r}, {self.space}, size={self.size}, "
            f"dtype={self.dtype}, base={self.base:#x}, handle={self.handle})"
        )


def _value_prefix(values, n: int):
    """First ``n`` committed values (scalars broadcast as-is)."""
    if np.ndim(values) == 0:
        return values
    return values[:n]


def _align(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class GlobalMemory:
    """Device-wide memory: allocator, handle table, and live-byte accounting.

    The handle table doubles as the simulator's "pointer" namespace: payload
    slots store 64-bit handles; :meth:`lookup` resolves a handle back to its
    buffer, which is what ``invokeMicrotask`` does when unpacking arguments.
    """

    def __init__(self, capacity: int = 1 << 34) -> None:
        self.capacity = int(capacity)
        self._next_base = GLOBAL_ALIGN  # keep 0 as a null address
        self._next_handle = 1  # 0 is the null handle
        self._buffers: Dict[int, Buffer] = {}
        # Freed address extents, kept sorted by base and coalesced on
        # insert: ``[base, span]`` pairs of GLOBAL_ALIGN-granular byte
        # ranges available for reuse.  Handles stay monotonic forever —
        # only *addresses* recycle — so ``mark``/``allocated_since``
        # semantics and handle-keyed snapshots are unaffected by churn.
        self._free_extents: list[list[int]] = []
        self.live_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    @staticmethod
    def _extent_span(nbytes: int) -> int:
        """Aligned bytes an allocation consumes (what the bump pointer
        advanced by: at least one byte, rounded up to GLOBAL_ALIGN)."""
        return _align(max(int(nbytes), 1), GLOBAL_ALIGN)

    @property
    def address_high_water(self) -> int:
        """First never-allocated byte address (churn regression metric)."""
        return self._next_base

    # -- allocation --------------------------------------------------------
    def alloc(self, name: str, size: int, dtype) -> Buffer:
        """Allocate ``size`` elements of ``dtype``; returns a registered buffer."""
        dt = _dtype_of(dtype)
        nbytes = int(size) * dt.itemsize
        if self.live_bytes + nbytes > self.capacity:
            raise AllocationError(
                f"global memory exhausted: requested {nbytes} bytes, "
                f"{self.capacity - self.live_bytes} available"
            )
        span = self._extent_span(nbytes)
        base = 0
        # First fit from the recycled extents; fall back to the bump
        # pointer.  A fresh (free-less) allocation sequence therefore
        # produces the exact base sequence the pure bump allocator did.
        for i, (fbase, fspan) in enumerate(self._free_extents):
            if fspan >= span:
                base = fbase
                if fspan == span:
                    del self._free_extents[i]
                else:
                    self._free_extents[i] = [fbase + span, fspan - span]
                break
        if not base:
            base = self._next_base
            self._next_base = base + span
        handle = self._next_handle
        self._next_handle += 1
        buf = Buffer(name, "global", size, dt, base=base, handle=handle)
        self._buffers[handle] = buf
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.alloc_count += 1
        return buf

    def from_array(self, name: str, array) -> Buffer:
        """Allocate and initialise a buffer from host data."""
        arr = np.ascontiguousarray(array).reshape(-1)
        buf = self.alloc(name, arr.size, arr.dtype)
        buf.data[:] = arr
        buf.mark_all_dirty()
        return buf

    def scalar(self, name: str, value, dtype=None) -> Buffer:
        """Allocate a 1-element buffer holding ``value`` (a boxed scalar)."""
        dt = _dtype_of(dtype) if dtype is not None else np.asarray(value).dtype
        buf = self.alloc(name, 1, dt)
        buf.data[0] = value
        buf.dirty[0] = 1
        return buf

    def free(self, buf: Buffer) -> None:
        """Release a buffer; its handle becomes invalid.

        The buffer's address extent is recycled: coalesced into the
        sorted free list, and — when the freed range reaches the bump
        pointer — the pointer itself rewinds, so alloc/free churn keeps
        both ``live_bytes`` and the address high-water stable instead of
        growing ``_next_base`` without bound.
        """
        if buf.handle not in self._buffers:
            raise MemoryFault(f"double free or foreign buffer {buf.name!r}")
        del self._buffers[buf.handle]
        self.live_bytes -= buf.nbytes
        self.free_count += 1
        if buf.space == "global" and buf.base:
            self._release_extent(buf.base, self._extent_span(buf.nbytes))

    def _release_extent(self, base: int, span: int) -> None:
        extents = self._free_extents
        i = bisect.bisect_left(extents, [base, 0])
        # Coalesce with the neighbour below, then above.
        if i > 0 and extents[i - 1][0] + extents[i - 1][1] == base:
            i -= 1
            extents[i][1] += span
        else:
            extents.insert(i, [base, span])
        if i + 1 < len(extents) and extents[i][0] + extents[i][1] == extents[i + 1][0]:
            extents[i][1] += extents[i + 1][1]
            del extents[i + 1]
        # Rewind the bump pointer over a freed tail extent.
        if extents and extents[-1][0] + extents[-1][1] == self._next_base:
            tail = extents.pop()
            self._next_base = tail[0]

    def is_live(self, buf: Buffer) -> bool:
        """Whether ``buf`` still owns its handle (cleanup-path guard)."""
        return self._buffers.get(buf.handle) is buf

    # -- handles -----------------------------------------------------------
    def register(self, buf: Buffer) -> int:
        """Assign a device-wide handle to a buffer from another space.

        Shared-memory and local buffers get handles through here so their
        references can travel inside argument payloads.
        """
        if buf.handle and buf.handle in self._buffers:
            return buf.handle
        handle = self._next_handle
        self._next_handle += 1
        buf.handle = handle
        self._buffers[handle] = buf
        return handle

    def lookup(self, handle: int) -> Buffer:
        try:
            return self._buffers[int(handle)]
        except KeyError:
            raise MemoryFault(f"dangling or null handle {handle}") from None

    def live_buffers(self) -> Iterable[Buffer]:
        return list(self._buffers.values())

    # -- snapshot support (repro.exec) --------------------------------------
    def mark(self) -> int:
        """Handle watermark: buffers allocated later have handles >= it.

        The parallel launch engine takes a mark before running any block;
        pre-launch buffers (below the mark) are tracked and merged, while
        kernel-time allocations are block-local by the execution model.
        """
        return self._next_handle

    def allocated_since(self, mark: int) -> Iterable[Buffer]:
        """Live buffers whose handles were issued at or after ``mark``.

        Handles are issued monotonically and dict insertion order
        preserves issue order, so plain traversal already yields
        ascending handles — no per-call re-sort of the whole table
        (this runs on every parallel block launch).
        """
        return [buf for handle, buf in self._buffers.items()
                if handle >= mark]

    def drop(self, buf: Buffer) -> None:
        """Forget a *registered* (non-global) buffer's handle.

        Unlike :meth:`free`, no byte accounting changes — registered
        shared/local buffers were never counted in ``live_bytes``.
        """
        self._buffers.pop(buf.handle, None)


class SharedMemory:
    """Per-block scratchpad with a bump allocator.

    ``capacity`` defaults are set by the device profile (e.g. 48 KiB usable
    per block on the A100-like profile).  The runtime reserves a *variable
    sharing space* slice at block startup; kernel-visible allocations come
    after it.  ``reset()`` rewinds the allocator (used between kernel
    launches when a block object is reused).
    """

    def __init__(self, capacity: int = 48 * 1024) -> None:
        self.capacity = int(capacity)
        self._cursor = 0
        self._allocs: list[Buffer] = []

    @property
    def used(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return self.capacity - self._cursor

    def alloc(self, name: str, size: int, dtype) -> Buffer:
        """Carve ``size`` elements of ``dtype`` out of the scratchpad."""
        dt = _dtype_of(dtype)
        nbytes = int(size) * dt.itemsize
        base = _align(self._cursor, SHARED_ALIGN)
        if base + nbytes > self.capacity:
            raise AllocationError(
                f"shared memory exhausted: requested {nbytes} bytes at "
                f"offset {base}, capacity {self.capacity}"
            )
        self._cursor = base + nbytes
        buf = Buffer(name, "shared", size, dt, base=base)
        self._allocs.append(buf)
        return buf

    def reset(self) -> None:
        """Rewind the allocator; previously returned buffers become stale."""
        self._cursor = 0
        self._allocs.clear()


def local_buffer(name: str, size: int, dtype, data=None) -> Buffer:
    """Create a lane-private (``local``) buffer.

    Local buffers model per-thread stack allocations; the globalization pass
    (:mod:`repro.codegen.globalize`) replaces them with shared/global storage
    when a SIMD worker must observe them, per §4.3 of the paper.
    """
    return Buffer(name, "local", size, dtype, data=data)
