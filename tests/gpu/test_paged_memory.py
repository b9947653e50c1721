"""Paged buffer state: dirty bitmaps, extent recycling, shared-memory edges.

Covers the columnar-state substrate contracts:

* every mutating :class:`~repro.gpu.memory.Buffer` path marks the pages
  it touches (the O(dirty) snapshot/merge machinery depends on it);
* :class:`~repro.gpu.memory.GlobalMemory` recycles freed address
  extents — alloc/free churn keeps ``live_bytes`` and the address
  high-water stable while handles stay monotonic;
* ``SharedMemory.reset()`` staleness and ``_align`` edge cases
  (zero-size allocations, capacity-boundary allocation, alignment
  padding accounting).
"""

import numpy as np
import pytest

from repro.errors import AllocationError, MemoryFault
from repro.gpu.memory import (
    GLOBAL_ALIGN,
    PAGE_ELEMS,
    SHARED_ALIGN,
    Buffer,
    GlobalMemory,
    SharedMemory,
    _align,
)


def dirty_set(buf):
    return set(buf.dirty_page_indices().tolist())


class TestDirtyBitmap:
    def test_fresh_buffer_is_clean(self):
        buf = Buffer("b", "global", 3 * PAGE_ELEMS, np.float64)
        assert buf.npages == 3
        assert dirty_set(buf) == set()

    def test_npages_edges(self):
        assert Buffer("b", "global", 0, np.float64).npages == 1
        assert Buffer("b", "global", PAGE_ELEMS, np.float64).npages == 1
        assert Buffer("b", "global", PAGE_ELEMS + 1, np.float64).npages == 2

    def test_page_span_clamps_tail(self):
        buf = Buffer("b", "global", PAGE_ELEMS + 7, np.float64)
        assert buf.page_span(0) == (0, PAGE_ELEMS)
        assert buf.page_span(1) == (PAGE_ELEMS, PAGE_ELEMS + 7)

    def test_write_marks_its_page(self):
        buf = Buffer("b", "global", 4 * PAGE_ELEMS, np.float64)
        buf.write(PAGE_ELEMS + 3, 1.0)
        assert dirty_set(buf) == {1}

    def test_scatter_run_marks_span(self):
        buf = Buffer("b", "global", 4 * PAGE_ELEMS, np.float64)
        buf.scatter(np.arange(PAGE_ELEMS - 1, PAGE_ELEMS + 1), np.ones(2))
        assert dirty_set(buf) == {0, 1}

    def test_scatter_array_marks_touched_pages_only(self):
        buf = Buffer("b", "global", 4 * PAGE_ELEMS, np.float64)
        buf.scatter(np.array([0, 3 * PAGE_ELEMS]), np.ones(2))
        assert dirty_set(buf) == {0, 3}

    def test_faulting_scatter_marks_committed_prefix(self):
        buf = Buffer("b", "global", 2 * PAGE_ELEMS, np.float64)
        with pytest.raises(MemoryFault):
            buf.scatter(np.array([0, PAGE_ELEMS, 10 * PAGE_ELEMS]),
                        np.ones(3))
        # The two in-bounds elements committed and their pages are dirty.
        assert dirty_set(buf) == {0, 1}

    def test_fill_from_marks_everything(self):
        buf = Buffer("b", "global", 2 * PAGE_ELEMS, np.float64)
        buf.fill_from(np.ones(2 * PAGE_ELEMS))
        assert dirty_set(buf) == {0, 1}

    def test_flip_bit_marks_its_page(self):
        buf = Buffer("b", "global", 2 * PAGE_ELEMS, np.float64)
        buf.flip_bit(PAGE_ELEMS, 0)
        assert dirty_set(buf) == {1}

    def test_clear_dirty_bumps_epoch(self):
        buf = Buffer("b", "global", PAGE_ELEMS, np.float64)
        buf.write(0, 1.0)
        epoch = buf.snap_epoch
        buf.clear_dirty()
        assert dirty_set(buf) == set()
        assert buf.snap_epoch == epoch + 1

    def test_mark_dirty_sel_all_selector_shapes(self):
        buf = Buffer("b", "global", 4 * PAGE_ELEMS, np.float64)
        buf.mark_dirty_sel(5)
        buf.mark_dirty_sel(np.int64(PAGE_ELEMS))
        buf.mark_dirty_sel(np.array([2 * PAGE_ELEMS]))
        assert dirty_set(buf) == {0, 1, 2}

    def test_gmem_from_array_and_scalar_mark(self):
        gmem = GlobalMemory()
        a = gmem.from_array("a", np.ones(PAGE_ELEMS + 1))
        s = gmem.scalar("s", 7.0)
        assert dirty_set(a) == {0, 1}
        assert dirty_set(s) == {0}


class TestExtentRecycling:
    def test_fresh_sequence_matches_bump_allocator(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        b = gmem.alloc("b", 300, np.float64)
        assert a.base == GLOBAL_ALIGN
        assert b.base == _align(a.base + a.nbytes, GLOBAL_ALIGN)

    def test_free_recycles_address_and_rewinds_tail(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        high = gmem.address_high_water
        gmem.free(a)
        assert gmem.address_high_water == a.base  # tail rewound
        b = gmem.alloc("b", 8, np.float64)
        assert b.base == a.base
        assert gmem.address_high_water == high

    def test_hole_reuse_first_fit(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        b = gmem.alloc("b", 8, np.float64)
        c = gmem.alloc("c", 8, np.float64)
        gmem.free(b)
        d = gmem.alloc("d", 8, np.float64)  # fits b's hole exactly
        assert d.base == b.base
        assert gmem.is_live(a) and gmem.is_live(c)

    def test_adjacent_frees_coalesce(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        b = gmem.alloc("b", 8, np.float64)
        anchor = gmem.alloc("anchor", 8, np.float64)
        gmem.free(a)
        gmem.free(b)
        # The coalesced hole serves an allocation neither piece could.
        big = gmem.alloc("big", 2 * GLOBAL_ALIGN // 8, np.float64)
        assert big.base == a.base
        assert gmem.is_live(anchor)

    def test_churn_keeps_live_bytes_and_high_water_stable(self):
        gmem = GlobalMemory()
        keep = gmem.alloc("keep", 1024, np.float64)
        base_live = gmem.live_bytes
        high = gmem.address_high_water
        handles = []
        for i in range(200):
            buf = gmem.alloc(f"churn{i}", 512, np.float64)
            handles.append(buf.handle)
            gmem.free(buf)
        assert gmem.live_bytes == base_live
        assert gmem.address_high_water == high  # the regression gate
        assert handles == sorted(handles)  # handles never recycle
        assert len(set(handles)) == len(handles)
        assert gmem.is_live(keep)

    def test_handles_stay_monotonic_across_reuse(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        gmem.free(a)
        b = gmem.alloc("b", 8, np.float64)
        assert b.base == a.base
        assert b.handle > a.handle
        with pytest.raises(MemoryFault):
            gmem.lookup(a.handle)

    def test_double_free_still_rejected(self):
        gmem = GlobalMemory()
        a = gmem.alloc("a", 8, np.float64)
        gmem.free(a)
        with pytest.raises(MemoryFault, match="double free"):
            gmem.free(a)


class TestSharedMemoryEdges:
    def test_reset_staleness(self):
        shm = SharedMemory(capacity=1024)
        a = shm.alloc("a", 4, np.float64)
        a.fill_from(np.arange(4.0))
        shm.reset()
        b = shm.alloc("b", 4, np.float64)
        # The scratchpad rewound: b occupies a's old address range, and
        # a's handle-less Buffer is stale by contract (its storage is a
        # disjoint ndarray, so reads don't alias — the *address* does).
        assert b.base == a.base
        assert shm.used == a.nbytes
        assert np.all(b.to_numpy() == 0.0)

    def test_zero_size_alloc_consumes_no_space(self):
        shm = SharedMemory(capacity=64)
        z = shm.alloc("z", 0, np.float64)
        after = shm.used
        nxt = shm.alloc("n", 1, np.float64)
        assert z.size == 0 and z.nbytes == 0
        assert nxt.base == _align(after, SHARED_ALIGN)

    def test_capacity_boundary_alloc(self):
        shm = SharedMemory(capacity=64)
        buf = shm.alloc("all", 8, np.float64)  # exactly the capacity
        assert buf.nbytes == 64 and shm.remaining == 0
        with pytest.raises(AllocationError):
            shm.alloc("one", 1, np.uint8)

    def test_alignment_padding_accounted(self):
        shm = SharedMemory(capacity=64)
        shm.alloc("pad", 1, np.uint8)  # cursor -> 1
        b = shm.alloc("b", 1, np.float64)
        assert b.base == SHARED_ALIGN  # padded up from 1
        assert shm.used == SHARED_ALIGN + 8

    def test_align_edge_cases(self):
        assert _align(0, 8) == 0
        assert _align(1, 8) == 8
        assert _align(8, 8) == 8
        assert _align(9, 256) == 256
        assert _align(256, 256) == 256
        assert _align(257, 256) == 512
