"""O(dirty-page) MemorySnapshot semantics: chaining, epochs, restore.

The snapshot's cost model changed (construction/restore proportional to
dirtied pages, ``base=`` chaining for retry ladders and serve cloning);
these tests pin the *semantics* that must not have changed with it —
restore is bit-exact, interleaved snapshots stay correct via the epoch
fallback, and a consumed base refuses further use.
"""

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.faults.scrub import MemorySnapshot
from repro.gpu.memory import PAGE_ELEMS, GlobalMemory


def make_gmem(n=8 * PAGE_ELEMS):
    gmem = GlobalMemory()
    buf = gmem.from_array("state", np.arange(float(n)))
    return gmem, buf


class TestRestore:
    def test_restore_is_bit_exact(self):
        gmem, buf = make_gmem()
        before = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        buf.write(3, -1.0)
        buf.scatter(np.arange(PAGE_ELEMS, PAGE_ELEMS + 4), np.full(4, -2.0))
        snap.restore()
        np.testing.assert_array_equal(buf.to_numpy(), before)

    def test_restore_only_copies_dirty_pages(self):
        gmem, buf = make_gmem()
        snap = MemorySnapshot(gmem)
        # Corrupt a page *without* marking it (host-side raw poke), then
        # dirty a different one: O(dirty) restore must fix only the
        # marked page.  This is the documented contract — all device
        # mutations go through marked paths; raw data pokes do not.
        buf.data[0] = -7.0
        buf.write(PAGE_ELEMS, -8.0)
        snap.restore()
        assert buf.data[PAGE_ELEMS] == float(PAGE_ELEMS)  # marked: fixed
        assert buf.data[0] == -7.0  # unmarked: out of contract, kept

    def test_restore_frees_post_mark_allocations(self):
        gmem, buf = make_gmem()
        snap = MemorySnapshot(gmem)
        extra = gmem.alloc("kernel_time", 64, np.float64)
        snap.restore()
        with pytest.raises(MemoryFault):
            gmem.lookup(extra.handle)

    def test_repeated_restore_stays_correct(self):
        gmem, buf = make_gmem()
        before = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        for round_ in range(3):
            buf.write(round_, 100.0 + round_)
            snap.restore()
            np.testing.assert_array_equal(buf.to_numpy(), before)


class TestChaining:
    def test_chained_snapshot_equals_fresh(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        buf.write(5, -1.0)
        after_write = buf.to_numpy()
        s2 = MemorySnapshot(gmem, base=s1)
        buf.write(5, -2.0)
        buf.write(2 * PAGE_ELEMS, -3.0)
        s2.restore()
        np.testing.assert_array_equal(buf.to_numpy(), after_write)

    def test_chained_scrub_detects_and_repairs(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        buf.write(0, 42.0)
        s2 = MemorySnapshot(gmem, base=s1)
        want = buf.to_numpy()
        buf.flip_bit(PAGE_ELEMS + 1, 3)
        assert s2.scrub() == 1
        np.testing.assert_array_equal(buf.to_numpy(), want)

    def test_consumed_base_refuses_use(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        MemorySnapshot(gmem, base=s1)
        with pytest.raises(RuntimeError, match="consumed"):
            s1.restore()
        with pytest.raises(ValueError, match="consumed"):
            MemorySnapshot(gmem, base=s1)

    def test_chain_across_new_allocations(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        extra = gmem.from_array("extra", np.ones(PAGE_ELEMS))
        s2 = MemorySnapshot(gmem, base=s1)
        extra.write(0, -1.0)
        buf.write(0, -1.0)
        s2.restore()
        assert extra.data[0] == 1.0
        assert buf.data[0] == 0.0

    def test_chain_after_restore_is_o_dirty_and_correct(self):
        gmem, buf = make_gmem()
        want = buf.to_numpy()
        snap = MemorySnapshot(gmem)
        for attempt in range(3):
            buf.write(attempt, -float(attempt + 1))
            snap.restore()
            snap = MemorySnapshot(gmem, base=snap)
            np.testing.assert_array_equal(buf.to_numpy(), want)


class TestEpochFallback:
    def test_interleaved_snapshot_falls_back_to_full_copy(self):
        gmem, buf = make_gmem()
        s1 = MemorySnapshot(gmem)
        buf.write(0, -1.0)
        # An unrelated, un-chained snapshot clears the dirty bits s1 was
        # counting on...
        MemorySnapshot(gmem)
        buf.write(PAGE_ELEMS, -2.0)
        # ...so s1 must detect the epoch mismatch and restore fully.
        s1.restore()
        assert buf.data[0] == 0.0
        assert buf.data[PAGE_ELEMS] == float(PAGE_ELEMS)
