"""Behavioural tests for the thread-block scheduler: lockstep rounds,
divergence, barriers, deadlock detection, and determinism."""

import numpy as np
import pytest

from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.gpu.block import ThreadBlock
from repro.gpu.costmodel import nvidia_a100
from repro.gpu.device import Device
from repro.gpu.memory import GlobalMemory


def make_block(entry, threads=32, args=(), params=None, max_rounds=100000):
    params = params or nvidia_a100()
    return ThreadBlock(
        block_id=0,
        num_threads=threads,
        params=params,
        gmem=GlobalMemory(),
        entry=entry,
        args=args,
        max_rounds=max_rounds,
    )


class TestBasicExecution:
    def test_all_threads_run_to_completion(self, device):
        out = device.alloc("out", 64, np.int64)

        def k(tc, out):
            yield from tc.store(out, tc.tid, tc.tid * 10)

        device.launch(k, 1, 64, args=(out,))
        assert np.array_equal(out.to_numpy(), np.arange(64) * 10)

    def test_load_returns_value(self, device):
        x = device.from_array("x", np.arange(32, dtype=np.float64))
        y = device.alloc("y", 32, np.float64)

        def k(tc, x, y):
            v = yield from tc.load(x, tc.tid)
            yield from tc.store(y, tc.tid, v + 1)

        device.launch(k, 1, 32, args=(x, y))
        assert np.array_equal(y.to_numpy(), np.arange(32) + 1.0)

    def test_vector_load_store(self, device):
        x = device.from_array("x", np.arange(8, dtype=np.float64))
        y = device.alloc("y", 8, np.float64)

        def k(tc, x, y):
            if tc.tid == 0:
                vals = yield from tc.load_vec(x, range(8))
                yield from tc.store_vec(y, range(8), [2 * v for v in vals])

        device.launch(k, 1, 32, args=(x, y))
        assert np.array_equal(y.to_numpy(), 2.0 * np.arange(8))

    def test_non_generator_entry_rejected(self, device):
        def not_a_gen(tc):
            return 42

        with pytest.raises(LaunchError, match="generator"):
            device.launch(not_a_gen, 1, 32)

    def test_empty_thread_retires_immediately(self, device):
        def k(tc):
            return
            yield

        kc = device.launch(k, 1, 32)
        assert kc.rounds == 0

    def test_store_arity_mismatch(self, device):
        y = device.alloc("y", 8, np.float64)

        def k(tc, y):
            from repro.gpu.events import Store

            yield Store(y, (0, 1), (1.0,))

        with pytest.raises(SimulationError, match="arity"):
            device.launch(k, 1, 1, args=(y,))


class TestRoundsAndDivergence:
    def test_rounds_count_longest_path(self):
        def k(tc):
            for _ in range(5):
                yield from tc.compute("alu")

        block = make_block(k)
        c = block.run()
        assert c.rounds == 5

    def test_converged_warp_single_issue_per_round(self):
        def k(tc):
            yield from tc.compute("alu")

        c = make_block(k).run()
        assert c.issues == 1
        assert c.divergent_issues == 0

    def test_divergent_kinds_issue_separately(self):
        def k(tc):
            if tc.lane_id < 16:
                yield from tc.compute("alu")
            else:
                yield from tc.compute("sfu")

        c = make_block(k).run()
        assert c.issues == 2
        assert c.divergent_issues == 1

    def test_two_warps_issue_independently(self):
        def k(tc):
            yield from tc.compute("alu")

        c = make_block(k, threads=64).run()
        assert c.issues == 2
        assert c.divergent_issues == 0

    def test_compute_cost_uses_max_ops_in_group(self):
        params = nvidia_a100()

        def k(tc):
            yield from tc.compute("alu", 1 + tc.lane_id)

        c = make_block(k, params=params).run()
        assert c.issue_cycles == params.op_cycles("alu", 32)

    def test_max_rounds_guard(self):
        def k(tc):
            while True:
                yield from tc.compute("alu")

        with pytest.raises(SimulationError, match="rounds"):
            make_block(k, max_rounds=100).run()


class TestWarpSync:
    def test_full_warp_sync_releases(self, device):
        def k(tc):
            yield from tc.syncwarp()
            yield from tc.compute("alu")

        kc = device.launch(k, 1, 32)
        assert kc.syncwarps == 1

    def test_partial_mask_groups_sync_independently(self, device):
        flags = device.alloc("f", 2, np.int64)

        def k(tc, flags):
            group = tc.lane_id // 16
            mask = 0xFFFF << (16 * group)
            # group 1 works before syncing; group 0 syncs immediately.
            if group == 1:
                for _ in range(10):
                    yield from tc.compute("alu")
            yield from tc.syncwarp(mask)
            if tc.lane_id % 16 == 0:
                yield from tc.atomic_add(flags, group, 1)

        kc = device.launch(k, 1, 32, args=(flags,))
        assert kc.syncwarps == 2
        assert list(flags.to_numpy()) == [1, 1]

    def test_sync_mask_must_include_caller(self, device):
        def k(tc):
            yield from tc.syncwarp(0x1 if tc.lane_id != 0 else 0x2)

        from repro.errors import SynchronizationError

        with pytest.raises(SynchronizationError, match="does not include itself"):
            device.launch(k, 1, 2)

    def test_retired_lane_in_mask_deadlocks(self, device):
        def k(tc):
            if tc.lane_id == 0:
                return
                yield
            yield from tc.syncwarp()

        with pytest.raises(DeadlockError, match="deadlock"):
            device.launch(k, 1, 32)

    def test_mismatched_masks_deadlock(self, device):
        def k(tc):
            mask = 0x3 if tc.lane_id == 0 else 0x3 | 0x4
            yield from tc.syncwarp(mask | (1 << tc.lane_id))

        with pytest.raises(DeadlockError):
            device.launch(k, 1, 2)

    def test_warp_sync_orders_memory(self, device):
        """Producer/consumer across a warp barrier sees the written value."""
        buf = device.alloc("b", 1, np.float64)
        out = device.alloc("o", 32, np.float64)

        def k(tc, buf, out):
            if tc.lane_id == 0:
                yield from tc.store(buf, 0, 7.0)
            yield from tc.syncwarp()
            v = yield from tc.load(buf, 0)
            yield from tc.store(out, tc.lane_id, v)

        device.launch(k, 1, 32, args=(buf, out))
        assert np.all(out.to_numpy() == 7.0)


class TestBlockBarrier:
    def test_syncthreads_releases_all_warps(self, device):
        out = device.alloc("o", 1, np.int64)

        def k(tc, out):
            if tc.warp_id == 0:
                for _ in range(20):
                    yield from tc.compute("alu")
            yield from tc.syncthreads()
            if tc.tid == 0:
                yield from tc.atomic_add(out, 0, 1)

        kc = device.launch(k, 1, 128, args=(out,))
        assert kc.syncblocks == 1
        assert out.read(0) == 1

    def test_retired_threads_excluded_from_barrier(self, device):
        out = device.alloc("o", 1, np.int64)

        def k(tc, out):
            if tc.warp_id == 1:
                return  # whole warp retires without reaching the barrier
                yield
            yield from tc.syncthreads()
            if tc.tid == 0:
                yield from tc.atomic_add(out, 0, 1)

        device.launch(k, 1, 64, args=(out,))
        assert out.read(0) == 1

    def test_producer_consumer_across_warps(self, device):
        buf = device.alloc("b", 1, np.float64)
        out = device.alloc("o", 64, np.float64)

        def k(tc, buf, out):
            if tc.tid == 63:
                yield from tc.store(buf, 0, 5.0)
            yield from tc.syncthreads()
            v = yield from tc.load(buf, 0)
            yield from tc.store(out, tc.tid, v)

        device.launch(k, 1, 64, args=(buf, out))
        assert np.all(out.to_numpy() == 5.0)

    def test_repeated_barriers(self, device):
        def k(tc):
            for _ in range(5):
                yield from tc.syncthreads()

        kc = device.launch(k, 1, 64)
        assert kc.syncblocks == 5


class TestAtomics:
    def test_atomic_add_correct_total(self, device):
        acc = device.alloc("acc", 1, np.float64)

        def k(tc, acc):
            yield from tc.atomic_add(acc, 0, 1.0)

        device.launch(k, 4, 128, args=(acc,))
        assert acc.read(0) == 512.0

    def test_atomic_returns_old_value_deterministically(self, device):
        acc = device.alloc("acc", 1, np.int64)
        olds = device.alloc("olds", 32, np.int64)

        def k(tc, acc, olds):
            old = yield from tc.atomic_add(acc, 0, 1)
            yield from tc.store(olds, tc.lane_id, old)

        device.launch(k, 1, 32, args=(acc, olds))
        # Lane order within a round is the application order.
        assert np.array_equal(olds.to_numpy(), np.arange(32))

    def test_atomic_conflict_counter(self, device):
        acc = device.alloc("acc", 1, np.int64)

        def k(tc, acc):
            yield from tc.atomic_add(acc, 0, 1)

        kc = device.launch(k, 1, 32, args=(acc,))
        assert kc.total("atomic_conflicts") == 31

    def test_atomic_cas_and_exch(self, device):
        slot = device.alloc("s", 1, np.int64)
        winners = device.alloc("w", 1, np.int64)

        def k(tc, slot, winners):
            old = yield from tc.atomic_cas(slot, 0, 0, tc.lane_id + 1)
            if old == 0:
                yield from tc.atomic_add(winners, 0, 1)

        device.launch(k, 1, 32, args=(slot, winners))
        assert winners.read(0) == 1
        assert slot.read(0) == 1  # lane 0 applied first

    def test_atomic_max_min(self, device):
        hi = device.alloc("hi", 1, np.int64)
        lo = device.from_array("lo", np.array([100], dtype=np.int64))

        def k(tc, hi, lo):
            yield from tc.atomic_max(hi, 0, tc.tid)
            yield from tc.atomic_min(lo, 0, tc.tid)

        device.launch(k, 1, 64, args=(hi, lo))
        assert hi.read(0) == 63
        assert lo.read(0) == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_counters(self):
        def k(tc, out):
            v = yield from tc.atomic_add(out, 0, tc.tid)
            yield from tc.compute("fma", int(v) % 3 + 1)
            yield from tc.syncthreads()

        results = []
        for _ in range(2):
            dev = Device(nvidia_a100())
            out = dev.alloc("o", 1, np.int64)
            kc = dev.launch(k, 2, 64, args=(out,))
            results.append((out.read(0), kc.cycles, kc.rounds, kc.issues))
        assert results[0] == results[1]


class TestAtomicContentionKey:
    @pytest.mark.parametrize("engine", [None, "instrumented"])
    def test_aliased_buffers_contend(self, engine):
        """Two Buffer objects over the same storage are one address.

        Contention is keyed by the stable ``(space, base)`` device address,
        not Python object identity — two handles aliasing the same
        allocation must serialize against each other.
        """
        from repro.gpu.memory import Buffer

        dev = Device(nvidia_a100())
        acc = dev.alloc("acc", 1, np.int64)
        alias = Buffer(
            "acc_alias", acc.space, acc.size, acc.dtype,
            base=acc.base, handle=acc.handle, data=acc.data,
        )

        def k(tc, acc, alias):
            target = acc if tc.lane_id % 2 == 0 else alias
            yield from tc.atomic_add(target, 0, 1)

        kc = dev.launch(k, 1, 32, args=(acc, alias), engine=engine)
        assert acc.read(0) == 32
        assert kc.total("atomic_conflicts") == 31

    @pytest.mark.parametrize("engine", [None, "instrumented"])
    def test_local_buffers_not_conflated(self, engine):
        """Lane-private local buffers all sit at base 0 but never contend."""
        dev = Device(nvidia_a100())

        def k(tc):
            lb = tc.alloca("scratch", 1, np.int64)
            yield from tc.atomic_add(lb, 0, 1)

        kc = dev.launch(k, 1, 32, engine=engine)
        assert kc.total("atomic_conflicts") == 0


class TestRetiredLaneState:
    @pytest.mark.parametrize("engine", [None, "instrumented"])
    def test_pending_cleared_on_retire(self, engine):
        """A lane retiring right after a load must not pin the loaded value.

        ``lane.pending`` holds the value the next resume would deliver; on
        StopIteration the scheduler clears it so retired lanes hold no
        stale references to buffer contents.
        """
        from repro.gpu.memory import Buffer

        x = Buffer("x", "global", 4, np.float64, data=np.arange(4.0))

        def k(tc, x):
            yield from tc.load(x, tc.lane_id % 4)

        tb = ThreadBlock(
            block_id=0,
            num_threads=32,
            params=nvidia_a100(),
            gmem=GlobalMemory(),
            entry=k,
            args=(x,),
            engine=engine,
        )
        tb.run()
        assert all(l.pending is None for l in tb.lanes)
        assert all(l.posted is None for l in tb.lanes)

    @pytest.mark.parametrize("engine", ["instrumented", "fast", "jit"])
    def test_posted_cleared_at_barrier_parks(self, engine):
        """A lane migrating from a shuffle to a barrier park must not drag
        its posted event along.

        Only shuffle/vote waiters may carry ``lane.posted``; the fast
        engine's barrier park sites clear it explicitly, otherwise a lane
        whose shuffle resolved inline mid-round can retire still pinning
        the stale event (and its payload).  The skewed arrivals below
        drive lanes through every park site: inline same-round groups,
        second-key same-round parks, and partial-arrival parks.  Under
        ``engine="jit"`` the shuffle forces a deopt, so the same property
        holds on the deopt replay path.
        """
        from repro.gpu.thread import DONE

        def k(tc):
            for _ in range(tc.lane_id % 3):
                yield from tc.compute("alu")
            s = yield from tc.shfl_xor(tc.lane_id * 1.0, 1)
            for _ in range(tc.lane_id % 2):
                yield from tc.compute("alu")
            yield from tc.syncthreads()
            if tc.tid < 16:
                yield from tc.syncthreads(bar_id=1, count=16)
            else:
                yield from tc.compute("fma", 2)
            yield from tc.syncwarp()
            assert s is not None

        tb = ThreadBlock(
            block_id=0,
            num_threads=64,
            params=nvidia_a100(),
            gmem=GlobalMemory(),
            entry=k,
            args=(),
            engine=engine,
        )
        tb.run()
        for lane in tb.lanes:
            assert lane.state == DONE
            assert lane.pending is None
            assert lane.posted is None
            assert lane.wait_key is None
