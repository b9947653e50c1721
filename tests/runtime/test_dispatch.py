"""Unit tests for the outlined-function dispatch table and if/cascade."""

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.runtime.dispatch import (
    INDIRECT_CALL_OPS,
    INDIRECT_CALL_ROUNDS,
    DispatchTable,
    cascade_cost_ops,
    invoke_microtask,
)
from repro.runtime.icv import ExecMode
from repro.runtime.payload import PayloadLayout
from repro.runtime.simd import simd

from conftest import launch_rt, make_cfg


def empty_layout():
    return PayloadLayout.build([])


def dummy_task(tc, *args):
    yield from tc.compute("alu")
    return "done"


class TestTable:
    def test_register_assigns_sequential_ids_from_one(self):
        t = DispatchTable()
        a = t.register(dummy_task, empty_layout(), "a")
        b = t.register(dummy_task, empty_layout(), "b")
        assert (a, b) == (1, 2)  # 0 is the null/termination id

    def test_lookup(self):
        t = DispatchTable()
        fn_id = t.register(dummy_task, empty_layout(), "a", kind="simd")
        info = t.lookup(fn_id)
        assert info.name == "a" and info.kind == "simd"

    def test_lookup_unknown_faults(self):
        with pytest.raises(RuntimeFault, match="unknown outlined function"):
            DispatchTable().lookup(7)

    def test_known_ids_exclude_external(self):
        t = DispatchTable()
        a = t.register(dummy_task, empty_layout(), "a")
        b = t.register(dummy_task, empty_layout(), "b", known=False)
        assert t.known_ids() == (a,)

    def test_len(self):
        t = DispatchTable()
        t.register(dummy_task, empty_layout(), "a")
        assert len(t) == 1

    def test_reduction_recorded(self):
        t = DispatchTable()
        fn = t.register(dummy_task, empty_layout(), "r", reduction="add")
        assert t.lookup(fn).reduction == "add"


class TestCascadeCost:
    def test_cost_grows_with_position(self):
        t = DispatchTable()
        ids = [t.register(dummy_task, empty_layout(), f"t{i}") for i in range(4)]
        costs = [cascade_cost_ops(t, i) for i in ids]
        assert costs == [1, 2, 3, 4]

    def test_external_pays_indirect(self):
        t = DispatchTable()
        t.register(dummy_task, empty_layout(), "a")
        ext = t.register(dummy_task, empty_layout(), "x", known=False)
        assert cascade_cost_ops(t, ext) == 1 + INDIRECT_CALL_OPS


class TestInvocation:
    def test_invoke_runs_task_and_returns(self, device):
        t = DispatchTable()
        out = device.alloc("o", 1, np.float64)

        def task(tc, value):
            yield from tc.store(out, 0, value)
            return value * 2

        fn = t.register(task, empty_layout(), "task")
        results = device.alloc("r", 1, np.float64)

        def k(tc):
            r = yield from invoke_microtask(tc, t, fn, 21.0)
            yield from tc.store(results, 0, r)

        device.launch(k, 1, 1)
        assert out.read(0) == 21.0 and results.read(0) == 42.0

    def test_external_invocation_adds_rounds(self, device):
        known_rounds = {}
        for known in (True, False):
            t = DispatchTable()

            def task(tc):
                yield from tc.compute("alu")

            fn = t.register(task, empty_layout(), "t", known=known)

            def k(tc):
                yield from invoke_microtask(tc, t, fn)

            kc = device.launch(k, 1, 32)
            known_rounds[known] = kc.rounds
        assert known_rounds[False] > known_rounds[True]


class TestResolveCache:
    def test_resolve_returns_task_and_cost_events(self):
        t = DispatchTable()
        a = t.register(dummy_task, empty_layout(), "a")
        x = t.register(dummy_task, empty_layout(), "x", known=False)
        task, costs = t.resolve(a)
        assert task is t.lookup(a)
        assert [(ev.kind, ev.ops) for ev in costs] == [("alu", 1)]
        task, costs = t.resolve(x)
        assert task is t.lookup(x)
        assert [(ev.kind, ev.ops) for ev in costs] == (
            [("alu", 1 + INDIRECT_CALL_OPS)]
            + [("branch", 1)] * INDIRECT_CALL_ROUNDS
        )
        assert t.resolve(x) is t.resolve(x)

    def test_register_after_resolve_changes_next_cascade_cost(self):
        t = DispatchTable()
        x = t.register(dummy_task, empty_layout(), "x", known=False)
        assert t.resolve(x)[1][0].ops == INDIRECT_CALL_OPS
        # A newly registered known region lengthens the cascade every
        # external call walks before falling back to the indirect call.
        t.register(dummy_task, empty_layout(), "a")
        assert t.resolve(x)[1][0].ops == 1 + INDIRECT_CALL_OPS
        assert cascade_cost_ops(t, x) == 1 + INDIRECT_CALL_OPS

    def test_resolve_unknown_faults(self):
        with pytest.raises(RuntimeFault, match="unknown outlined function"):
            DispatchTable().resolve(3)


TRIP = 20


def _simd_counters(device, known, simd_len, reduction):
    """Run one simd loop of an (optionally external) task over ``TRIP``
    iterations; return its kernel counters and the reduction totals."""
    cfg = make_cfg(team_size=32, simd_len=simd_len, parallel_mode=ExecMode.SPMD)
    table = DispatchTable()
    totals = device.alloc("totals", 32, np.float64)

    def task(tc, rt, omp_iv, values):
        yield from tc.compute("fma")
        return float(omp_iv)

    fn = table.register(task, empty_layout(), "t", kind="simd", known=known,
                        reduction=reduction)

    def body(tc, rt):
        total = yield from simd(tc, rt, fn, TRIP, {}, spmd=True)
        if total is not None:
            yield from tc.store(totals, tc.tid, total)

    kc, _ = launch_rt(device, cfg, body, table=table)
    return kc, totals.to_numpy()


# (simd_len, reduction) -> the loop entry point it exercises.
PATHS = {
    (8, None): "simd_loop",
    (8, "add"): "simd_reduce_loop",
    (1, None): "sequential_loop",  # the group-size-1 path
}

#: Pinned counters of the external-task runs — caching the resolution
#: must not change what each iteration is charged: (cycles, rounds,
#: issues, issue_cycles).
PINNED_EXTERNAL = {
    (8, None): (56.0, 20, 30, 39.0),
    (8, "add"): (70.0, 27, 46, 59.0),
    (1, None): (240.0, 120, 120, 260.0),
}


@pytest.mark.parametrize("simd_len,reduction", list(PATHS), ids=list(PATHS.values()))
def test_external_simd_task_charges_dispatch_per_iteration(
        rt_device, simd_len, reduction):
    kc_known, tot_known = _simd_counters(rt_device, True, simd_len, reduction)
    kc_ext, tot_ext = _simd_counters(rt_device, False, simd_len, reduction)
    assert np.array_equal(tot_known, tot_ext)
    # Every iteration a lane runs pays the serializing indirect-call
    # rounds on top of the cascade compare.
    iters_per_lane = -(-TRIP // simd_len)
    assert kc_ext.rounds - kc_known.rounds == iters_per_lane * INDIRECT_CALL_ROUNDS
    got = (kc_ext.cycles, kc_ext.rounds, kc_ext.issues, kc_ext.issue_cycles)
    assert got == PINNED_EXTERNAL[(simd_len, reduction)]
