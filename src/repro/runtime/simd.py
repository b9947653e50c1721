"""``__simd``, the SIMD worker state machine, and ``__simd_loop``.

These are the paper's Figs 4, 6 and 8, ported line for line:

* :func:`simd` (``__simd``) — entry point for a simd worksharing loop.  In
  SPMD parallel mode every thread already holds the work descriptor locally
  and goes straight to the loop; in generic mode the SIMD main thread
  publishes the descriptor and argument payload through the group state and
  sharing space, wakes its workers with a warp barrier, joins the loop, and
  releases any overflow allocation afterwards.
* :func:`simd_state_machine` — what SIMD worker threads run for the duration
  of a generic parallel region: wait at the group barrier, fetch the work
  function (null = terminate), fetch shared arguments, execute, join.
* :func:`simd_loop` (``__simd_loop``) — the workshare itself:
  ``omp_iv = getSimdGroupId(); omp_iv += getSimdGroupSize()`` until the trip
  count is covered.

A group size of one (including the §5.4.1 AMD demotion) takes a sequential
fast path with none of the group machinery, matching the paper's "if the
group size is less than two … all simd loops would execute sequentially".
"""

from __future__ import annotations

from typing import Dict

from repro.gpu.events import intern_compute
from repro.runtime.dispatch import NULL_FN
from repro.runtime.mapping import (
    get_simd_group,
    get_simd_group_id,
    simdmask,
)
from repro.runtime.state import TeamRuntime


#: Reduction identities for the extension's combiner ops.
_IDENTITY = {"add": 0.0, "max": float("-inf"), "min": float("inf")}


def _combine(op: str, a, b):
    if op == "add":
        return a + b
    if op == "max":
        return a if a >= b else b
    return a if a <= b else b


def simd_loop(tc, rt: TeamRuntime, fn_id: int, trip_count: int, values: Dict):
    """``__simd_loop`` (paper Fig 8): strided workshare across group lanes.

    Each iteration calls the loop task through the dispatch and pays its
    cost events; the task itself is resolved once per loop.
    """
    cfg = rt.cfg
    task, costs = rt.table.resolve(fn_id)
    fn = task.fn
    omp_iv = get_simd_group_id(tc, cfg)
    yield from tc.syncwarp(simdmask(tc, cfg))
    while omp_iv < trip_count:
        for ev in costs:
            yield ev
        yield from fn(tc, rt, omp_iv, values)
        omp_iv += cfg.simd_len
        yield intern_compute("alu", 1)  # induction increment + bound check


def simd_reduce_loop(
    tc, rt: TeamRuntime, fn_id: int, trip_count: int, values: Dict, op: str
):
    """Reduction extension: workshare + group butterfly; returns the total.

    Each lane accumulates the values its iterations return, then the group
    combines partials with a xor-shuffle butterfly — every lane ends with the
    group total (so the SIMD main thread can finalize it without a memory
    round-trip).
    """
    cfg = rt.cfg
    task, costs = rt.table.resolve(fn_id)
    fn = task.fn
    mask = simdmask(tc, cfg)
    acc = _IDENTITY[op]
    omp_iv = get_simd_group_id(tc, cfg)
    yield from tc.syncwarp(mask)
    while omp_iv < trip_count:
        for ev in costs:
            yield ev
        val = yield from fn(tc, rt, omp_iv, values)
        acc = _combine(op, acc, val)
        omp_iv += cfg.simd_len
        yield intern_compute("alu", 1)
    delta = cfg.simd_len // 2
    while delta >= 1:
        other = yield from tc.shfl_xor(acc, delta, mask)
        yield intern_compute("fma", 1)
        acc = _combine(op, acc, other)
        delta //= 2
    return acc


def _sequential_loop(tc, rt: TeamRuntime, fn_id: int, trip_count: int, values: Dict):
    """Group-size-1 fast path: plain sequential loop, no group machinery."""
    task, costs = rt.table.resolve(fn_id)
    fn = task.fn
    reduction = task.reduction
    acc = _IDENTITY[reduction] if reduction else None
    for omp_iv in range(trip_count):
        for ev in costs:
            yield ev
        val = yield from fn(tc, rt, omp_iv, values)
        if reduction:
            acc = _combine(reduction, acc, val)
        yield intern_compute("alu", 1)
    return acc


def set_simd_fn(tc, rt: TeamRuntime, group: int, fn_id: int, trip_count: int = 0):
    """Publish the group's work descriptor (``setSimdFn``)."""
    yield from tc.store(rt.simd_fn, group, fn_id)
    if fn_id != NULL_FN:
        yield from tc.store(rt.simd_trip, group, trip_count)


def get_simd_fn(tc, rt: TeamRuntime, group: int):
    """Fetch the group's work descriptor (``getSimdFn``); returns (fn, trip)."""
    fn = yield from tc.load(rt.simd_fn, group)
    fn = int(fn)
    if fn == NULL_FN:
        return NULL_FN, 0
    trip = yield from tc.load(rt.simd_trip, group)
    return fn, int(trip)


def simd(tc, rt: TeamRuntime, fn_id: int, trip_count: int, values: Dict, spmd: bool):
    """``__simd`` (paper Fig 4): run a simd worksharing loop.

    ``values`` is the named argument environment of the loop task (buffers
    and by-value scalars).  ``spmd`` is the parallel region's resolved mode
    (``isParallelSPMD()``).
    """
    cfg = rt.cfg
    task = rt.table.lookup(fn_id)
    if cfg.simd_len == 1:
        rt.counters.simd_sequential += 1
        total = yield from _sequential_loop(tc, rt, fn_id, trip_count, values)
        return total

    if spmd:
        # All group lanes are here with local descriptors: no communication.
        if tc.tid % cfg.simd_len == 0:
            rt.counters.simd_spmd += 1
        if task.reduction:
            total = yield from simd_reduce_loop(
                tc, rt, fn_id, trip_count, values, task.reduction
            )
        else:
            total = None
            yield from simd_loop(tc, rt, fn_id, trip_count, values)
        yield from tc.syncwarp(simdmask(tc, cfg))
        return total

    # Generic mode: only the SIMD main thread reaches this call.
    rt.counters.simd_generic += 1
    group = get_simd_group(tc, cfg)
    layout = task.layout
    yield from set_simd_fn(tc, rt, group, fn_id, trip_count)
    slots = layout.pack(values, rt.gmem)
    try:
        yield from rt.sharing.stage_simd_args(tc, group, slots)
        yield from tc.syncwarp(simdmask(tc, cfg))  # wake the group's workers
        # The main thread executes its share against the shared arguments too
        # (Fig 4 runs __workshare_loop_simd on GlobalArgs).
        shared_values = layout.unpack(slots, rt.gmem)
        if task.reduction:
            total = yield from simd_reduce_loop(
                tc, rt, fn_id, trip_count, shared_values, task.reduction
            )
        else:
            total = None
            yield from simd_loop(tc, rt, fn_id, trip_count, shared_values)
        yield from tc.syncwarp(simdmask(tc, cfg))  # join
    except BaseException:
        # If the loop body (or a barrier) raises after staging overflowed
        # to a global allocation, ``end_simd_sharing`` below never runs —
        # release the allocation host-side so it does not leak.
        rt.sharing.release_group(group)
        raise
    yield from rt.sharing.end_simd_sharing(tc, group)
    return total


def simd_state_machine(tc, rt: TeamRuntime):
    """SIMD worker state machine (paper Fig 6)."""
    cfg = rt.cfg
    mask = simdmask(tc, cfg)
    group = get_simd_group(tc, cfg)
    while True:
        # Wait for work.
        yield from tc.syncwarp(mask)
        fn, trip = yield from get_simd_fn(tc, rt, group)
        if fn == NULL_FN:
            return  # end of the enclosing parallel region
        task = rt.table.lookup(fn)
        slots = yield from rt.sharing.fetch_simd_args(tc, group, len(task.layout))
        values = task.layout.unpack(slots, rt.gmem)
        rt.counters.simd_wakeups += 1
        if task.reduction:
            # Workers participate in the butterfly; only the SIMD main
            # thread consumes the total.
            yield from simd_reduce_loop(tc, rt, fn, trip, values, task.reduction)
        else:
            yield from simd_loop(tc, rt, fn, trip, values)
        yield from tc.syncwarp(mask)  # join with the SIMD main thread
