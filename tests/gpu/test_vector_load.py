"""Multi-element vector loads under every engine: bounds and accounting.

``tc.load_vec`` posts one unrolled access run.  Every round engine must
read it exactly like an in-order walk of per-element ``Buffer.read``
calls: the first out-of-range index in lane-then-position order raises
the canonical :class:`MemoryFault` (a negative index never wraps),
NumPy-integer indices read like ints, and float indices truncate toward
zero via ``int()``.  Each case is checked against that walk computed on
the host, so an engine that gathers without a bounds check fails here
even if it agrees with another engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.gpu.costmodel import amd_mi100, nvidia_a100
from repro.gpu.device import Device

ENGINES = ["instrumented", "fast", "jit"]

SIZE = 16
THREADS = 32
RUN = 3  # elements per lane
MARK = -7.0


def _negative(tid):
    # Every lane reaches below zero at its last position.
    return [tid % 8, (tid + 3) % SIZE, tid % 8 - 9]


def _negative_one_lane(tid):
    return [tid % SIZE, -1 if tid == 5 else 2, 3]


def _at_size(tid):
    return [tid % 14, tid % 14 + 1, SIZE if tid == 7 else tid % 14 + 2]


def _bad_in_middle(tid):
    # 99 comes first in position order, so it is the reported index even
    # though -1 (the run's minimum) follows it.
    if tid == 4:
        return [1, 99, -1]
    return [tid % SIZE, (tid + 1) % SIZE, (tid + 2) % SIZE]


def _np_int64(tid):
    return [np.int64(tid % SIZE), np.int64((3 * tid) % SIZE), np.int64(0)]


def _np_int64_negative(tid):
    return [np.int64(tid % SIZE), np.int64(-2 if tid == 9 else 1), np.int64(2)]


def _floats(tid):
    # int() truncates toward zero: 15.9 -> 15 and -0.5 -> 0 (in bounds).
    return [tid % SIZE + 0.7, 15.9, -0.5]


def _floats_out_of_bounds(tid):
    return [0.0, 3.5, 16.2 if tid == 11 else 2.0]


CASES = [_negative, _negative_one_lane, _at_size, _bad_in_middle,
         _np_int64, _np_int64_negative, _floats, _floats_out_of_bounds]


def _host_walk(idx_fn, src):
    """What an in-order per-element ``read`` walk yields: ``(values,
    None)``, or ``(None, first bad index)``."""
    values = []
    for tid in range(THREADS):
        for i in idx_fn(tid):
            j = int(i)
            if not 0 <= j < SIZE:
                return None, j
            values.append(src[j])
    return np.asarray(values), None


def _launch(idx_fn, engine):
    dev = Device(nvidia_a100())
    src = np.arange(SIZE, dtype=np.float64) * 1.5 + 0.25
    x = dev.from_array("x", src)
    out = dev.from_array("out", np.zeros(THREADS * RUN))

    def kernel(tc, x, out):
        base = tc.tid * RUN
        # Commit a marker first: a faulting launch must leave exactly
        # these earlier stores behind.
        yield from tc.store_vec(out, range(base, base + RUN), [MARK] * RUN)
        vals = yield from tc.load_vec(x, idx_fn(tc.tid))
        yield from tc.store_vec(out, range(base, base + RUN), vals)

    try:
        dev.launch(kernel, 1, THREADS, args=(x, out), engine=engine)
    except MemoryFault as err:
        return src, ("fault", type(err), str(err), out.to_numpy())
    return src, ("ok", out.to_numpy())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("idx_fn", CASES, ids=lambda f: f.__name__.lstrip("_"))
def test_vector_load_matches_read_walk(idx_fn, engine):
    src, got = _launch(idx_fn, engine)
    values, bad = _host_walk(idx_fn, src)
    if bad is None:
        assert got[0] == "ok"
        assert got[1].tobytes() == values.tobytes()
    else:
        assert got[:3] == (
            "fault",
            MemoryFault,
            f"index {bad} out of bounds for buffer 'x' (global, size {SIZE})",
        )
        assert np.all(got[3] == MARK)
    # And bit-identical to the reference engine, partial memory included.
    _, ref = _launch(idx_fn, "instrumented")
    assert got[:-1] == ref[:-1]
    assert got[-1].tobytes() == ref[-1].tobytes()


def _sector_counters(profile, dtype, engine):
    dev = Device(profile())
    size = 96
    x = dev.from_array("x", np.zeros(size, dtype=dtype))

    def kernel(tc, x):
        t = tc.tid
        # Scattered three-position runs: sectors overlap across lanes and
        # positions, so every set/unique dedup step matters.
        yield from tc.load_vec(x, [(5 * t) % size, (7 * t + 3) % size, t % size])
        yield from tc.compute("alu")

    kc = dev.launch(kernel, 1, 2 * profile().warp_size, args=(x,), engine=engine)
    kc.extra.pop("engine", None)
    for key in [k for k in kc.extra if k.startswith("jit_")]:
        del kc.extra[key]
    return kc


@pytest.mark.parametrize("engine", ["fast", "jit"])
@pytest.mark.parametrize("dtype", [np.float64, np.dtype("i4,i4,i4")],
                         ids=["aligned", "straddling"])
@pytest.mark.parametrize("profile", [nvidia_a100, amd_mi100])
def test_multi_position_sector_accounting(profile, dtype, engine):
    """Lockstep multi-position global loads count the same sectors and
    LSU transactions as the reference engine, for 32-wide warps and
    64-wide wavefronts, with elements aligned to sectors or straddling
    them (12-byte elements, 32-byte sectors)."""
    got = _sector_counters(profile, dtype, engine)
    ref = _sector_counters(profile, dtype, "instrumented")
    assert got.total("lsu_transactions") > 0
    assert got.identical(ref)
