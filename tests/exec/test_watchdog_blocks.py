"""Launch watchdog and solo-error reporting agree across executors.

A solo launch is a one-segment grid on every executor, so what it
raises must not depend on the executor: a watchdog timeout counts
*blocks* (never the parallel engine's work chunks), and a kernel error
surfaces as the exception object the kernel raised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LaunchTimeout
from repro.exec import ParallelExecutor, SerialExecutor, fork_available
from repro.gpu.device import Device

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)

EXECUTORS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ParallelExecutor(workers=2, processes=False), id="inproc"),
    pytest.param(ParallelExecutor(workers=2, processes=True), id="fork",
                 marks=needs_fork),
]


def _store_tid(tc, y):
    yield from tc.store(y, tc.global_tid, 1.0)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_expired_watchdog_reports_blocks(executor):
    dev = Device(executor=executor)
    y = dev.alloc("y", 64 * 4, np.float64)
    with pytest.raises(LaunchTimeout) as exc:
        dev.launch(_store_tid, num_blocks=64, threads_per_block=4,
                   args=(y,), timeout=0.0)
    err = exc.value
    assert (err.blocks_done, err.num_blocks) == (0, 64)
    assert err.progress == ()
    assert "0/64 blocks" in str(err)


class _Unpicklable(RuntimeError):
    """Holds a lambda, so it cannot cross a process boundary as itself."""

    def __init__(self, msg):
        super().__init__(msg)
        self.hook = lambda: None


@pytest.mark.parametrize("cls", [RuntimeError, _Unpicklable])
def test_serial_raises_the_kernel_exception_object(cls):
    raised = cls("boom")

    def k(tc):
        if tc.block_id == 1:
            raise raised
        yield from tc.compute("alu")

    dev = Device(executor=SerialExecutor())
    with pytest.raises(cls) as exc:
        dev.launch(k, num_blocks=3, threads_per_block=32)
    assert exc.value is raised
