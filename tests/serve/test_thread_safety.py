"""Thread-safety regressions for the serve tier's shared state.

The serve tier runs launches from worker threads while the asyncio
loop flips configuration, so the process-wide singletons it touches
must be safe under contention: the default-executor and default-faults
overrides, and ``Device.launch`` itself (serialized on
``Device.lock``).  Each test hammers one surface from many threads and
asserts both "no exception / no corruption" and the semantic
invariant that survives interleaving.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import omp
from repro.exec import SerialExecutor, default_executor, set_default_executor
from repro.faults import coerce_faults, default_faults, set_default_faults
from repro.gpu.device import Device

from serve_helpers import make_args

THREADS = 8
ITERS = 400


def _hammer(worker, threads=THREADS):
    """Run ``worker(tid)`` on N threads; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(threads)

    def wrap(tid):
        try:
            barrier.wait(10)
            worker(tid)
        except BaseException as err:  # noqa: BLE001 - surface everything
            errors.append(err)

    ts = [threading.Thread(target=wrap, args=(t,)) for t in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(60)
    if errors:
        raise errors[0]


class TestDefaultOverrides:
    def test_executor_flip_under_concurrent_resolution(self):
        serial = SerialExecutor()

        def worker(tid):
            for i in range(ITERS):
                if tid % 2 == 0:
                    set_default_executor(serial if i % 2 else None)
                else:
                    ex = default_executor()
                    # Never a torn/invalid value: always an executor.
                    assert hasattr(ex, "execute")

        try:
            _hammer(worker)
        finally:
            set_default_executor(None)

    def test_faults_flip_under_concurrent_resolution(self):
        plan = coerce_faults("5:worker.crash=0.1")
        try:
            def worker(tid):
                for i in range(ITERS):
                    if tid % 2 == 0:
                        set_default_faults(
                            (plan, None, False)[i % 3])
                    else:
                        active = default_faults()
                        assert active is None or active is plan
            _hammer(worker)
        finally:
            set_default_faults(None)


class TestDeviceLaunchSerialization:
    def test_concurrent_launches_one_device_are_correct(self, catalog):
        """Many threads launching on ONE device: Device.lock serializes
        them, so every result matches its solo ground truth."""
        dev = Device()
        rng = np.random.default_rng(1)
        cases = [make_args("axpy", rng) for _ in range(THREADS)]
        results = [None] * THREADS

        def worker(tid):
            args = cases[tid]
            bufs = {n: dev.from_array(f"{tid}:{n}", v.copy())
                    for n, v in args.items()}
            omp.launch(dev, catalog.get("axpy"), num_teams=2,
                       team_size=64, args=bufs)
            results[tid] = bufs["y"].to_numpy()

        _hammer(worker)
        for tid, args in enumerate(cases):
            solo = Device()
            bufs = {n: solo.from_array(n, v.copy())
                    for n, v in args.items()}
            omp.launch(solo, catalog.get("axpy"), num_teams=2,
                       team_size=64, args=bufs)
            assert np.array_equal(results[tid], bufs["y"].to_numpy()), tid
