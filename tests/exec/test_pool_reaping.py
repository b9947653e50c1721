"""``fork_map`` reaps every worker it forked, on every exit path."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.errors import LaunchTimeout
from repro.exec import fork_available, fork_map
from repro.exec.pool import RetryPolicy
from repro.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)

TASKS = list(range(12))


def square(task):
    return task * task


def _leaked(before):
    return set(multiprocessing.active_children()) - before


def test_normal_return_reaps_workers():
    before = set(multiprocessing.active_children())
    assert fork_map(square, TASKS, workers=2) == [
        ("ok", t * t) for t in TASKS
    ]
    assert not _leaked(before)


def test_watchdog_timeout_reaps_workers():
    before = set(multiprocessing.active_children())
    plan = FaultPlan(seed=13, specs=(
        FaultSpec("worker.hang", match=(("chunk", 0),)),))
    with pytest.raises(LaunchTimeout):
        fork_map(square, TASKS, workers=2, faults=plan,
                 retry=RetryPolicy(hang_timeout=30.0),
                 deadline=time.monotonic() + 0.5)
    assert not _leaked(before)


def test_degraded_map_reaps_workers():
    before = set(multiprocessing.active_children())
    plan = FaultPlan(seed=13, specs=(
        FaultSpec("worker.crash", probability=1.0, attempts=99),))
    stats = {}
    out = fork_map(square, TASKS, workers=2, faults=plan,
                   retry=RetryPolicy(max_retries=1, backoff=0.0), stats=stats)
    assert out == [("ok", t * t) for t in TASKS]
    assert stats["degraded_tasks"] == len(TASKS)
    assert not _leaked(before)
