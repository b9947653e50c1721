"""Which fault plans count as a hook for round-engine selection.

Only the ``atomic.transient`` and ``sharing.overflow`` sites are consulted
inside a running block, so only a plan naming one of them needs the
instrumented engine.  A plan that can fire nothing in a block — no specs,
or only worker, bit-flip, serve, journal or lease sites — leaves the fast
engines eligible, and an explicit ``engine="fast"`` is accepted with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.exec import SerialExecutor
from repro.faults import FaultPlan, FaultSpec
from repro.faults.plan import BLOCK_SITES, SITES
from repro.gpu.block import ThreadBlock
from repro.gpu.device import Device


@pytest.fixture(autouse=True)
def _no_engine_preference(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


@pytest.fixture
def engines_run(monkeypatch):
    """Engine of every block the launches below run (in-process)."""
    seen = []
    run = ThreadBlock.run

    def spy(self):
        seen.append(self.engine)
        return run(self)

    monkeypatch.setattr(ThreadBlock, "run", spy)
    return seen


def _launch(plan, engine=None):
    dev = Device(executor=SerialExecutor())
    x = dev.from_array("x", np.arange(64, dtype=np.float64))
    acc = dev.alloc("acc", 2, np.float64)

    def kernel(tc, x, acc):
        v = yield from tc.load(x, tc.global_tid)
        yield from tc.atomic_add(acc, tc.block_id, v)

    kc = dev.launch(kernel, 2, 32, args=(x, acc), faults=plan, engine=engine)
    return kc, acc.to_numpy()


INERT_PLANS = {
    "spec-less": lambda: FaultPlan(seed=1),
    "worker-only": lambda: FaultPlan(seed=1, specs=[
        FaultSpec("worker.crash", probability=1.0, attempts=99),
        FaultSpec("worker.hang", probability=0.5),
    ]),
    "serve-only": lambda: FaultPlan(seed=1, specs=[
        FaultSpec("serve.reject"), FaultSpec("journal.torn_write"),
    ]),
}


def test_block_sites_are_known_sites():
    assert set(BLOCK_SITES) <= set(SITES)


@pytest.mark.parametrize("make_plan", INERT_PLANS.values(), ids=INERT_PLANS)
def test_plan_without_block_sites_runs_fast_engine(make_plan, engines_run):
    plan = make_plan()
    assert not plan.hooks_blocks
    base_kc, base_acc = _launch(False)
    del engines_run[:]
    kc, acc = _launch(plan)
    assert engines_run == ["fast", "fast"]
    assert kc.identical(base_kc)
    assert acc.tobytes() == base_acc.tobytes()
    # An explicit fast preference is no longer refused.
    del engines_run[:]
    kc, _ = _launch(make_plan(), engine="fast")
    assert engines_run == ["fast", "fast"]
    assert kc.identical(base_kc)


@pytest.mark.parametrize("site", BLOCK_SITES)
def test_plan_with_block_site_still_needs_instrumented(site, engines_run):
    plan = FaultPlan(seed=1, specs=[FaultSpec(site, probability=0.0)])
    assert plan.hooks_blocks
    _launch(plan)
    assert engines_run == ["instrumented", "instrumented"]
    with pytest.raises(LaunchError, match="fault plan"):
        _launch(plan, engine="fast")


def test_serve_batches_follow_the_same_rule():
    from repro.serve.batch import resolve_batch_engine

    for make_plan in INERT_PLANS.values():
        assert resolve_batch_engine(None, make_plan()) == "fast"
        assert resolve_batch_engine("fast", make_plan()) == "fast"
    hooked = FaultPlan(seed=1, specs=[FaultSpec("atomic.transient")])
    assert resolve_batch_engine(None, hooked) == "instrumented"
    with pytest.raises(LaunchError, match="fault plan"):
        resolve_batch_engine("fast", hooked)
