"""Outlined-function dispatch: the if/cascade with indirect fallback (§5.5).

Outlined regions are referenced at run time by *function ids* (the paper's
function pointers).  Calling through a raw pointer is expensive on GPUs, so
Clang builds an if/cascade comparing the pointer against the outlined
regions known at compile time and only falls back to an indirect call for
regions it cannot see (e.g. other translation units) — a methodology from
Bertolli et al. [5].  :func:`invoke_microtask` reproduces both paths and
charges their costs: one compare per cascade level, or a fixed indirect
penalty.

The cost is *charged* on every call, as the generated code pays it, but
*resolved* once: :meth:`DispatchTable.resolve` caches each id's task and
its cost events until the next :meth:`~DispatchTable.register`, and
``__simd_loop`` resolves its loop task once per loop rather than once per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeFault
from repro.gpu.events import intern_compute
from repro.runtime.payload import PayloadLayout

#: Issue-op cost of an indirect call (pointer load + setup + branch).
INDIRECT_CALL_OPS = 8

#: Dependent instruction rounds an indirect call serializes (pointer load,
#: target setup, branch) — unlike the predictable cascade compares, these
#: cannot overlap with the surrounding code, so they lengthen the critical
#: path as well as costing issue slots.
INDIRECT_CALL_ROUNDS = 3

#: Null function id — the paper's ``nullptr`` termination signal.
NULL_FN = 0


@dataclass
class TaskInfo:
    """One registered outlined function ("loop task")."""

    fn_id: int
    fn: object  # generator function
    name: str
    layout: PayloadLayout
    kind: str = "task"  # "parallel" | "simd" | "task" (diagnostics only)
    #: False models a region from another translation unit: it is excluded
    #: from the if/cascade, forcing the indirect-call fallback.
    known: bool = True
    #: Reduction op ("add"/"max"/"min") for reduction loop tasks, else None.
    reduction: Optional[str] = None


class DispatchTable:
    """Registry of outlined functions for one compiled kernel."""

    def __init__(self) -> None:
        self._tasks: Dict[int, TaskInfo] = {}
        self._next_id = 1  # 0 is the null fn / termination signal
        #: fn id -> (task, dispatch cost events); cleared on register,
        #: since a new known region lengthens the cascade.
        self._resolved: Dict[int, Tuple[TaskInfo, Tuple[object, ...]]] = {}

    def register(
        self,
        fn,
        layout: PayloadLayout,
        name: str,
        kind: str = "task",
        known: bool = True,
        reduction: Optional[str] = None,
    ) -> int:
        """Register an outlined generator function; returns its fn id."""
        fn_id = self._next_id
        self._next_id += 1
        self._tasks[fn_id] = TaskInfo(fn_id, fn, name, layout, kind, known, reduction)
        self._resolved.clear()
        return fn_id

    def lookup(self, fn_id: int) -> TaskInfo:
        try:
            return self._tasks[int(fn_id)]
        except KeyError:
            raise RuntimeFault(f"unknown outlined function id {fn_id}") from None

    def resolve(self, fn_id: int) -> Tuple[TaskInfo, Tuple[object, ...]]:
        """``(task, cost events)`` of one call through the dispatch.

        The events are the cascade compares (one ``alu`` event), plus the
        :data:`INDIRECT_CALL_ROUNDS` serializing branches for a region
        outside the cascade.  Unknown ids raise :class:`RuntimeFault`.
        """
        hit = self._resolved.get(fn_id)
        if hit is None:
            task = self.lookup(fn_id)
            costs = (intern_compute("alu", cascade_cost_ops(self, fn_id)),)
            if not task.known:
                costs += (intern_compute("branch", 1),) * INDIRECT_CALL_ROUNDS
            hit = self._resolved[fn_id] = (task, costs)
        return hit

    def known_ids(self) -> Tuple[int, ...]:
        """Ids in the if/cascade, in registration (compile) order."""
        return tuple(t.fn_id for t in self._tasks.values() if t.known)

    def __len__(self) -> int:
        return len(self._tasks)


def cascade_cost_ops(table: DispatchTable, fn_id: int) -> int:
    """Comparison ops the if/cascade spends before reaching ``fn_id``."""
    known = table.known_ids()
    for pos, kid in enumerate(known):
        if kid == fn_id:
            return pos + 1
    return len(known) + INDIRECT_CALL_OPS


def invoke_microtask(tc, table: DispatchTable, fn_id: int, *call_args):
    """Resolve and call an outlined function (device-side generator).

    Charges the dispatch cost — cascade compares for compile-time-known
    regions, or the serializing indirect-call penalty for external ones —
    then delegates to the task generator with ``(tc, *call_args)``.
    """
    task, costs = table.resolve(fn_id)
    for ev in costs:
        yield ev
    result = yield from task.fn(tc, *call_args)
    return result
