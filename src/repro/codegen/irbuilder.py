"""The OpenMP IR builder: lowering directive trees onto the runtime (§4.1).

Real code generation emits LLVM IR; here "lowering" builds nested generator
closures that call the same runtime entry points in the same order the
paper's generated code would:

* a ``Target`` region becomes an entry generator that calls
  ``__target_init``, splits into main/worker/retired roles, and (for the
  main/SPMD path) drives the teams-level construct;
* a ``ParallelFor`` (and the parallel half of the combined construct)
  becomes an outlined *microtask* registered in the dispatch table and
  launched through ``__parallel``;
* a ``Simd`` loop becomes an outlined *loop task* whose per-iteration body
  the runtime's ``__simd_loop`` invokes with the normalized induction value;
* trip counts are evaluated through the canonical-loop callback exactly
  where the executing thread needs them (team main for generic, every
  thread for SPMD — §5.4).

The builder also wires the payload plumbing: each outlined function's
:class:`~repro.codegen.outline.OutlinedTask` layout says which launch-arg
buffers, captured ``pre`` locals, and enclosing loop variables ride in its
payload.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import CodegenError
from repro.codegen.canonical_loop import evaluate_trip
from repro.codegen.directives import (
    ParallelFor,
    Simd,
    Target,
    TeamsDistribute,
    TeamsDistributeParallelFor,
)
from repro.codegen.outline import OutlinedTask, outline_task, resolve_uses, subtree_uses
from repro.codegen.program import CompiledKernel
from repro.codegen.spmdization import analyze_modes
from repro.gpu.events import Compute
from repro.runtime.dispatch import DispatchTable
from repro.runtime.icv import ExecMode
from repro.runtime.mapping import get_simd_group
from repro.runtime.parallel import parallel as rt_parallel
from repro.runtime.reduction import workshare_reduce
from repro.runtime.simd import simd as rt_simd
from repro.runtime.state import TeamRuntime
from repro.runtime.target import (
    ROLE_MAIN,
    ROLE_RETIRED,
    ROLE_WORKER,
    target_deinit,
    target_init,
    team_worker_loop,
)
from repro.runtime.mapping import simdmask
from repro.runtime.sync import workshare_barrier
from repro.runtime.workshare import (
    charge_schedule_setup,
    distribute_indices,
    dynamic_next,
    for_indices,
    guided_next,
)


def build_task_values(task: OutlinedTask, env: Dict, ivs: Tuple[int, ...]) -> Dict:
    """Assemble the named value environment an outlined task is called with."""
    values: Dict[str, object] = {}
    for u in task.uses:
        values[u] = env[u]
    for cname, _ in task.captures:
        try:
            values[cname] = env[cname]
        except KeyError:
            raise CodegenError(
                f"task {task.name!r} captures {cname!r} but the enclosing "
                "pre= callback did not produce it"
            ) from None
    for level, key in enumerate(task.iv_keys):
        values[key] = int(ivs[level])
    return values


def _outer_ivs(task: OutlinedTask, values: Dict) -> Tuple[int, ...]:
    return tuple([int(values[key]) for key in task.iv_keys])


#: Identities/combiner for the for-level reduction clause.
_RED_IDENTITY = {"add": 0.0, "max": float("-inf"), "min": float("inf"), None: None}


def _red_combine(op, a, b):
    if op == "add":
        return a + b
    if op == "max":
        return a if a >= b else b
    return a if a <= b else b


def _finish_for_reduction(tc, rt, node, acc, ivs_outer, values):
    """Combine executor partials and run the clause's finalizer."""
    op, finalize = node.reduction
    total = yield from workshare_reduce(tc, rt, acc, op)
    if tc.tid == 0:
        yield from finalize(tc, ivs_outer, values, total)


def _run_for(tc, rt, node, trip, to_user_iv, content, ivs_outer, values):
    """Workshare a ``for`` loop across the team's SIMD groups.

    Static schedules are index arithmetic; ``schedule(dynamic)`` claims
    chunks from the team's atomic counter — the group's SIMD main thread
    claims and, in SPMD parallel mode where every lane executes the region
    redundantly, broadcasts the claim to its group with a shuffle.
    """
    cfg = rt.cfg
    red_op = getattr(node, "reduction", None)
    red_op = red_op[0] if red_op else None
    acc = _RED_IDENTITY[red_op] if red_op else None
    if node.schedule not in ("dynamic", "guided"):
        group = get_simd_group(tc, cfg)
        for k in for_indices(trip, group, cfg.num_groups, node.schedule, node.chunk):
            val = yield from content(tc, rt, ivs_outer + (to_user_iv(k),), values)
            if red_op:
                acc = _red_combine(red_op, acc, float(val))
            yield Compute("alu", 1)
        return acc

    if tc.tid == 0:
        yield from tc.store(rt.dyn_counter, 0, 0)
    yield from workshare_barrier(tc, rt)
    broadcast = cfg.parallel_mode is ExecMode.SPMD and cfg.simd_len > 1
    mask = simdmask(tc, cfg)
    guided = node.schedule == "guided"
    while True:
        if tc.tid % cfg.simd_len == 0:
            if guided:
                claim = yield from guided_next(
                    tc, rt.dyn_counter, trip, cfg.num_groups, node.chunk
                )
            else:
                claim = yield from dynamic_next(tc, rt.dyn_counter, trip, node.chunk)
            lo, hi = (-1, -1) if claim is None else claim
        else:
            lo, hi = 0, 0
        if broadcast:
            lo = int((yield from tc.shfl(lo, 0, mask)))
            hi = int((yield from tc.shfl(hi, 0, mask)))
        if lo < 0:
            break
        for k in range(lo, hi):
            val = yield from content(tc, rt, ivs_outer + (to_user_iv(k),), values)
            if red_op:
                acc = _red_combine(red_op, acc, float(val))
            yield Compute("alu", 1)
    # Implicit barrier: the next region may reset the claim counter.
    yield from workshare_barrier(tc, rt)
    return acc


# ---------------------------------------------------------------------------
# Simd lowering
# ---------------------------------------------------------------------------


def _lower_simd(
    table: DispatchTable,
    simd_node: Simd,
    arg_names: Sequence[str],
    outer_captures: Sequence[Tuple[str, str]],
    depth: int,
    name: str,
):
    """Outline the simd loop body and return (task, call generator fn)."""
    loop = simd_node.loop
    task = outline_task(
        name=name,
        uses=resolve_uses(loop, arg_names),
        captures=outer_captures,
        depth=depth,
    )
    reduction = simd_node.reduction

    def simd_task_fn(tc, rt, omp_iv, values):
        # A plain function returning the body generator: the runtime
        # delegates to the body directly, with no pass-through frame.
        return loop.body(tc, _outer_ivs(task, values) + (loop.user_iv(omp_iv),),
                         values)

    fn_id = table.register(
        simd_task_fn,
        task.layout,
        name,
        kind="simd",
        known=not simd_node.external,
        reduction=reduction[0] if reduction else None,
    )

    def call_simd(tc, rt, ivs, env):
        trip = yield from evaluate_trip(tc, loop, env, ivs)
        values = build_task_values(task, env, ivs)
        spmd = rt.cfg.parallel_mode is ExecMode.SPMD
        total = yield from rt_simd(tc, rt, fn_id, trip, values, spmd)
        if reduction is not None and tc.tid % rt.cfg.simd_len == 0:
            # Only the SIMD main thread finalizes the group total.
            yield from reduction[1](tc, ivs, env, total)

    return task, fn_id, call_simd


def _lower_loop_content(
    table: DispatchTable,
    loop,
    arg_names: Sequence[str],
    enclosing_captures: Sequence[Tuple[str, str]],
    depth: int,
    name: str,
):
    """Runner for one iteration of ``loop``: pre -> simd/leaf -> post.

    ``depth`` counts the loop variables *including this loop's own* that the
    content runs under.  Returns ``(tasks, runner)``.
    """
    tasks: Dict[str, Tuple[OutlinedTask, int]] = {}
    if loop.body is not None:
        def run_leaf(tc, rt, ivs, env):
            return loop.body(tc, ivs, env)
        return tasks, run_leaf

    simd_node = loop.nested
    all_captures = tuple(enclosing_captures) + tuple(loop.captures)
    task, fn_id, call_simd = _lower_simd(
        table, simd_node, arg_names, all_captures, depth, f"{name}.simd"
    )
    tasks[f"{name}.simd"] = (task, fn_id)
    has_pre, has_post = loop.pre is not None, loop.post is not None
    if not (has_pre or has_post):
        return tasks, call_simd

    def run(tc, rt, ivs, env):
        if has_pre:
            locals_ = yield from loop.pre(tc, ivs, env)
            env = {**env, **(locals_ or {})}
        yield from call_simd(tc, rt, ivs, env)
        if has_post:
            yield from loop.post(tc, ivs, env)

    return tasks, run


# ---------------------------------------------------------------------------
# Combined teams distribute parallel for
# ---------------------------------------------------------------------------


def _compile_tdpf(
    target: Target, node: TeamsDistributeParallelFor, arg_names, name, table, report
):
    loop = node.loop
    tasks, content = _lower_loop_content(
        table, loop, arg_names, (), depth=1, name=f"{name}.tdpf"
    )
    micro_task = outline_task(
        name=f"{name}.tdpf",
        uses=subtree_uses(loop, arg_names),
        captures=(),
        depth=0,
    )

    def microtask(tc, rt, values):
        trip = yield from evaluate_trip(tc, loop, values, ())
        yield from charge_schedule_setup(tc)
        chunk = distribute_indices(
            trip, tc.block_id, tc.num_blocks, node.dist_schedule, node.dist_chunk
        )
        if not isinstance(chunk, (list, tuple)):
            chunk = list(chunk)
        acc = yield from _run_for(
            tc, rt, node, len(chunk), lambda k: loop.user_iv(chunk[k]),
            content, (), values,
        )
        if node.reduction is not None:
            yield from _finish_for_reduction(tc, rt, node, acc, (), values)

    micro_id = table.register(microtask, micro_task.layout, micro_task.name, kind="parallel")
    tasks[micro_task.name] = (micro_task, micro_id)

    def entry_factory(cfg, gmem, counters, args):
        values0 = {u: args[u] for u in micro_task.uses}

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, gmem, table, counters)
            role = yield from target_init(tc, rt)
            if role == ROLE_RETIRED:
                return
            if role == ROLE_WORKER:
                yield from team_worker_loop(tc, rt)
                return
            yield from rt_parallel(tc, rt, micro_id, values0)
            if role == ROLE_MAIN:
                yield from target_deinit(tc, rt)

        return entry

    return CompiledKernel(
        name=name,
        target=target,
        report=report,
        table=table,
        arg_names=tuple(arg_names),
        tasks=tasks,
        total_uses=micro_task.uses,
        entry_factory=entry_factory,
    )


# ---------------------------------------------------------------------------
# teams distribute (+ nested parallel for)
# ---------------------------------------------------------------------------


def _compile_teams_distribute(
    target: Target, node: TeamsDistribute, arg_names, name, table, report
):
    td_loop = node.loop
    tasks: Dict[str, Tuple[OutlinedTask, int]] = {}
    total_uses = subtree_uses(td_loop, arg_names)

    if td_loop.nested is None:
        # Sequential per-team body on the main thread.
        def iteration(tc, rt, ivs, env):
            yield from td_loop.body(tc, ivs, env)
    else:
        pf_node: ParallelFor = td_loop.nested
        pf_loop = pf_node.loop
        inner_tasks, content = _lower_loop_content(
            table,
            pf_loop,
            arg_names,
            tuple(td_loop.captures),
            depth=2,
            name=f"{name}.pf",
        )
        tasks.update(inner_tasks)
        pf_task = outline_task(
            name=f"{name}.pf",
            uses=subtree_uses(pf_loop, arg_names),
            captures=tuple(td_loop.captures),
            depth=1,
        )

        def pf_microtask(tc, rt, values):
            ivs_outer = _outer_ivs(pf_task, values)
            trip = yield from evaluate_trip(tc, pf_loop, values, ivs_outer)
            yield from charge_schedule_setup(tc)
            acc = yield from _run_for(
                tc, rt, pf_node, trip, pf_loop.user_iv, content, ivs_outer, values
            )
            if pf_node.reduction is not None:
                yield from _finish_for_reduction(
                    tc, rt, pf_node, acc, ivs_outer, values
                )

        pf_id = table.register(pf_microtask, pf_task.layout, pf_task.name, kind="parallel")
        tasks[pf_task.name] = (pf_task, pf_id)
        has_pre, has_post = td_loop.pre is not None, td_loop.post is not None

        def iteration(tc, rt, ivs, env):
            if has_pre:
                locals_ = yield from td_loop.pre(tc, ivs, env)
                env = {**env, **(locals_ or {})}
            values = build_task_values(pf_task, env, ivs)
            yield from rt_parallel(tc, rt, pf_id, values)
            if has_post:
                yield from td_loop.post(tc, ivs, env)

    def entry_factory(cfg, gmem, counters, args):
        env0 = {u: args[u] for u in total_uses}

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, gmem, table, counters)
            role = yield from target_init(tc, rt)
            if role == ROLE_RETIRED:
                return
            if role == ROLE_WORKER:
                yield from team_worker_loop(tc, rt)
                return
            trip = yield from evaluate_trip(tc, td_loop, env0, ())
            yield from charge_schedule_setup(tc)
            for k in distribute_indices(
                trip, tc.block_id, tc.num_blocks, node.schedule, node.dist_chunk
            ):
                iv = td_loop.user_iv(k)
                yield from iteration(tc, rt, (iv,), env0)
                yield Compute("alu", 1)
            if role == ROLE_MAIN:
                yield from target_deinit(tc, rt)

        return entry

    return CompiledKernel(
        name=name,
        target=target,
        report=report,
        table=table,
        arg_names=tuple(arg_names),
        tasks=tasks,
        total_uses=total_uses,
        entry_factory=entry_factory,
    )


# ---------------------------------------------------------------------------


def compile_kernel(
    target: Target, arg_names: Sequence[str], name: str = "kernel"
) -> CompiledKernel:
    """Lower a directive tree into a launchable :class:`CompiledKernel`."""
    if not isinstance(target, Target):
        raise CodegenError(
            f"compile_kernel expects a Target tree, got {type(target).__name__}"
        )
    report = analyze_modes(target)
    table = DispatchTable()
    child = target.child
    if isinstance(child, TeamsDistributeParallelFor):
        return _compile_tdpf(target, child, tuple(arg_names), name, table, report)
    return _compile_teams_distribute(target, child, tuple(arg_names), name, table, report)
