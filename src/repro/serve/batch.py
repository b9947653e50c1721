"""Launch coalescing: many small requests, one segmented grid.

The executor substrate already merges per-block effects
deterministically in ascending block id; batching rides that machinery
by concatenating compatible requests into one
:class:`~repro.exec.GridSegment`-typed plan.  Each request's blocks
execute with **local** coordinates (block 0..n-1 of its own grid) so
every lane — and the JIT's trace-cache key — observes exactly what a
solo launch would have shown it; only the merge order uses global ids.
The result is bit-identical to running the requests one at a time
(tested by the hypothesis property in ``tests/serve``).

Eligibility (:func:`compatible`): same ``threads_per_block``, hook-free
(no tracer/sanitizer/races/schedule-policy — enforced by
``LaunchPlan.validate_segments``), same resolved round engine, and
disjoint global buffers — guaranteed here by construction, because
:func:`prepare` allocates each request's buffers fresh from its input
arrays.  Per-request telemetry demuxes from the per-segment outcome:
block counters, shared high-water mark, runtime-counter deltas, and the
cost model's cycle composition are all computed per segment, exactly as
``Device.launch`` composes them for a solo grid.  Launch-scoped JIT
telemetry (``kc.extra["jit_*"]``) is the one deliberate exception: it
cannot be attributed to a single request inside a batch, so batched
counters omit it (documented in ``docs/SERVE.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import LaunchError
from repro.exec import GridSegment, LaunchPlan, SerialExecutor, merge_records
from repro.exec.record import ErrorCapsule
from repro.gpu.counters import KernelCounters
from repro.gpu.sm import compose_kernel_cycles
from repro.runtime.icv import DEFAULT_SHARING_BYTES

__all__ = [
    "LaunchOutcome",
    "PreparedLaunch",
    "compatible",
    "prepare",
    "recycle",
    "release",
    "run_batch",
]


@dataclass
class PreparedLaunch:
    """One request, bound to the serving device and ready to run.

    Created by :func:`prepare`: input arrays are materialized as fresh
    global buffers (disjoint from every other prepared request by
    construction), the entry closure is bound, and geometry is resolved
    through the same ladder ``omp.launch`` uses.
    """

    name: str
    kernel: object
    cfg: object
    rc: object
    entry: object
    buffers: Dict[str, object]
    out: Sequence[str]
    regs_per_thread: int = 32

    @property
    def num_blocks(self) -> int:
        return self.cfg.num_teams

    @property
    def threads_per_block(self) -> int:
        return self.cfg.block_dim


@dataclass
class LaunchOutcome:
    """Demuxed per-request result of a (possibly batched) execution."""

    name: str
    counters: Optional[KernelCounters] = None
    runtime: object = None
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    error: Optional[ErrorCapsule] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> None:
        if self.error is not None:
            self.error.reraise()


def prepare(
    device,
    catalog,
    name: str,
    args: Dict[str, np.ndarray],
    *,
    num_teams: int,
    team_size: int,
    simd_len: Optional[int] = None,
    out: Optional[Sequence[str]] = None,
    sharing_bytes: int = DEFAULT_SHARING_BYTES,
    regs_per_thread: int = 32,
    tag: Optional[str] = None,
) -> PreparedLaunch:
    """Bind one request: allocate its buffers, build its entry.

    ``args`` maps kernel arg names to host arrays; each is copied into
    a fresh global buffer (tagged so concurrent requests never share a
    name).  ``out`` names the args to read back after execution
    (default: all of them).
    """
    kernel = catalog.get(name)
    tag = tag or name
    buffers = {}
    with device.lock:
        try:
            for arg_name in sorted(args):
                buffers[arg_name] = device.from_array(
                    f"{tag}:{arg_name}", np.asarray(args[arg_name])
                )
        except BaseException:
            for buf in buffers.values():
                device.free(buf)
            raise
    entry, cfg, rc = catalog.build_entry(
        name,
        device.gmem,
        buffers,
        num_teams=num_teams,
        team_size=team_size,
        simd_len=simd_len,
        sharing_bytes=sharing_bytes,
        params=device.params,
    )
    return PreparedLaunch(
        name=name,
        kernel=kernel,
        cfg=cfg,
        rc=rc,
        entry=entry,
        buffers=buffers,
        out=tuple(out) if out is not None else tuple(sorted(args)),
        regs_per_thread=regs_per_thread,
    )


def recycle(
    device,
    catalog,
    prepared: PreparedLaunch,
    args: Dict[str, np.ndarray],
    *,
    out: Optional[Sequence[str]] = None,
) -> PreparedLaunch:
    """Rebind a completed request's state to a new request **in place**.

    The cheap-cloning path for sustained same-shape traffic: instead of
    allocating fresh buffers per request (and growing the allocator's
    churn), the previous request's buffers are refilled from the new
    input arrays — ``fill_from`` marks every page dirty, so snapshots
    and the merge see the refill like any other write — and a fresh
    entry/runtime-counter pair is bound over them.  Geometry is carried
    over from ``prepared``; arg names, shapes, and dtypes must match
    (anything else needs a real :func:`prepare`).  Returns ``prepared``.
    """
    if prepared.buffers.keys() != args.keys():
        raise LaunchError(
            f"recycle arg mismatch for {prepared.name!r}: have "
            f"{sorted(prepared.buffers)}, got {sorted(args)}"
        )
    cfg = prepared.cfg
    with device.lock:
        for arg_name in sorted(args):
            buf = prepared.buffers[arg_name]
            arr = np.ascontiguousarray(args[arg_name]).reshape(-1)
            if arr.size != buf.size or arr.dtype != buf.dtype:
                raise LaunchError(
                    f"recycle shape/dtype mismatch on {arg_name!r}: buffer "
                    f"is {buf.size} x {buf.dtype}, array is "
                    f"{arr.size} x {arr.dtype}"
                )
            buf.fill_from(arr)
    entry, new_cfg, rc = catalog.build_entry(
        prepared.name,
        device.gmem,
        prepared.buffers,
        num_teams=cfg.num_teams,
        team_size=cfg.team_size,
        simd_len=cfg.simd_len,
        sharing_bytes=cfg.sharing_bytes,
        params=device.params,
    )
    prepared.cfg = new_cfg
    prepared.rc = rc
    prepared.entry = entry
    if out is not None:
        prepared.out = tuple(out)
    return prepared


def release(device, prepared: PreparedLaunch) -> None:
    """Free a prepared request's buffers (after outputs are read)."""
    with device.lock:
        for buf in prepared.buffers.values():
            try:
                device.free(buf)
            except Exception:
                pass  # already freed (e.g. rollback path)
        prepared.buffers = {}


def compatible(a: PreparedLaunch, b: PreparedLaunch) -> bool:
    """Can ``a`` and ``b`` share one merged grid?

    Same block shape is the only per-pair condition — buffer
    disjointness holds by construction and hook-freedom is enforced at
    plan level.  (The resolved engine is a batch-level property: every
    request in a batch runs under the batch's engine.)
    """
    return a.threads_per_block == b.threads_per_block


def resolve_batch_engine(engine: Optional[str], faults) -> str:
    """The round engine a batch runs under — ``Device.launch``'s ladder
    minus the per-launch hooks batches reject anyway.

    A fault plan naming an in-block site (``FaultPlan.hooks_blocks``)
    forces the instrumented engine (those sites live in the instrumented
    block scheduler), exactly as it does for solo launches; otherwise the
    explicit choice, then ``REPRO_ENGINE``, then auto → fast.
    """
    from repro.jit import coerce_engine, default_engine

    hooked = faults is not None and faults.hooks_blocks
    if engine is not None:
        resolved = coerce_engine(engine)
        if resolved in ("fast", "jit") and hooked:
            raise LaunchError(
                f"engine={resolved!r} is incompatible with an attached "
                "fault plan (fault sites need the instrumented engine)"
            )
    else:
        resolved = default_engine()
    if hooked:
        return "instrumented"
    return "fast" if resolved == "auto" else resolved


def run_batch(
    device,
    prepared: Sequence[PreparedLaunch],
    *,
    engine: Optional[str] = None,
    executor=None,
    faults=None,
    lease=None,
    timeout: Optional[float] = None,
    read_outputs: bool = True,
) -> List[LaunchOutcome]:
    """Execute prepared requests as one segmented grid; demux results.

    ``executor`` picks the in-process engine (default
    :class:`~repro.exec.SerialExecutor`); ``lease`` instead dispatches
    block execution to a persistent warm
    :class:`~repro.serve.lease.PoolLease` and feeds the returned
    records through the identical :func:`repro.exec.merge_records`.
    Either way the whole execute-and-merge runs under ``device.lock``
    (one grid owns the device at a time).

    A request whose kernel raises gets the error in its own
    :class:`LaunchOutcome` — the same exception a solo launch would
    have raised, after the same partial state commit — and the other
    requests in the batch are unaffected.
    """
    if not prepared:
        return []
    tpb = prepared[0].threads_per_block
    for p in prepared[1:]:
        if not compatible(prepared[0], p):
            raise LaunchError(
                f"incompatible batch: {prepared[0].name!r} has "
                f"threads_per_block={tpb}, {p.name!r} has "
                f"{p.threads_per_block}"
            )
    resolved = resolve_batch_engine(engine, faults)

    jit_stats = None
    if resolved == "jit":
        from repro.jit import JitCounters

        jit_stats = JitCounters()

    segments = tuple(
        GridSegment(p.entry, p.num_blocks, label=p.name) for p in prepared
    )
    side = tuple(p.rc for p in prepared)
    use_lease = lease is not None
    plan = LaunchPlan(
        entry=None,
        args=(),
        num_blocks=sum(p.num_blocks for p in prepared),
        threads_per_block=tpb,
        segments=segments,
        side_state=side if use_lease else (
            side + ((faults.counters,) if faults is not None else ())
        ),
        faults=None if use_lease else faults,
        engine=resolved,
        jit_stats=jit_stats,
        deadline=(time.monotonic() + timeout) if timeout is not None else None,
    )
    exec_ = executor if executor is not None else SerialExecutor()

    with device.lock:
        if use_lease:
            records = lease.run(device, prepared, engine=resolved,
                                deadline=plan.deadline)
            outcome = merge_records(device, plan, records)
        else:
            outcome = exec_.execute(device, plan)

        results: List[LaunchOutcome] = []
        for p, seg in zip(prepared, outcome.segments):
            kc = KernelCounters(
                num_blocks=p.num_blocks, threads_per_block=tpb
            )
            kc.blocks = list(seg.blocks)
            cycles, resident, waves = compose_kernel_cycles(
                device.params, kc.blocks, tpb, seg.shared_used,
                p.regs_per_thread,
            )
            kc.cycles = cycles
            kc.blocks_per_sm = resident
            kc.waves = waves
            kc.extra["shared_bytes_per_block"] = float(seg.shared_used)
            kc.extra["regs_per_thread"] = float(p.regs_per_thread)
            kc.extra.update(p.rc.as_dict())
            kc.extra["simd_len"] = float(p.cfg.simd_len)
            outputs = {}
            if read_outputs:
                # ``to_numpy`` already returns a fresh host copy.
                outputs = {
                    name: p.buffers[name].to_numpy()
                    for name in p.out
                    if name in p.buffers
                }
            results.append(LaunchOutcome(
                name=p.name,
                counters=kc,
                runtime=p.rc,
                outputs=outputs,
                error=seg.error,
            ))
    return results
