"""Thread-block scheduler: cooperative lockstep execution of all lanes.

A :class:`ThreadBlock` owns one generator per thread and advances them in
*rounds*: every runnable lane steps by exactly one event per round.  The
round structure is what makes the simulation SIMT-faithful:

* lanes of a warp that post the same event signature in a round form one
  *issue group* (one warp instruction); divergent lanes issue separately;
* memory events that issue together are coalesced together;
* warp/block barriers block lanes until every *live* participant arrives —
  retired threads are excluded, matching CUDA's ``__syncthreads`` treatment
  of exited threads;
* if a round advances no lane and releases no barrier, the block is
  deadlocked and a :class:`~repro.errors.DeadlockError` with a per-lane
  diagnostic is raised (this is how the test suite's failure-injection
  cases observe protocol bugs).

Side effects within a round apply in deterministic (warp, lane) order, so
every simulation — including atomics — is reproducible.  An optional
``schedule_policy`` (see :mod:`repro.sanitizer.schedule`) re-permutes the
warp resolution order and per-warp commit order per round — still
deterministic given the policy's seed, which is how the sanitizer's
schedule explorer surfaces order-dependent results.

An optional ``monitor`` (see :mod:`repro.sanitizer.monitor`) observes
events, retirements, barrier releases, and deadlocks; the happens-before
race detector, barrier analyzer, and sharing auditor all attach through
it.  Both hooks are strictly zero-cost when absent.

Engines
=======

The block owns two round loops over one shared core.  Side effects (the
``_side`` handler table), issue and memory accounting (the ``_acct``
handlers and :meth:`ThreadBlock._account_memory`), round settlement
(:meth:`ThreadBlock._settle_round`) and barrier release
(:meth:`ThreadBlock._release_barriers`) exist once; the engines differ
only in how a round's lanes are stepped:

* the **instrumented engine** (:meth:`ThreadBlock._run_instrumented`)
  buffers a round's posts, then applies and accounts them warp by warp,
  carrying every hook point (tracer, monitor, schedule policy, fault
  plan);
* the **fast engine** (:meth:`ThreadBlock._run_fast`) — selected
  automatically when none of those hooks is attached (the production
  configuration) — fuses stepping, side effects and accounting into one
  pass per warp and completes same-round collectives inline.

Memory contents, every :class:`~repro.gpu.counters.BlockCounters` field,
and the deadlock/error behaviour are therefore bit-identical across the
engines; only the interpreter overhead differs.  The handler tables are
specialized once at construction (on the exec-layer write recorder and
an in-block fault plan), so the handlers carry no hook-presence branches
and the recorder leaves the fast engine eligible — parallel-executor
workers inherit it.
``tests/gpu/test_fastpath_equiv.py`` holds the differential proof
obligation; ``tests/gpu/test_accounting_oracle.py`` checks the shared
accounting against an independent per-element model.

Engine selection
================

:func:`resolve_engine` is the one ladder both launch paths use
(``Device.launch`` and serve batches): the explicit ``engine=`` name,
then the ``REPRO_ENGINE`` environment variable, then ``auto``:

========================  ==================================================
``engine`` / env          Meaning
========================  ==================================================
unset / ``auto``          fast engine when hook-free (the default)
``instrumented``          always the instrumented reference engine
``fast``                  the fast engine (hooks force instrumented)
========================  ==================================================
"""

from __future__ import annotations

import math
import operator
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockError,
    LaunchError,
    SimulationError,
    SynchronizationError,
)
from repro.gpu.atomics import apply_atomic, apply_atomic_resilient
from repro.gpu.coalescing import L1SectorCache, shared_conflict_degree
from repro.gpu.costmodel import CostParams
from repro.gpu.counters import BlockCounters
from repro.gpu.events import T_LOAD
from repro.gpu.memory import PAGE_SHIFT, GlobalMemory, SharedMemory
from repro.gpu.thread import (
    DONE,
    RUN,
    WAIT_BLOCK,
    WAIT_SHFL,
    WAIT_WARP,
    Lane,
    ThreadCtx,
    lane_table,
)

#: Hard cap on scheduling rounds; hitting it means a runaway kernel.
DEFAULT_MAX_ROUNDS = 5_000_000

#: Environment variable naming the process-wide round-engine preference.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid round-engine preference names.
ENGINES = ("auto", "instrumented", "fast")


def coerce_engine(spec) -> str:
    """Validate an engine preference name; returns the canonical string."""
    name = str(spec).strip().lower()
    if name not in ENGINES:
        raise LaunchError(
            f"unknown engine {spec!r}: expected one of {', '.join(ENGINES)}"
        )
    return name


def default_engine() -> str:
    """The process-wide engine preference (``REPRO_ENGINE``, else ``auto``).

    Re-reads the environment on every call so tests and harnesses can
    flip the variable between launches, mirroring
    :func:`repro.exec.default_executor`.
    """
    spec = os.environ.get(ENGINE_ENV, "").strip()
    return coerce_engine(spec) if spec else "auto"


def resolve_engine(engine: Optional[str], hook: Optional[str]) -> str:
    """The round engine a launch runs under: ``"instrumented"`` or ``"fast"``.

    ``engine`` is the caller's explicit preference (None defers to
    ``REPRO_ENGINE``, then ``auto``); ``hook`` names the attached hook
    that needs the instrumented engine (``"tracer"``, ``"fault plan"``,
    ...), or None.  A hook forces the instrumented engine.  An explicit
    ``"fast"`` together with a hook raises :class:`LaunchError`, while
    an environment preference downgrades silently so whole suites can be
    swept under ``REPRO_ENGINE``.  An unknown name raises
    :class:`LaunchError` naming the valid ones.
    """
    if engine is not None:
        requested = coerce_engine(engine)
        if requested == "fast" and hook is not None:
            raise LaunchError(
                f"engine={requested!r} is incompatible with an attached "
                f"{hook} hook (hooks need the instrumented engine); "
                "drop the hook or use engine='auto'"
            )
    else:
        requested = default_engine()
    if hook is not None or requested == "instrumented":
        return "instrumented"
    return "fast"


_BY_LANE_ID = operator.attrgetter("lane_id")


class ThreadBlock:
    """One simulated thread block (an OpenMP team's hardware vehicle)."""

    def __init__(
        self,
        block_id: int,
        num_threads: int,
        params: CostParams,
        gmem: GlobalMemory,
        entry,
        args: Sequence = (),
        num_blocks: int = 1,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        tracer=None,
        detect_races: bool = False,
        monitor=None,
        schedule_policy=None,
        recorder=None,
        faults=None,
        engine: Optional[str] = None,
    ) -> None:
        if num_threads < 1:
            raise LaunchError("block must have at least one thread")
        self.block_id = block_id
        self.num_threads = num_threads
        self.num_blocks = num_blocks
        self.params = params
        self.gmem = gmem
        self.shared = SharedMemory(params.shared_mem_per_block)
        self.counters = BlockCounters()
        self.max_rounds = max_rounds
        #: Optional event hook ``tracer(block_id, round, tid, event)`` —
        #: zero-cost when None; used for debugging and protocol tests.
        self.tracer = tracer
        #: When True, unsynchronized same-address conflicts raise
        #: :class:`~repro.errors.DataRaceError` (debugging mode) — a
        #: shorthand for attaching the sanitizer's happens-before race
        #: detector in raise mode.
        self.detect_races = detect_races
        if detect_races and monitor is None:
            from repro.sanitizer.monitor import SanitizerConfig, SanitizerMonitor

            monitor = SanitizerMonitor(
                SanitizerConfig(barriers=False, sharing=False, mode="raise")
            )
        #: Optional sanitizer monitor (event/release/deadlock hooks).
        self.monitor = monitor
        #: Optional schedule policy permuting warp/commit order per round.
        self.schedule_policy = schedule_policy
        #: Optional global-memory write recorder
        #: (:class:`repro.exec.record.GlobalWriteRecorder`) — the parallel
        #: launch engine's undo/merge hook; zero-cost when None.
        self.recorder = recorder
        #: Optional fault plan (:class:`repro.faults.FaultPlan`) consulted
        #: at the transient-atomic and forced-overflow hook sites;
        #: zero-cost when None.
        self.faults = faults
        #: Per-block L1 sector cache (LRU), shared by both round engines so
        #: their hit/miss streams evolve identically.
        self._l1 = L1SectorCache(
            max(1, params.l1_size_bytes // params.sector_bytes)
        )
        self._round_mem_stall = False
        # Engine selection: ``engine`` is a preference ("auto" |
        # "instrumented" | "fast"; None means "auto").  The fast engine
        # carries no hook points, so any attached tracer/monitor/policy —
        # or a fault plan naming an in-block site
        # (``FaultPlan.hooks_blocks``) — forces the instrumented engine
        # regardless of the preference.  :func:`resolve_engine` applies
        # the launch-level ladder (and its errors) before blocks exist.
        if engine is None:
            engine = "auto"
        elif engine not in ENGINES:
            raise LaunchError(f"unknown engine {engine!r}")
        hooked = (
            self.tracer is not None
            or self.monitor is not None
            or self.schedule_policy is not None
            or (self.faults is not None and self.faults.hooks_blocks)
        )
        self.engine = (
            "instrumented" if hooked or engine == "instrumented" else "fast"
        )
        ws = params.warp_size
        self.num_warps = -(-num_threads // ws)
        self.lanes: List[Lane] = []
        self.ctxs: List[ThreadCtx] = []
        # Lane identity rows, computed once per geometry and shared by
        # every block of every launch that uses it.
        for tid, warp_id, lane_id in lane_table(num_threads, ws).rows:
            tc = ThreadCtx(
                tid=tid,
                warp_size=ws,
                block_id=block_id,
                num_blocks=num_blocks,
                block_dim=num_threads,
                block=self,
                lane_id=lane_id,
                warp_id=warp_id,
            )
            gen = entry(tc, *args)
            if not hasattr(gen, "send"):
                raise LaunchError(
                    "kernel entry must be a generator function "
                    f"(got {type(gen).__name__} from {entry!r})"
                )
            self.ctxs.append(tc)
            self.lanes.append(Lane(tid, warp_id, lane_id, gen))
        self._warps: List[List[Lane]] = [
            self.lanes[w * ws : (w + 1) * ws] for w in range(self.num_warps)
        ]
        # -- round state shared by both engines ---------------------------
        # Pre-allocated per-warp event buffers for the fast engine, reused —
        # cleared, never reallocated — every round.  (Side effects apply
        # inline while stepping, so only the events survive to accounting.)
        self._post_evs: List[list] = [[] for _ in range(self.num_warps)]
        # Hoisted cost-table lookup target for the accounting handlers.
        self._op_cost = self.params.op_cost
        self._cost_ld = self._op_cost.get("ld", 1.0)
        self._cost_st = self._op_cost.get("st", 1.0)
        # Round-local atomic address histogram, emptied by _settle_round.
        self._atomic_addrs: Dict[tuple, int] = {}
        # Incremental barrier bookkeeping: waiter groups are maintained at
        # post time (side-effect handlers) and torn down at release, so
        # release never rescans all lanes looking for barriers.
        self._block_waiters: Dict[tuple, List[Lane]] = {}
        self._warp_waiters: List[Dict[int, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._shfl_waiters: List[Dict[tuple, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._n_waiters = 0
        self._full_mask = (1 << ws) - 1
        # Per-tag handler tables (indexed by event tag).  The side-effect
        # table is specialized once, here, on recorder presence and on an
        # in-block fault plan — the handlers carry no hook-presence
        # branches.  A plan naming no in-block site cannot fire at the
        # atomic site, so it keeps the plain atomic handler.
        rec = self.recorder
        side_load = self._side_load if rec is None or not rec.track_reads else self._side_load_rec
        side_store = self._side_store if rec is None else self._side_store_rec
        if faults is not None and faults.hooks_blocks:
            side_atomic = self._side_atomic_hooked
        elif rec is None:
            side_atomic = self._side_atomic
        else:
            side_atomic = self._side_atomic_rec
        self._side = [
            None,  # T_COMPUTE: no architectural side effect
            side_load,
            side_store,
            side_atomic,
            self._side_syncwarp,
            self._side_syncblock,
            self._side_shuffle,
            self._side_vote,
        ]
        self._acct = [
            self._acct_compute,
            self._acct_mem,
            self._acct_mem,
            self._acct_atomic,
            self._acct_barrier,
            self._acct_barrier,
            self._acct_shfl,
            self._acct_shfl,
        ]

    # ------------------------------------------------------------------
    def run(self) -> BlockCounters:
        """Execute the block to completion; returns its counters."""
        if self.engine == "fast":
            return self._run_fast()
        return self._run_instrumented()

    # ------------------------------------------------------------------
    # Instrumented engine: the buffered round loop with every hook point.
    # ------------------------------------------------------------------
    def _run_instrumented(self) -> BlockCounters:
        lanes = self.lanes
        c = self.counters
        mon = self.monitor
        if mon is not None:
            mon.on_block_start(self)
        while True:
            posted_by_warp: List[List[Tuple[Lane, object]]] = [
                [] for _ in range(self.num_warps)
            ]
            advanced = 0
            live = 0
            for lane in lanes:
                state = lane.state
                if state == DONE:
                    continue
                live += 1
                if state != RUN:
                    continue
                try:
                    ev = lane.gen.send(lane.pending)
                except StopIteration:
                    lane.state = DONE
                    # Clear the resume value eagerly: post-mortem
                    # diagnostics and the exec recorder must never observe
                    # a dead lane's stale value.
                    lane.pending = None
                    live -= 1
                    if mon is not None:
                        mon.on_retire(self, c.rounds, lane)
                    continue
                lane.pending = None
                posted_by_warp[lane.warp_id].append((lane, ev))
                advanced += 1
                if self.tracer is not None:
                    self.tracer(self.block_id, c.rounds, lane.tid, ev)
                if mon is not None:
                    mon.on_event(self, c.rounds, lane, ev)
            c.lane_steps += advanced
            if live == 0:
                break
            self._resolve_round(posted_by_warp)
            self._settle_round()
            released = self._release_barriers(live) if self._n_waiters else 0
            if advanced == 0 and released == 0:
                self._raise_deadlock()
            c.rounds += 1
            if c.rounds > self.max_rounds:
                raise SimulationError(
                    f"block {self.block_id} exceeded {self.max_rounds} rounds; "
                    "likely a runaway loop"
                )
        if mon is not None:
            mon.on_block_end(self)
        return c

    def _raise_deadlock(self):
        """Raise the no-progress diagnostic (identical on both engines)."""
        c = self.counters
        mon = self.monitor
        msg = self._deadlock_report()
        if mon is not None:
            analysis = mon.on_deadlock(self, c.rounds)
            if analysis:
                msg += "\n" + analysis
        raise DeadlockError(
            msg,
            block_id=self.block_id,
            round=c.rounds,
            lanes=[
                (l.tid, l.warp_id, l.lane_id, l.state, l.wait_key)
                for l in self.lanes
                if l.state != DONE
            ],
        )

    # ------------------------------------------------------------------
    # Fast engine: the fused, hook-free round loop.
    # ------------------------------------------------------------------
    def _run_fast(self) -> BlockCounters:
        """Hook-free round loop: one fused pass per warp per round.

        The instrumented engine steps every lane, buffers ``(lane, event)``
        posts, then resolves side effects and accounting in two further
        passes.  This loop fuses all three into a single warp-major scan:
        as each lane steps, its event's side effect is applied immediately
        (warps partition tids contiguously, so warp-major iteration applies
        side effects in exactly the ascending-tid order the buffered scheme
        produces) and the warp's convergence is tracked incrementally —
        interned events and signatures make the common converged case two
        identity checks per lane.  Accounting for the warp's issue groups
        runs right after its lanes, which is the same warp-ascending
        accounting order (and therefore the same L1 cache evolution) as the
        instrumented resolve pass.  Retired lanes are filtered out of the
        per-warp scan lists.  The handlers, round settlement and barrier
        release are the instrumented engine's own, so all observable
        behaviour — memory, counters, errors — matches it bit for bit.
        """
        c = self.counters
        params = self.params
        post_evs = self._post_evs
        side = self._side
        acct = self._acct
        max_rounds = self.max_rounds
        rec = self.recorder
        block_waiters = self._block_waiters
        warp_waiters = self._warp_waiters
        shfl_waiters = self._shfl_waiters
        warps = self._warps
        full_mask = self._full_mask
        syncwarp_cycles = params.syncwarp_cycles
        syncthreads_cycles = params.syncthreads_cycles
        nw = 0  # waiters added this round; merged into _n_waiters below
        bbk = bbg = None  # round-local classic-barrier arrivals
        # Single-element loads/stores inline below when no recorder watches
        # the direction; everything else dispatches through the table.
        inline_ld = rec is None or not rec.track_reads
        inline_st = rec is None
        active: List[List[Lane]] = [
            [l for l in warp if l.state != DONE] for warp in self._warps
        ]
        live = sum(map(len, active))
        while live:
            advanced = 0
            for w, lanes_w in enumerate(active):
                if not lanes_w:
                    continue
                evs = post_evs[w]
                ap_ev = evs.append
                ww_waiters = warp_waiters[w]
                sh_waiters = shfl_waiters[w]
                retired = False
                ev0 = None
                sk0 = sg0 = sspill = None
                swk0 = swg = None
                for lane in lanes_w:
                    if lane.state != RUN:
                        continue
                    try:
                        ev = lane.send(lane.pending)
                    except StopIteration:
                        lane.state = DONE
                        lane.pending = None
                        retired = True
                        live -= 1
                        continue
                    t = ev.tag
                    if t == 0:
                        lane.pending = None
                    elif t == 1:
                        idxs = ev.idxs
                        if inline_ld and len(idxs) == 1:
                            buf = ev.buf
                            i = idxs[0]
                            if i.__class__ is not int:
                                i = int(i)
                            if 0 <= i < buf.size:
                                lane.pending = (buf.data[i],)
                            else:
                                buf.check_index(i)
                        else:
                            lane.pending = None
                            side[1](lane, ev)
                    elif t == 2:
                        lane.pending = None
                        idxs = ev.idxs
                        values = ev.values
                        if inline_st and len(idxs) == 1 == len(values):
                            buf = ev.buf
                            i = idxs[0]
                            if i.__class__ is not int:
                                i = int(i)
                            if 0 <= i < buf.size:
                                buf.data[i] = values[0]
                                buf.dirty[i >> PAGE_SHIFT] = 1
                            else:
                                buf.check_index(i)
                        else:
                            side[2](lane, ev)
                    elif t == 4:
                        # SyncWarp arrival — collected round-locally; a
                        # full-mask barrier every warp lane reaches this
                        # round completes inline after the lane scan.
                        # Lanes with a second, different mask this round
                        # park in the waiter dict directly.
                        lane.pending = None
                        mask = ev.mask
                        if swk0 is None:
                            swk0 = mask
                            swg = [lane]
                        elif mask == swk0:
                            swg.append(lane)
                        else:
                            lane.state = WAIT_WARP
                            lane.wait_key = mask
                            # Invariant: only shuffle/vote waiters carry a
                            # posted event; a lane migrating to a barrier
                            # park must never drag a stale one along.
                            lane.posted = None
                            grp = ww_waiters.get(mask)
                            if grp is None:
                                ww_waiters[mask] = [lane]
                            else:
                                grp.append(lane)
                            nw += 1
                    elif t == 5:
                        # SyncBlock arrival — the classic block-wide
                        # barrier collects round-locally (completion is
                        # checked against end-of-round liveness below);
                        # a second, different key this round parks in
                        # the waiter dict directly.
                        lane.pending = None
                        key = ev.wkey
                        if bbk is None:
                            bbk = key
                            bbg = [lane]
                        elif key == bbk:
                            bbg.append(lane)
                        else:
                            lane.state = WAIT_BLOCK
                            lane.wait_key = key
                            # Same invariant as the syncwarp park above.
                            lane.posted = None
                            grp = block_waiters.get(key)
                            if grp is None:
                                block_waiters[key] = [lane]
                            else:
                                grp.append(lane)
                            nw += 1
                    elif t == 3:
                        lane.pending = None
                        side[3](lane, ev)
                    else:
                        # Shuffle / Vote arrival (tags 6 and 7 share the
                        # WAIT_SHFL machinery).  Collected round-locally: a
                        # full-warp group completing within this round is
                        # resolved inline after the lane scan, without ever
                        # parking its lanes in the waiter structures.
                        # ``wkey`` objects are interned, so the single-key
                        # common case is one identity check per lane.
                        lane.pending = None
                        lane.posted = ev
                        key = ev.wkey
                        if sk0 is None:
                            sk0 = key
                            sg0 = [lane]
                        elif key is sk0:
                            sg0.append(lane)
                        else:
                            if sspill is None:
                                sspill = {}
                            grp = sspill.get(key)
                            if grp is None:
                                sspill[key] = [lane]
                            else:
                                grp.append(lane)
                    if ev0 is None:
                        ev0 = ev
                        sig0 = ev.sig
                        uniform = True
                        converged = True
                    elif ev is not ev0:
                        uniform = False
                        if converged:
                            s = ev.sig
                            if s is not sig0 and s != sig0:
                                converged = False
                    ap_ev(ev)
                if retired:
                    active[w] = [l for l in lanes_w if l.state != DONE]
                if swk0 is not None:
                    # Full-mask syncwarp every warp lane reached this round:
                    # complete without parking — arrival already cleared
                    # ``pending`` and the lanes never left RUN.  (A retired
                    # lane keeps ``len(swg)`` short of the denominator, so
                    # such a group still deadlocks via the waiter path.)
                    if swk0 == full_mask and len(swg) == len(warps[w]):
                        c.syncwarps += 1
                        c.sync_cycles += syncwarp_cycles
                    else:
                        grp = ww_waiters.get(swk0)
                        if grp is None:
                            ww_waiters[swk0] = grp = []
                        for l in swg:
                            l.state = WAIT_WARP
                            l.wait_key = swk0
                            # Barrier waiters never carry a posted event
                            # (hygiene: this lane may have come
                            # off the inline same-round path mid-round).
                            l.posted = None
                            grp.append(l)
                        nw += len(swg)
                if sk0 is not None:
                    # Shuffle/vote groups posted this round: resolve inline
                    # when complete (full mask, every warp lane — retired
                    # lanes included in the denominator, so a group with a
                    # retired participant still deadlocks via the waiter
                    # path); park incomplete groups in the waiter dicts,
                    # merging behind any earlier-round arrivals.
                    nall = len(warps[w])
                    if sk0[0] == full_mask and len(sg0) == nall:
                        self._resolve_shfl_group(sk0, sg0)
                    else:
                        grp = sh_waiters.get(sk0)
                        if grp is None:
                            sh_waiters[sk0] = grp = []
                        for l in sg0:
                            l.state = WAIT_SHFL
                            l.wait_key = sk0
                            grp.append(l)
                        nw += len(sg0)
                    if sspill is not None:
                        for k2, g2 in sspill.items():
                            if k2[0] == full_mask and len(g2) == nall:
                                self._resolve_shfl_group(k2, g2)
                            else:
                                grp = sh_waiters.get(k2)
                                if grp is None:
                                    sh_waiters[k2] = grp = []
                                for l in g2:
                                    l.state = WAIT_SHFL
                                    l.wait_key = k2
                                    grp.append(l)
                                nw += len(g2)
                if ev0 is None:
                    continue
                advanced += len(evs)
                # Issue accounting for this warp's round, grouped by
                # signature; ``uniform`` (every entry the same interned
                # object) lets handlers skip per-event reductions.
                if converged:
                    c.issues += 1
                    acct[sig0[0]](sig0, evs, uniform)
                else:
                    self._account_issues(evs)
                evs.clear()
            c.lane_steps += advanced
            if not live:
                break
            self._settle_round()
            if bbk is not None:
                # Classic block barrier every live lane reached this round:
                # complete without parking (no live lane can be waiting
                # elsewhere when all of them arrived here).  Named/counted
                # barriers and partial arrivals park in the waiter dict,
                # merging behind earlier-round arrivals.
                if bbk[1] is None and len(bbg) == live:
                    c.syncblocks += 1
                    c.sync_cycles += syncthreads_cycles
                else:
                    grp = block_waiters.get(bbk)
                    if grp is None:
                        block_waiters[bbk] = grp = []
                    for l in bbg:
                        l.state = WAIT_BLOCK
                        l.wait_key = bbk
                        # Barrier waiters never carry a posted event.
                        l.posted = None
                        grp.append(l)
                    nw += len(bbg)
                bbk = bbg = None
            if nw:
                self._n_waiters += nw
                nw = 0
            released = self._release_barriers(live) if self._n_waiters else 0
            if advanced == 0 and released == 0:
                self._raise_deadlock()
            c.rounds += 1
            if c.rounds > max_rounds:
                raise SimulationError(
                    f"block {self.block_id} exceeded {self.max_rounds} rounds; "
                    "likely a runaway loop"
                )
        return c

    # -- side-effect handlers (pass 1) -----------------------------------
    # The fast engine inlines single-element loads/stores and collects
    # barrier, shuffle and vote arrivals itself; the instrumented engine
    # dispatches every event through the table.
    @staticmethod
    def _side_load(lane, ev) -> None:
        buf = ev.buf
        idxs = ev.idxs
        if len(idxs) == 1:
            i = int(idxs[0])
            if 0 <= i < buf.size:
                lane.pending = (buf.data[i],)
                return
            buf.check_index(i)  # raises the canonical MemoryFault
        lane.pending = buf.read_run(idxs)

    def _side_load_rec(self, lane, ev) -> None:
        lane.pending = ev.buf.read_run(ev.idxs)
        rec = self.recorder
        if ev.buf.space == "global" and rec.tracks(ev.buf):
            rec.on_load(ev.buf, ev.idxs)

    @staticmethod
    def _side_store(lane, ev) -> None:
        idxs = ev.idxs
        values = ev.values
        buf = ev.buf
        n = len(idxs)
        if n != len(values):
            raise SimulationError(
                f"store index/value arity mismatch on {buf.name!r}"
            )
        if n == 1:
            i = int(idxs[0])
            if 0 <= i < buf.size:
                buf.data[i] = values[0]
                buf.dirty[i >> PAGE_SHIFT] = 1
                return
            buf.check_index(i)
        write = buf.write
        for i, v in zip(idxs, values):
            write(i, v)

    def _side_store_rec(self, lane, ev) -> None:
        idxs = ev.idxs
        values = ev.values
        if len(idxs) != len(values):
            raise SimulationError(
                f"store index/value arity mismatch on {ev.buf.name!r}"
            )
        buf = ev.buf
        rec = self.recorder
        if buf.space == "global" and rec.tracks(buf):
            for i, v in zip(idxs, values):
                rec.on_store(buf, i, v)
                buf.write(i, v)
        else:
            for i, v in zip(idxs, values):
                buf.write(i, v)

    def _side_atomic(self, lane, ev) -> None:
        buf = ev.buf
        if buf.space == "global":
            self._round_mem_stall = True
        lane.pending = apply_atomic(buf, ev.idx, ev.op, ev.operand)
        key = self._contention_key(ev)
        addrs = self._atomic_addrs
        addrs[key] = addrs.get(key, 0) + 1

    def _side_atomic_rec(self, lane, ev) -> None:
        buf = ev.buf
        if buf.space == "global":
            self._round_mem_stall = True
        lane.pending = apply_atomic(buf, ev.idx, ev.op, ev.operand)
        rec = self.recorder
        if buf.space == "global" and rec.tracks(buf):
            rec.on_atomic(buf, ev.idx, ev.op, ev.operand, lane.pending)
        key = self._contention_key(ev)
        addrs = self._atomic_addrs
        addrs[key] = addrs.get(key, 0) + 1

    def _side_atomic_hooked(self, lane, ev) -> None:
        """Atomic under a fault plan naming an in-block site: transient
        failures retry (:func:`apply_atomic_resilient`); the recorder, if
        any, sees the committed result."""
        buf = ev.buf
        if buf.space == "global":
            self._round_mem_stall = True
        lane.pending = apply_atomic_resilient(
            buf, ev.idx, ev.op, ev.operand, self.faults,
            self.block_id, self.counters.rounds, lane.tid,
        )
        rec = self.recorder
        if rec is not None and buf.space == "global" and rec.tracks(buf):
            rec.on_atomic(buf, ev.idx, ev.op, ev.operand, lane.pending)
        key = self._contention_key(ev)
        addrs = self._atomic_addrs
        addrs[key] = addrs.get(key, 0) + 1

    def _side_syncwarp(self, lane, ev) -> None:
        lane.state = WAIT_WARP
        mask = ev.mask
        lane.wait_key = mask
        waiters = self._warp_waiters[lane.warp_id]
        grp = waiters.get(mask)
        if grp is None:
            waiters[mask] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    def _side_syncblock(self, lane, ev) -> None:
        lane.state = WAIT_BLOCK
        key = ev.wkey
        lane.wait_key = key
        waiters = self._block_waiters
        grp = waiters.get(key)
        if grp is None:
            waiters[key] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    def _side_shuffle(self, lane, ev) -> None:
        lane.state = WAIT_SHFL
        key = ev.wkey
        lane.wait_key = key
        lane.posted = ev
        waiters = self._shfl_waiters[lane.warp_id]
        grp = waiters.get(key)
        if grp is None:
            waiters[key] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    _side_vote = _side_shuffle

    # -- accounting (pass 2) ---------------------------------------------
    def _account_issues(self, evs) -> None:
        """Account one warp's round of events, grouped by signature.

        Groups are visited in first-post order, so both engines feed the
        L1 model the same sector sequence."""
        groups: Dict[tuple, list] = {}
        for ev in evs:
            g = groups.get(ev.sig)
            if g is None:
                groups[ev.sig] = [ev]
            else:
                g.append(ev)
        c = self.counters
        c.issues += len(groups)
        c.divergent_issues += len(groups) - 1
        acct = self._acct
        for sig, items in groups.items():
            acct[sig[0]](sig, items, False)

    # The per-tag handlers each take (sig, evs, uniform): ``evs`` is the
    # group's event list, ``uniform`` is True when every entry is the
    # *same* interned object — a free by-product of the fast engine's
    # convergence scan that lets the handlers skip per-event reductions.
    def _acct_compute(self, sig, evs, uniform) -> None:
        if uniform:
            ops = evs[0].ops
        else:
            ops = max(ev.ops for ev in evs)
        self.counters.issue_cycles += self._op_cost.get(sig[1], 1.0) * ops

    def _acct_mem(self, sig, evs, uniform) -> None:
        self._account_memory(sig[0], sig[1], evs)

    @staticmethod
    def _consec_run(evs):
        """``(first, last)`` when the group's single-index events form a
        unit-stride ascending run, else None.  Indices normalize through
        the same ``int()`` truncation the side-effect pass applied, so the
        returned bounds match ``byte_address`` arithmetic exactly."""
        prev = first = evs[0].idxs[0]
        if first.__class__ is not int:
            prev = first = int(first)
        it = iter(evs)
        next(it)
        for ev in it:
            i = ev.idxs[0]
            if i.__class__ is not int:
                i = int(i)
            if i != prev + 1:
                return None
            prev = i
        return first, prev

    def _acct_atomic(self, sig, evs, uniform) -> None:
        c = self.counters
        params = self.params
        n = len(evs)
        c.atomics += n
        c.issue_cycles += self._cost_st
        c.mem_cycles += n * params.atomic_cycles

    def _acct_barrier(self, sig, evs, uniform) -> None:
        # Barrier arrival issue cost is folded into sync_cycles at release.
        pass

    def _acct_shfl(self, sig, evs, uniform) -> None:
        self.counters.issue_cycles += 1.0

    def _account_memory(self, tag: int, space: str, evs) -> None:
        """Charge one load/store issue group: ``evs`` are its events.

        The hot shape — every event of the group on the same buffer with
        equal-length index runs (the lockstep pattern a converged warp
        produces) — computes addresses inline from the buffer's base and
        item size, one small set per position; a unit-stride
        single-position run collapses to one sector interval (global) or a
        closed-form bank occupancy (shared).  Aligned elements
        (``sector_bytes % itemsize == 0`` and an aligned base) never
        straddle a sector, halving the address work.  Ragged or
        multi-buffer groups walk :meth:`~repro.gpu.memory.Buffer.byte_address`
        per position.  Sector batches reach the per-block
        :class:`L1SectorCache` in ascending order.
        """
        params = self.params
        c = self.counters
        n = len(evs)
        ev0 = evs[0]
        npos = len(ev0.idxs)
        buf0 = ev0.buf
        lockstep = npos > 0
        if lockstep and n > 1:
            for ev in evs:
                if ev.buf is not buf0 or len(ev.idxs) != npos:
                    lockstep = False
                    break
        if lockstep:
            positions = npos
            nelem = n * npos
        else:
            positions = 0
            nelem = 0
            for ev in evs:
                ln = len(ev.idxs)
                nelem += ln
                if ln > positions:
                    positions = ln
        if tag == T_LOAD:
            c.loads += nelem
            c.issue_cycles += self._cost_ld * positions
        else:
            c.stores += nelem
            c.issue_cycles += self._cost_st * positions
        if space == "global":
            # Distinct sectors across the whole unrolled run, then filtered
            # through the L1: hits ride the cheap L1 pipe and expose no DRAM
            # latency, misses pay full bandwidth and flag the round as a
            # dependent-latency stall.  Each position is one LSU
            # transaction per distinct sector it touches.
            sb = params.sector_bytes
            run = self._consec_run(evs) if lockstep and npos == 1 else None
            if run is not None:
                # Unit-stride ascending run (the coalesced-stream pattern):
                # the footprint is one contiguous sector interval — two
                # divisions replace the set walk.  Pass-1 side effects
                # already validated (and int()-truncated) every index, so
                # the arithmetic matches ``byte_address`` exactly.
                isz = buf0.itemsize
                s0 = (buf0.base + run[0] * isz) // sb
                s1 = (buf0.base + run[1] * isz + (isz - 1)) // sb
                secs = range(s0, s1 + 1)
                transactions = s1 - s0 + 1
            elif lockstep:
                isz = buf0.itemsize
                base = buf0.base
                spill = 0 if sb % isz == 0 and base % isz == 0 else isz - 1
                sectors = set()
                transactions = 0
                for k in range(npos):
                    pos = {(base + int(ev.idxs[k]) * isz) // sb for ev in evs}
                    if spill:
                        pos.update(
                            (base + int(ev.idxs[k]) * isz + spill) // sb
                            for ev in evs
                        )
                    transactions += len(pos)
                    sectors |= pos
                secs = sorted(sectors)
            else:
                sectors = set()
                transactions = 0
                for k in range(positions):
                    pos = set()
                    for ev in evs:
                        idxs = ev.idxs
                        if k < len(idxs):
                            buf = ev.buf
                            a = buf.byte_address(idxs[k])
                            pos.add(a // sb)
                            pos.add((a + buf.itemsize - 1) // sb)
                    transactions += len(pos)
                    sectors |= pos
                secs = sorted(sectors)
            hits, misses = self._l1.access(secs)
            c.l1_hits += hits
            c.l1_misses += misses
            if tag == T_LOAD:
                c.global_load_sectors += misses
                if misses:
                    self._round_mem_stall = True
            else:
                c.global_store_sectors += misses
            c.lsu_transactions += transactions
            c.mem_cycles += (
                misses * params.sector_cycles
                + hits * params.l1_sector_cycles
                + transactions * params.lsu_transaction_cycles
            )
        elif space == "shared":
            banks = params.shared_banks
            wb = params.shared_word_bytes
            passes = 0
            if lockstep:
                isz = buf0.itemsize
                base = buf0.base
                run = (
                    self._consec_run(evs)
                    if npos == 1 and isz % wb == 0
                    else None
                )
                if run is not None:
                    # Unit-stride run with word-multiple elements: the word
                    # sequence is an arithmetic progression of stride
                    # ``isz // wb``, so the conflict degree is the maximum
                    # round-robin occupancy over the ``banks // gcd`` banks
                    # it cycles through.
                    period = banks // math.gcd(isz // wb, banks)
                    passes = -(-n // period)
                else:
                    for k in range(npos):
                        passes += shared_conflict_degree(
                            [base + int(ev.idxs[k]) * isz for ev in evs],
                            banks, wb,
                        )
            else:
                for k in range(positions):
                    passes += shared_conflict_degree(
                        [
                            ev.buf.byte_address(ev.idxs[k])
                            for ev in evs
                            if k < len(ev.idxs)
                        ],
                        banks, wb,
                    )
            c.shared_passes += passes
            c.mem_cycles += passes * params.shared_pass_cycles
        else:  # local
            c.local_accesses += nelem
            c.mem_cycles += nelem * params.local_access_cycles

    # -- round end -------------------------------------------------------
    def _settle_round(self) -> None:
        """Charge the round's device-wide costs and reset its state.

        Atomics to one address within a round contend: every access past
        the first pays the conflict penalty.  L1-missing loads and global
        atomics issued this round stall their warps; concurrent warps'
        accesses overlap into one dependent-latency exposure.
        """
        c = self.counters
        addrs = self._atomic_addrs
        if addrs:
            extra = 0
            for n in addrs.values():
                if n > 1:
                    extra += n - 1
            if extra:
                c.atomic_conflicts += extra
                c.mem_cycles += extra * self.params.atomic_conflict_cycles
            addrs.clear()
        if self._round_mem_stall:
            c.mem_serial_rounds += 1
            self._round_mem_stall = False

    def _release_barriers(self, live: int) -> int:
        """Release ready groups off the maintained waiter structures.

        Block-level barriers release first, grouped by ``(bar_id, count)``:
        a classic barrier (count None) needs all ``live`` lanes, a named
        counted barrier releases once ``count`` lanes arrive.  A round that
        releases one skips warp-level work.  Otherwise each warp, in
        ascending order, releases its converged warp barriers and then its
        shuffle/vote groups.  The monitor, if any, sees each release after
        it resolved, with the participants in ascending tid order.
        """
        params = self.params
        c = self.counters
        mon = self.monitor
        released = 0

        bw = self._block_waiters
        if bw:
            done_keys = []
            for key, waiters in bw.items():
                count = key[1]
                if count is None:
                    ready = len(waiters) == live
                else:
                    ready = len(waiters) >= count
                if ready:
                    for lane in waiters:
                        lane.state = RUN
                        lane.pending = None
                        lane.wait_key = None
                    c.syncblocks += 1
                    c.sync_cycles += params.syncthreads_cycles
                    released += len(waiters)
                    done_keys.append(key)
                    if mon is not None:
                        mon.on_release(self, c.rounds, "block", key,
                                       sorted(l.tid for l in waiters))
            if done_keys:
                for key in done_keys:
                    del bw[key]
                self._n_waiters -= released
                return released

        full = self._full_mask
        for wid in range(self.num_warps):
            warp_lanes = self._warps[wid]
            nlanes = len(warp_lanes)
            by_mask = self._warp_waiters[wid]
            if by_mask:
                done_masks = []
                for mask, waiters in by_mask.items():
                    # Full-warp groups (the common case) are ready exactly
                    # when every lane of the warp sits in the group — a
                    # retired or diverged lane keeps the count short, and
                    # the mask check would refuse the release too.
                    if (
                        len(waiters) == nlanes
                        if mask == full
                        else self._mask_converged(
                            warp_lanes, mask, waiters, WAIT_WARP, mask
                        )
                    ):
                        for lane in waiters:
                            lane.state = RUN
                            lane.pending = None
                            lane.wait_key = None
                        c.syncwarps += 1
                        c.sync_cycles += params.syncwarp_cycles
                        released += len(waiters)
                        self._n_waiters -= len(waiters)
                        done_masks.append(mask)
                        if mon is not None:
                            mon.on_release(self, c.rounds, "warp", mask,
                                           sorted(l.tid for l in waiters))
                for mask in done_masks:
                    del by_mask[mask]

            shfl = self._shfl_waiters[wid]
            if shfl:
                done_shfl = []
                for key, waiters in shfl.items():
                    mask = key[0]
                    if (
                        len(waiters) == nlanes
                        if mask == full
                        else self._mask_converged(
                            warp_lanes, mask, waiters, WAIT_SHFL, key
                        )
                    ):
                        self._resolve_shfl_group(key, waiters)
                        released += len(waiters)
                        self._n_waiters -= len(waiters)
                        done_shfl.append(key)
                        if mon is not None:
                            mon.on_release(self, c.rounds, "shfl", key,
                                           sorted(l.tid for l in waiters))
                for key in done_shfl:
                    del shfl[key]
        return released

    @staticmethod
    def _contention_key(ev) -> tuple:
        """Round-local atomic contention key for ``ev.buf[ev.idx]``.

        Keyed by the buffer's stable device address ``(space, base)`` so
        two distinct :class:`~repro.gpu.memory.Buffer` objects aliasing
        the same storage contend correctly (``id()`` would treat them as
        different addresses).  Lane-private ``local`` buffers have no
        stable address space — all carry ``base == 0`` — so object
        identity *is* the location there (the round's events keep the
        buffers alive, making ``id`` collision-free within the round).
        """
        buf = ev.buf
        if buf.space == "local":
            return (id(buf), int(ev.idx))
        return (buf.space, buf.base, int(ev.idx))

    # ------------------------------------------------------------------
    def _resolve_round(self, posted_by_warp) -> None:
        """Apply and account the instrumented engine's buffered posts."""
        c = self.counters
        side = self._side
        # Resolution order: ascending warp id, lane order within a warp —
        # unless a schedule policy permutes either (every permutation is a
        # legal interleaving of the round's concurrent accesses; the
        # sanitizer's schedule explorer uses this to expose order
        # dependence).  Accounting groups stay in lane order.
        policy = self.schedule_policy
        warp_ids = range(self.num_warps)
        if policy is not None:
            warp_ids = policy.warp_order(self.block_id, c.rounds, self.num_warps)

        for wid in warp_ids:
            warp_posts = posted_by_warp[wid]
            if not warp_posts:
                continue
            commits = warp_posts
            if policy is not None:
                perm = policy.commit_order(
                    self.block_id, c.rounds, wid, len(warp_posts)
                )
                commits = [warp_posts[i] for i in perm]
            # Pass 1: side effects in (permuted) commit order.
            for lane, ev in commits:
                handler = side[ev.tag]
                if handler is not None:  # Compute has no side effect
                    handler(lane, ev)
            # Pass 2: issue/memory cost accounting with grouping.
            self._account_issues([ev for _, ev in warp_posts])

    @staticmethod
    def _resolve_shfl_group(key: tuple, waiters) -> None:
        """Resolve a converged shuffle or vote group and wake its lanes.

        Shared by both engines so data-movement results are identical by
        construction.  ``key`` is ``(mask, mode)`` for shuffles and
        ``(mask, ("vote", mode))`` for votes.  The mask-relative lane
        arithmetic matches :func:`repro.gpu.shuffle.resolve_shuffles`
        positionally on the ascending participant order.
        """
        mode = key[1]
        # Arrivals append in step order, which is ascending lane order when
        # the group converged in one round — the overwhelmingly common case.
        # Only fall back to a keyed sort when a multi-round (divergent)
        # arrival actually scrambled the order.
        ws = waiters
        prev = -1
        for l in ws:
            lid = l.lane_id
            if lid < prev:
                ws = sorted(waiters, key=_BY_LANE_ID)
                break
            prev = lid
        if isinstance(mode, tuple):  # ("vote", any|all|ballot)
            vote_mode = mode[1]
            if vote_mode == "any":
                result = False
                for l in ws:
                    if l.posted.predicate:
                        result = True
                        break
            elif vote_mode == "all":
                result = True
                for l in ws:
                    if not l.posted.predicate:
                        result = False
                        break
            else:  # ballot
                result = 0
                for l in ws:
                    if l.posted.predicate:
                        result |= 1 << l.lane_id
            for lane in ws:
                lane.state = RUN
                lane.pending = result
                lane.wait_key = None
                lane.posted = None
            return
        n = len(ws)
        vals = [l.posted.value for l in ws]
        # SIMD reductions issue the same lane_arg from every lane; when the
        # group is uniform that way, the positional formulas collapse to
        # slice concatenations (identical results to the per-lane formulas).
        d0 = ws[0].posted.lane_arg
        uniform = True
        for l in ws:
            if l.posted.lane_arg != d0:
                uniform = False
                break
        if uniform and mode == "down" and 0 <= d0:
            out = vals if d0 == 0 or d0 >= n else vals[d0:] + vals[n - d0:]
        elif uniform and mode == "up" and 0 <= d0:
            out = vals if d0 == 0 or d0 >= n else vals[:d0] + vals[: n - d0]
        elif uniform and mode == "idx":
            out = [vals[d0]] * n if 0 <= d0 < n else vals
        elif mode == "idx":
            out = [
                vals[src] if 0 <= (src := l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "up":
            out = [
                vals[src] if 0 <= (src := i - l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "down":
            out = [
                vals[src] if 0 <= (src := i + l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "xor":
            out = [
                vals[src] if 0 <= (src := i ^ l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        else:
            raise SynchronizationError(f"unknown shuffle mode {mode!r}")
        for lane, v in zip(ws, out):
            lane.state = RUN
            lane.pending = v
            lane.wait_key = None
            lane.posted = None

    @staticmethod
    def _mask_converged(warp_lanes, mask: int, waiters, state: int, key) -> bool:
        """True when every lane named by ``mask`` waits with ``key``.

        A retired lane named by the mask can never arrive: the group stays
        blocked and the no-progress check reports a deadlock, mirroring the
        undefined behaviour a real ``__syncwarp`` with an exited lane would
        invite.
        """
        waiting_ids = {l.lane_id for l in waiters}
        for lane in warp_lanes:
            if not (mask >> lane.lane_id) & 1:
                continue
            if lane.state != state or lane.wait_key != key:
                return False
            if lane.lane_id not in waiting_ids:
                return False
        return bool(waiting_ids)

    # ------------------------------------------------------------------
    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock in block {self.block_id}: no lane can make progress",
        ]
        for lane in self.lanes:
            if lane.state != DONE:
                detail = lane.describe()
                if lane.state in (WAIT_WARP, WAIT_SHFL):
                    detail += f" key={lane.wait_key!r}"
                lines.append("  " + detail)
        lines.append(
            "hint: a barrier mask probably names a lane that retired or "
            "diverged to a different barrier"
        )
        return "\n".join(lines)
