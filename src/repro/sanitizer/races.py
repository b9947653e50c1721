"""Vector-clock happens-before data-race detection (FastTrack-style).

Every access is checked against per-element shadow state under the full
happens-before order below, not only against the accesses posted in the
same scheduling round.  Cross-round conflicts are therefore checked too:
a store in round 0 of warp 0 and a store to the same element in round 3
of warp 1, with no intervening barrier, are reported as a race.

Happens-before model
====================

* program order within one lane;
* a released barrier group — block-wide ``syncthreads``, *named counted*
  block barriers, warp ``syncwarp(mask)`` barriers (the paper's SIMD
  group barriers over ``simdmask``), and shuffle/vote groups (they are
  ``__*_sync`` operations) — joins the clocks of every released lane;
* atomics on one location behave acquire/release *for that location*:
  each atomic joins the location's atomic clock into the lane and
  publishes the lane's clock back.  This orders idioms like
  claim-with-``atomicAdd``-then-write and is deliberately more lenient
  than relaxed hardware atomics (documented in ``docs/SANITIZER.md``).

A race is a **plain write** conflicting with any other lane's access —
plain write, plain read, or atomic — that is not ordered by
happens-before.  Atomic-vs-atomic contention and atomic-write vs plain
read are treated as synchronized, matching the simulator's established
race semantics.  Lane-``local`` buffers are private by construction and
not tracked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gpu.events import T_ATOMIC, T_LOAD, T_STORE
from repro.sanitizer.clocks import (
    Clock,
    LaneKey,
    epoch_hb,
    fresh_clock,
    join_into,
    joined,
    tick,
)
from repro.sanitizer.report import Finding, SanitizerReport

#: Access kinds recorded in shadow cells.
READ, WRITE, ATOMIC = "read", "write", "atomic"


class Access:
    """One recorded access epoch with provenance."""

    __slots__ = ("key", "clock", "round", "site", "kind", "warp")

    def __init__(self, key: LaneKey, clock: int, rnd: int, site: str, kind: str,
                 warp: Optional[int] = None):
        self.key = key
        self.clock = clock
        self.round = rnd
        self.site = site
        self.kind = kind
        #: Warp id of the accessing lane (schedule-exploration provenance:
        #: the DPOR explorer reverses racing pairs by warp/commit order).
        self.warp = warp

    def describe(self) -> str:
        block, tid = self.key
        return f"block {block} t{tid} {self.kind} (round {self.round}, {self.site})"


class _Cell:
    """Shadow state of one buffer element."""

    __slots__ = ("write", "reads", "atomics", "avc")

    def __init__(self) -> None:
        self.write: Optional[Access] = None
        self.reads: Dict[LaneKey, Access] = {}
        self.atomics: Dict[LaneKey, Access] = {}
        #: The location's atomic release clock (acquire/release edges).
        self.avc: Clock = {}


class RaceDetector:
    """Happens-before race detector over global and shared memory."""

    def __init__(self, report: SanitizerReport, max_findings: int = 64) -> None:
        self.report = report
        self.max_findings = max_findings
        self._clocks: Dict[LaneKey, Clock] = {}
        self._shadow: Dict[Tuple[int, int], _Cell] = {}
        #: Strong refs so freed buffers cannot recycle their ``id()``.
        self._buffers: Dict[int, object] = {}
        self._reported: set = set()

    # -- lane bookkeeping --------------------------------------------------
    def clock_of(self, key: LaneKey) -> Clock:
        clock = self._clocks.get(key)
        if clock is None:
            clock = fresh_clock(key)
            self._clocks[key] = clock
        return clock

    def on_release(self, block_id: int, tids: List[int]) -> None:
        """A barrier/shuffle/vote group released: join participants' clocks."""
        keys = [(block_id, tid) for tid in tids]
        merged = joined(self.clock_of(k) for k in keys)
        for key in keys:
            clock = dict(merged)
            tick(clock, key)
            self._clocks[key] = clock

    # -- access processing -------------------------------------------------
    def on_event(self, block_id: int, rnd: int, tid: int, ev, site: str,
                 warp: Optional[int] = None) -> None:
        tag = ev.tag
        if tag == T_LOAD:
            if ev.buf.space == "local":
                return
            for idx in ev.idxs:
                self._access(block_id, rnd, tid, ev.buf, int(idx), READ, site, warp)
        elif tag == T_STORE:
            if ev.buf.space == "local":
                return
            for idx in ev.idxs:
                self._access(block_id, rnd, tid, ev.buf, int(idx), WRITE, site, warp)
        elif tag == T_ATOMIC:
            if ev.buf.space == "local":
                return
            self._access(block_id, rnd, tid, ev.buf, int(ev.idx), ATOMIC, site, warp)

    def _cell(self, buf, idx: int) -> _Cell:
        self._buffers[id(buf)] = buf
        cell = self._shadow.get((id(buf), idx))
        if cell is None:
            cell = _Cell()
            self._shadow[(id(buf), idx)] = cell
        return cell

    def _access(
        self, block_id: int, rnd: int, tid: int, buf, idx: int, kind: str,
        site: str, warp: Optional[int] = None,
    ) -> None:
        key = (block_id, tid)
        clock = self.clock_of(key)
        cell = self._cell(buf, idx)
        self.report.bump("race_checked_accesses")
        me = Access(key, clock.get(key, 0), rnd, site, kind, warp)

        if kind == ATOMIC:
            # Acquire the location's atomic clock, then check against any
            # unordered plain write (a write racing an atomic is a race).
            join_into(clock, cell.avc)
            w = cell.write
            if w is not None and w.key != key and not epoch_hb(w.key, w.clock, clock):
                self._report(buf, idx, w, me)
            cell.atomics[key] = me
            # Release: publish this lane's clock on the location.
            join_into(cell.avc, clock)
            return

        if kind == READ:
            w = cell.write
            if w is not None and w.key != key and not epoch_hb(w.key, w.clock, clock):
                self._report(buf, idx, w, me)
            cell.reads[key] = me
            return

        # Plain write: conflicts with everything unordered.
        w = cell.write
        if w is not None and w.key != key and not epoch_hb(w.key, w.clock, clock):
            self._report(buf, idx, w, me)
        for other in cell.reads.values():
            if other.key != key and not epoch_hb(other.key, other.clock, clock):
                self._report(buf, idx, other, me)
        for other in cell.atomics.values():
            if other.key != key and not epoch_hb(other.key, other.clock, clock):
                self._report(buf, idx, other, me)
        cell.write = me
        cell.reads.clear()
        cell.atomics.clear()

    # -- reporting ---------------------------------------------------------
    def _report(self, buf, idx: int, first: Access, second: Access) -> None:
        # Unordered pair key: the same two conflicting (lane, kind) parties
        # are one bug however many times their accesses interleave.
        pair = tuple(sorted(((first.key, first.kind), (second.key, second.kind))))
        dedup = (id(buf), idx, pair)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        if len(self.report.findings) >= self.max_findings:
            self.report.truncated += 1
            return
        block, tid = second.key
        message = (
            f"data race in block {block} on {buf.name!r}[{idx}]: "
            f"{second.describe()} conflicts with {first.describe()}"
        )
        finding = Finding(
            category="data-race",
            message=message,
            block=block,
            tid=tid,
            round=second.round,
            address=(buf.name, idx),
            sites=(second.site, first.site),
            extra={
                "first": {"block": first.key[0], "tid": first.key[1],
                          "kind": first.kind, "round": first.round,
                          "warp": first.warp},
                "second": {"block": block, "tid": tid,
                           "kind": second.kind, "round": second.round,
                           "warp": second.warp},
            },
        )
        self.report.add(finding)
