"""Issue/memory accounting against an independent per-element model.

Both round engines charge load/store issue groups through one
``ThreadBlock._account_memory``.  Its hot paths compute sector footprints
and bank conflicts from closed forms (unit-stride sector intervals, the
gcd bank-occupancy formula) and inline address arithmetic; this suite
checks them against the plainest model of the cost rules:

* global — per position, the sectors ``{a // sb, (a + isz - 1) // sb}`` of
  every element's ``Buffer.byte_address``; one LSU transaction per
  distinct sector per position; the sorted union of the group's sectors
  fed to a fresh :class:`L1SectorCache`;
* shared — :func:`shared_conflict_degree` per position;
* local — element counts.

Seeded sequences of groups run on one block, so L1 state carries over
between groups exactly as in a launch, and every case family forces one
shape: unit-stride runs (also with ``np.int64`` indices), aligned scatter,
unaligned and sector-straddling bases, multi-position lockstep runs,
ragged lengths, mixed buffers, 32- and 64-lane groups, shared ``float64``
on 4-byte words and shared scatter.
"""

from __future__ import annotations

import random
from dataclasses import fields

import numpy as np
import pytest

from repro.gpu.block import ThreadBlock
from repro.gpu.coalescing import L1SectorCache, shared_conflict_degree
from repro.gpu.costmodel import amd_mi100, nvidia_a100
from repro.gpu.counters import BlockCounters
from repro.gpu.events import T_LOAD, T_STORE, Load, Store
from repro.gpu.memory import Buffer, GlobalMemory

PROFILES = {
    "a100": nvidia_a100,
    "mi100": amd_mi100,
    # A 16-sector L1 makes eviction part of every sequence.
    "a100-tiny-l1": lambda: nvidia_a100().with_overrides(l1_size_bytes=512),
}

GROUPS_PER_CASE = 120


def _kernel(tc):
    yield from tc.compute("alu")


def _block(params) -> ThreadBlock:
    return ThreadBlock(0, params.warp_size, params, GlobalMemory(), _kernel)


# ---------------------------------------------------------------------------
# The model.


class Model:
    """Per-element restatement of the memory cost rules."""

    def __init__(self, params) -> None:
        self.params = params
        self.c = BlockCounters()
        self.l1 = L1SectorCache(max(1, params.l1_size_bytes // params.sector_bytes))

    def account(self, tag: int, space: str, evs) -> bool:
        """Charge one group; returns the dependent-latency stall flag."""
        p = self.params
        c = self.c
        positions = max(len(ev.idxs) for ev in evs)
        nelem = sum(len(ev.idxs) for ev in evs)
        if tag == T_LOAD:
            c.loads += nelem
            c.issue_cycles += p.op_cost.get("ld", 1.0) * positions
        else:
            c.stores += nelem
            c.issue_cycles += p.op_cost.get("st", 1.0) * positions
        stall = False
        if space == "global":
            sb = p.sector_bytes
            union = set()
            transactions = 0
            for k in range(positions):
                pos = set()
                for ev in evs:
                    if k < len(ev.idxs):
                        a = ev.buf.byte_address(ev.idxs[k])
                        pos.add(a // sb)
                        pos.add((a + ev.buf.itemsize - 1) // sb)
                transactions += len(pos)
                union |= pos
            hits, misses = self.l1.access(sorted(union))
            c.l1_hits += hits
            c.l1_misses += misses
            if tag == T_LOAD:
                c.global_load_sectors += misses
                stall = misses > 0
            else:
                c.global_store_sectors += misses
            c.lsu_transactions += transactions
            c.mem_cycles += (
                misses * p.sector_cycles
                + hits * p.l1_sector_cycles
                + transactions * p.lsu_transaction_cycles
            )
        elif space == "shared":
            passes = 0
            for k in range(positions):
                passes += shared_conflict_degree(
                    [ev.buf.byte_address(ev.idxs[k]) for ev in evs if k < len(ev.idxs)],
                    p.shared_banks,
                    p.shared_word_bytes,
                )
            c.shared_passes += passes
            c.mem_cycles += passes * p.shared_pass_cycles
        else:
            c.local_accesses += nelem
            c.mem_cycles += nelem * p.local_access_cycles
        return stall


# ---------------------------------------------------------------------------
# Group generators.  Each returns ``(tag, space, evs)`` for one issue group;
# every index stays in bounds (the side-effect pass validates indices
# before accounting ever sees them).


def _event(tag, buf, idxs):
    if tag == T_LOAD:
        return Load(buf, idxs)
    return Store(buf, idxs, (0.0,) * len(idxs))


def _lanes(rng, params) -> int:
    # Mostly full warps, sometimes a partial group (divergence, tail warp).
    ws = params.warp_size
    return ws if rng.random() < 0.6 else rng.randint(1, ws)


def _tag(rng) -> int:
    return rng.choice((T_LOAD, T_STORE))


class Buffers:
    """The case buffers: allocator-placed and hand-placed (unaligned)."""

    def __init__(self) -> None:
        gmem = GlobalMemory()
        self.g_f64 = gmem.alloc("g_f64", 16384, np.float64)
        self.g_f32 = gmem.alloc("g_f32", 16384, np.float32)
        self.g_i16 = gmem.alloc("g_i16", 16384, np.int16)
        # Bases that are not a multiple of the item size: elements
        # straddle sector boundaries.
        self.g_odd = [
            Buffer("g_odd4", "global", 16384, np.float64, base=(1 << 20) + 4),
            Buffer("g_odd3", "global", 16384, np.float32, base=(1 << 21) + 3),
            Buffer("g_odd28", "global", 16384, np.float64, base=(1 << 22) + 28),
        ]
        self.s_f64 = Buffer("s_f64", "shared", 2048, np.float64, base=0)
        self.s_f64_odd = Buffer("s_f64_odd", "shared", 2048, np.float64, base=4)
        self.s_f32 = Buffer("s_f32", "shared", 2048, np.float32, base=16)
        self.s_i16 = Buffer("s_i16", "shared", 2048, np.int16, base=2)
        self.local = [
            Buffer(f"l{i}", "local", 64, np.float64) for i in range(2)
        ]

    def global_aligned(self, rng):
        return rng.choice((self.g_f64, self.g_f32, self.g_i16))

    def global_any(self, rng):
        return rng.choice((self.g_f64, self.g_f32, self.g_i16, *self.g_odd))

    def shared_any(self, rng):
        return rng.choice((self.s_f64, self.s_f64_odd, self.s_f32, self.s_i16))


def unit_stride(rng, params, bufs):
    """Ascending unit-stride run, one position per lane (coalesced stream);
    half the time the indices are NumPy integers."""
    buf = bufs.global_any(rng)
    n = _lanes(rng, params)
    start = rng.randrange(buf.size - n)
    as_np = rng.random() < 0.5
    tag = _tag(rng)
    evs = [
        _event(tag, buf, (np.int64(start + i) if as_np else start + i,))
        for i in range(n)
    ]
    return tag, "global", evs


def aligned_scatter(rng, params, bufs):
    """Random single-position indices on an allocator-aligned buffer,
    including repeats (broadcast) and near-unit-stride runs."""
    buf = bufs.global_aligned(rng)
    n = _lanes(rng, params)
    tag = _tag(rng)
    stride = rng.choice((0, 2, 3, 16, 64))
    start = rng.randrange(buf.size // 2)
    if rng.random() < 0.5:
        idxs = [start + i * stride for i in range(n)]
    else:
        idxs = [rng.randrange(buf.size) for _ in range(n)]
    return tag, "global", [_event(tag, buf, (i,)) for i in idxs]


def straddling(rng, params, bufs):
    """Single- and multi-position groups on unaligned bases, so elements
    cross sector boundaries."""
    buf = rng.choice(bufs.g_odd)
    n = _lanes(rng, params)
    npos = rng.choice((1, 1, 2, 4))
    tag = _tag(rng)
    evs = [
        _event(tag, buf, tuple(rng.randrange(buf.size) for _ in range(npos)))
        for _ in range(n)
    ]
    return tag, "global", evs


def multi_position(rng, params, bufs):
    """Lockstep vector accesses: every lane the same run length on one
    buffer (``load_vec`` / unrolled strided loops)."""
    buf = bufs.global_any(rng)
    n = _lanes(rng, params)
    npos = rng.randint(2, 8)
    tag = _tag(rng)
    stride = rng.choice((1, npos, 7))
    base = rng.randrange(buf.size - (n + 1) * npos * stride)
    evs = []
    for lane in range(n):
        first = base + lane * (npos if stride == 1 else 1)
        evs.append(_event(
            tag, buf, tuple(first + k * stride for k in range(npos))))
    return tag, "global", evs


def ragged(rng, params, bufs):
    """Per-lane run lengths differ (some lanes issue fewer positions)."""
    buf = bufs.global_any(rng)
    n = _lanes(rng, params)
    tag = _tag(rng)
    evs = [
        _event(tag, buf, tuple(
            rng.randrange(buf.size) for _ in range(rng.randint(1, 4))))
        for _ in range(n)
    ]
    return tag, "global", evs


def mixed_buffers(rng, params, bufs):
    """One issue group spanning several buffers of one space."""
    n = _lanes(rng, params)
    tag = _tag(rng)
    npos = rng.choice((1, 2))
    evs = []
    for lane in range(n):
        buf = bufs.global_any(rng)
        start = rng.randrange(buf.size - npos)
        evs.append(_event(tag, buf, tuple(start + k for k in range(npos))))
    return tag, "global", evs


def shared_run(rng, params, bufs):
    """Unit-stride shared runs: word-multiple elements (the gcd formula,
    ``float64`` on 4-byte words among them) and sub-word elements."""
    buf = bufs.shared_any(rng)
    n = _lanes(rng, params)
    start = rng.randrange(buf.size - n)
    as_np = rng.random() < 0.5
    tag = _tag(rng)
    evs = [
        _event(tag, buf, (np.int64(start + i) if as_np else start + i,))
        for i in range(n)
    ]
    return tag, "shared", evs


def shared_scatter(rng, params, bufs):
    """Strided, random, multi-position, ragged and mixed-buffer shared
    groups (bank conflicts and broadcasts)."""
    n = _lanes(rng, params)
    tag = _tag(rng)
    shape = rng.choice(("stride", "random", "multi", "ragged", "mixed"))
    buf = bufs.shared_any(rng)
    if shape == "stride":
        stride = rng.choice((0, 2, 4, 8, 32, 33))
        start = rng.randrange(64)
        evs = [_event(tag, buf, ((start + i * stride) % buf.size,)) for i in range(n)]
    elif shape == "random":
        evs = [_event(tag, buf, (rng.randrange(buf.size),)) for _ in range(n)]
    elif shape == "multi":
        npos = rng.randint(2, 4)
        evs = [
            _event(tag, buf, tuple(rng.randrange(buf.size) for _ in range(npos)))
            for _ in range(n)
        ]
    elif shape == "ragged":
        evs = [
            _event(tag, buf, tuple(
                rng.randrange(buf.size) for _ in range(rng.randint(1, 3))))
            for _ in range(n)
        ]
    else:
        evs = [
            _event(tag, bufs.shared_any(rng), (rng.randrange(1024),))
            for _ in range(n)
        ]
    return tag, "shared", evs


def local(rng, params, bufs):
    """Lane-private accesses: element counts only."""
    n = _lanes(rng, params)
    tag = _tag(rng)
    evs = []
    for _ in range(n):
        buf = rng.choice(bufs.local)
        evs.append(_event(tag, buf, tuple(
            rng.randrange(buf.size) for _ in range(rng.randint(1, 3)))))
    return tag, "local", evs


CASES = {
    f.__name__: f
    for f in (
        unit_stride, aligned_scatter, straddling, multi_position, ragged,
        mixed_buffers, shared_run, shared_scatter, local,
    )
}


def _run_sequence(params, groups) -> None:
    block = _block(params)
    model = Model(params)
    for step, (tag, space, evs) in enumerate(groups):
        block._round_mem_stall = False
        block._account_memory(tag, space, evs)
        stall = model.account(tag, space, evs)
        got = block.counters
        for f in fields(BlockCounters):
            assert getattr(got, f.name) == getattr(model.c, f.name), (
                f"group {step} ({space}, {len(evs)} events, first idxs "
                f"{tuple(evs[0].idxs)} on {evs[0].buf.name}): {f.name} "
                f"{getattr(got, f.name)} != model {getattr(model.c, f.name)}"
            )
        assert block._round_mem_stall == stall, f"group {step}: stall flag"


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_model(case, profile):
    params = PROFILES[profile]()
    rng = random.Random(f"{case}/{profile}")
    bufs = Buffers()
    make = CASES[case]
    _run_sequence(params, [make(rng, params, bufs) for _ in range(GROUPS_PER_CASE)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_interleaved_sequence_matches_model(profile, seed):
    """All case families interleaved on one block: L1 state built by one
    shape is hit (or evicted) by the next."""
    params = PROFILES[profile]()
    rng = random.Random(seed)
    bufs = Buffers()
    makers = list(CASES.values())
    _run_sequence(
        params,
        [rng.choice(makers)(rng, params, bufs) for _ in range(3 * GROUPS_PER_CASE)],
    )


def test_model_sees_straddles_and_the_gcd_formula():
    """The families reach the shapes they are named for: an unaligned
    unit-stride run straddles more sectors than its aligned twin, and a
    float64 shared run on 4-byte words conflicts two ways."""
    params = nvidia_a100()
    bufs = Buffers()
    run = [Load(bufs.g_odd[2], (i,)) for i in range(32)]
    aligned = [Load(bufs.g_f64, (i,)) for i in range(32)]
    m = Model(params)
    m.account(T_LOAD, "global", run)
    m.account(T_LOAD, "global", aligned)
    assert m.c.lsu_transactions == 9 + 8
    m = Model(params)
    m.account(T_LOAD, "shared", [Load(bufs.s_f64, (i,)) for i in range(32)])
    assert m.c.shared_passes == 2
