"""One measured pass of a benchmark workload, in a fresh process.

``run.py`` starts this file once per pass, so every pass starts cold the
way ``python -m repro.perf`` does::

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper_quick \\
        --seed 0 --spawned <time.monotonic() at spawn> --trace 0

The pass prints one JSON object as its last stdout line: set-up time, the
per-operation latencies, the correctness tallies, the simulated
statistics and their digest, peak RSS and, with ``--trace 1``, the raw
per-layer figures from the spans of :mod:`spans`; ``--trace 2`` adds the
per-package profile, whose cost inflates every timing of that pass.
``run.py`` aggregates passes into metrics; nothing here decides whether
a run passed.

Workloads (``--workload``):

* ``paper_quick`` / ``paper_fork2`` — the 27 Fig 9/10 launches at the
  ``--quick`` geometries of :mod:`repro.perf.experiment`, on the serial
  executor / on ``ParallelExecutor(workers=2, processes=True)``;
* ``serve_keyed`` / ``serve_pool2`` — 32 closed-loop stream clients over
  4 tenants, 1024 requests of the :mod:`repro.serve.loadgen` mix, through
  an in-process ``LaunchService`` with a write-ahead journal / through a
  warm ``PoolLease(workers=2)`` without one.

``--seed 0`` reproduces the repository's pinned inputs: each kernel's
``build_data`` default seed and the load generator's seed 0.  Seed ``n``
shifts every kernel seed by ``n`` and seeds the load generator with ``n``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import inspect
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from spans import PackageProfiler, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Simulated statistics per launch/request; all must be bit-identical
#: between the serial and the forked executor (they feed the digest).
SIM_FIELDS = ("rounds", "issues", "divergent_issues", "l1_hits",
              "l1_misses", "global_load_sectors", "global_store_sectors",
              "atomics", "syncwarps", "syncblocks", "lane_steps")
RUNTIME_FIELDS = ("parallel_generic", "parallel_spmd", "simd_generic",
                  "simd_spmd", "simd_sequential", "worker_wakeups",
                  "simd_wakeups", "sharing_fallbacks")

SERVE_CLIENTS = 32
SERVE_REQUESTS_PER_CLIENT = 32


def sim_stats(counters, runtime) -> dict:
    """The simulated statistics of one launch, as plain numbers."""
    out = {f: sum(getattr(b, f) for b in counters.blocks) for f in SIM_FIELDS}
    out["cycles"] = counters.cycles
    out["waves"] = counters.waves
    out["blocks_per_sm"] = counters.blocks_per_sm
    for f in RUNTIME_FIELDS:
        out["rt_" + f] = getattr(runtime, f)
    return out


def digest(labelled_stats) -> str:
    blob = json.dumps(labelled_stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def peak_rss_mb() -> float:
    """Max resident set of this process and of its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: Seconds one calibration chunk takes at the reference speed: about the
#: typical reading on the 2-vCPU VM the bounds in BENCHMARK.json were set
#: on.  Timings are reported in seconds at this speed.
CALIBRATION_REF_S = 0.0035


def calibration_chunk() -> float:
    """Seconds for a fixed chunk of generator-driven interpreter work.

    The simulator is a pure-Python generator interpreter, and on a shared
    host the interpreter's speed drifts by tens of percent over minutes.
    A paper pass times a chunk before each launch and after the last on
    its main thread, while no program work is in flight, and scales each
    launch by :data:`CALIBRATION_REF_S` over the mean of the two chunks
    around it; that halved the run-to-run spread of ``wall_s``.  Serve
    passes are not scaled: their requests overlap and their work spans
    threads, and chunks bracketing the round were measured to add noise.
    """
    def lane(steps):
        acc = 0
        for i in range(steps):
            acc += yield i
        return acc

    start = time.perf_counter()
    for _ in range(100):
        live = [lane(32) for _ in range(8)]
        for gen in live:
            next(gen)
        while live:
            nxt = []
            for gen in live:
                try:
                    gen.send(1)
                    nxt.append(gen)
                except StopIteration:
                    pass
            live = nxt
    return time.perf_counter() - start


def calibrated(chunks) -> float:
    """Scale factor from host seconds to seconds at the reference speed."""
    return CALIBRATION_REF_S / (sum(chunks) / len(chunks))


# -- tracing ------------------------------------------------------------------
def install_wrappers(tracer: Tracer, counts: dict) -> None:
    """Wrap the public calls into each layer (see ``spans.py``)."""
    from repro.core import api
    from repro.exec import engine
    from repro.exec.engine import ParallelExecutor, SerialExecutor
    from repro.exec.pool import WorkerPool
    from repro.gpu.device import Device
    from repro.serve import batch, lease
    from repro.serve.journal import RequestJournal

    def fork_retries(result, args, kwargs):
        stats = kwargs.get("stats") or {}
        counts["exec_retries"] += (stats.get("chunk_retries", 0)
                                   + stats.get("degraded_tasks", 0))

    tracer.wrap(api, "compile", "codegen.compile")
    tracer.wrap(api, "launch", "core.launch")
    tracer.wrap(Device, "launch", "gpu.launch")
    tracer.wrap(SerialExecutor, "execute", "exec.serial.execute")
    tracer.wrap(ParallelExecutor, "execute", "exec.parallel.execute")
    tracer.wrap(engine, "fork_map", "exec.fork_map", on_result=fork_retries)
    tracer.wrap(engine, "merge_records", "exec.merge")
    tracer.wrap(batch, "merge_records", "exec.merge")
    tracer.wrap(WorkerPool, "map", "exec.pool.map")
    tracer.wrap(lease, "unpack_records", "exec.transport.unpack")
    tracer.wrap(lease.PoolLease, "run", "serve.lease.run")
    tracer.wrap(batch, "prepare", "serve.prepare",
                key=lambda a, kw: kw.get("tag"))
    tracer.wrap(batch, "run_batch", "serve.run_batch",
                key=lambda a, kw: len(a[1]))
    tracer.wrap(batch, "release", "serve.release")
    tracer.wrap(RequestJournal, "append_admit", "serve.journal.append")
    tracer.wrap(RequestJournal, "append_done", "serve.journal.append")
    tracer.wrap(RequestJournal, "commit", "serve.journal.commit")


def _no_span(*args, **kwargs):
    return contextlib.nullcontext()


def profile_figures(profiler: PackageProfiler) -> dict:
    """Per-package self-time shares of one profiled pass."""
    shares = profiler.shares()
    out = {f"{pkg}.self_share": shares.get(pkg, 0.0)
           for pkg in ("runtime", "codegen", "gpu", "kernels")}
    out["trace.profile_busy_frac"] = profiler.busy_seconds() / profiler.wall
    out["packages"] = dict(sorted(shares.items()))
    return out


def layer_figures(tracer: Tracer, counts: dict, sim: dict,
                  measured: tuple) -> dict:
    """Raw per-layer figures from the spans of one traced pass."""
    start, end = measured
    rows = tracer.by_name()
    gpu_s = tracer.outer_seconds("gpu.launch", "exec.serial.execute")
    lane_steps = sim.get("lane_steps", 0)
    roots = sorted((s[2], s[3]) for s in tracer.spans
                   if s[4] == 0 and s[2] >= start and s[3] <= end)
    covered, cursor = 0.0, start
    for lo, hi in roots:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    batch_sizes = [s[6] for s in tracer.spans if s[1] == "serve.run_batch"]

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    wall = end - start
    latency = counts["request_latency"]
    return {
        "gpu.launch_s": gpu_s,
        "gpu.host_ns_per_lane_step": gpu_s / lane_steps * 1e9
        if lane_steps else 0.0,
        "codegen.compile_s": tracer.outer_seconds("codegen.compile"),
        "oracle.check_s": total("oracle.check"),
        # Serve stages as shares, so a layer a workload bypasses reads 0
        # as a ratio, never as a time.
        "serve.queue_wait_frac": float(np.median(counts["queue_waits"]))
        / latency if counts["queue_waits"] and latency else 0.0,
        "serve.prepare_frac": total("serve.prepare") / wall,
        "serve.run_batch_frac": total("serve.run_batch") / wall,
        "serve.release_frac": total("serve.release") / wall,
        "serve.batch_size_mean": float(np.mean(batch_sizes))
        if batch_sizes else 0.0,
        "serve.journal.commit_frac": total("serve.journal.commit") / wall,
        "serve.journal.appends": rows.get("serve.journal.append",
                                          {}).get("calls", 0),
        "serve.loop_lag_frac": sum(counts["loop_lags"]) / wall,
        "trace.span_cover": covered / wall,
        # Only the multi-process workloads reach these.
        "exec.fork_map_s": tracer.outer_seconds("exec.fork_map"),
        "exec.merge_s": tracer.outer_seconds("exec.merge"),
        "exec.transport.unpack_s": total("exec.transport.unpack"),
        "exec.pool.retries": counts["exec_retries"],
        "serve.lease.run_s": total("serve.lease.run"),
        "serve.lease.warm_dispatches": counts["warm_dispatches"],
        "spans": {name: row for name, row in sorted(rows.items())},
    }


# -- paper workloads ----------------------------------------------------------
def _kernel_seed(build_data, seed: int) -> int:
    return inspect.signature(build_data).parameters["seed"].default + seed


def paper_launches(seed: int, executor, series=None):
    """Build each Fig 9/10 series' device and data; return the launch
    list ``[(label, data, thunk)]`` in ``python -m repro.perf`` order."""
    from repro.gpu.costmodel import benchmark_profile
    from repro.gpu.device import Device
    from repro.kernels import ideal, sparse_matvec, su3
    from repro.perf.experiment import (FIG9_CONFIGS, FIG9_GROUPS,
                                       FIG10_CONFIG, FIG10_KERNELS,
                                       FIG10_VARIANTS, PAPER_FIG9,
                                       PAPER_FIG10)

    fig9 = {
        "sparse_matvec": (sparse_matvec, sparse_matvec.run_two_level),
        "su3_bench": (su3, su3.run_baseline),
        "benchmark_kernel": (ideal, ideal.run_baseline),
    }
    launches = []
    for name in sorted(PAPER_FIG9):
        if series and name not in series:
            continue
        mod, run_base = fig9[name]
        cfg = FIG9_CONFIGS[name]
        dev = Device(benchmark_profile(), executor=executor)
        data = mod.build_data(dev, seed=_kernel_seed(mod.build_data, seed),
                              **cfg["quick_data"])
        launches.append((f"{name}/baseline", data,
                         lambda d=dev, x=data, r=run_base, c=cfg:
                         r(d, x, **c["quick_base"])))
        for g in FIG9_GROUPS:
            launches.append((f"{name}/g{g}", data,
                             lambda d=dev, x=data, m=mod, c=cfg, g=g:
                             m.run_simd(d, x, simd_len=g, **c["quick_simd"])))
    for name in sorted(PAPER_FIG10):
        if series and name not in series:
            continue
        mod = FIG10_KERNELS[name]
        dev = Device(benchmark_profile(), executor=executor)
        data = mod.build_data(dev, seed=_kernel_seed(mod.build_data, seed),
                              **FIG10_CONFIG["quick_data"])
        for variant in FIG10_VARIANTS:
            launches.append((f"{name}/{variant}", data,
                             lambda d=dev, x=data, m=mod, v=variant:
                             m.run(d, x, v, **FIG10_CONFIG["quick_launch"])))
    return launches


def fig_err(cycles: dict):
    """Mean |measured − paper| / paper over the nine Fig 9/10 points."""
    from repro.perf.experiment import FIG9_GROUPS, PAPER_FIG9, PAPER_FIG10

    errs = []
    for name, ref in PAPER_FIG9.items():
        base = cycles[f"{name}/baseline"]
        best = max(base / cycles[f"{name}/g{g}"] for g in FIG9_GROUPS)
        errs.append(abs(best - ref["max_speedup"]) / ref["max_speedup"])
    for name, ref in PAPER_FIG10.items():
        base = cycles[f"{name}/no_simd"]
        for variant, want in ref.items():
            errs.append(abs(base / cycles[f"{name}/{variant}"] - want) / want)
    return float(np.mean(errs))


def paper_pass(opts, tracer, spawned: float) -> dict:
    from repro.exec import ParallelExecutor

    executor = (ParallelExecutor(workers=2, processes=True)
                if opts.workload == "paper_fork2" else None)
    series = opts.series.split(",") if opts.series else None
    launches = paper_launches(opts.seed, executor, series)
    setup_s = time.monotonic() - spawned

    span = tracer.span if tracer else _no_span
    latencies, labelled, failed = [], [], 0
    # A chunk before each launch and after the last: each launch is
    # scaled by the two chunks around it.
    chunks = [calibration_chunk()]
    measured_start = time.perf_counter()
    for i, (label, data, thunk) in enumerate(launches):
        if tracer:
            tracer.key = i
        start = time.perf_counter()
        with span("bench.launch", key=i):
            result = thunk()
            with span("oracle.check", key=i):
                ok = data.check()
        latencies.append(time.perf_counter() - start)
        chunks.append(calibration_chunk())
        failed += not ok
        labelled.append([label, sim_stats(result.counters, result.runtime)])
    measured = (measured_start, time.perf_counter())
    if opts.perturb is not None:
        labelled[opts.perturb][1]["lane_steps"] += 1
    cycles = {label: stats["cycles"] for label, stats in labelled}
    scaled = [lat * calibrated(chunks[i:i + 2])
              for i, lat in enumerate(latencies)]
    return {
        "setup_s": setup_s * calibrated(chunks),
        "latencies": scaled,
        "wall": sum(scaled),
        "raw": {"setup_s": setup_s, "wall": sum(latencies),
                "chunk_ms": sum(chunks) / len(chunks) * 1e3,
                "ref_ms": CALIBRATION_REF_S * 1e3},
        "attempted": len(launches),
        "failed": failed,
        "cycles": cycles,
        "sim": _sum_sim(labelled),
        "digest": digest(labelled),
        "fig_err": None if series else fig_err(cycles),
        "measured": measured,
    }


def _sum_sim(labelled) -> dict:
    out: dict = {}
    for _, stats in labelled:
        for k, v in stats.items():
            out[k] = out.get(k, 0) + v
    return out


# -- serve workloads ----------------------------------------------------------
def _verify(reference, kernel, args, outputs) -> bool:
    for name, want in reference[kernel](args).items():
        got = outputs.get(name)
        if got is None or not np.allclose(np.asarray(got), want,
                                          rtol=1e-12, atol=1e-12):
            return False
    return True


async def serve_pass(opts, tracer, spawned: float, counts: dict) -> dict:
    from repro.gpu.device import Device
    from repro.serve.demo import REFERENCE, demo_catalog
    from repro.serve.lease import PoolLease
    from repro.serve.loadgen import MAX_RETRIES, _make_request
    from repro.serve.scheduler import Backpressure
    from repro.serve.server import LaunchRequest, LaunchService

    keyed = opts.workload == "serve_keyed"
    span = tracer.span if tracer else _no_span
    clients = opts.clients
    per_client = opts.requests // clients
    device = Device()
    catalog = demo_catalog()
    lease = tmpdir = None
    if not keyed:
        lease = PoolLease(catalog, device.params, workers=2)
        lease.pool.ensure()
    service = LaunchService(device, catalog, lease=lease)
    try:
        if keyed:
            tmpdir = tempfile.mkdtemp(prefix="perfbench-wal-", dir=opts.tmp)
            service.load_journal(os.path.join(tmpdir, "wal"))
        await service.start()

        # One untimed batch: a request per kernel from every tenant.
        warm_rng = np.random.default_rng([opts.seed, 1])
        warm = [_make_request(warm_rng, c, c, seed=opts.seed, keyed=keyed)
                for c in range(4 * 3)]
        failed = 0
        for spec in warm:
            if keyed:
                spec["key"] = "warm-" + spec["key"]
        outs = await asyncio.gather(*(
            service.submit(LaunchRequest(
                args={k: v.copy() for k, v in s["args"].items()},
                **{k: v for k, v in s.items() if k != "args"}))
            for s in warm))
        for spec, out in zip(warm, outs):
            failed += not (out.error is None and _verify(
                REFERENCE, spec["kernel"], spec["args"], out.outputs))
        warm_dispatches = lease.stats["warm_dispatches"] if lease else 0
        setup_s = time.monotonic() - spawned

        # Inputs: loadgen's per-client streams, generated before timing.
        plans = []
        for cid in range(clients):
            rng = np.random.default_rng(opts.seed * 10007 + cid)
            plans.append([_make_request(rng, cid, seq, seed=opts.seed,
                                        keyed=keyed)
                          for seq in range(per_client)])
        latencies = [0.0] * (clients * per_client)
        labelled = [None] * (clients * per_client)
        tally = {"rejects": 0, "retries": 0, "failed": failed}
        done = asyncio.Event()

        async def client(cid: int) -> None:
            for seq, spec in enumerate(plans[cid]):
                idx = cid * per_client + seq
                args = spec["args"]
                fields = {k: v for k, v in spec.items() if k != "args"}
                request = LaunchRequest(
                    args={k: v.copy() for k, v in args.items()}, **fields)
                first = time.perf_counter()
                if tracer:
                    counts["submitted"][request.rid] = first
                outcome = None
                for _ in range(MAX_RETRIES):
                    try:
                        outcome = await service.submit(request)
                        break
                    except Backpressure as bp:
                        tally["rejects"] += 1
                        tally["retries"] += 1
                        await asyncio.sleep(bp.retry_after)
                ok = outcome is not None and outcome.error is None
                if ok:
                    outputs = outcome.outputs
                    if idx == opts.corrupt_reply:
                        outputs = {k: v.copy() for k, v in outputs.items()}
                        outputs["y"][0] += 1.0
                    with span("oracle.check", key=idx):
                        ok = _verify(REFERENCE, spec["kernel"], args, outputs)
                    labelled[idx] = [f"c{cid}/r{seq}", sim_stats(
                        outcome.counters, outcome.runtime)]
                end = time.perf_counter()
                latencies[idx] = end - first
                tally["failed"] += not ok
                if tracer:
                    tracer.record("serve.request", first, end,
                                  key=spec.get("key", f"c{cid}/r{seq}"))

        async def lag_probe() -> None:
            while not done.is_set():
                t = time.perf_counter()
                await asyncio.sleep(0.001)
                counts["loop_lags"].append(time.perf_counter() - t - 0.001)

        probe = asyncio.create_task(lag_probe()) if tracer else None
        measured_start = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(clients)))
        measured = (measured_start, time.perf_counter())
        done.set()
        if probe is not None:
            await probe
        if lease is not None:
            counts["warm_dispatches"] = (lease.stats["warm_dispatches"]
                                         - warm_dispatches)
            counts["exec_retries"] += sum(
                lease.stats[k] for k in ("chunk_retries", "degraded_tasks",
                                         "worker_respawns"))
    finally:
        await service.stop()
        if lease is not None:
            lease.close()
        if service.journal is not None:
            service.journal.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)

    complete = [x for x in labelled if x is not None]
    if tracer:
        prepares = {s[6]: s[2] for s in tracer.spans
                    if s[1] == "serve.prepare"}
        counts["queue_waits"] = [
            prepares[f"r{rid}"] - t for rid, t in counts["submitted"].items()
            if f"r{rid}" in prepares]
        counts["request_latency"] = float(np.median(latencies))
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "wall": measured[1] - measured[0],
        "attempted": len(latencies) + len(warm),
        "failed": tally["failed"],
        "rejects": tally["rejects"],
        "retries": tally["retries"],
        "sim": _sum_sim(complete),
        "digest": digest(complete),
        "fig_err": None,
        "measured": measured,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "paper_quick", "paper_fork2", "serve_keyed", "serve_pool2"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1, 2),
                        help="0: untraced; 1: spans; 2: spans and profile")
    parser.add_argument("--out", default=None,
                        help="directory for span files (traced passes)")
    parser.add_argument("--tmp", default=None, help="scratch directory")
    parser.add_argument("--series", default="",
                        help="comma-separated Fig 9/10 series subset")
    parser.add_argument("--clients", type=int, default=SERVE_CLIENTS)
    parser.add_argument("--requests", type=int,
                        default=SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT)
    parser.add_argument("--perturb", type=int, default=None,
                        help="self-test: bump one launch's lane_steps")
    parser.add_argument("--corrupt-reply", type=int, default=None,
                        help="self-test: corrupt one serve reply")
    opts = parser.parse_args(argv)

    tracer = profiler = None
    counts = {"exec_retries": 0, "queue_waits": [], "loop_lags": [],
              "warm_dispatches": 0, "submitted": {}, "request_latency": 0.0}
    if opts.trace:
        import repro

        tracer = Tracer()
        install_wrappers(tracer, counts)
        if opts.trace == 2:
            profiler = PackageProfiler(os.path.dirname(repro.__file__), HERE)
            profiler.start()
    try:
        if opts.workload.startswith("paper"):
            out = paper_pass(opts, tracer, opts.spawned)
        else:
            out = asyncio.run(serve_pass(opts, tracer, opts.spawned, counts))
    finally:
        if profiler is not None:
            profiler.stop()
        if tracer is not None:
            tracer.unwrap()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["layers"] = layer_figures(tracer, counts, out["sim"],
                                      out["measured"])
        if opts.out and profiler is None:
            stem = os.path.join(opts.out, f"{opts.workload}-seed{opts.seed}")
            out["trace_files"] = tracer.write(stem)
    if profiler is not None:
        out["profile"] = profile_figures(profiler)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
