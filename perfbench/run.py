"""The repository benchmark: paper-figure regeneration and serve traffic.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, report
    python3 perfbench/run.py --workload paper_quick   # one workload, report
    python3 perfbench/run.py --workload serve_keyed --seed 3 --seconds 20 \\
        --trace 0                                     # one measured run
    python3 perfbench/run.py --selftest               # checks the checks

A run measures whole passes of one workload for about ``--seconds``
seconds.  Each pass is a fresh process (``workloads.py``) that sets up,
runs the workload once and reports raw figures; this file aggregates
them.  With ``--trace 0`` every pass is untraced and the run reports the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` passes
cycle through three kinds: untraced, spans (timings of the calls into
each layer), and spans plus a per-package profile (whose own cost
inflates that pass, so only its shares are used).  The run reports the
per-layer metrics, including the tracing overhead: spans pass minus
untraced pass.

Every output is checked: each paper launch against its NumPy oracle,
each serve reply against ``repro.serve.demo.REFERENCE``, each pass's
digest of simulated statistics against the run's first pass, against
``golden.json`` on seed 0, and against the other paper workload's digest
(serve: the other serve workload's) for the same seed once both have
run in this checkout.  Any failure
makes the run exit 1.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper_quick", "paper_fork2", "serve_keyed", "serve_pool2")
PERCENTILES = ("p50_ms", "p99_ms")

#: A run must end within this many seconds (passes are killed after).
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), q in 0..100."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- passes -------------------------------------------------------------------
def run_pass(workload: str, seed: int, trace: int, deadline: float,
             extra=()) -> dict:
    """Run one pass in a fresh process; return its decoded report."""
    tmp = os.path.join(STATE, "tmp")
    out = os.path.join(STATE, "traces")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmp)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out, "--tmp", tmp,
           "--spawned", repr(time.monotonic()), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} pass overran the run's time limit")
    finally:
        # Forked workers of a crashed pass must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               extra=()) -> list:
    """Whole passes for about ``seconds``: another pass starts while the
    expected end stays within half a pass of the target.  Traced runs
    cycle through the three pass kinds and run each at least once."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        kind = len(passes) % 3 if trace else 0
        report = run_pass(workload, seed, kind, deadline, extra)
        report["kind"] = kind
        passes.append(report)
        elapsed = time.monotonic() - start
        mean = elapsed / len(passes)
        if trace and len(passes) < 3:
            continue
        if elapsed + mean / 2 >= seconds:
            return passes


# -- correctness --------------------------------------------------------------
def check_digests(workload: str, seed: int, passes: list,
                  size: tuple = ()) -> list:
    """Digest comparisons as ``(what, ok)`` pairs (see module doc)."""
    checks = []
    first = passes[0]["digest"]
    for i, p in enumerate(passes[1:], 1):
        checks.append((f"pass {i} digest equals pass 0", p["digest"] == first))
    family = workload.split("_")[0]
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    if family == "paper" and seed == golden["seed"]:
        cycles = passes[0]["cycles"]
        for label, want in golden["cycles"].items():
            if label in cycles:
                checks.append((f"golden cycles {label}",
                               cycles[label] == want))
        if not size:
            checks.append(("golden digest", first == golden["digest"]))
    # The workloads of a family run the same inputs on different
    # executors (paper) or service configurations (serve), so their
    # simulated statistics must agree: compare with the other's digest
    # for this seed and size once both have run in this checkout.
    tag = "-".join(a.strip("-").replace(",", "+") for a in size) or "full"
    path = os.path.join(STATE, "digests", f"{family}-seed{seed}-{tag}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    for other, d in seen.items():
        if other != workload:
            checks.append((f"digest equals {other}", d == first))
    clean = all(ok for _, ok in checks) and not any(p["failed"]
                                                    for p in passes)
    if clean:
        # Only a clean run's digest becomes a reference for the other.
        seen[workload] = first
        with open(path, "w") as fh:
            json.dump(seen, fh)
    return checks


# -- aggregation --------------------------------------------------------------
def end_to_end(passes: list) -> dict:
    """End-to-end metrics of untraced passes, with sample counts: medians
    over passes, and latency percentiles over every operation of every
    pass (a paper operation is one launch plus its check).  Times are in
    seconds at the reference interpreter speed (``workloads.py``:
    ``calibration_chunk``)."""
    ops = len(passes[0]["latencies"])
    wall = statistics.median(p["wall"] for p in passes)
    latencies = [x for p in passes for x in p["latencies"]]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes),
                    len(passes)),
        "wall_s": (wall, len(passes)),
        "launches_per_s": (ops / wall, len(passes)),
        "lane_steps_per_s": (passes[0]["sim"]["lane_steps"] / wall,
                             len(passes)),
        "p50_ms": (percentile(latencies, 50) * 1e3, len(latencies)),
        "p99_ms": (percentile(latencies, 99) * 1e3, len(latencies)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        len(passes)),
    }


def per_layer(untraced: list, traced: list, profiled: list) -> dict:
    """Per-layer metrics: span timings are medians over spans passes,
    package shares over profiled passes; the simulated statistics are
    identical in every pass (the digest checks it)."""

    def medians(figures):
        return {name: (statistics.median(f[name] for f in figures),
                       len(figures))
                for name, value in figures[0].items()
                if isinstance(value, (int, float))}

    out = medians([p["layers"] for p in traced])
    out.update(medians([p["profile"] for p in profiled]))
    sim = traced[0]["sim"]
    hits, misses = sim["l1_hits"], sim["l1_misses"]
    for name, value in {
        "gpu.lane_steps": sim["lane_steps"],
        "gpu.sim_cycles": sim["cycles"],
        "gpu.rounds": sim["rounds"],
        "gpu.issues": sim["issues"],
        "gpu.divergent_issues": sim["divergent_issues"],
        "gpu.l1_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "gpu.global_sectors": sim["global_load_sectors"]
        + sim["global_store_sectors"],
        "gpu.atomics": sim["atomics"],
        "gpu.syncwarps": sim["syncwarps"],
        "gpu.syncblocks": sim["syncblocks"],
        "runtime.simd_generic": sim["rt_simd_generic"],
        "runtime.simd_spmd": sim["rt_simd_spmd"],
        "runtime.worker_wakeups": sim["rt_worker_wakeups"],
        "runtime.simd_wakeups": sim["rt_simd_wakeups"],
        "runtime.sharing_fallbacks": sim["rt_sharing_fallbacks"],
        "serve.rejects": statistics.median(p.get("rejects", 0)
                                           for p in traced),
        "serve.retries": statistics.median(p.get("retries", 0)
                                           for p in traced),
        "perf.fig_err": traced[0]["fig_err"] or 0.0,
    }.items():
        out[name] = (value, 1)
    plain = end_to_end(untraced)
    hooked = end_to_end(traced)
    out["trace.overhead_wall_s"] = (
        hooked["wall_s"][0] - plain["wall_s"][0], len(traced))
    out["trace.overhead_launches_per_s"] = (
        hooked["launches_per_s"][0] - plain["launches_per_s"][0], len(traced))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: tuple = (), inject: tuple = ()) -> dict:
    """One benchmark run: passes, checks and metrics.  ``size`` shrinks
    the workload (self-test); ``inject`` adds a deliberate fault."""
    passes = run_passes(workload, seed, seconds, trace, size + inject)
    checks = check_digests(workload, seed, passes, size)
    attempted = sum(p["attempted"] for p in passes) + len(checks)
    failed = sum(p["failed"] for p in passes) + sum(
        not ok for _, ok in checks)
    untraced, traced, profiled = ([p for p in passes if p["kind"] == k]
                                  for k in range(3))
    return {
        "workload": workload,
        "passes": passes,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(untraced),
        "per_layer": per_layer(untraced, traced, profiled) if trace else {},
        "spans": traced[0]["layers"]["spans"] if trace else None,
        "packages": profiled[0]["profile"]["packages"] if trace else None,
        "profiled_wall_s": end_to_end(profiled)["wall_s"][0] if trace
        else None,
    }


# -- reporting ----------------------------------------------------------------
def metric_rows(result: dict, specs: list, kind: str) -> list:
    rows = []
    for spec in specs:
        value, n = result[kind][spec["name"]]
        rows.append((spec["name"], value, spec["unit"], spec["better"], n))
    return rows


def print_report(result: dict, spec: dict) -> None:
    w = result["workload"]
    print(f"== {w}: {len(result['passes'])} passes, "
          f"{result['attempted']} operations checked, "
          f"{result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for what, ok in result["checks"]:
        if not ok:
            print(f"   CHECK FAILED: {what}")
    raw = [p["raw"] for p in result["passes"] if p["kind"] == 0 and "raw" in p]
    if raw:
        print(f"  host speed: calibration chunk "
              f"{statistics.median(r['chunk_ms'] for r in raw):.3f} ms "
              f"(reference {raw[0]['ref_ms']} ms); unscaled wall_s "
              f"{statistics.median(r['wall'] for r in raw):.4g}, setup_s "
              f"{statistics.median(r['setup_s'] for r in raw):.4g}")
    kinds = [("end_to_end", "end-to-end (untraced passes)")]
    if result["per_layer"]:
        kinds.append(("per_layer", "per-layer (traced passes)"))
    for kind, title in kinds:
        print(f"  {title}:")
        for name, value, unit, better, n in metric_rows(
                result, spec[kind], kind):
            samples = f"  n={n}" if name in PERCENTILES else ""
            print(f"    {name:32s} {value:14.6g} {unit:7s} "
                  f"{better}-is-better{samples}")
    named = {m["name"] for m in spec["per_layer"]}
    extra = sorted(set(result["per_layer"]) - named)
    if extra:
        print("  other layer figures (multi-process paths):")
        for name in extra:
            print(f"    {name:32s} {result['per_layer'][name][0]:14.6g}")
    if result["spans"]:
        wall = result["end_to_end"]["wall_s"][0]
        print(f"  package self-time shares (profiled pass, wall_s "
              f"{result['profiled_wall_s']:.4g} vs {wall:.4g} untraced; all "
              f"threads of the pass process, forked workers not profiled):")
        for pkg, share in sorted(result["packages"].items(),
                                 key=lambda kv: -kv[1]):
            print(f"    {pkg:12s} {share:7.1%}")
        print("  spans (first spans pass): calls, inclusive s, self s")
        for name, row in result["spans"].items():
            print(f"    {name:28s} {row['calls']:7d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
        for p in result["passes"]:
            for path in p.get("trace_files", ()):
                print(f"  wrote {os.path.relpath(path, ROOT)}")


def result_line(results: list, specs: list, kind: str, prefix: bool) -> dict:
    metrics = {}
    for r in results:
        for m in specs:
            key = f"{r['workload']}/{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": r[kind][m["name"]][0], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def selftest(spec: dict) -> int:
    """Smallest-size checks of the benchmark's own checks."""
    tiny_paper = ("--series", "laplace3d,muram_transpose")
    tiny_serve = ("--clients", "4", "--requests", "16")
    ok = True

    def report(what: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {what}")

    emitted = {}
    for w in WORKLOADS:
        size = tiny_paper if w.startswith("paper") else tiny_serve
        r = measure(w, 0, 0, True, size)
        report(f"{w}: tiny traced run has no failures", r["failed"] == 0)
        emitted[w] = r
    for kind in ("end_to_end", "per_layer"):
        for w, r in emitted.items():
            missing = [m["name"] for m in spec[kind]
                       if m["name"] not in r[kind] or not m["unit"]]
            report(f"{w}: every {kind} metric emitted with a unit"
                   + (f" (missing {missing})" if missing else ""),
                   not missing)
    for a, b in (("paper_quick", "paper_fork2"),
                 ("serve_keyed", "serve_pool2")):
        report(f"{a} and {b} digests agree",
               emitted[a]["passes"][0]["digest"]
               == emitted[b]["passes"][0]["digest"])
    bad = measure("paper_fork2", 0, 0, False, tiny_paper, ("--perturb", "0"))
    report("a perturbed launch counter fails the digest check",
           bad["failed"] >= 1)
    bad = measure("serve_keyed", 0, 0, False, tiny_serve,
                  ("--corrupt-reply", "3"))
    report("one corrupted serve reply counts as exactly one failure",
           bad["failed"] == 1)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, as a report)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the pinned inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    # Terminate through SystemExit so a running pass's finally-block
    # kills its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    # A report (no --trace) runs traced, so it shows both metric kinds.
    trace = args.trace != 0
    results = []
    for w in workloads:
        r = measure(w, args.seed, seconds, trace)
        print_report(r, spec)
        results.append(r)
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    line = result_line(results, spec[kind], kind, prefix=len(results) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
